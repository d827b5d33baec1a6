#!/usr/bin/env python3
"""The quadrec benchmark: time and digits per second to certified constants.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --trace 1     # every metric, every workload

Run from anywhere; the program under test is the ``src/quadrec`` beside this
directory.  Each repetition runs the workload's operation list in a fresh
single-threaded interpreter (``child.py``), so module caches start cold as
they do for every CLI call.  Repetitions continue for ``--seconds`` (at
least two).  With ``--trace 1`` untraced and traced repetitions
alternate: the untraced ones give the end-to-end numbers and the tracing
overhead, the traced ones the per-layer numbers.  The correctness gate
(``gate.py``) checks every output after the timed region.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it are the readable
report, and ``perfbench/out/`` keeps each run's record and spans.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# metric names and units, in report order
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SETUP_PER_ROUND = 3
MIN_ROUNDS = 2
RUN_LIMIT_S = 170

class BenchError(Exception):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run child.py once and return its report, with ``setup_s`` added."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=env,
            cwd=HERE.parent,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition {args} did not finish within the run limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["imported_at"] - started
    return report


def machine_facts(child_facts: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": child_facts["python"],
        "libmpdec": child_facts["libmpdec"],
        "int_max_str_digits": child_facts["int_max_str_digits"],
    }


def run_gate(ops: list[tuple], reps: list[dict]) -> dict:
    """Check every operation of every repetition; see gate.py."""
    verdicts: dict[tuple[int, str], str | None] = {}
    first = [rep_output(outcome) for outcome in reps[0]["ops"]]
    attempted = failed = 0
    problems, known = [], set()
    for rep in reps:
        rep["certified_digits"] = 0
        for index, (op, outcome) in enumerate(zip(ops, rep["ops"])):
            attempted += 1
            if not outcome["ok"]:
                reason = outcome["error"]
                if gate.is_known_defect(op, outcome):
                    known.add(f"{workloads.op_label(op)}: {reason.splitlines()[0]}")
                    reason = None
            else:
                output = rep_output(outcome)
                key = (index, output)
                if key not in verdicts:
                    verdicts[key] = gate.check(op, outcome)
                reason = verdicts[key]
                if reason is None and output != first[index]:
                    reason = "output differs between repetitions of the same seed"
                if reason is None:
                    rep["certified_digits"] += gate.certified_digits(op, outcome)
                    continue
            failed += 1
            if reason is not None:
                problems.append(f"{workloads.op_label(op)}: {reason}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": sorted(set(problems)),
        "known_defects": sorted(known),
    }


def rep_output(outcome: dict) -> str | None:
    if not outcome["ok"]:
        return None
    if "stdout" in outcome:
        return outcome["stdout"]
    return json.dumps(outcome["evidence"], sort_keys=True)


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    if not (SRC / "quadrec" / "__init__.py").is_file():
        raise BenchError(f"no quadrec sources at {SRC}")
    run_deadline = time.monotonic() + RUN_LIMIT_S
    # the first start-up compiles bytecode and is not a sample
    child_facts = spawn(["--setup-only"], run_deadline)
    if Path(child_facts["quadrec_file"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"quadrec was imported from {child_facts['quadrec_file']}, not {SRC}")
    ops = workloads.build(workload, seed)
    child_args = ["--workload", workload, "--seed", str(seed), "--trace"]
    modes = ["0", "1"] if traced else ["0"]
    reps, setup, rounds = [], [], []
    measure_until = time.monotonic() + seconds
    # a round is one repetition per mode plus a few start-ups; no round
    # starts that would end after --seconds, once MIN_ROUNDS are done
    while len(rounds) < MIN_ROUNDS or time.monotonic() + statistics.median(rounds) <= measure_until:
        round_start = time.monotonic()
        for mode in modes:
            rep = spawn(child_args + [mode], run_deadline)
            rep["traced"] = mode == "1"
            reps.append(rep)
            setup.append(rep["setup_s"])
        setup += [spawn(["--setup-only"], run_deadline)["setup_s"] for _ in range(SETUP_PER_ROUND)]
        rounds.append(time.monotonic() - round_start)
    verdict = run_gate(ops, reps)

    plain = [r for r in reps if not r["traced"]]
    per_rep = {
        "wall_s": [r["wall_s"] for r in plain],
        "certified_digits": [r["certified_digits"] for r in plain],
        "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in plain],
        "setup_s": setup,
    }
    # Times are means over the run.  The host's speed switches between two
    # levels for tens of seconds at a time; a median then jumps between the
    # levels, while a mean follows the share of time spent at each and so
    # varies less from run to run.
    metrics = {
        "wall_s": statistics.mean(per_rep["wall_s"]),
        "setup_s": statistics.median(setup),
        "certified_digits": statistics.median(per_rep["certified_digits"]),
        "digits_per_s": sum(per_rep["certified_digits"]) / sum(per_rep["wall_s"]),
        "peak_rss_mb": statistics.median(per_rep["peak_rss_mb"]),
        "ops_ok_frac": 1 - verdict["failed"] / verdict["attempted"],
    }
    traced_reps = [r for r in reps if r["traced"]]
    if traced_reps:
        layer_reps = [
            spans.layer_metrics(
                r["spans"], r["counters"], sum(len(o.get("stdout", "").encode()) for o in r["ops"])
            )
            for r in traced_reps
        ]
        for name in layer_reps[0]:
            metrics[name] = statistics.mean(m[name] for m in layer_reps)
        traced_wall = statistics.mean(r["wall_s"] for r in traced_reps)
        metrics["trace_overhead_frac"] = traced_wall / metrics["wall_s"] - 1

    op_seconds = [statistics.mean(r["ops"][i]["seconds"] for r in plain) for i in range(len(ops))]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": traced,
        "machine": machine_facts(child_facts),
        "operations": [workloads.op_label(op) for op in ops],
        "op_seconds": op_seconds,
        "repetitions": {"untraced": len(plain), "traced": len(reps) - len(plain), "setup": len(setup)},
        "per_rep": per_rep,
        "metrics": metrics,
        **verdict,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(traced)}.json"
    record["spans"] = [s for r in reps if r["traced"] for s in r["spans"]]
    path.write_text(json.dumps(record, indent=1))
    del record["spans"]
    return record


def print_report(record: dict) -> None:
    m = record["machine"]
    reps = record["repetitions"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {int(record['trace'])}")
    print(
        f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
        f"libmpdec={m['libmpdec']} int_max_str_digits={m['int_max_str_digits']}"
    )
    walls = record["per_rep"]["wall_s"]
    print(
        f"wall_s over {len(walls)} untraced repetitions: min {min(walls):.4f}  "
        f"median {statistics.median(walls):.4f}  mean {statistics.mean(walls):.4f}  max {max(walls):.4f}"
    )
    print("operations (mean seconds):")
    for label, seconds in zip(record["operations"], record["op_seconds"]):
        print(f"  {seconds:9.4f}  {label}")
    print(
        f"correctness gate: {'pass' if record['correct'] else 'FAIL'}; "
        f"{record['failed']} of {record['attempted']} operations failed"
    )
    for problem in record["problems"]:
        print(f"  wrong: {problem}")
    for defect in record["known_defects"]:
        print(f"  known defect: {defect}")
    metrics = record["metrics"]
    print(f"end-to-end (setup_s is the median of {reps['setup']} start-ups):")
    for metric in SPEC["end_to_end"]:
        print(f"  {metric['name']:34s} {metrics[metric['name']]:.6g} {metric['unit']}")
    print(f"  {'ops_failed_frac':34s} {1 - metrics['ops_ok_frac']:.6g} ratio")
    if record["trace"]:
        print(f"per-layer (mean of {reps['traced']} traced repetitions):")
        for metric in SPEC["per_layer"]:
            print(f"  {metric['name']:34s} {metrics[metric['name']]:.6g} {metric['unit']}")


def result_line(records: list[dict], traced: bool) -> str:
    chosen = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    prefix = len(records) > 1
    metrics = {}
    for record in records:
        for metric in chosen:
            name = metric["name"]
            key = f"{record['workload']}.{name}" if prefix else name
            metrics[key] = {"value": record["metrics"][name], "unit": metric["unit"]}
    return json.dumps(
        {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": metrics,
        }
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            print_report(record)
            records.append(record)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(result_line(records, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
