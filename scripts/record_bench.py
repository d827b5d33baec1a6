#!/usr/bin/env python3
"""Store one benchmark report as BENCH_<LABEL>.json at the repo root.

Usage:
    python scripts/record_bench.py LABEL
    python scripts/record_bench.py LABEL --against REV

Runs ``perfbench/run.py --workload all --trace 1`` (the one benchmark
harness) and keeps what it reports: its closing JSON line under
``result`` (the per-layer metrics) and, under ``workloads``, each
workload's run record from ``perfbench/out/`` without its raw spans
(machine facts, per-repetition wall times, per-operation seconds and every
end-to-end and per-layer metric).

With ``--against REV`` it first runs PAIRS alternating pairs of
``perfbench/run.py --workload all --seconds S --trace 0``, with S the
``run_seconds`` of ``BENCHMARK.json``, one on this checkout and one on the
commit REV, exported with ``git archive``
into a temporary directory that is removed afterwards (an export, unlike a
worktree, leaves nothing registered in ``.git`` if the run is cut short).
Within each pair the side that runs first alternates, so a drift of the
host's speed falls on both sides alike.  Under ``pairs`` the file then
holds, for every end-to-end metric of every workload, both sides' runs,
medians and interquartile ranges, the ratio of the medians (this checkout
over REV) and the number of pairs in which this checkout was better and
worse; a claimed gain or a no-regression claim reads these.

In every run the tree's own ``__pycache__`` directories under ``src/`` and
``perfbench/`` are deleted first and ``PYTHONDONTWRITEBYTECODE=1`` is set,
so no run reads bytecode left by an earlier version of the sources, while
the standard library keeps its bytecode (a fresh ``PYTHONPYCACHEPREFIX``
would make every child compile that too, and so inflate setup_s several
times).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"

#: Alternating pairs per --against record; a claimed gain must win nine in ten.
PAIRS = 10


def _run_bench(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the tree's own perfbench/run.py under the one bytecode policy."""
    for part in ("src", "perfbench"):
        for cache in list((tree / part).rglob("__pycache__")):
            shutil.rmtree(cache)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, str(tree / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "iqr": q3 - q1}


def summarize(change: list[dict], base: list[dict], better: dict[str, str]) -> dict:
    """Per-metric medians, IQRs and win counts of paired result lines.

    ``change[i]`` and ``base[i]`` are the closing JSON lines of pair i;
    ``better`` maps a metric name (without its workload prefix) to
    "lower" or "higher".
    """
    metrics = {}
    for key in change[0]["metrics"]:
        ours = [report["metrics"][key]["value"] for report in change]
        theirs = [report["metrics"][key]["value"] for report in base]
        direction = better[key.rsplit(".", 1)[-1]]
        sign = 1 if direction == "higher" else -1
        base_median = statistics.median(theirs)
        metrics[key] = {
            "better": direction,
            "change": _spread(ours),
            "base": _spread(theirs),
            "ratio": statistics.median(ours) / base_median if base_median else None,
            "wins": sum(sign * (a - b) > 0 for a, b in zip(ours, theirs)),
            "losses": sum(sign * (a - b) < 0 for a, b in zip(ours, theirs)),
        }
    return {
        "correct": {"change": [r["correct"] for r in change], "base": [r["correct"] for r in base]},
        "failed": {"change": [r["failed"] for r in change], "base": [r["failed"] for r in base]},
        "metrics": metrics,
    }


def _result_line(proc: subprocess.CompletedProcess, side: str) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"run.py on {side} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _paired_runs(rev: str) -> dict:
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = ["--workload", "all", "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    change, base = [], []
    with tempfile.TemporaryDirectory(prefix="record_bench-") as scratch:
        tree = Path(scratch)
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, capture_output=True, check=True)
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
        for pair in range(PAIRS):
            sides = [(ROOT, change, "this checkout"), (tree, base, rev)]
            for path, results, side in sides if pair % 2 == 0 else sides[::-1]:
                results.append(_result_line(_run_bench(path, *args), side))
            print(f"pair {pair + 1} of {PAIRS} done", file=sys.stderr)
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    return {
        "against": rev,
        "against_commit": sha,
        "command": f"python3 perfbench/run.py {' '.join(args)}",
        "count": PAIRS,
        **summarize(change, base, better),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("label", help="file label, e.g. 'baseline' gives BENCH_baseline.json")
    parser.add_argument("--against", metavar="REV", help="also run paired runs against commit REV")
    args = parser.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error("LABEL may hold only letters, digits, '_', '.' and '-'")

    pairs = None
    if args.against is not None:
        try:
            pairs = _paired_runs(args.against)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            print(f"paired runs failed: {exc}; nothing stored", file=sys.stderr)
            return 1

    proc = _run_bench(ROOT, "--workload", "all", "--trace", "1")
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print(f"run.py exited {proc.returncode}; nothing stored", file=sys.stderr)
        return proc.returncode

    result = json.loads(proc.stdout.strip().splitlines()[-1])
    records = {}
    for line in proc.stdout.splitlines():
        if line.startswith("== "):
            name = line.split()[1]
            record = json.loads((BENCH / "out" / f"{name}-seed0-trace1.json").read_text())
            record.pop("spans", None)
            records[name] = record
    report = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload all --trace 1",
        "result": result,
        "workloads": records,
    }
    if pairs is not None:
        report["pairs"] = pairs
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"stored {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
