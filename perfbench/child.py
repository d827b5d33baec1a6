"""One repetition of a workload in a fresh interpreter.

The parent starts this script with ``src`` on PYTHONPATH and notes the
monotonic clock just before it does.  The first statement here imports the
CLI, so ``IMPORTED_AT`` minus that note is the set-up time a user of the
command pays.  The script then runs the workload's operations in sequence,
with tracing off unless ``--trace 1``, and prints one JSON object.

    python child.py --setup-only
    python child.py --workload NAME --seed N --trace 0|1
"""

import time

import quadrec.cli

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import decimal  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import quadrec.critical  # noqa: E402
import quadrec.recurrence  # noqa: E402
import quadrec.series_engine  # noqa: E402
import quadrec.sums  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = quadrec.cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code
    except Exception as exc:
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}", "stdout": out.getvalue()}
    if code != 0:
        return {"ok": False, "error": f"exit {code}: {err.getvalue().strip()}", "stdout": out.getvalue()}
    return {"ok": True, "stdout": out.getvalue()}


def run_lib(name: str, args: list):
    """Call a library function through its module, so tracing sees it."""
    if name == "s2_identity_check":
        return quadrec.sums.s2_identity_check(*args)
    if name == "iterate_exact":
        p, steps = args
        return quadrec.recurrence.iterate_exact(quadrec.recurrence.classify(p), steps)
    if name == "logistic_constant":
        return quadrec.critical.logistic_constant(quadrec.critical.estimate_constant(*args))
    if name == "fixed_point_defect":
        table = quadrec.series_engine.solve_coefficients(*args)
        return quadrec.series_engine.fixed_point_defect(table)
    raise ValueError(f"unknown library operation {name}")


def lib_evidence(name: str, result) -> dict:
    """What the gate checks of a library result, without printing huge values."""
    if name == "s2_identity_check":
        return {
            "n": result.n,
            "holds": result.holds,
            "partial": workloads.ratio_digest(result.partial.numerator, result.partial.denominator),
            "complement": workloads.ratio_digest(
                result.complement.numerator, result.complement.denominator
            ),
        }
    if name == "logistic_constant":
        c, exp_c_minus_1 = result
        return {"c": str(c), "exp_c_minus_1": str(exp_c_minus_1)}
    if name == "fixed_point_defect":
        return {"nonzero": sorted(str(key) for key, poly in result.terms.items() if not poly.is_zero)}
    last = result[-1]
    return {
        "ks": [s.k for s in result],
        "a": workloads.ratio_digest(last.a.numerator, last.a.denominator),
        "b": workloads.ratio_digest(last.b.numerator, last.b.denominator),
    }


def run_workload(workload: str, seed: int, traced: bool) -> dict:
    ops = workloads.build(workload, seed)
    recorder = None
    if traced:
        recorder = spans.Recorder(f"{workload}:{seed}")
        spans.install(recorder)
    outcomes, lib_results = [], {}
    started = time.perf_counter()
    for index, op in enumerate(ops):
        op_start = time.perf_counter()
        if op[0] == "cli":
            outcome = run_cli(op[1])
        else:
            try:
                lib_results[index] = run_lib(op[1], op[2])
                outcome = {"ok": True}
            except Exception as exc:
                outcome = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        outcome["seconds"] = time.perf_counter() - op_start
        outcomes.append(outcome)
    wall = time.perf_counter() - started
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # evidence is gathered after the timed region and the memory reading
    for index, result in lib_results.items():
        outcomes[index]["evidence"] = lib_evidence(ops[index][1], result)
    report = {"imported_at": IMPORTED_AT, "wall_s": wall, "peak_rss_kb": peak_kb, "ops": outcomes}
    if recorder is not None:
        report["spans"] = recorder.spans
        report["counters"] = recorder.counters()
    return report


def facts() -> dict:
    return {
        "imported_at": IMPORTED_AT,
        "quadrec_file": quadrec.cli.__file__,
        "python": sys.version.split()[0],
        "libmpdec": decimal.__libmpdec_version__,
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.setup_only:
        report = facts()
    else:
        report = run_workload(args.workload, args.seed, bool(args.trace))
    sys.stdout.write(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
