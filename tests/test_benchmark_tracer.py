"""The benchmark's tracer (perfbench/spans.py) must find every name it wraps
and read every result it describes."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_current_package():
    # install() replaces module attributes for the whole process, so it runs
    # in a child interpreter; a renamed or removed cross-layer name makes
    # getattr raise there
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import spans\n"
        "spans.install(spans.Recorder('t'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_tracer_reads_the_results_of_traced_calls():
    # the tracer reads attributes of the results it wraps (the truncation
    # bound's value, factors_used, terms_summed, ...); a changed result type
    # must fail here, not first in a benchmark run
    code = (
        "import contextlib, io, json, sys\n"
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]\n"
        "import spans\n"
        "import quadrec.cli, quadrec.critical\n"
        "recorder = spans.Recorder('t')\n"
        "spans.install(recorder)\n"
        "argvs = [\n"
        "    ['critical-c', '--N', '1000', '--order', '3', '--precision', '30'],\n"
        "    ['s1', '--digits', '4'],\n"
        "    ['rate-constant', '--p', '2/5', '--digits', '5'],\n"
        "    ['residual-check', '--N', '80', '--order', '2'],\n"
        "]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [quadrec.cli.main(argv) for argv in argvs]\n"
        "critical = quadrec.critical\n"
        "critical.logistic_constant(critical.estimate_constant(1000, 3, 30))\n"
        "metrics = spans.layer_metrics(recorder.spans, recorder.counters(), 0)\n"
        "print(json.dumps({'codes': codes, 'metrics': metrics}))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    metrics = report["metrics"]
    assert report["codes"] == [0, 0, 0, 0]
    # residual-check estimates its own C, then evaluates the series once per k
    assert metrics["critical.estimate_calls"] == 3
    assert metrics["series_engine.eval_coeffs_calls"] == 4  # k = 10, 20, 40, 80
    assert math.isfinite(metrics["critical.truncation_bound_log10"])
    assert metrics["critical.truncation_bound_log10"] < 0
    assert metrics["rate_constants.factors"] > 0
    assert metrics["sums.terms_summed"] > 0
