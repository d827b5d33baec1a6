"""The scripts run end to end against the library of this checkout.

Each runs in a child interpreter with ``src`` on ``PYTHONPATH``, so a
library name that a refactor moves or renames fails here, not at the next
reproduction run.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_reproduce_all_runs():
    result = _run_script("scripts/reproduce_all.py")
    assert result.returncode == 0, result.stderr
    assert "identically zero" in result.stdout


def test_scaling_study_runs_inside_its_bounds():
    result = _run_script("scripts/scaling_study.py", "--max-order", "6", "--max-depth-exp", "3")
    assert result.returncode == 0, result.stderr
    assert "orbit kernel steps per second" in result.stdout
    assert "telescope build by order" in result.stdout
    assert "order   seconds  at X_1e4 ms" in result.stdout
    assert "series at C by order (residual-check, 11 k's)" in result.stdout
    assert "estimator error by depth and order" in result.stdout
    assert "(!) error above bound" not in result.stdout
    assert "Abel plan of deep critical-c requests" in result.stdout
    assert "tail sums by depth" in result.stdout
    assert "rate-constant walk depth by q (p = q/2)" in result.stdout


def test_code_lines_total_is_the_sum_of_its_rows():
    result = _run_script("scripts/code_lines.py")
    assert result.returncode == 0, result.stderr
    *rows, total = (line.split() for line in result.stdout.splitlines())
    assert {name for name, _count in rows} >= {"cli.py", "sums.py", "__init__.py"}
    assert total[0] == "total"
    assert int(total[1]) == sum(int(count) for _name, count in rows)


def test_record_bench_drops_the_checkouts_bytecode_and_keeps_the_stdlibs(
    tmp_path, monkeypatch
):
    # on a copy of the tree, with the benchmark run itself replaced
    shutil.copytree(ROOT / "scripts", tmp_path / "scripts")
    planted = [tmp_path / "src" / "quadrec" / "__pycache__", tmp_path / "perfbench" / "__pycache__"]
    for cache in planted:
        cache.mkdir(parents=True)
        (cache / "cli.cpython-311.pyc").write_bytes(b"stale")
    spec = importlib.util.spec_from_file_location(
        "record_bench_copy", tmp_path / "scripts" / "record_bench.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    seen = []

    def fake_run(command, **kwargs):
        seen.append(kwargs["env"])
        return subprocess.CompletedProcess(command, 1, stdout="", stderr="")

    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setattr(module.subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["record_bench.py", "check"])
    assert module.main() == 1  # the fake run fails, so nothing is stored
    [env] = seen
    assert "PYTHONPYCACHEPREFIX" not in env
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert not any(cache.exists() for cache in planted)
    assert not (tmp_path / "BENCH_check.json").exists()


def _load_record_bench():
    spec = importlib.util.spec_from_file_location("record_bench", ROOT / "scripts" / "record_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(wall, digits, failed=0):
    """A synthetic closing line of ``perfbench/run.py --workload all --trace 0``."""
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "sums.wall_s": {"value": wall, "unit": "s"},
            "sums.certified_digits": {"value": digits, "unit": "count"},
        },
    }


def test_paired_summary_reads_medians_spreads_and_wins():
    record_bench = _load_record_bench()
    change = [_report(w, 92) for w in (0.010, 0.012, 0.011, 0.020, 0.009)]
    base = [_report(w, d) for w, d in ((0.020, 92), (0.018, 90), (0.022, 92), (0.019, 92), (0.021, 93))]
    summary = record_bench.summarize(change, base, {"wall_s": "lower", "certified_digits": "higher"})
    wall = summary["metrics"]["sums.wall_s"]
    assert wall["better"] == "lower"
    assert wall["change"]["runs"] == [0.010, 0.012, 0.011, 0.020, 0.009]
    assert wall["change"]["median"] == 0.011
    assert wall["base"]["median"] == 0.020
    # quartiles on the inclusive rule: 0.010 and 0.012, 0.019 and 0.021
    assert abs(wall["change"]["iqr"] - 0.002) < 1e-12
    assert abs(wall["base"]["iqr"] - 0.002) < 1e-12
    assert abs(wall["ratio"] - 0.55) < 1e-12
    # lower is better: the fourth pair (0.020 against 0.019) is a loss
    assert (wall["wins"], wall["losses"]) == (4, 1)
    digits = summary["metrics"]["sums.certified_digits"]
    # higher is better; equal pairs count as neither
    assert (digits["wins"], digits["losses"], digits["ratio"]) == (1, 1, 1.0)
    assert summary["correct"] == {"change": [True] * 5, "base": [True] * 5}
    assert summary["failed"] == {"change": [0] * 5, "base": [0] * 5}


def test_paired_summary_keeps_failed_runs_visible():
    record_bench = _load_record_bench()
    summary = record_bench.summarize(
        [_report(0.01, 92, failed=1), _report(0.01, 92)],
        [_report(0.02, 92), _report(0.02, 92)],
        {"wall_s": "lower", "certified_digits": "higher"},
    )
    assert summary["correct"]["change"] == [False, True]
    assert summary["failed"]["change"] == [1, 0]
