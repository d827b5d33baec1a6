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
    assert "estimator error by depth and order" in result.stdout
    assert "(!) error above bound" not in result.stdout
    assert "Abel plan of deep critical-c requests" in result.stdout
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
