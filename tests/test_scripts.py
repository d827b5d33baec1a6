"""The scripts run end to end against the library of this checkout.

Each runs in a child interpreter with ``src`` on ``PYTHONPATH``, so a
library name that a refactor moves or renames fails here, not at the next
reproduction run.
"""

from __future__ import annotations

import os
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
    assert "telescope build by order" in result.stdout
    assert "estimator error by depth and order" in result.stdout
    assert "(!) error above bound" not in result.stdout
    assert "rate-constant walk depth by q (p = q/2)" in result.stdout


def test_code_lines_total_is_the_sum_of_its_rows():
    result = _run_script("scripts/code_lines.py")
    assert result.returncode == 0, result.stderr
    *rows, total = (line.split() for line in result.stdout.splitlines())
    assert {name for name, _count in rows} >= {"cli.py", "sums.py", "__init__.py"}
    assert total[0] == "total"
    assert int(total[1]) == sum(int(count) for _name, count in rows)
