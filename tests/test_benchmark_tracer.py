"""The benchmark's tracer (perfbench/spans.py) must find every name it wraps."""

from __future__ import annotations

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
