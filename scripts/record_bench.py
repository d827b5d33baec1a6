#!/usr/bin/env python3
"""Store one benchmark report as BENCH_<LABEL>.json at the repo root.

Usage:
    python scripts/record_bench.py LABEL

Runs ``perfbench/run.py --workload all --trace 1`` (the one benchmark
harness) and keeps what it reports: its closing JSON line under
``result`` (the per-layer metrics) and, under ``workloads``, each
workload's run record from ``perfbench/out/`` without its raw spans
(machine facts, per-repetition wall times, per-operation seconds and every
end-to-end and per-layer metric).  Two files made by this script on the
same machine are the before/after evidence for a speed claim.  The
checkout's own ``__pycache__`` directories under ``src/`` and
``perfbench/`` are deleted first and the run sets
``PYTHONDONTWRITEBYTECODE=1``, so it never reads bytecode left by an
earlier version of the sources, while the standard library keeps its
bytecode (a fresh ``PYTHONPYCACHEPREFIX`` would make every child compile
that too, and so inflate setup_s several times).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("label", help="file label, e.g. 'baseline' gives BENCH_baseline.json")
    args = parser.parse_args()
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error("LABEL may hold only letters, digits, '_', '.' and '-'")

    command = [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--trace", "1"]
    for tree in ("src", "perfbench"):
        for cache in list((ROOT / tree).rglob("__pycache__")):
            shutil.rmtree(cache)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
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
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"stored {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
