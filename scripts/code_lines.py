#!/usr/bin/env python3
"""Count the code lines of each module of the package, and their total.

A code line is one that is not blank, not a comment alone and not inside
a module, class or function docstring.

Usage:
    python scripts/code_lines.py
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quadrec"

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skipped = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#") and number not in skipped
    )


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<20}{count:>6}")
    print(f"{'total':<20}{total:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
