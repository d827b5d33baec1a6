"""The README's examples run as written: every `$ quadrec ...` example prints
exactly what the CLI prints, and the library tour gives the values its
comments state."""

from __future__ import annotations

import ast
import re
import shlex
import types
from fractions import Fraction
from pathlib import Path

import pytest

import quadrec
from quadrec.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for every `$ quadrec` line in a code fence.

    The expected output is every line after the command up to the next `$`
    line or the end of the fence, with trailing blank lines dropped.
    """
    examples = []
    for fence in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S):
        command, lines = None, []
        for line in fence.splitlines() + ["$"]:
            if line.startswith("$"):
                if command is not None:
                    examples.append((command, "\n".join(lines).rstrip("\n") + "\n"))
                command = line[1:].strip() if line.startswith("$ quadrec ") else None
                lines = []
            else:
                lines.append(line)
    return examples


EXAMPLES = _examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 2


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example_output(capsys, command, expected):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected


def _library_tour() -> str:
    """The code of the first ```python fence under "## Library tour"."""
    section = README.read_text().split("## Library tour", 1)[1]
    return re.search(r"^```python\n(.*?)^```", section, re.M | re.S).group(1)


def test_library_tour_gives_the_values_its_comments_state():
    # run the tour statement by statement, keeping the value of each bare
    # expression under its source text
    namespace, values = {}, {}
    for node in ast.parse(_library_tour()).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.unparse(node.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), namespace)
    assert values["[s.a for s in orbit]"] == [0, Fraction(1, 2), Fraction(5, 8), Fraction(89, 128)]
    assert values["table.entry(3, 1).format_str()"] == "-2*C + 2"
    assert values["fixed_point_defect(table, order=6).terms"] == {}
    assert values["res.digit_string(15)"] == "0.237646658969724"
    assert values["s2.value.digit_string(15)"] == "0.500000000000000"


def test_the_package_exports_exactly_its_public_names():
    assert [name for name in quadrec.__all__ if not hasattr(quadrec, name)] == []
    public = {
        name
        for name, value in vars(quadrec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(quadrec.__all__)
