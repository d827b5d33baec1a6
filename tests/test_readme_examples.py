"""The README's `$ quadrec ...` examples print exactly what the CLI prints."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

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
