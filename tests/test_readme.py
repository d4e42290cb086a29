"""README's command-line examples, run through ``cli.main``.

Each ``$ jacobi-walk ...`` line of the first code block under "Command
line" (with its backslash continuations) is a command, and the lines after
it, up to a blank line, are exactly what it prints.
"""

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from jacobi_walk.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) for each example, in README order."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```$", section, re.S | re.M).group(1)
    found = []
    for example in block.replace("\\\n", " ").split("\n\n"):
        command, *output = example.strip("\n").split("\n")
        assert command.startswith("$ jacobi-walk "), command
        expected = "".join(f"{line}\n" for line in output)
        found.append((command.removeprefix("$ jacobi-walk "), expected))
    return found


def test_readme_shows_five_examples():
    heads = [shlex.split(command)[0] for command, _ in examples()]
    assert heads == ["coeffs", "transition", "transition", "simulate", "stationary"]


@pytest.mark.parametrize("command, expected", examples(), ids=[c for c, _ in examples()])
def test_readme_example_prints_what_readme_shows(command, expected):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(shlex.split(command)) == 0
    assert buffer.getvalue() == expected
