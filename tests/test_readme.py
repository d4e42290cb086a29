"""README's command-line examples and Gauss-rule refusals, run through ``cli.main``.

Each ``$ jacobi-walk ...`` line of the first code block under "Command
line" (with its backslash continuations) is a command, and the lines after
it, up to a blank line, are exactly what it prints.  Refusals 1-5 of the
list that follows give a reason and a command that meets it, which exits 3
with that reason.
"""

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
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


# README's refusals 1-5 as (reason, command): an N in the reason stands for
# a count and "..." for the rest of the line; README writes item 1's 10^200
# as "10^200 (written out in digits)"
REFUSALS = [
    ("the one-step law overflows binary64", f"quadrule --points 3 --alpha {10**200}"),
    ("the weight's total mass underflows to 0.0", "quadrule --points 3 --alpha 1000 --beta 1000"),
    (
        "N nodes round to the one double 0.9999999999999999; ...",
        "quadrule --points 5 --alpha 100000000000000000000",
    ),
    ("N weights underflow binary64", "quadrule --points 600 --alpha 1000 --beta 5"),
    ("N nodes stall at binary64's resolution; ...", "quadrule --points 141 --alpha 1000000000000"),
]


# a numbered refusal with its command, and item 1's power of ten
ITEM = re.compile(r" \d\. `([^`]*)`, e\.g\. `([^`]*)`(?: 10\^(\d+) \(written out in digits\))?")


def readme_refusals() -> list[tuple[str, str]]:
    """(reason, command) of each numbered refusal that README gives a command for."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    return [
        (reason, f"{command} {10 ** int(power)}" if power else command)
        for reason, command, power in ITEM.findall(text)
    ]


def test_readme_lists_the_refusals_tested_here():
    assert readme_refusals() == REFUSALS


@pytest.mark.parametrize("reason, command", REFUSALS, ids=[r for r, _ in REFUSALS])
def test_refusal_command_exits_3_with_its_reason(reason, command):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        assert main(shlex.split(command)) == 3
    pattern = re.escape(reason).replace(r"\.\.\.", ".+")
    if reason.startswith("N "):
        pattern = r"\d+" + pattern[1:]
    prefix = f"jacobi-walk: numerical failure: Gauss rule of order {shlex.split(command)[2]}: "
    assert stdout.getvalue() == ""
    (line,) = stderr.getvalue().splitlines()
    assert line.startswith(prefix) and re.fullmatch(pattern, line.removeprefix(prefix)), line
