"""Command-line interface: every capability as a subcommand.

Output is a table rendered as CSV (default) or JSON; the two renderings of
the same run carry identical values.  Exact-mode cells are fraction strings
"p/q" in lowest terms (bare integers when the denominator is 1) and never
contain a decimal point; float-mode cells use repr's shortest round-trip
decimal form.  CSV has a header row, UTF-8, LF line endings.  JSON is an
array of row objects keyed by the column names, exact cells as strings.

CSV is the bytes csv.writer would write, made without it: ``render`` turns
each column into text with one map per column, floats through
float.__repr__ and each distinct index integer formatted once, and joins
the rows a block at a time.  No field ever needs quoting (names, numbers
and p/q text hold no comma, quote or line break), and a column shorter
than the table, as stationary's residual, prints empty cells.

Every command returns columns of three kinds: a range; a numpy array,
float64 for float values and integer for indices and counts; or a list of
text for exact cells.  The exact tables (coeffs, transition by matrix or
km, stationary, orthocheck) format each cell from a library core's integer
numerator and denominator as str(Fraction) prints it, without forming a
Fraction, and ``eval`` takes str() of the Fractions of its exact sweep.
The exact transition rows are ``chain._row``'s numerators and
denominators of the chosen route's core.  The float ones come from the
public ``matrix_power_row`` and ``spectral_transition_row``, wrapped once
in an array, rather than from ``_row``: CI's traced benchmark step counts
those public calls.

Exit codes: 0 success, 2 argument error (message names the offending
flag; an unwritable --output counts as one), 3 numerical failure (e.g. a
Gauss rule whose one-step law overflows binary64, whose weight's total
mass or some of whose weights underflow to 0.0 or whose nodes fail the
root-count check or round onto one double, an inf or nan float cell, which
is never printed and is named by the first such cell in row order, or an
exponent too large for the arithmetic) or an allocation the machine
refuses ("out of memory"); the stderr line carries the error's message,
or its type name when it has none, and nothing is written to the output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache
from itertools import repeat, zip_longest

import numpy as np

from .chain import (
    _power_row,
    _residual_terms,
    _row,
    _spectral_row,
    matrix_power_row,
    spectral_transition_row,
)
from .integrate import _exact_spectral_terms, gauss_jacobi_rule, orthonormality_table
from .model import ENGINES, ModelParams, NumericalError, check_int
from .polynomials import _law_table, _poly_values, _ratios, _step_table, poly_table
from .urn import binomial_estimate, terminal_state_counts

__all__ = ["main"]


class UsageError(Exception):
    """Bad argument combination detected after parsing; exits with code 2."""


def _ratio_text(num: int, den: int) -> str:
    """str(Fraction(num, den)), formed from the integers without the Fraction.

    Lowest terms with the sign on the numerator, and a bare integer when the
    reduced denominator is 1; a zero denominator raises ZeroDivisionError.
    """
    if not den:
        raise ZeroDivisionError(f"Fraction({num}, 0)")
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def _texts(nums, dens) -> list[str]:
    """Exact cells nums[k] / dens[k] as text; one int ``dens`` serves every cell."""
    return list(map(_ratio_text, nums, repeat(dens) if isinstance(dens, int) else dens))


def _int_at_least(minimum: int):
    """argparse type for integers >= minimum; argparse names the flag."""

    def parse(text: str) -> int:
        try:
            return check_int(int(text), "value", minimum)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
            ) from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobi-walk",
        description=(
            "Birth-and-death random walk on the nonnegative integers whose "
            "one-step probabilities are Jacobi-polynomial recurrence "
            "coefficients: tables, closed-form dynamics, urn simulation."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--alpha", type=_int_at_least(0), default=0, help="weight exponent of x (default 0)"
    )
    common.add_argument(
        "--beta", type=_int_at_least(0), default=0, help="weight exponent of 1-x (default 0)"
    )
    common.add_argument(
        "--engine",
        choices=ENGINES,
        default="float",
        help="arithmetic engine (default float; exact = rational)",
    )
    common.add_argument(
        "--format",
        choices=("csv", "json"),
        default="csv",
        help="output format (default csv)",
    )
    common.add_argument(
        "--output",
        default="-",
        help="output path, or - for stdout (default)",
    )

    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "coeffs", parents=[common], help="one-step law (up, stay, down) per state"
    )
    p.add_argument("--n-max", type=_int_at_least(0), required=True, help="largest state")
    p.set_defaults(run=cmd_coeffs)

    p = sub.add_parser(
        "eval", parents=[common], help="values of the walk polynomials at a point"
    )
    p.add_argument("--n-max", type=_int_at_least(0), required=True, help="largest degree")
    p.add_argument(
        "--x",
        required=True,
        help="evaluation point in [0, 1]; accepts decimals or fractions like 3/8",
    )
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser(
        "transition", parents=[common], help="t-step transition row from a start state"
    )
    p.add_argument("--t", type=_int_at_least(0), required=True, help="number of steps")
    p.add_argument("--i", type=_int_at_least(0), required=True, help="start state")
    p.add_argument("--j-max", type=_int_at_least(0), required=True, help="largest end state")
    p.add_argument(
        "--method",
        choices=("km", "matrix", "mc"),
        default="matrix",
        help="matrix = banded power (default), km = spectral integral, mc = Monte Carlo",
    )
    p.add_argument("--trajectories", type=_int_at_least(1), help="Monte Carlo sample size")
    p.add_argument("--seed", type=_int_at_least(0), help="Monte Carlo master seed")
    p.add_argument(
        "--threads", type=_int_at_least(1), help="worker threads for --method mc (default 1)"
    )
    p.set_defaults(run=cmd_transition)

    p = sub.add_parser(
        "stationary", parents=[common], help="invariant measure and fixed-point residuals"
    )
    p.add_argument("--n-max", type=_int_at_least(1), required=True, help="largest state")
    p.set_defaults(run=cmd_stationary)

    p = sub.add_parser(
        "orthocheck", parents=[common], help="normalized Gram matrix of the polynomials"
    )
    p.add_argument("--i-max", type=_int_at_least(0), required=True, help="largest degree")
    p.set_defaults(run=cmd_orthocheck)

    p = sub.add_parser(
        "simulate", parents=[common], help="urn-mechanism ensemble, terminal-state histogram"
    )
    p.add_argument("--n0", type=_int_at_least(0), required=True, help="start state")
    p.add_argument("--t", type=_int_at_least(0), required=True, help="number of steps")
    p.add_argument(
        "--trajectories", type=_int_at_least(1), required=True, help="number of trajectories"
    )
    p.add_argument("--seed", type=_int_at_least(0), required=True, help="master seed")
    p.add_argument("--threads", type=_int_at_least(1), default=1, help="worker threads")
    p.set_defaults(run=cmd_simulate)

    p = sub.add_parser(
        "quadrule", parents=[common], help="Gauss rule nodes and weights for the weight"
    )
    p.add_argument("--points", type=_int_at_least(1), required=True, help="number of nodes")
    p.set_defaults(run=cmd_quadrule)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call and kept.

    Parsing does not change the parser, so one serves every later call
    (building it takes about twenty times as long as a parse).
    """
    return build_parser()


def _require_float_engine(args, context: str) -> None:
    if args.engine == "exact":
        raise UsageError(f"--engine exact is not available for {context}; drop the flag")


def cmd_coeffs(args, params: ModelParams) -> dict:
    if args.engine == "exact":
        (nu, du), (ns, ds), (nd, dd) = law = _law_table(args.n_max, params, "exact")
        # the sum in integers over the product of the three denominators
        law += ((nu * ds * dd + ns * du * dd + nd * du * ds, du * ds * dd),)
        up, stay, down, total = (_texts(nums, dens) for nums, dens in law)
    else:  # the float sum adds up + stay + down in the order of StepCoefficients.total
        up, stay, down = _step_table(args.n_max, params, "float")
        total = up + stay + down
    return {"n": range(args.n_max + 1), "up": up, "stay": stay, "down": down, "sum": total}


def cmd_eval(args, params: ModelParams) -> dict:
    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--x must be a number or fraction, got {args.x!r}") from None
    if not 0 <= x <= 1:
        raise UsageError(f"--x must lie in [0, 1], got {args.x}")
    if args.engine == "exact":  # the sweep runs on Fractions; render takes their text
        values = list(map(str, _poly_values(args.n_max, x, params, "exact")))
    else:
        values = poly_table(args.n_max, [x], params)[:, 0]
    return {"n": range(args.n_max + 1), "value": values}


def _ensemble(args, params: ModelParams, start: int, context: str, states=None) -> tuple:
    """Urn-ensemble hit counts of states 0..states-1 (default: every state the
    walk reaches), zero past its reach, and their binomial estimates."""
    _require_float_engine(args, context)
    counts = terminal_state_counts(
        start, args.t, params, args.trajectories, args.seed, threads=args.threads or 1
    )
    hits = np.zeros(states or counts.size, dtype=counts.dtype)
    hits[: counts.size] = counts[: hits.size]
    return hits, *binomial_estimate(hits, args.trajectories)


def cmd_transition(args, params: ModelParams) -> dict:
    states = range(args.j_max + 1)
    if args.method in ("km", "matrix"):
        mc_flags = ("--trajectories", "--seed", "--threads")
        given = [flag for flag in mc_flags if getattr(args, flag[2:]) is not None]
        if given:
            raise UsageError(f"--method {args.method} takes no {', '.join(given)} (mc only)")
        if args.method == "km":
            core, public = _spectral_row, spectral_transition_row
        else:
            core, public = _power_row, matrix_power_row
        if args.engine == "exact":
            row = _texts(*_row(core, args.t, args.i, states, params, "exact"))
        else:
            row = public(t=args.t, i=args.i, j_max=args.j_max, params=params, engine="float")
            row = np.array(row)
        return {"j": states, "probability": row}
    if args.trajectories is None or args.seed is None:
        raise UsageError("--method mc requires --trajectories and --seed")
    _, estimate, stderr = _ensemble(args, params, args.i, "--method mc", len(states))
    return {"j": states, "probability": estimate, "stderr": stderr}


def cmd_stationary(args, params: ModelParams) -> dict:
    (pi, scale), (errors, scaled) = _residual_terms(args.n_max + 1, params, args.engine)
    if args.engine == "exact":
        pi, residuals = _texts(pi, scale), _texts(errors, scaled)
    else:
        residuals = _ratios(errors, scaled, "float")
    return {"i": range(args.n_max + 1), "pi": pi, "residual": residuals}


def cmd_orthocheck(args, params: ModelParams) -> dict:
    if args.engine == "exact":
        degrees = range(args.i_max + 1)
        value = _texts(*_exact_spectral_terms(0, degrees, degrees, params))
    else:
        value = np.ravel(orthonormality_table(args.i_max, params, "float"))
    i, j = np.divmod(np.arange((args.i_max + 1) ** 2), args.i_max + 1)
    return {"i": i, "j": j, "value": value}


def cmd_simulate(args, params: ModelParams) -> dict:
    hits, estimate, stderr = _ensemble(args, params, args.n0, "simulate")
    return {"state": range(hits.size), "count": hits, "estimate": estimate, "stderr": stderr}


def cmd_quadrule(args, params: ModelParams) -> dict:
    _require_float_engine(args, "quadrule")
    rule = gauss_jacobi_rule(args.points, params)
    return {"index": range(args.points), "node": rule.nodes, "weight": rule.weights}


def _check_finite(columns: dict) -> None:
    """Raise NumericalError naming a table's first inf or nan cell in row order.

    Only float64 arrays are checked: a range, an integer array or exact text
    has no inf or nan to find.
    """
    bad = {}
    for name, column in columns.items():
        if getattr(column, "dtype", None) == np.float64:
            finite = np.isfinite(column)
            if not finite.all():
                bad[name] = finite.argmin()
    if bad:
        name = min(bad, key=bad.get)  # of equal rows, min keeps the leftmost column
        key, row = next(iter(columns)), bad[name]
        value = float(columns[name][row])
        raise NumericalError(f"{name} is {value!r} at {key}={columns[key][row]}")


def _cells(column) -> list:
    """A column's cells as JSON prints them: plain ints, floats and text."""
    # tolist yields plain ints and floats
    return column.tolist() if isinstance(column, np.ndarray) else column


def _csv_texts(column, rows: int):
    """The function from a slice of rows to a column's CSV fields there.

    A column is one of three kinds.  A float64 array prints through
    float.__repr__; an index column (a range, or integers in 0..rows-1 such
    as orthocheck's divmod pair) formats each distinct integer once, through
    a list no longer than the table, and other integers through
    int.__repr__; a list holds exact text and passes as it is.
    """
    if isinstance(column, range):
        return lambda block: map(str, column[block])
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            text = float.__repr__
        elif column.size and 0 <= column.min() and column.max() < rows:
            text = list(map(str, range(column.max() + 1))).__getitem__
        else:
            text = int.__repr__
        return lambda block: map(text, column[block].tolist())
    return lambda block: column[block]


# rows turned into text and joined at a time: the fields of one block are
# alive at once, not those of the whole table
_BLOCK_ROWS = 2048


def render(columns: dict, fmt: str) -> str:
    if fmt == "json":
        # zip_longest fills a short column with None, which JSON prints as null
        rows = zip_longest(*map(_cells, columns.values()))
        return json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    # the bytes csv.writer(lineterminator="\n") writes, made column by column
    # a block of rows at a time: no field ever needs quoting, floats print
    # through float.__repr__, and a short column's missing cells print empty
    rows = max(map(len, columns.values()))
    texts = [_csv_texts(column, rows) for column in columns.values()]
    lines = [",".join(columns)]
    for start in range(0, rows, _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        fields = zip_longest(*(text(block) for text in texts), fillvalue="")
        lines.append("\n".join(map(",".join, fields)))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    """Run one command; the exit code.  Exact text may run past CPython's
    4300-digit limit on int-text conversion, so the limit is lifted for the
    run and the caller's restored; Pythons before 3.10.7 have none."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lift = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    lift(0)
    try:
        return _run(argv)
    finally:
        lift(limit)


def _run(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        columns = args.run(args, ModelParams(args.alpha, args.beta))
        _check_finite(columns)
        text = render(columns, args.format)
    except UsageError as exc:
        print(f"jacobi-walk: error: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, OverflowError, ZeroDivisionError, MemoryError) as exc:
        kind = "out of memory" if isinstance(exc, MemoryError) else "numerical failure"
        print(f"jacobi-walk: {kind}: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    if args.output == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"jacobi-walk: error: --output {args.output}: {exc.strerror}", file=sys.stderr)
        return 2
    return 0
