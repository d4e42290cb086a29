"""Command-line interface: every capability as a subcommand.

Output is a table rendered as CSV (default) or JSON; the two renderings of
the same run carry identical values.  Exact-mode cells are fraction strings
"p/q" in lowest terms (bare integers when the denominator is 1) and never
contain a decimal point; float-mode cells use repr's shortest round-trip
decimal form.  CSV has a header row, UTF-8, LF line endings.  JSON is an
array of row objects keyed by the column names.

Exit codes: 0 success, 2 argument error (message names the offending
flag; an unwritable --output counts as one), 3 numerical failure (e.g. a
Gauss rule whose weight's total mass underflows to 0.0 or whose nodes fail
the root-count check, or a float cell that came out inf or nan, which is
never printed).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from functools import cache

from .chain import matrix_power_row, spectral_transition_row, stationarity_residuals
from .integrate import gauss_jacobi_rule, orthonormality_table
from .model import ModelParams, NumericalError, check_int
from .polynomials import eval_poly, poly_table, step_coefficients
from .urn import binomial_estimate, terminal_state_counts

__all__ = ["main"]


class UsageError(Exception):
    """Bad argument combination detected after parsing; exits with code 2."""


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
        choices=("float", "exact"),
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
        default="km",
        help="km = spectral integral (default), matrix = banded power, mc = Monte Carlo",
    )
    p.add_argument("--trajectories", type=_int_at_least(1), help="Monte Carlo sample size")
    p.add_argument("--seed", type=_int_at_least(0), help="Monte Carlo master seed")
    p.add_argument(
        "--threads", type=_int_at_least(1), default=1, help="worker threads for --method mc"
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


def cmd_coeffs(args) -> tuple[list[str], list[list]]:
    params = ModelParams(args.alpha, args.beta)
    rows = []
    for n in range(args.n_max + 1):
        c = step_coefficients(n, params, args.engine)
        rows.append([n, c.up, c.stay, c.down, c.total])
    return ["n", "up", "stay", "down", "sum"], rows


def cmd_eval(args) -> tuple[list[str], list[list]]:
    params = ModelParams(args.alpha, args.beta)
    try:
        x = Fraction(args.x)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"--x must be a number or fraction, got {args.x!r}") from None
    if not 0 <= x <= 1:
        raise UsageError(f"--x must lie in [0, 1], got {args.x}")
    if args.engine == "exact":
        values = [eval_poly(n, x, params, "exact") for n in range(args.n_max + 1)]
    else:
        values = [float(v) for v in poly_table(args.n_max, [float(x)], params)[:, 0]]
    return ["n", "value"], [[n, v] for n, v in enumerate(values)]


def cmd_transition(args) -> tuple[list[str], list[list]]:
    params = ModelParams(args.alpha, args.beta)
    if args.method in ("km", "matrix"):
        if args.method == "km":
            row = spectral_transition_row(args.t, args.i, params, args.j_max, args.engine)
        else:
            row = matrix_power_row(args.t, args.i, args.j_max, params, args.engine)
        return ["j", "probability"], [[j, p] for j, p in enumerate(row)]
    if args.trajectories is None or args.seed is None:
        raise UsageError("--method mc requires --trajectories and --seed")
    _require_float_engine(args, "--method mc")
    counts = terminal_state_counts(
        args.i, args.t, params, args.trajectories, args.seed, threads=args.threads
    )
    rows = []
    for j in range(args.j_max + 1):
        hits = int(counts[j]) if j < counts.size else 0
        rows.append([j, *binomial_estimate(hits, args.trajectories)])
    return ["j", "probability", "stderr"], rows


def cmd_stationary(args) -> tuple[list[str], list[list]]:
    params = ModelParams(args.alpha, args.beta)
    pi, residuals = stationarity_residuals(args.n_max + 1, params, args.engine)
    residuals.append(None)  # would need pi beyond the table
    return ["i", "pi", "residual"], [[n, p, r] for n, (p, r) in enumerate(zip(pi, residuals))]


def cmd_orthocheck(args) -> tuple[list[str], list[list]]:
    params = ModelParams(args.alpha, args.beta)
    size = args.i_max + 1
    table = orthonormality_table(args.i_max, params, args.engine)
    rows = []
    for i in range(size):
        for j in range(size):
            value = table[i][j] if args.engine == "exact" else float(table[i, j])
            rows.append([i, j, value])
    return ["i", "j", "value"], rows


def cmd_simulate(args) -> tuple[list[str], list[list]]:
    params = ModelParams(args.alpha, args.beta)
    _require_float_engine(args, "simulate")
    counts = terminal_state_counts(
        args.n0, args.t, params, args.trajectories, args.seed, threads=args.threads
    )
    rows = []
    for state, count in enumerate(counts):
        rows.append([state, int(count), *binomial_estimate(int(count), args.trajectories)])
    return ["state", "count", "estimate", "stderr"], rows


def cmd_quadrule(args) -> tuple[list[str], list[list]]:
    params = ModelParams(args.alpha, args.beta)
    _require_float_engine(args, "quadrule")
    rule = gauss_jacobi_rule(args.points, params)
    rows = [
        [k, float(x), float(w)] for k, (x, w) in enumerate(zip(rule.nodes, rule.weights))
    ]
    return ["index", "node", "weight"], rows


def _check_finite(columns: list[str], rows: list[list]) -> None:
    """Raise NumericalError naming the first inf or nan float cell."""
    for row in rows:
        for k, value in enumerate(row):
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericalError(f"{columns[k]} is {value!r} at {columns[0]}={row[0]}")


def _cell_json(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def render(columns: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        # the writer prints None as empty, floats via repr, the rest via str
        writer.writerows(rows)
        return buffer.getvalue()
    records = [dict(zip(columns, (_cell_json(v) for v in row))) for row in rows]
    return json.dumps(records, indent=2) + "\n"


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        columns, rows = args.run(args)
        _check_finite(columns, rows)
    except UsageError as exc:
        print(f"jacobi-walk: error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"jacobi-walk: numerical failure: {exc}", file=sys.stderr)
        return 3
    text = render(columns, rows, args.format)
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
