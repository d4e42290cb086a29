"""Correctness checks of query outputs, run after the timed phase.

Each check takes a query and its output and returns None when the output
is right, or a one-line reason when it is not.  CLI outputs arrive as the
parsed CSV table (header, rows of strings); ``coefficients`` queries as the
count array.  The tolerances are those of the acceptance criteria.  The
references come from another route than the one the query took, or from
code of the benchmark's own.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

from jacobi_walk import ModelParams
from jacobi_walk.chain import matrix_power_row, spectral_transition
from jacobi_walk.polynomials import step_coefficients
from jacobi_walk.rng import CounterStream
from jacobi_walk.urn import simulate_trajectory, step_distribution_exact, terminal_state_counts

KM_TOL = 1e-10  # criterion 2: float spectral row against the float banded row
MATRIX_TOL = 1e-12
ORTHO_TOL = 1e-11  # criterion 3
RESIDUAL_TOL = 1e-12
MOMENT_TOL = 1e-12
MOMENT_ORDERS = 10
Z_LIMIT = 6.0
Z_MIN_EXPECTED = 25.0  # states are pooled until each group expects this many
REPLAY_LANES = 8


def read_table(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


GRAM_MISS = "Gram entry"
# The known float orthocheck defect: outside criterion 3's grid (alpha,
# beta <= 4, i <= 20) the float Gram matrix misses ORTHO_TOL, e.g. (0,6) at
# i-max 40 by 4e-9.  A miss there is the known defect only while it stays
# under this ceiling; the seed commit's worst miss over every (alpha, beta)
# and i-max 20..120, the workloads' range, is 7.6e-6 at (0,6), i-max 112.
# A larger miss is a new fault.
DEFECT_CEILING = 1e-5
KNOWN_DEFECT = "known defect: "


def known_defect(reason: str) -> bool:
    """Whether a failure is the known float orthocheck defect.

    Such failures still count as failed; they are told apart from others.
    """
    return reason.startswith(KNOWN_DEFECT)


def _params(query) -> ModelParams:
    return ModelParams(query.alpha, query.beta)


def banded_row(t: int, i: int, j_max: int, params: ModelParams) -> np.ndarray:
    """Float row i of P^t by the benchmark's own banded propagation."""
    size = max(i, j_max) + t + 1
    coeffs = [step_coefficients(n, params, "float") for n in range(size)]
    down = np.array([c.down for c in coeffs])
    stay = np.array([c.stay for c in coeffs])
    up = np.array([c.up for c in coeffs])
    mass = np.zeros(size)
    mass[i] = 1.0
    for _ in range(t):
        step = mass * stay
        step[1:] += mass[:-1] * up[:-1]
        step[:-1] += mass[1:] * down[1:]
        mass = step
    return mass[: j_max + 1]


def _column(table, name: str, parse) -> list:
    columns, rows = table
    k = columns.index(name)
    return [parse(row[k]) for row in rows]


def _check_transition(query, table):
    t, i, j_max = (query.option(name) for name in ("t", "i", "j_max"))
    parse = Fraction if query.engine == "exact" else float
    row = _column(table, "probability", parse)
    if len(row) != j_max + 1:
        return f"{len(row)} rows, expected {j_max + 1}"
    method = query.option("method")
    if query.engine == "float":
        reference = banded_row(t, i, j_max, _params(query))
        error = float(np.max(np.abs(np.array(row) - reference)))
        tol = KM_TOL if method == "km" else MATRIX_TOL
        if not error <= tol:
            return f"max abs error {error:.3g} against the banded row exceeds {tol:g}"
        if method == "matrix" and not abs(math.fsum(row) - 1.0) <= MATRIX_TOL:
            return f"row sums to {math.fsum(row)!r}"
        return None
    if method == "km":
        reference = matrix_power_row(t, i, j_max, _params(query), "exact")
        wrong = [j for j, (p, q) in enumerate(zip(row, reference)) if p != q]
        return f"cells {wrong[:5]} differ from the exact banded row" if wrong else None
    # exact matrix row: it covers every reachable state, so it sums to 1
    # exactly; three cells are recomputed by the spectral integral
    if sum(row) != 1 or min(row) < 0:
        return f"row sums to {sum(row)} or has a negative cell"
    for j in sorted({i, max(i - t, 0), min(i + t, j_max)}):
        if row[j] != spectral_transition(t, i, j, _params(query), "exact"):
            return f"cell {j} differs from the exact spectral integral"
    return None


def _check_orthocheck(query, table):
    size = query.option("i_max") + 1
    parse = Fraction if query.engine == "exact" else float
    rows = table[1]
    if len(rows) != size * size:
        return f"{len(rows)} rows, expected {size * size}"
    worst, where = 0.0, None
    for row in rows:
        i, j, value = int(row[0]), int(row[1]), parse(row[2])
        error = abs(value - (1 if i == j else 0))
        if error > worst:
            worst, where = error, (i, j)
    if query.engine == "exact":
        return f"{GRAM_MISS} {where} is {worst} away from the identity" if worst else None
    if worst <= ORTHO_TOL:
        return None
    reason = f"{GRAM_MISS} {where} is {worst:.3g} from the identity, beyond {ORTHO_TOL:g}"
    outside_grid = query.alpha > 4 or query.beta > 4 or size > 21
    if outside_grid and worst <= DEFECT_CEILING:
        return KNOWN_DEFECT + reason
    return reason


def _check_stationary(query, table):
    n_max = query.option("n_max")
    exact = query.engine == "exact"
    parse = Fraction if exact else float
    pi = _column(table, "pi", parse)
    printed = _column(table, "residual", lambda s: parse(s) if s else None)
    if len(pi) != n_max + 1 or pi[0] != 1:
        return f"{len(pi)} rows or pi_0 = {pi[0]}"
    engine = "exact" if exact else "float"
    coeffs = [step_coefficients(n, _params(query), engine) for n in range(n_max + 1)]
    tol = 0 if exact else RESIDUAL_TOL
    for n in range(n_max):
        flow = pi[n] * coeffs[n].stay + pi[n + 1] * coeffs[n + 1].down
        if n > 0:
            flow += pi[n - 1] * coeffs[n - 1].up
        residual = abs(flow - pi[n]) / pi[n]
        if not (residual <= tol and printed[n] is not None and printed[n] <= tol):
            return f"state {n}: residual {residual} (printed {printed[n]}) exceeds {tol}"
    return None


def _check_coeffs(query, table):
    n_max = query.option("n_max")
    rows = table[1]
    if len(rows) != n_max + 1:
        return f"{len(rows)} rows, expected {n_max + 1}"
    for row in rows:
        n, up, stay, down, total = int(row[0]), *map(Fraction, row[1:])
        if total != 1 or up + stay + down != 1:
            return f"state {n}: the law does not sum to 1"
        if (down, stay, up) != step_distribution_exact(n, _params(query)):
            return f"state {n}: differs from the urn enumeration"
    return None


def _beta_moment(k: int, a: int, b: int) -> Fraction:
    return Fraction(math.factorial(a + k) * math.factorial(b), math.factorial(a + b + k + 1))


def _check_quadrule(query, table):
    nodes = _column(table, "node", float)
    weights = _column(table, "weight", float)
    if len(nodes) != query.option("points"):
        return f"{len(nodes)} nodes, expected {query.option('points')}"
    if not (0.0 < nodes[0] and nodes[-1] < 1.0 and all(x < y for x, y in zip(nodes, nodes[1:]))):
        return "nodes are not strictly increasing inside (0, 1)"
    if min(weights) <= 0.0:
        return "nonpositive weight"
    for k in range(min(MOMENT_ORDERS, 2 * len(nodes) - 1) + 1):
        exact = float(_beta_moment(k, query.alpha, query.beta))
        value = math.fsum(w * x**k for x, w in zip(nodes, weights))
        if not abs(value - exact) <= MOMENT_TOL * exact:
            return f"moment {k}: {value!r} against {exact!r}"
    return None


def grouped_z(counts, probabilities, trajectories: int) -> float:
    """Largest |z| of the counts against the law, over pooled groups of states.

    Neighbouring states are pooled until each group expects at least
    Z_MIN_EXPECTED hits, so that the normal approximation behind the z limit
    holds in the thin tails too.
    """
    groups = []
    hits = expected = 0.0
    for c, p in zip(counts, probabilities):
        hits += c
        expected += trajectories * p
        if expected >= Z_MIN_EXPECTED:
            groups.append([hits, expected])
            hits = expected = 0.0
    if groups:
        groups[-1][0] += hits
        groups[-1][1] += expected
    else:
        groups.append([hits, expected])
    worst = 0.0
    for hits, expected in groups:
        variance = expected * (1.0 - expected / trajectories)
        if variance > 0.0:
            worst = max(worst, abs(hits - expected) / math.sqrt(variance))
        elif hits != expected:
            return math.inf
    return worst


def replay_urn(n0: int, t: int, params: ModelParams, lanes: int, seed: int) -> np.ndarray:
    """Terminal-state histogram of the first lanes, one scalar trajectory each."""
    counts = np.zeros(n0 + t + 1, dtype=np.int64)
    for k in range(lanes):
        counts[simulate_trajectory(n0, t, params, CounterStream.from_seed(seed, k))[-1]] += 1
    return counts


def replay_coefficients(n0: int, t: int, params: ModelParams, lanes: int, seed: int) -> np.ndarray:
    """The coefficients sampler, lane by lane in Python integers and floats."""
    laws = [step_coefficients(s, params, "float") for s in range(n0 + t + 1)]
    counts = np.zeros(n0 + t + 1, dtype=np.int64)
    for k in range(lanes):
        stream = CounterStream.from_seed(seed, k)
        state = n0
        for _ in range(t):
            u = float(stream.raw64()) * 2.0**-64
            law = laws[state]
            state += -1 if u < law.down else (0 if u < law.down + law.stay else 1)
        counts[state] += 1
    return counts


def check_ensemble(query, counts, reference, replayed, vectorized) -> str | None:
    """Histogram checks shared by both samplers.

    ``reference`` is terminal_state_counts of the same ensemble on one
    thread; the query's histogram must equal it bit for bit, since the
    result does not depend on threads and the CLI must print it unchanged.
    ``replayed`` and ``vectorized`` are the histograms of the first
    REPLAY_LANES trajectories, from the scalar replay and from
    terminal_state_counts; they must agree bit for bit too.
    """
    n0, t, n = (query.option(name) for name in ("n0", "t", "trajectories"))
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size != n0 + t + 1 or int(counts.sum()) != n:
        return f"{counts.size} states summing to {int(counts.sum())}, expected {n0 + t + 1} and {n}"
    if not np.array_equal(counts, reference):
        wrong = np.nonzero(counts != reference)[0].tolist()
        return f"states {wrong[:5]} differ from terminal_state_counts on one thread"
    z = grouped_z(counts, banded_row(t, n0, n0 + t, _params(query)), n)
    if not z <= Z_LIMIT:
        return f"|z| = {z:.2f} against the float banded row exceeds {Z_LIMIT:g}"
    if not np.array_equal(replayed, vectorized):
        return f"scalar replay of {REPLAY_LANES} lanes differs from terminal_state_counts"
    return None


def _check_ensemble_query(query, output):
    n0, t, n, seed = (query.option(name) for name in ("n0", "t", "trajectories", "seed"))
    params = _params(query)
    if query.command == "simulate":
        counts = _column(output, "count", int)
        replayed = replay_urn(n0, t, params, REPLAY_LANES, seed)
        sampler = "urn"
    else:
        counts = output
        replayed = replay_coefficients(n0, t, params, REPLAY_LANES, seed)
        sampler = "coefficients"
    reference = terminal_state_counts(n0, t, params, n, seed, threads=1, sampler=sampler)
    vectorized = terminal_state_counts(n0, t, params, REPLAY_LANES, seed, sampler=sampler)
    return check_ensemble(query, counts, reference, replayed, vectorized)


_CHECKS = {
    "transition": _check_transition,
    "orthocheck": _check_orthocheck,
    "stationary": _check_stationary,
    "coeffs": _check_coeffs,
    "quadrule": _check_quadrule,
    "simulate": _check_ensemble_query,
    "coefficients": _check_ensemble_query,
}


def check(query, output) -> str | None:
    """None if the output of ``query`` is correct, else the reason it is not."""
    return _CHECKS[query.command](query, output)
