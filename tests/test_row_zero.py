"""Row 0 of P^t in closed form, against the banded and spectral routes.

By Rodrigues' formula (DLMF 18.5.5) on [0, 1] and j integrations by parts
against x^t,

    P^t(0, j) = pi_j t! / (t-j)! (a+1)_t / (a+b+2)_(t+j),   0 <= j <= t,

with pi_j = (2j+a+b+1)/(a+b+1) (b+1)_j (a+b+1)_j / (j! (a+1)_j) and every
factor positive.  Cell 0 is the moment mu_t = (a+1)_t / (a+b+2)_t.  The
exact form is written here in Fractions, apart from the package.  The
float form is mu_t times one cumulative product of the ratio of
consecutive cells,

    (pi_j / pi_(j-1)) (t-j+1) / (t+a+b+j+1),

with pi_1 / pi_0 = (b+1)(a+b+3)/(a+1) written apart, since the general
ratio is 0/0 at j = 1 when a + b = -1.  Its bound comes from the same
running error analysis as ``test_ul_identity``'s float checks.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from jacobi_walk import ModelParams, matrix_power_row, spectral_transition_row
import jacobi_walk.chain as chain_module
from test_ul_identity import FLOAT_PAIRS, U, banded_units, units, within

EXPONENTS = range(7)
STEPS = [1, 2, 5, 9, 15, 40]
EXACT_ROUTES = {
    "matrix": lambda t, params: matrix_power_row(t, 0, t, params, "exact"),
    "km": lambda t, params: spectral_transition_row(t, 0, params, t, "exact"),
}


def exact_row(t, a, b):
    """P^t(0, j) for j = 0..t in Fractions, a and b rational.

    The closed form term by term, its rising factorials and pi_j's
    factors carried from j - 1 to j.
    """
    a, b = Fraction(a), Fraction(b)
    head, tail = Fraction(1), Fraction(1)  # (a+1)_t and (a+b+2)_t
    for k in range(t):
        head, tail = head * (a + 1 + k), tail * (a + b + 2 + k)
    row, pochhammers, falling = [], Fraction(1), 1  # pi_j's ratio of rising factorials, t!/(t-j)!
    for j in range(t + 1):
        if j:
            pochhammers *= (b + j) * (a + b + j) / (j * (a + j))
            falling *= t - j + 1
            tail *= a + b + 1 + t + j
        pi = (2 * j + a + b + 1) / (a + b + 1) * pochhammers
        row.append(pi * falling * head / tail)
    return row


def moment_factor(k, a, b):
    """Factor k of mu_t = prod_{k < t} (a+1+k) / (a+b+2+k)."""
    return (a + 1 + k) / (a + b + 2 + k)


def cell_ratio(j, t, a, b):
    """P^t(0, j) / P^t(0, j-1), in the arithmetic of a and b."""
    if j == 1:
        pi_ratio = (b + 1) * (a + b + 3) / (a + 1)
    else:
        s = 2 * j + a + b
        pi_ratio = (s + 1) / (s - 1) * ((b + j) * (a + b + j)) / (j * (a + j))
    return pi_ratio * (t - j + 1) / (t + a + b + j + 1)


def leaves(t, a, b):
    """mu_t's t factors and the t cell ratios, in binary64 or in Fractions."""
    return (
        [moment_factor(k, a, b) for k in range(t)],
        [cell_ratio(j, t, a, b) for j in range(1, t + 1)],
    )


def float_row(t, a, b):
    """P^t(0, j) for j = 0..t in binary64: mu_t times one cumulative product."""
    factors, ratios = leaves(t, float(a), float(b))
    return np.prod(factors) * np.cumprod([1.0, *ratios])


def float_row_units(t, a, b):
    """The bound on ``float_row``'s cells, in units of u, one per cell.

    The leaves are measured against the same expressions in Fractions: the
    t factors of mu_t within g u and the ratios within f u.  mu_t's product
    adds t - 1 roundings, cell j's cumulative product j - 1 more (the
    leading 1 times the first ratio is exact), and the last product one.
    So cell j is within t g + t - 1 + j f + max(j - 1, 0) + 1.  Underflow
    is left out, so the count holds only above the subnormal range.
    """
    (factors, ratios), exact = leaves(t, float(a), float(b)), leaves(t, Fraction(a), Fraction(b))
    g, f = units(factors, exact[0]), units(ratios, exact[1])
    j = np.arange(t + 1)
    return t * g + t - 1 + j * f + np.maximum(j - 1, 0) + 1


def exact_failures(route, pairs, steps):
    """The (a, b, t) at which the route's row 0 differs from the closed form."""
    return [
        (a, b, t)
        for (a, b), t in product(pairs, steps)
        if EXACT_ROUTES[route](t, ModelParams(a, b)) != exact_row(t, a, b)
    ]


@pytest.mark.parametrize("route", list(EXACT_ROUTES))
def test_exact_rows_match_the_closed_form(route):
    assert exact_failures(route, list(product(EXPONENTS, EXPONENTS)), STEPS) == []


def test_planted_numerator_breaks_the_exact_comparison(monkeypatch):
    # one wrong up numerator at state 1 of every law the banded route reads
    law_table = chain_module._law_table

    def planted(n_max, params, engine, n_min=0):
        law = [list(pair) for pair in law_table(n_max, params, engine, n_min)]
        law[0][0] = law[0][0].copy()
        law[0][0][1] += 1
        return tuple(map(tuple, law))

    monkeypatch.setattr(chain_module, "_law_table", planted)
    assert exact_failures("matrix", [(3, 5)], [2, 5]) == [(3, 5, 2), (3, 5, 5)]


# Cells below about 1e-280 are left out: there the cumulative product and
# the banded steps run near the subnormal range, where a rounding's error
# is absolute, not relative, and the counts no longer bound it.
FLOOR = 1e-280


@pytest.mark.parametrize("t", [10, 200, 1000])
@pytest.mark.parametrize("a, b", FLOAT_PAIRS)
def test_float_closed_form_matches_the_banded_row(a, b, t):
    closed = float_row(t, a, b)
    row = np.array(matrix_power_row(t, 0, t, ModelParams(a, b), "float"))
    kept = row > FLOOR
    count = float_row_units(t, a, b) + banded_units(t, 0, t, a, b)
    assert kept[: t // 2].all()
    assert within(closed[kept], row[kept], count[kept])


def test_float_closed_form_matches_the_exact_form():
    t, a, b = 400, 3, 5
    exact = exact_row(t, a, b)
    closed = float_row(t, a, b)
    assert closed.min() > FLOOR
    misses = [abs(Fraction(float(c)) - e) / e for c, e in zip(closed, exact)]
    count = float_row_units(t, a, b)
    assert all(m <= k * U / (1 - k * U) for m, k in zip(misses, count))


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: float km cells resolve only absolute rounding dust, "
    "so tail cells are far off in relative terms",
)
def test_float_km_row_is_relatively_accurate():
    t, params = 200, ModelParams(3, 5)
    row = np.array(spectral_transition_row(t, 0, params, t, "float"))
    closed = float_row(t, 3, 5)
    assert np.all(np.abs(row - closed) <= 1e-10 * closed)



def units_above_floor(row, exact) -> float:
    """``units`` on the cells whose exact value is above ``FLOOR``."""
    kept = [(c, e) for c, e in zip(row, exact, strict=True) if e > FLOOR]
    return units(*zip(*kept))


# ROADMAP item 5's banded bound at integer pairs, on a corner-and-centre
# subset of criterion 2's grid: every pair of 0..6 passes too, in about 11 s.
@pytest.mark.parametrize("a, b", list(product((0, 3, 6), repeat=2)))
def test_float_banded_row_within_its_bound_at_integer_pairs(a, b):
    params = ModelParams(a, b)
    rows = [(t, 0, exact_row(t, a, b)) for t in (100, 400)]
    rows.append((100, 10, matrix_power_row(100, 10, 110, params, "exact")))
    for t, i, exact in rows:
        k = banded_units(t, i, i + t, a, b)
        row = matrix_power_row(t, i, i + t, params, "float")
        assert units_above_floor(row, exact) <= k / (1 - k * U), (t, i)
