"""The stochastic LU factorization of the walk, in exact and float arithmetic.

P(a, b) = L U, with L pure death and U pure birth: row n of L stays with
probability r_n = (n+a+b+1)/(2n+a+b+1), r_0 = 1, and steps down with
1 - r_n; row n of U stays with s_n = (n+a+1)/(2n+a+b+2) and steps up with
1 - s_n.  U L = P(a+1, b), so P(a, b)^t = L P(a+1, b)^(t-1) U: row i of
the t-step law at (a, b) is (r_i row i + (1 - r_i) row i-1) of the
(t-1)-step law at (a+1, b), times U.  This is the Darboux transformation
of the walk at the spectral point 0 (Grunbaum & de la Iglesia, J. Appl.
Probab. 55 (2018)).  The factors are written here from their closed
forms, apart from the law's own formula, so the identity checks the law
and both exact t-step routes against something that shares nothing with
them.  The literal urn at (a, b) is held to the law the identity builds
from the exact rows at (a + 1, b), by criterion 6's z statistic.

The float checks hold the float law and banded route to a relative bound
from running error analysis (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 3).  Each rounding multiplies a result by
(1 + d) with |d| <= u = 2**-53, and a value that has gone through factors
whose |d| add up to k u is within k u / (1 - k u) of its exact value.  A
sum of nonnegative terms, each within k u, is within k u before its own
rounding, so no cancellation enters.  The package's float law gets its
count from the sums and products it is evaluated by (``law_count``), and a
test holds its measured error to that count.  The tests' own float factors
(r, s and their complements) are measured against their exact values at
the double exponents, as Fractions.  Everything above is counted by hand.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import product

import numpy as np
import pytest

from jacobi_walk import (
    ModelParams,
    matrix_power_row,
    spectral_transition_row,
    step_coefficients,
    terminal_state_counts,
)
import jacobi_walk.chain as chain_module

EXPONENTS = range(5)
STEPS = [1, 2, 5, 17, 40]
STARTS = [0, 1, 3, 9]
ROUTES = {
    "matrix": lambda t, i, j_max, params: matrix_power_row(t, i, j_max, params, "exact"),
    "km": lambda t, i, j_max, params: spectral_transition_row(t, i, params, j_max, "exact"),
}


def r(n, a, b):
    """L's probability of staying at state n."""
    return Fraction(1) if n == 0 else Fraction(n + a + b + 1, 2 * n + a + b + 1)


def s(n, a, b):
    """U's probability of staying at state n."""
    return Fraction(n + a + 1, 2 * n + a + b + 2)


def factored_row(route, t, i, a, b):
    """Row i of L P(a+1, b)^(t-1) U, columns 0..i+t."""
    shifted, j_max = ModelParams(a + 1, b), i + t - 1
    mixed = [r(i, a, b) * p for p in route(t - 1, i, j_max, shifted)]
    if i:
        below = route(t - 1, i - 1, j_max, shifted)
        mixed = [m + (1 - r(i, a, b)) * q for m, q in zip(mixed, below)]
    mixed.append(0)
    return [
        mixed[j] * s(j, a, b) + (mixed[j - 1] * (1 - s(j - 1, a, b)) if j else 0)
        for j in range(len(mixed))
    ]


def identity_failures(route):
    """The (a, b, t, i) at which row i of P(a, b)^t differs from its factored form."""
    return [
        (a, b, t, i)
        for a, b, t, i in product(EXPONENTS, EXPONENTS, STEPS, STARTS)
        if route(t, i, i + t, ModelParams(a, b)) != factored_row(route, t, i, a, b)
    ]


U = 2.0**-53
# the non-integer exponent pairs; a + 1 is exact in binary64 for each
FLOAT_PAIRS = [(-0.5, 2.75), (0.25, -0.9), (-0.99, 3.5), (-0.5, -0.5), (2.5, 1.5)]


def units(computed, exact) -> float:
    """The worst relative error of float cells against exact ones, in units of u.

    A zero exact cell must be computed as zero.
    """
    worst = Fraction(0)
    for c, e in zip(computed, exact, strict=True):
        if e == 0:
            assert c == 0
        else:
            worst = max(worst, abs(Fraction(float(c)) - e) / e)
    return float(worst / Fraction(U))


def within(computed, reference, count) -> bool:
    """Whether the cells agree to within k u / (1 - 2 k u) of the reference.

    k is ``count``, the two sides' counts added up, one number or one per
    cell.  The sides then differ by at most k u / (1 - k u) of the exact
    value, which is at most 1 / (1 - k u / (1 - k u)) times the reference.
    """
    computed, reference = np.asarray(computed), np.asarray(reference)
    assert np.array_equal(computed == 0, reference == 0)
    bound = np.asarray(count) * U / (1 - 2 * np.asarray(count) * U)
    positive = reference > 0
    miss = np.abs(computed - reference)[positive] / reference[positive]
    return bool(np.all(miss <= np.broadcast_to(bound, reference.shape)[positive]))


def float_factors(n_max, a, b) -> tuple:
    """r, 1 - r, s and 1 - s at states 0..n_max in binary64, each from its closed form."""
    n = np.arange(1.0, n_max + 1)
    r = np.concatenate(([1.0], (n + a + b + 1) / (2 * n + a + b + 1)))
    r_off = np.concatenate(([0.0], n / (2 * n + a + b + 1)))
    n = np.arange(n_max + 1.0)
    return r, r_off, (n + a + 1) / (2 * n + a + b + 2), (n + b + 1) / (2 * n + a + b + 2)


@cache
def factor_units(n_max, a, b) -> float:
    """The worst error of ``float_factors`` on states 0..n_max, in units of u."""
    a_, b_ = Fraction(a), Fraction(b)
    exact = (
        [r(n, a_, b_) for n in range(n_max + 1)],
        [1 - r(n, a_, b_) for n in range(n_max + 1)],
        [s(n, a_, b_) for n in range(n_max + 1)],
        [1 - s(n, a_, b_) for n in range(n_max + 1)],
    )
    return max(map(units, float_factors(n_max, a, b), exact))


def combined(*parts) -> float:
    """The count of a sum of terms given as (exact value, count), added in any order.

    Recursive summation of m terms puts each through at most m - 1
    additions (Higham, section 4.2), so the sum is within
    sum |x_i| (k_i + m - 1) u of its exact value, to first order.
    """
    total = sum(value for value, _ in parts)
    return float(sum(abs(value) * (k + len(parts) - 1) for value, k in parts) / abs(total))


def summed(*terms) -> float:
    """The count of a sum of exact terms."""
    return combined(*((term, 0) for term in terms))


def law_count(n, a, b) -> float:
    """The count of float ``step_coefficients`` at state n: the largest of up, stay, down.

    a and b are the exact values of the double exponents.  The terms
    follow the law as ``polynomials._law_terms`` evaluates it, with
    s = 2n + a + b: up = (n+b+1)(n+a+b+1) / ((s+1)(s+2)), stay =
    (2n (n+a+b+1) + (a+1) b + a (a+1)) / (s (s+2)) and down =
    n (n+a) / (s (s+1)); at n = 0, up = (b+1)/(a+b+2) and stay =
    (a+1)/(a+b+2).  Each product or quotient adds one.
    """
    if n == 0:
        return max(summed(b, 1), summed(a, 1)) + summed(a, b, 2) + 1
    s0, s1, s2 = (summed(2 * n, a, b, *extra) for extra in ((), (1,), (2,)))
    shifted = summed(n, a, b, 1)
    up = summed(n, b, 1) + shifted + s1 + s2 + 3
    raised = summed(a, 1) + 1
    stay = combined(
        (2 * n * (n + a + b + 1), shifted + 1), ((a + 1) * b, raised), (a * (a + 1), raised)
    )
    return max(up, stay + s0 + s2 + 2, summed(n, a) + s0 + s1 + 3)


@cache
def law_counts(n_max, a, b) -> float:
    """The largest ``law_count`` on states 0..n_max."""
    a_, b_ = Fraction(a), Fraction(b)
    return max(law_count(n, a_, b_) for n in range(n_max + 1))


def exact_law(n, a, b) -> tuple:
    """(up, stay, down) at state n as L U, from the factors' closed forms."""
    down = (1 - r(n, a, b)) * s(n - 1, a, b) if n else 0
    from_below = (1 - r(n, a, b)) * (1 - s(n - 1, a, b)) if n else 0
    return r(n, a, b) * (1 - s(n, a, b)), r(n, a, b) * s(n, a, b) + from_below, down


def banded_units(t, i, j_max, a, b) -> float:
    """The bound on float ``matrix_power_row(t, i, j_max)``'s cells, in units of u.

    Each step forms a cell as mass[n] diag[n] + mass[n-1] sup[n-1], plus
    mass[n+1] sub[n]: three nonnegative products, each of a law entry within
    c u and one rounding, and two additions.  So a step adds c + 3 to the
    count, and t steps give (c + 3) t, with c the law's count on the states
    the route reads.  Underflow is left out: it adds at most 2**-1075 per
    rounding, which does not show on the cells the tests compare.
    """
    return (law_counts(max(i, j_max) + t, a, b) + 3) * t


@pytest.mark.parametrize("a, b", list(product(EXPONENTS, EXPONENTS)))
def test_one_step_factors(a, b):
    for n in range(23):
        law = step_coefficients(n, ModelParams(a, b), "exact")
        down = (1 - r(n, a, b)) * s(n - 1, a, b) if n else 0
        from_below = (1 - r(n, a, b)) * (1 - s(n - 1, a, b)) if n else 0
        assert (law.up, law.stay, law.down) == (
            r(n, a, b) * (1 - s(n, a, b)),
            r(n, a, b) * s(n, a, b) + from_below,
            down,
        )
        shifted = step_coefficients(n, ModelParams(a + 1, b), "exact")
        assert (shifted.up, shifted.stay, shifted.down) == (
            (1 - s(n, a, b)) * r(n + 1, a, b),
            s(n, a, b) * r(n, a, b) + (1 - s(n, a, b)) * (1 - r(n + 1, a, b)),
            s(n, a, b) * (1 - r(n, a, b)),
        )


@pytest.mark.parametrize("route", list(ROUTES))
def test_t_step_rows_factor(route):
    assert identity_failures(ROUTES[route]) == []


@pytest.mark.parametrize("term", range(3), ids=["up", "stay", "down"])
def test_planted_numerator_breaks_the_identity(monkeypatch, term):
    # one wrong numerator of up, stay or down at state 1 of every law the
    # banded route reads; the factors keep their closed forms
    law_table = chain_module._law_table

    def planted(n_max, params, engine, n_min=0):
        law = [list(pair) for pair in law_table(n_max, params, engine, n_min)]
        if n_min <= 1 <= n_max:
            law[term][0] = law[term][0].copy()
            law[term][0][1 - n_min] += 1
        return tuple(map(tuple, law))

    monkeypatch.setattr(chain_module, "_law_table", planted)
    assert identity_failures(ROUTES["matrix"])


URN_PAIRS = list(product((0, 1, 3), (0, 2, 5)))
URN_LANES = 2**16


def urn_deviations(factored) -> list[float]:
    """Criterion 6's z of the urn against ``factored(t, i, a, b)``, the
    t-step row i at (a, b) as exact cells, on each cell that expects at
    least 25 of the 2**16 trajectories of its ensemble."""
    deviations = []
    grid = product(URN_PAIRS, (0, 3), (1, 4, 9))
    for ensemble, ((a, b), i, t) in enumerate(grid):
        counts = terminal_state_counts(i, t, ModelParams(a, b), URN_LANES, 20180601 + ensemble)
        for hits, target in zip(counts.tolist(), factored(t, i, a, b), strict=True):
            if target * URN_LANES < 25:
                continue
            estimate = hits / URN_LANES
            stderr = math.sqrt(estimate * (1.0 - estimate) / URN_LANES)
            if stderr == 0.0:
                deviations.append(0.0 if estimate == target else math.inf)
            else:
                deviations.append(abs(estimate - target) / stderr)
    return deviations


def factored_matrix_row(t, i, a, b):
    return factored_row(ROUTES["matrix"], t, i, a, b)


def test_urn_follows_the_factored_law():
    deviations = urn_deviations(factored_matrix_row)
    assert len(deviations) == 341
    assert max(deviations) <= 6.0


def test_planted_factor_moves_the_urn_off_the_factored_law(monkeypatch):
    # L's stay probability taken at (a + 1, b) gives some other law: rows
    # from start 3 then sit more than 6 standard errors off the urn
    stay = r
    monkeypatch.setitem(globals(), "r", lambda n, a, b: stay(n, a + 1, b))
    assert max(urn_deviations(factored_matrix_row)) > 6.0


def float_rows(t, i, j_max, a, b):
    """Float ``matrix_power_row`` at (a, b)."""
    return np.array(matrix_power_row(t, i, j_max, ModelParams(a, b), "float"))


@pytest.mark.parametrize("a, b", FLOAT_PAIRS + [(a + 1, b) for a, b in FLOAT_PAIRS])
def test_float_law_within_its_count(a, b):
    a_, b_ = Fraction(a), Fraction(b)
    for n in range(400):
        law = step_coefficients(n, ModelParams(a, b), "float")
        assert units((law.up, law.stay, law.down), exact_law(n, a_, b_)) <= law_count(n, a_, b_), n


@pytest.mark.parametrize("a, b", FLOAT_PAIRS)
def test_float_one_step_factors(a, b):
    # L U forms up and down as one product of two factors, and stay as a
    # sum of two such products: 2e + 2 roundings for factors within e u.
    # U L at (a + 1, b) reads r at n and n + 1.
    n_max = 199
    r_, r_off, s_, s_off = float_factors(n_max + 1, a, b)
    e = factor_units(n_max + 1, a, b)
    law = [step_coefficients(n, ModelParams(a, b), "float") for n in range(n_max + 1)]
    lu = (
        r_[:-1] * s_off[:-1],
        r_[:-1] * s_[:-1] + r_off[:-1] * np.concatenate(([0.0], s_off[:-2])),
        r_off[:-1] * np.concatenate(([0.0], s_[:-2])),
    )
    assert Fraction(a + 1) == Fraction(a) + 1
    shifted = [step_coefficients(n, ModelParams(a + 1, b), "float") for n in range(n_max + 1)]
    ul = (
        s_off[:-1] * r_[1:],
        s_[:-1] * r_[:-1] + s_off[:-1] * r_off[1:],
        s_[:-1] * r_off[:-1],
    )
    for name, k in zip(("up", "stay", "down"), range(3)):
        count = 2 * e + 2 + law_counts(n_max, a, b)
        assert within(lu[k], [getattr(c, name) for c in law], count), name
        count = 2 * e + 2 + law_counts(n_max, a + 1, b)
        assert within(ul[k], [getattr(c, name) for c in shifted], count), name


@pytest.mark.parametrize("t", [10, 60, 200])
@pytest.mark.parametrize("a, b", FLOAT_PAIRS)
def test_float_t_step_rows_factor(a, b, t):
    # Row i of L P(a+1, b)^(t-1) U from the float rows at (a + 1, b): mixing
    # the two rows adds e + 2 to their count (one product each, one sum),
    # and U adds e + 2 more, for factors within e u.  The rows stay far
    # above the subnormal range, so underflow plays no part.
    for i in (0, 10, 50):
        j_max = i + t
        r_, r_off, s_, s_off = float_factors(j_max, a, b)
        e = factor_units(j_max, a, b)
        mixed = r_[i] * float_rows(t - 1, i, j_max - 1, a + 1, b)
        if i:
            mixed = mixed + r_off[i] * float_rows(t - 1, i - 1, j_max - 1, a + 1, b)
        mixed = np.append(mixed, 0.0)
        factored = mixed * s_
        factored[1:] += mixed[:-1] * s_off[:-1]
        row = float_rows(t, i, j_max, a, b)
        assert row[row > 0].min() > 1e-280
        count = (
            banded_units(t, i, j_max, a, b)
            + banded_units(t - 1, i, j_max - 1, a + 1, b)
            + 2 * e + 4
        )
        assert within(factored, row, count), i
