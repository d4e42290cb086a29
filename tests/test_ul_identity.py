"""The stochastic LU factorization of the walk, in exact arithmetic.

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
them.
"""

from fractions import Fraction
from itertools import product

import pytest

from jacobi_walk import ModelParams, matrix_power_row, spectral_transition_row, step_coefficients
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

    def planted(n_max, params, engine):
        law = [list(pair) for pair in law_table(n_max, params, engine)]
        if n_max >= 1:
            law[term][0] = law[term][0].copy()
            law[term][0][1] += 1
        return tuple(map(tuple, law))

    monkeypatch.setattr(chain_module, "_law_table", planted)
    assert identity_failures(ROUTES["matrix"])
