"""Recurrence coefficients, evaluation, norms, invariant measure.

Expected values marked "hand" below were computed independently by direct
substitution into the closed forms (and, for the t-step cases elsewhere,
by path enumeration); they are frozen here rather than recomputed so the
tests cannot drift with the code under test.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacobi_walk import (
    ModelParams,
    eval_poly,
    invariant_measure,
    invariant_measure_table,
    monomial_coefficients,
    norm_squared,
    poly_product,
    poly_table,
    step_coefficients,
    total_mass,
    weight,
)
from jacobi_walk.model import check_int
from jacobi_walk.polynomials import _step_table

F = Fraction

params_strategy = st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
    lambda ab: ModelParams(*ab)
)


class TestModelParams:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ModelParams(-1, 0)
        with pytest.raises(ValueError):
            ModelParams(0, -1.5)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                ModelParams(bad, 0)
            with pytest.raises(ValueError, match="beta"):
                ModelParams(0, bad)

    def test_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            ModelParams("2", 0)
        with pytest.raises(TypeError):
            ModelParams(True, 0)

    def test_integer_valued_floats_canonicalized(self):
        p = ModelParams(2.0, 0.0)
        assert p.is_integral and p.alpha == 2 and isinstance(p.alpha, int)

    def test_fractional_params_are_float_only(self):
        p = ModelParams(0.5, 1.25)
        assert not p.is_integral
        with pytest.raises(ValueError):
            p.require_integral("test")
        with pytest.raises(ValueError):
            step_coefficients(1, p, "exact")

    def test_negative_exponents_above_minus_one_allowed(self):
        p = ModelParams(-0.5, -0.5)
        c = step_coefficients(0, p, "float")
        assert c.up + c.stay == pytest.approx(1.0)


class TestCheckInt:
    def test_returns_plain_int(self):
        value = check_int(np.int64(3), "n")
        assert value == 3 and type(value) is int
        assert check_int(5, "order", 5) == 5

    def test_non_integers_raise_type_error(self):
        for value in (2.0, "2", None):
            with pytest.raises(TypeError):
                check_int(value, "n")

    def test_below_minimum_names_the_argument(self):
        with pytest.raises(ValueError, match="trajectories must be >= 1, got 0"):
            check_int(0, "trajectories", 1)


class TestStepCoefficients:
    def test_base_case(self):
        # hand: a=b=0 gives up_0 = stay_0 = 1/2
        c = step_coefficients(0, ModelParams(0, 0), "exact")
        assert (c.up, c.stay, c.down) == (F(1, 2), F(1, 2), F(0))

    def test_state_one(self):
        # hand: a=b=0, n=1 -> (1/3, 1/2, 1/6)
        c = step_coefficients(1, ModelParams(0, 0), "exact")
        assert (c.up, c.stay, c.down) == (F(1, 3), F(1, 2), F(1, 6))

    def test_asymmetric_params(self):
        # hand: a=2, b=1, n=3: up = 5*7/(10*11), down = 3*5/(9*10)
        c = step_coefficients(3, ModelParams(2, 1), "exact")
        assert c.up == F(35, 110)
        assert c.down == F(15, 90)
        assert c.total == 1

    def test_origin_base_with_params(self):
        # hand: stay_0 = (a+1)/(a+b+2); down_0 = 0 always
        c = step_coefficients(0, ModelParams(3, 5), "exact")
        assert c.stay == F(4, 10)
        assert c.down == 0

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError):
            step_coefficients(-1, ModelParams(0, 0))

    @given(st.integers(0, 200), params_strategy)
    def test_exact_law_sums_to_one(self, n, params):
        c = step_coefficients(n, params, "exact")
        assert c.total == 1
        assert c.up > 0 and c.stay >= 0 and c.down >= 0
        assert (c.down == 0) == (n == 0)

    @given(st.integers(0, 200), params_strategy)
    def test_stay_matches_three_term_form(self, n, params):
        # stay_n = 1 + n(n+b)/(2n+a+b) - (n+1)(n+b+1)/(2n+a+b+2); the middle
        # term is 0 at n = 0 (and its denominator may be 0 there, so skip it)
        a, b = params.alpha, params.beta
        middle = F(0) if n == 0 else F(n * (n + b), 2 * n + a + b)
        three_term = 1 + middle - F((n + 1) * (n + b + 1), 2 * n + a + b + 2)
        assert step_coefficients(n, params, "exact").stay == three_term

    @given(st.integers(0, 100), params_strategy)
    def test_float_shadows_exact(self, n, params):
        cf = step_coefficients(n, params, "float")
        ce = step_coefficients(n, params, "exact")
        for name in ("up", "stay", "down"):
            assert getattr(cf, name) == pytest.approx(float(getattr(ce, name)), abs=1e-15)


INTEGER_GRID = [(a, b) for a in range(7) for b in range(7)] + [(300, 0), (1000, 1000)]
TABLE_GRID = INTEGER_GRID + [(-0.5, 2.75), (0.25, -0.9), (-0.99, 3.5), (2.5, 1.5)]


class TestStepTable:
    @pytest.mark.parametrize("engine, n_max", [("float", 3000), ("exact", 300)])
    def test_table_is_scalar_bit_for_bit(self, engine, n_max):
        for ab in TABLE_GRID:
            params = ModelParams(*ab)
            if engine == "exact" and not params.is_integral:
                continue
            up, stay, down = _step_table(n_max, params, engine)
            assert up.dtype == stay.dtype == down.dtype == (object if engine == "exact" else float)
            laws = [step_coefficients(n, params, engine) for n in range(n_max + 1)]
            assert up.tolist() == [c.up for c in laws]
            assert stay.tolist() == [c.stay for c in laws]
            assert down.tolist() == [c.down for c in laws]

    # For integer exponents the float law is the exact law correctly
    # rounded.  Every integer the float engine forms in _law_terms, product
    # or partial sum, is at most (2n + a + b + 2)**2, so all of them stay
    # below 2**53 while 2n + a + b + 2 < 9.4e7: binary64 holds them exactly,
    # and its one rounding, the division, is correctly rounded, as
    # float(Fraction) is.
    @pytest.mark.parametrize("ab", INTEGER_GRID + [(10**7, 3)])
    def test_float_law_is_rounded_exact_law(self, ab):
        params = ModelParams(*ab)
        large = [10**k + d for k in range(2, 8) for d in (-1, 0, 1)]
        for n in [*range(50), *large]:
            cf = step_coefficients(n, params, "float")
            ce = step_coefficients(n, params, "exact")
            for name in ("up", "stay", "down"):
                value = getattr(cf, name)
                assert type(value) is float
                assert value == float(getattr(ce, name))


class TestEvalPoly:
    def test_degree_zero_is_one(self):
        assert eval_poly(0, F(3, 7), ModelParams(2, 1), "exact") == 1
        assert eval_poly(0, 0.37, ModelParams(2, 1), "float") == 1.0

    def test_normalized_at_one(self):
        for n in (1, 4, 9):
            assert eval_poly(n, 1, ModelParams(2, 3), "exact") == 1

    def test_degree_one(self):
        # hand: Q_1(x) = (x - stay_0)/up_0; a=b=0 -> 2x - 1
        assert eval_poly(1, F(1, 4), ModelParams(0, 0), "exact") == F(-1, 2)
        assert eval_poly(1, 0, ModelParams(0, 0), "exact") == -1

    def test_matches_monomial_expansion(self):
        params = ModelParams(1, 2)
        x = F(2, 5)
        for n in (2, 5, 8):
            coeffs = monomial_coefficients(n, params)
            direct = sum(c * x**k for k, c in enumerate(coeffs))
            assert eval_poly(n, x, params, "exact") == direct

    @pytest.mark.parametrize("n", [50, 200, 500])
    @pytest.mark.parametrize("ab", [(0, 0), (3, 1)])
    def test_float_recursion_accuracy_high_degree(self, n, ab):
        params = ModelParams(*ab)
        for x in (F(3, 25), F(1, 2), F(93, 100)):
            exact = eval_poly(n, x, params, "exact")
            got = eval_poly(n, float(x), params, "float")
            assert abs(got - float(exact)) <= 1e-9 * max(1.0, abs(float(exact)))

    def test_table_matches_scalar(self):
        # against the exact engine: the float table and float eval_poly share
        # one sweep, so comparing those two would check the sweep with itself
        params = ModelParams(2, 0)
        xs = [0.0, 0.125, 0.5, 0.875, 1.0]
        table = poly_table(6, xs, params)
        assert table.shape == (7, 5)
        for n in range(7):
            for k, x in enumerate(xs):
                exact = eval_poly(n, F(x), params, "exact")
                assert table[n, k] == pytest.approx(float(exact), rel=1e-14)


def recurrence_coefficients(n_max, params):
    """Monomial coefficients of Q_0..Q_{n_max} from the three-term
    recurrence: the oracle for the closed-form expansion."""
    prev: tuple = ()
    cur: tuple = (Fraction(1),)
    yield cur
    for k in range(n_max):
        c = step_coefficients(k, params, "exact")
        nxt = [Fraction(0)] * (k + 2)
        for j, coef in enumerate(cur):
            nxt[j + 1] += coef
            nxt[j] -= c.stay * coef
        for j, coef in enumerate(prev):
            nxt[j] -= c.down * coef
        prev, cur = cur, tuple(coef / c.up for coef in nxt)
        yield cur


def fraction_convolution(a, b):
    """Coefficient convolution one Fraction product at a time."""
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += Fraction(ai) * Fraction(bj)
    return tuple(out)


class TestMonomialCoefficients:
    @pytest.mark.parametrize("ab", [(a, b) for a in range(7) for b in range(7)])
    def test_closed_form_matches_recurrence(self, ab):
        # criterion 4's grid: alpha, beta in 0..6, degrees up to 50
        params = ModelParams(*ab)
        for n, expected in enumerate(recurrence_coefficients(50, params)):
            got = monomial_coefficients(n, params)
            assert got == expected
            assert all(isinstance(c, Fraction) for c in got)

    def test_low_degrees(self):
        params = ModelParams(0, 0)
        assert monomial_coefficients(0, params) == (1,)
        assert monomial_coefficients(1, params) == (-1, 2)

    @given(st.integers(0, 25), st.tuples(st.integers(0, 5), st.integers(0, 5)))
    def test_coefficients_sum_to_one(self, n, ab):
        # Q_n(1) = 1 under this normalization
        assert sum(monomial_coefficients(n, ModelParams(*ab))) == 1

    def test_product_convolution(self):
        a = (F(1), F(2))  # 1 + 2x
        b = (F(-1), F(0), F(3))  # -1 + 3x^2
        assert poly_product(a, b) == (F(-1), F(-2), F(3), F(6))

    @given(
        st.lists(st.fractions(max_denominator=50), min_size=1, max_size=8),
        st.lists(st.integers(-9, 9) | st.fractions(max_denominator=9), min_size=1, max_size=8),
    )
    def test_product_matches_fraction_convolution(self, a, b):
        got = poly_product(a, b)
        assert got == fraction_convolution(a, b)
        assert all(isinstance(c, Fraction) for c in got)


class TestNormSquared:
    def test_legendre_pattern(self):
        # hand: a=b=0 gives 1/(2i+1)
        params = ModelParams(0, 0)
        for i in range(10):
            assert norm_squared(i, params, "exact") == F(1, 2 * i + 1)

    def test_degree_zero_is_total_mass(self):
        # hand: B(a+1, b+1) = a! b! / (a+b+1)!
        params = ModelParams(2, 1)
        assert norm_squared(0, params, "exact") == F(2 * 1, 24) == total_mass(params, "exact")

    def test_hand_value(self):
        # hand: i=1, a=1, b=1: 1!2!1!^2 / (2!3!5) = 2/60
        assert norm_squared(1, ModelParams(1, 1), "exact") == F(1, 30)

    @pytest.mark.parametrize("i", [0, 1, 7, 23, 50])
    @pytest.mark.parametrize("ab", [(0, 0), (2, 5), (6, 6), (5, 0)])
    def test_float_product_form_accuracy(self, i, ab):
        params = ModelParams(*ab)
        exact = norm_squared(i, params, "exact")
        got = norm_squared(i, params, "float")
        assert abs(got - float(exact)) <= 1e-13 * float(exact)

    def test_mass_is_one_over_an_integer(self):
        # both engines read B(a+1, b+1) = a! b! / (a+b+1)! from one integer;
        # the float one rounds it as the factorial Fraction would
        for a, b in [*product(range(0, 40, 3), repeat=2), (1000, 0), (1000, 1000), (5000, 3)]:
            factorials = F(math.factorial(a) * math.factorial(b), math.factorial(a + b + 1))
            params = ModelParams(a, b)
            assert total_mass(params, "exact") == factorials, (a, b)
            assert total_mass(params, "float") == float(factorials), (a, b)

    def test_real_params_via_gamma(self):
        # a=b=-1/2 (Chebyshev weight on [0,1]): mass = pi
        assert total_mass(ModelParams(-0.5, -0.5), "float") == pytest.approx(np.pi, rel=1e-14)


class TestInvariantMeasure:
    def test_legendre_pattern(self):
        params = ModelParams(0, 0)
        assert [invariant_measure(i, params, "exact") for i in range(4)] == [1, 3, 5, 7]

    def test_is_norm_ratio(self):
        params = ModelParams(3, 2)
        for i in range(8):
            assert invariant_measure(i, params, "exact") == norm_squared(
                0, params, "exact"
            ) / norm_squared(i, params, "exact")

    def test_float_shadows_exact(self):
        params = ModelParams(2, 4)
        for i in (0, 1, 5, 20, 60):
            exact = invariant_measure(i, params, "exact")
            assert invariant_measure(i, params, "float") == pytest.approx(
                float(exact), rel=1e-12
            )

    @pytest.mark.parametrize("ab", [(0, 0), (1, 2), (6, 6), (0, 6), (6, 0), (3, 5)])
    def test_float_table_shadows_exact_table(self, ab):
        params = ModelParams(*ab)
        exact = invariant_measure_table(3000, params, "exact")
        got = invariant_measure_table(3000, params, "float")
        assert len(got) == len(exact) == 3001
        assert exact[0] == 1 and got[0] == 1.0
        for value, reference in zip(got, exact):
            assert abs(value - float(reference)) <= 1e-13 * float(reference)

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError, match="n_max must be >= 0"):
            invariant_measure_table(-1, ModelParams(0, 0))


class TestWeight:
    def test_exact_on_rationals(self):
        assert weight(F(1, 2), ModelParams(1, 2)) == F(1, 8)
        assert weight(F(1, 4), ModelParams(0, 0)) == 1

    def test_endpoint_values(self):
        params = ModelParams(2, 3)
        assert weight(0, params) == 0
        assert weight(1, params) == 0
        assert weight(0.0, ModelParams(0, 0)) == 1

    def test_float_and_real_exponents(self):
        assert weight(0.25, ModelParams(1, 1)) == pytest.approx(0.1875)
        assert weight(0.25, ModelParams(0.5, 0.0)) == pytest.approx(0.5)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            weight(1.5, ModelParams(0, 0))
        with pytest.raises(ValueError):
            weight(F(-1, 10), ModelParams(0, 0))
