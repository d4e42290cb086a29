"""Transition dynamics: banded powers vs the spectral closed form.

The exact banded matrix power is the brute-force oracle; the spectral
route must match it rationally digit for digit, and in float to tight
absolute error.  t-step values marked "hand" come from path enumeration.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacobi_walk import (
    ModelParams,
    NumericalError,
    build_transition,
    gauss_jacobi_rule,
    invariant_measure,
    matrix_power_row,
    matrix_power_transition,
    spectral_transition,
    spectral_transition_row,
    stationarity_residual,
    step_coefficients,
)
from jacobi_walk.chain import _clamp_probability

F = Fraction


def loop_row(t, i, j_max, params, engine):
    """Row i of P^t by the plain list loop over states: the reference that
    the ndarray propagation must reproduce bit for bit."""
    transition = build_transition(max(i, j_max) + t + 1, params, engine)
    size, diag, sup, sub = transition.size, transition.diag, transition.sup, transition.sub
    mass = [Fraction(0) if engine == "exact" else 0.0] * size
    mass[i] = Fraction(1) if engine == "exact" else 1.0
    for _ in range(t):
        out = [mass[n] * diag[n] for n in range(size)]
        for n in range(1, size):
            out[n] += mass[n - 1] * sup[n - 1]
        for n in range(size - 1):
            out[n] += mass[n + 1] * sub[n]
        mass = out
    return mass[: j_max + 1]


class TestBandedTransition:
    def test_smallest_truncation(self):
        m = build_transition(1, ModelParams(2, 1), "exact")
        assert m.size == 1 and m.sub == () and m.sup == ()
        assert m.diag == (step_coefficients(0, ModelParams(2, 1), "exact").stay,)

    def test_two_state_truncation(self):
        # hand: a=b=0 rows ((1/2, 1/2, -), (1/6, 1/2)) with up_1 clipped
        m = build_transition(2, ModelParams(0, 0), "exact")
        assert m.diag == (F(1, 2), F(1, 2))
        assert m.sup == (F(1, 2),)
        assert m.sub == (F(1, 6),)
        r1 = m.row(1)
        assert (r1.down, r1.stay, r1.up) == (F(1, 6), F(1, 2), F(0))

    def test_interior_rows_sum_to_one(self):
        m = build_transition(9, ModelParams(3, 2), "exact")
        for n in range(8):
            assert m.row(n).total == 1
        last = m.row(8)
        assert last.total == 1 - step_coefficients(8, ModelParams(3, 2), "exact").up

    def test_propagate_conserves_interior_mass(self):
        m = build_transition(30, ModelParams(1, 4), "exact")
        mass = [F(0)] * 30
        mass[3] = F(1)
        for _ in range(10):
            mass = m.propagate(mass)
        assert sum(mass) == 1  # 10 steps from state 3 cannot reach the edge

    @pytest.mark.parametrize("n", [-1, 5])
    def test_row_outside_truncation(self, n):
        with pytest.raises(IndexError, match=f"row {n} outside truncation of size 5"):
            build_transition(5, ModelParams(1, 1)).row(n)

    def test_propagate_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="mass vector of length 4 for size 5"):
            build_transition(5, ModelParams(1, 1)).propagate([1.0, 0.0, 0.0, 0.0])


class TestMatrixPower:
    def test_zero_steps_is_identity(self):
        params = ModelParams(1, 1)
        assert matrix_power_transition(0, 5, 5, params) == 1
        assert matrix_power_transition(0, 5, 4, params) == 0

    def test_one_step_reads_coefficients(self):
        params = ModelParams(2, 3)
        for i in range(5):
            c = step_coefficients(i, params, "exact")
            assert matrix_power_transition(1, i, i + 1, params) == c.up
            assert matrix_power_transition(1, i, i, params) == c.stay
        assert matrix_power_transition(1, 3, 2, params) == step_coefficients(
            3, params, "exact"
        ).down

    def test_two_step_hand_enumeration(self):
        # hand: a=b=0 from state 0: stay0^2 + up0*down1 = 1/4 + 1/12 = 1/3;
        # stay0*up0 + up0*stay1 = 1/2; up0*up1 = 1/6
        params = ModelParams(0, 0)
        assert matrix_power_row(2, 0, 2, params, "exact") == [F(1, 3), F(1, 2), F(1, 6)]

    def test_row_is_distribution(self):
        params = ModelParams(2, 0)
        row = matrix_power_row(7, 2, 9, params, "exact")
        assert sum(row) == 1  # all reachable states retained
        assert all(p >= 0 for p in row)

    @pytest.mark.parametrize("ab", [(0, 0), (3, 5), (6, 1), (-0.5, 2.75), (0.25, -0.9)])
    def test_float_matches_list_loop_bit_for_bit(self, ab):
        params = ModelParams(*ab)
        for t, i, j_max in ((0, 2, 4), (1, 0, 3), (37, 5, 50), (150, 40, 20), (400, 3, 410)):
            got = matrix_power_row(t, i, j_max, params, "float")
            assert all(type(v) is float for v in got)
            want = loop_row(t, i, j_max, params, "float")
            # bit identity: equal floats and no sign-of-zero differences
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("ab", [(0, 0), (3, 5), (6, 1)])
    def test_exact_matches_list_loop(self, ab):
        params = ModelParams(*ab)
        for t, i, j_max in ((0, 2, 4), (1, 0, 3), (25, 4, 30), (60, 10, 5)):
            got = matrix_power_row(t, i, j_max, params, "exact")
            assert all(type(v) is Fraction for v in got)
            assert got == loop_row(t, i, j_max, params, "exact")

    def test_float_engine_shadows_exact(self):
        params = ModelParams(1, 2)
        exact = matrix_power_row(6, 1, 7, params, "exact")
        got = matrix_power_row(6, 1, 7, params, "float")
        for g, e in zip(got, exact):
            assert g == pytest.approx(float(e), abs=1e-14)


class TestSpectralTransition:
    def test_one_step_is_up_coefficient(self):
        # hand: t=1, i=0, j=1 equals up_0 = 1/2 for a=b=0
        params = ModelParams(0, 0)
        assert spectral_transition(1, 0, 1, params, "exact") == F(1, 2)
        assert spectral_transition(1, 0, 1, params, "float") == pytest.approx(0.5, abs=1e-14)

    def test_zero_steps_diagonal(self):
        params = ModelParams(3, 1)
        assert spectral_transition(0, 3, 3, params, "exact") == 1
        assert spectral_transition(0, 3, 3, params, "float") == pytest.approx(1.0, abs=1e-12)

    def test_two_step_hand_value(self):
        params = ModelParams(0, 0)
        assert spectral_transition(2, 0, 0, params, "exact") == F(1, 3)

    def test_unreachable_is_exactly_zero(self):
        params = ModelParams(1, 1)
        assert spectral_transition(3, 0, 4, params, "exact") == 0
        assert spectral_transition(3, 0, 4, params, "float") == 0.0
        row = spectral_transition_row(3, 0, params, 5, "float")
        assert row[4] == 0.0 and row[5] == 0.0

    def test_reachable_is_strictly_positive(self):
        params = ModelParams(2, 1)
        for t, i in ((1, 0), (4, 2), (9, 0)):
            for j in range(max(0, i - t), i + t + 1):
                assert spectral_transition(t, i, j, params, "exact") > 0

    @given(
        st.integers(0, 10),
        st.integers(0, 6),
        st.integers(0, 6),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    def test_exact_agreement_with_matrix_oracle(self, t, i, j, ab):
        params = ModelParams(*ab)
        assert spectral_transition(t, i, j, params, "exact") == matrix_power_transition(
            t, i, j, params
        )

    @given(
        st.integers(0, 12),
        st.integers(0, 6),
        st.integers(0, 6),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    def test_float_agreement_with_matrix_oracle(self, t, i, j, ab):
        params = ModelParams(*ab)
        exact = matrix_power_transition(t, i, j, params)
        assert abs(spectral_transition(t, i, j, params, "float") - float(exact)) <= 1e-10

    @pytest.mark.parametrize("ab", list(product(range(7), repeat=2)))
    def test_exact_row_matches_matrix_row(self, ab):
        # every t <= 40 from every i <= 8, two unreachable columns past i + t
        params = ModelParams(*ab)
        for t, i in product(range(41), range(9)):
            row = spectral_transition_row(t, i, params, i + t + 2, "exact")
            assert row == matrix_power_row(t, i, i + t + 2, params, "exact")
            assert all(isinstance(value, Fraction) for value in row)

    def test_one_step_row(self):
        # hand: (stay_0, up_0, 0) = (1/2, 1/2, 0)
        params = ModelParams(0, 0)
        assert spectral_transition_row(1, 0, params, 2, "exact") == [F(1, 2), F(1, 2), F(0)]

    @pytest.mark.parametrize("ab", list(product(range(7), repeat=2)))
    def test_float_row_at_benchmark_scale(self, ab):
        # the float-sweep benchmark's range, t up to 120 and i up to 20, and
        # a larger start state
        params = ModelParams(*ab)
        for t, i in product((10, 60, 120), (0, 13, 20, 50)):
            j_max = i + t + 5
            gauss_jacobi_rule.cache_clear()
            row = spectral_transition_row(t, i, params, j_max, "float")
            assert gauss_jacobi_rule.cache_info().misses == 1
            banded = matrix_power_row(t, i, j_max, params, "float")
            for j, (km, mp) in enumerate(zip(row, banded)):
                assert type(km) is float
                if abs(i - j) > t:
                    assert km == 0.0
                else:
                    assert abs(km - mp) <= 1e-10, (t, i, j)

    @pytest.mark.parametrize("ab", list(product((0, 3, 6), repeat=2)))
    def test_float_row_beyond_benchmark_scale(self, ab):
        # at t = 200 the float row is accurate only in absolute terms: its
        # worst miss on this grid is 2.8e-10, which the bound pins
        params = ModelParams(*ab)
        for i in (0, 20, 50):
            row = spectral_transition_row(200, i, params, i + 200, "float")
            banded = matrix_power_row(200, i, i + 200, params, "float")
            assert max(abs(km - mp) for km, mp in zip(row, banded)) <= 4e-10, i

    def test_float_row_unreachable_builds_no_rule(self):
        gauss_jacobi_rule.cache_clear()
        row = spectral_transition_row(2, 10, ModelParams(1, 1), 6, "float")
        assert row == [0.0] * 7
        assert gauss_jacobi_rule.cache_info().misses == 0

    def test_float_row_sums_to_one(self):
        params = ModelParams(3, 3)
        for t, i in ((5, 0), (9, 4), (15, 2)):
            row = spectral_transition_row(t, i, params, i + t, "float")
            assert sum(row) == pytest.approx(1.0, abs=1e-11)

    @given(
        st.integers(0, 10),
        st.integers(0, 8),
        st.integers(0, 8),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    )
    def test_reversibility(self, t, i, j, ab):
        # pi_i (P^t)_{ij} = pi_j (P^t)_{ji}: the integral is symmetric in i, j
        params = ModelParams(*ab)
        forward = invariant_measure(i, params, "exact") * spectral_transition(
            t, i, j, params, "exact"
        )
        backward = invariant_measure(j, params, "exact") * spectral_transition(
            t, j, i, params, "exact"
        )
        assert forward == backward

    def test_clamp_policy(self):
        assert _clamp_probability(-1e-12, "t") == 0.0
        assert _clamp_probability(1.0 + 1e-12, "t") == 1.0
        assert _clamp_probability(0.25, "t") == 0.25
        with pytest.raises(NumericalError):
            _clamp_probability(-1e-6, "t")
        with pytest.raises(NumericalError):
            _clamp_probability(1.0 + 1e-6, "t")

    def test_exact_mode_rejects_fractional_params(self):
        with pytest.raises(ValueError):
            spectral_transition(2, 0, 0, ModelParams(0.5, 0), "exact")


class TestStationarity:
    def test_exact_zero_legendre(self):
        assert stationarity_residual(50, ModelParams(0, 0), "exact") == 0

    def test_exact_zero_large_truncation(self):
        assert stationarity_residual(200, ModelParams(6, 6), "exact") == 0

    def test_hand_boundary_component(self):
        # hand: i=0 flow is pi_0*stay_0 + pi_1*down_1 = 1/2 + 3*(1/6) = 1
        params = ModelParams(0, 0)
        pi1 = invariant_measure(1, params, "exact")
        flow = step_coefficients(0, params, "exact").stay + pi1 * step_coefficients(
            1, params, "exact"
        ).down
        assert flow == 1
        assert stationarity_residual(2, params, "exact") == 0

    def test_float_residual_small(self):
        assert stationarity_residual(100, ModelParams(3, 2), "float") <= 1e-12
        assert stationarity_residual(200, ModelParams(6, 6), "float") <= 1e-12

    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError):
            stationarity_residual(1, ModelParams(0, 0))
