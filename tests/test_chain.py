"""Transition dynamics: banded powers vs the spectral closed form.

The exact banded matrix power is the brute-force oracle; the spectral
route must match it rationally digit for digit, and in float to tight
absolute error.  t-step values marked "hand" come from path enumeration.
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
    NumericalError,
    gauss_jacobi_rule,
    invariant_measure,
    matrix_power_row,
    matrix_power_transition,
    spectral_transition,
    spectral_transition_row,
    stationarity_residuals,
    step_coefficients,
)
import jacobi_walk.chain as chain_module
import jacobi_walk.integrate as integrate_module
from jacobi_walk.polynomials import _ratios

F = Fraction

# the non-integer exponent pairs of the other modules' tests
NON_INTEGER_PAIRS = [(-0.5, 2.75), (0.25, -0.9), (-0.99, 3.5), (-0.5, -0.5), (2.5, 1.5)]


def loop_step(mass, laws):
    """One step of the plain list loop over states, where laws[n] is
    ``step_coefficients(n, ...)``: the reference that the ndarray
    propagation must reproduce bit for bit."""
    size = len(mass)
    out = [mass[n] * laws[n].stay for n in range(size)]
    for n in range(1, size):
        out[n] += mass[n - 1] * laws[n - 1].up
    for n in range(size - 1):
        out[n] += mass[n + 1] * laws[n + 1].down
    return out


def loop_row(t, i, j_max, params, engine):
    """Row i of P^t by ``loop_step``, with the law read one state at a time.
    It keeps the wider truncation to max(i, j_max) + t + 1 states, so a row
    with j_max far past i + t pins that stepping only i + t + 1 states
    changes no bit."""
    size = max(i, j_max) + t + 1
    laws = [step_coefficients(n, params, engine) for n in range(size)]
    mass = [Fraction(0) if engine == "exact" else 0.0] * size
    mass[i] = Fraction(1) if engine == "exact" else 1.0
    for _ in range(t):
        mass = loop_step(mass, laws)
    return mass[: j_max + 1]


def fraction_bands(bands, den):
    """Exact bands as Fractions: diag[k] and sub[k] are over den[k], and
    sup[k], the move into state k + 1, over den[k + 1]."""
    diag, sup, sub = bands
    return tuple(
        _ratios(band, over, "exact") for band, over in ((diag, den), (sup, den[1:]), (sub, den[:-1]))
    )


class TestScaledBands:
    """The truncation of P to N states that both engines' routes step."""

    def test_smallest_truncation(self):
        bands, den = chain_module._scaled_bands(1, ModelParams(2, 1), "exact")
        diag, sup, sub = fraction_bands(bands, den)
        assert sup.size == 0 and sub.size == 0 and den.size == 1
        assert diag[0] == step_coefficients(0, ModelParams(2, 1), "exact").stay

    def test_two_state_truncation(self):
        # hand: a=b=0 rows ((1/2, 1/2, -), (1/6, 1/2)) with up_1 clipped
        bands, den = chain_module._scaled_bands(2, ModelParams(0, 0), "exact")
        diag, sup, sub = (band.tolist() for band in fraction_bands(bands, den))
        assert diag == [F(1, 2), F(1, 2)]
        assert sup == [F(1, 2)]
        assert sub == [F(1, 6)]

    @pytest.mark.parametrize("engine", ["exact", "float"])
    @pytest.mark.parametrize("ab", [(0, 0), (3, 2), (6, 1)])
    def test_rows_sum_to_one(self, ab, engine):
        # interior rows sum to exactly 1 (exact, each entry over the
        # denominator of the state it reaches) or to 1 within rounding
        # (float); the last row loses the clipped up-move out of state N - 1
        params, N = ModelParams(*ab), 300
        bands, den = chain_module._scaled_bands(N, params, engine)
        if engine == "exact":
            bands = fraction_bands(bands, den)
        diag, sup, sub = bands
        sums = diag.copy()
        sums[:-1] += sup
        sums[1:] += sub
        last = 1 - step_coefficients(N - 1, params, engine).up
        if engine == "exact":
            assert all(s == 1 for s in sums[:-1])
            assert sums[-1] == last
        else:
            assert den == 1
            assert max(abs(sums[:-1] - 1)) <= 2.3e-16
            assert sums[-1] == pytest.approx(last, abs=2.3e-16)

    @pytest.mark.parametrize("ab", [(0, 0), (3, 5), (6, 6)])
    def test_exact_entries_have_logarithmic_size(self, ab):
        # state k's denominator divides a few factors near 2k + a + b, so no
        # entry grows with the window: the largest has 39 bits at N = 401,
        # where one lcm over the whole window has 1155
        params = ModelParams(*ab)
        for N in (2, 50, 401, 2001):
            bound = 4 * (2 * N + sum(ab) + 3).bit_length() + 2
            for first in (0, N // 2, N - 1):
                bands, den = chain_module._scaled_bands(N, params, "exact", first)
                assert max(int(v).bit_length() for v in np.hstack((*bands, den))) <= bound
        # with no gcd over the whole row, the row's scale still keeps within
        # twice the bits of its reduced denominator
        nums, scale = chain_module._power_row(400, 0, range(401), params, "exact")
        reduced = math.lcm(*(F(n, scale).denominator for n in nums))
        assert scale.bit_length() <= 2 * reduced.bit_length()


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

    def test_unreachable_cell_builds_no_truncation(self, monkeypatch):
        def no_rows(*args):
            raise AssertionError("an unreachable cell built a truncation")

        monkeypatch.setattr(chain_module, "_power_row", no_rows)
        params = ModelParams(3, 5)
        assert matrix_power_transition(3, 0, 20000, params) == 0
        assert matrix_power_transition(3, 0, 10**9, params) == 0
        assert matrix_power_transition(3, 10**9, 0, params) == 0
        with pytest.raises(ValueError, match="requires nonnegative integer alpha"):
            matrix_power_transition(3, 0, 20000, ModelParams(0.5, 0))
        for t, i, j in ((-1, 0, 20000), (3, -1, 20000), (3, 0, -1), (3.0, 0, 20000)):
            with pytest.raises((TypeError, ValueError)):
                matrix_power_transition(t, i, j, params)

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
        cases = ((0, 2, 4), (1, 0, 3), (37, 5, 50), (150, 40, 20), (400, 3, 410), (5, 0, 300))
        # rows from i > t step a window that starts above state 0
        for t, i, j_max in cases + ((2, 9, 12), (7, 30, 45), (25, 60, 90)):
            got = matrix_power_row(t, i, j_max, params, "float")
            assert all(type(v) is float for v in got)
            want = loop_row(t, i, j_max, params, "float")
            # bit identity: equal floats and no sign-of-zero differences
            assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("ab", [(0, 0), (3, 5), (6, 1)])
    def test_exact_matches_list_loop(self, ab):
        params = ModelParams(*ab)
        cases = ((0, 2, 4), (1, 0, 3), (25, 4, 30), (60, 10, 5), (5, 0, 300))
        # rows from i > t step a window that starts above state 0
        for t, i, j_max in cases + ((2, 9, 12), (7, 30, 45), (25, 60, 90)):
            got = matrix_power_row(t, i, j_max, params, "exact")
            assert all(type(v) is Fraction for v in got)
            assert got == loop_row(t, i, j_max, params, "exact")

    @pytest.mark.parametrize("engine", ["float", "exact"])
    def test_steps_only_the_reachable_states(self, monkeypatch, engine):
        # three steps from state 0 reach states 0..3, whatever j_max asks for
        sizes = []
        scaled_bands = chain_module._scaled_bands

        def spy(N, params, engine, first=0):
            sizes.append(N - first)
            return scaled_bands(N, params, engine, first)

        monkeypatch.setattr(chain_module, "_scaled_bands", spy)
        row = matrix_power_row(3, 0, 20000, ModelParams(3, 5), engine)
        assert sizes == [4]
        assert len(row) == 20001 and not any(row[4:]) and sum(row[:4]) == 1

    @pytest.mark.parametrize("engine", ["float", "exact"])
    @pytest.mark.parametrize("t, i", [(0, 9), (1, 1), (3, 2), (3, 10**4), (40, 10**6)])
    def test_steps_only_the_window_that_the_start_reaches(self, monkeypatch, engine, t, i):
        # t steps from i reach max(0, i - t)..i + t, at most 2t + 1 states,
        # however far from state 0 the row starts
        windows = []
        scaled_bands = chain_module._scaled_bands

        def spy(N, params, engine, first=0):
            windows.append(range(first, N))
            return scaled_bands(N, params, engine, first)

        monkeypatch.setattr(chain_module, "_scaled_bands", spy)
        js = range(max(0, i - t), i + t + 1)
        row = chain_module._row(chain_module._power_row, t, i, js, ModelParams(3, 5), engine)
        assert windows == [js] and len(js) <= 2 * t + 1
        assert sum(_ratios(*row, engine)) == pytest.approx(1, abs=1e-14)

    @pytest.mark.parametrize("engine", ["float", "exact"])
    def test_window_changes_no_bit_of_the_truncated_row(self, engine):
        # against t steps on the truncation to states 0..i+t, which banded
        # rows stepped before they took the window; 60 rows per engine
        for ab, t, i in product([(0, 0), (3, 5), (6, 2)], [0, 1, 3, 10, 40], [0, 2, 7, 50]):
            params = ModelParams(*ab)
            bands, den = chain_module._scaled_bands(i + t + 1, params, engine)
            if engine == "exact":
                bands = fraction_bands(bands, den)
            mass = np.zeros(i + t + 1, dtype=bands[0].dtype)
            mass[i] = 1
            for _ in range(t):
                mass = chain_module._banded_step(mass, *bands)
            want = _ratios(mass, 1, engine).tolist()
            got = matrix_power_row(t, i, i + t, params, engine)
            if engine == "float":
                got, want = [v.hex() for v in got], [v.hex() for v in want]
            assert got == want, (ab, t, i)

    @pytest.mark.parametrize("a", range(7))
    def test_integer_bands_match_fraction_propagation(self, a):
        # integer bands over per-state denominators against Fraction masses
        # stepped by loop_step: this checks the integer scaling and each
        # state's cancellation against the independent list loop.  40 states hold
        # every state reachable in 30 steps from i <= 8 below the clipped
        # last row.
        for b, i in product(range(7), range(9)):
            params = ModelParams(a, b)
            laws = [step_coefficients(n, params, "exact") for n in range(40)]
            mass = [F(int(n == i)) for n in range(40)]
            for t in range(31):
                assert matrix_power_row(t, i, i + t, params, "exact") == mass[: i + t + 1]
                mass = loop_step(mass, laws)

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

    def test_clamp_policy(self, monkeypatch):
        # a float km row clamps rounding dust within 1e-9 of [0, 1] and
        # raises further out, naming the cell; cells 2 and 3 are unreachable
        def row_with(value):
            monkeypatch.setattr(
                chain_module,
                "_float_spectral_cells",
                lambda t, rows, cols, params, order: np.array([[0.5, value]]),
            )
            return spectral_transition_row(1, 0, ModelParams(0, 0), 3, "float")

        clamped = [(-1e-12, "0.0"), (1.0 + 1e-12, "1.0"), (0.25, "0.25"), (-0.0, "-0.0")]
        for value, printed in clamped:
            assert [repr(p) for p in row_with(value)] == ["0.5", printed, "0.0", "0.0"]
        for value in (-1e-6, 1.0 + 1e-6, float("nan")):
            with pytest.raises(NumericalError, match=r"^spectral_transition\(t=1, i=0, j=1\): "):
                row_with(value)

    @pytest.mark.parametrize("ab", [(0, 0), (3, 5), (6, 1)] + NON_INTEGER_PAIRS)
    def test_float_cell_is_the_rows_last_cell(self, ab):
        # a cell computes only its own column, on the rule of the row up to j
        params = ModelParams(*ab)
        for t, i in ((0, 3), (1, 0), (7, 2), (40, 12), (120, 20)):
            for j in sorted({0, max(0, i - t), i, i + t // 2, i + t, i + t + 1}):
                cell = spectral_transition(t, i, j, params, "float")
                assert type(cell) is float
                assert cell.hex() == spectral_transition_row(t, i, params, j, "float")[j].hex()

    def test_exact_cell_integrates_one_column(self, monkeypatch):
        asked = []
        terms = chain_module._exact_spectral_terms

        def spy(t, rows, cols, params):
            asked.append(list(cols))
            return terms(t, rows, cols, params)

        monkeypatch.setattr(chain_module, "_exact_spectral_terms", spy)
        params = ModelParams(2, 3)
        for t, i, j in ((6, 2, 3), (9, 0, 9), (4, 7, 3)):
            cell = spectral_transition(t, i, j, params, "exact")
            assert asked.pop() == [j]
            assert cell == matrix_power_transition(t, i, j, params)
        assert spectral_transition(3, 0, 4, params, "exact") == 0 and asked == []

    def test_float_cell_clamp_judges_that_cell_only(self, monkeypatch):
        # a neighbouring column's out-of-range dust is not this cell's error
        values = {0: -1e-6, 1: 0.5}
        monkeypatch.setattr(
            chain_module,
            "_float_spectral_cells",
            lambda t, rows, cols, params, order: np.array([[values[j] for j in cols]]),
        )
        params = ModelParams(0, 0)
        assert spectral_transition(1, 0, 1, params, "float") == 0.5
        with pytest.raises(NumericalError, match=r"^spectral_transition\(t=1, i=0, j=0\): "):
            spectral_transition(1, 0, 0, params, "float")

    def test_exact_mode_rejects_fractional_params(self):
        # a reachable cell and one the walk cannot reach in t steps: the
        # unreachable cell's zero is no excuse to skip the check
        for t, i, j in ((2, 0, 0), (1, 5, 0)):
            with pytest.raises(ValueError, match="requires nonnegative integer alpha and beta"):
                spectral_transition(t, i, j, ModelParams(0.5, 0), "exact")


class TestStationarity:
    def test_exact_zero_legendre(self):
        assert max(stationarity_residuals(50, ModelParams(0, 0), "exact")[1]) == 0

    def test_exact_zero_large_truncation(self):
        assert max(stationarity_residuals(200, ModelParams(6, 6), "exact")[1]) == 0

    def test_hand_boundary_component(self):
        # hand: i=0 flow is pi_0*stay_0 + pi_1*down_1 = 1/2 + 3*(1/6) = 1
        params = ModelParams(0, 0)
        pi1 = invariant_measure(1, params, "exact")
        flow = step_coefficients(0, params, "exact").stay + pi1 * step_coefficients(
            1, params, "exact"
        ).down
        assert flow == 1
        assert max(stationarity_residuals(2, params, "exact")[1]) == 0

    def test_float_residual_small(self):
        assert max(stationarity_residuals(100, ModelParams(3, 2), "float")[1]) <= 1e-12
        assert max(stationarity_residuals(200, ModelParams(6, 6), "float")[1]) <= 1e-12

    def test_rejects_tiny_truncation(self):
        with pytest.raises(ValueError):
            stationarity_residuals(1, ModelParams(0, 0))


class TestPlantedInvariantMeasure:
    """pi P = pi is not a circular check: pi has its own core, which reads no
    law, so one wrong pi entry shows in the residuals and in the km cells
    that read it."""

    STATE = 5

    def plant(self, monkeypatch, change):
        invariant_terms = chain_module._invariant_terms

        def planted(n_max, params, engine):
            nums, scale = invariant_terms(n_max, params, engine)
            if n_max >= self.STATE:
                nums[self.STATE] = change(nums[self.STATE])
            return nums, scale

        for module in (chain_module, integrate_module):
            monkeypatch.setattr(module, "_invariant_terms", planted)

    @pytest.mark.parametrize("ab", [(0, 0), (3, 5)])
    def test_one_wrong_exact_numerator_shows(self, monkeypatch, ab):
        params = ModelParams(*ab)
        row = spectral_transition_row(4, 3, params, 8, "exact")
        assert not any(stationarity_residuals(12, params, "exact")[1])
        self.plant(monkeypatch, lambda p: p + 1)
        assert stationarity_residuals(12, params, "exact")[1][self.STATE] != 0
        moved = spectral_transition_row(4, 3, params, 8, "exact")
        assert [j for j in range(9) if moved[j] != row[j]] == [self.STATE]

    @pytest.mark.parametrize("ab", [(0, 0), (3, 5)])
    def test_one_float_entry_off_by_1e_9_shows(self, monkeypatch, ab):
        params = ModelParams(*ab)
        row = spectral_transition_row(4, 3, params, 8)
        assert stationarity_residuals(12, params)[1][self.STATE] < 1e-14
        self.plant(monkeypatch, lambda p: p * (1 + 1e-9))
        assert stationarity_residuals(12, params)[1][self.STATE] > 1e-10
        # cell j carries sqrt(pi_j / pi_i), so it moves by half the plant
        moved = spectral_transition_row(4, 3, params, 8)
        assert 4e-10 < moved[self.STATE] / row[self.STATE] - 1 < 6e-10


def band_mismatches(t, i, params):
    """Columns of the band i-t..i+t where the exact banded and exact
    spectral rows differ."""
    banded = matrix_power_row(t, i, i + t, params, "exact")
    spectral = spectral_transition_row(t, i, params, i + t, "exact")
    return [j for j, (mp, km) in enumerate(zip(banded, spectral)) if mp != km]


class TestLongHorizons:
    """The two exact routes far past the t <= 40 of the whole-row grid."""

    @pytest.mark.parametrize("ab", [(0, 0), (3, 5), (6, 6)])
    def test_exact_routes_agree_over_the_whole_band(self, ab):
        # i = 101 steps a window that starts above state 0
        for t, i in ((100, 0), (100, 101), (400, 0)):
            assert band_mismatches(t, i, ModelParams(*ab)) == [], (t, i)

    def test_a_planted_denominator_fails_the_comparison(self, monkeypatch):
        # state 40 of the window claims twice its denominator
        scaled_bands = chain_module._scaled_bands

        def planted(N, params, engine, first=0):
            bands, den = scaled_bands(N, params, engine, first)
            den[40] *= 2
            return bands, den

        monkeypatch.setattr(chain_module, "_scaled_bands", planted)
        assert band_mismatches(100, 0, ModelParams(3, 5))

    @pytest.mark.parametrize("ab", [(0, 0), (3, 5), (6, 6)])
    def test_exact_residuals_vanish_on_a_long_truncation(self, ab):
        assert not any(stationarity_residuals(4001, ModelParams(*ab), "exact")[1])
