"""Exact moments, rational polynomial integration, Gauss quadrature.

The rational route (moment / integrate_poly_exact) is the oracle; the
quadrature route must reproduce it on every polynomial inside its degree
budget.  An M-point rule owes exactness through degree 2M - 1.
"""

import hashlib
import itertools
import math
import operator
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacobi_walk import (
    ModelParams,
    NumericalError,
    eval_poly,
    gauss_jacobi_rule,
    integrate_poly_exact,
    invariant_measure_table,
    matrix_power_row,
    moment,
    monomial_coefficients,
    norm_squared,
    orthonormality_table,
    poly_product,
    spectral_transition_row,
    step_coefficients,
    total_mass,
)
import jacobi_walk.integrate as integrate_module
from jacobi_walk.cli import _texts
from jacobi_walk.integrate import (
    _exact_spectral_terms,
    _normalized_moments,
    _orthonormal_sweep,
    _symmetrized_recurrence,
)
from jacobi_walk.polynomials import _coefficient_numerators, _invariant_numerators

F = Fraction


class TestMoment:
    def test_hand_values(self):
        # hand: (a+k)! b! / (a+b+k+1)! -> 1, 1/4, 3!2!/6! = 1/60
        assert moment(0, ModelParams(0, 0)) == 1
        assert moment(3, ModelParams(0, 0)) == F(1, 4)
        assert moment(2, ModelParams(1, 2)) == F(1, 60)

    def test_matches_total_mass(self):
        params = ModelParams(4, 3)
        assert moment(0, params) == total_mass(params, "exact")

    def test_matches_the_factorial_form(self):
        # B(a+k+1, b+1) = (a+k)! b! / (a+b+k+1)!, independent of the
        # inverse mass that moment() reads
        for a, b in itertools.product(range(7), repeat=2):
            for k in range(41):
                top = math.factorial(a + k) * math.factorial(b)
                assert moment(k, ModelParams(a, b)) == F(top, math.factorial(a + b + k + 1))

    def test_rejects_fractional_params(self):
        with pytest.raises(ValueError):
            moment(1, ModelParams(0.5, 0))


class TestIntegratePolyExact:
    def test_orthogonality_low_degree(self):
        params = ModelParams(0, 0)
        q0 = monomial_coefficients(0, params)
        q1 = monomial_coefficients(1, params)
        assert integrate_poly_exact(poly_product(q0, q1), params) == 0
        assert integrate_poly_exact(poly_product(q1, q1), params) == F(1, 3)

    def test_constant(self):
        assert integrate_poly_exact([1], ModelParams(1, 0)) == F(1, 2)

    @pytest.mark.parametrize("ab", [(0, 0), (1, 2), (6, 0), (0, 6), (6, 6)])
    def test_monomials_integrate_to_moments(self, ab):
        # the normalized moments against moment()'s inverse-mass form
        params = ModelParams(*ab)
        for k in range(61):
            assert integrate_poly_exact([0] * k + [1], params) == moment(k, params)

    def test_empty_polynomial_is_zero(self):
        assert integrate_poly_exact([], ModelParams(2, 3)) == 0

    def test_norm_identity_matches_gamma_form(self):
        params = ModelParams(2, 3)
        for i in range(6):
            q = monomial_coefficients(i, params)
            assert integrate_poly_exact(poly_product(q, q), params) == norm_squared(
                i, params, "exact"
            )


class TestGaussRule:
    def test_single_node_rule(self):
        # hand: the 1-point rule sits at stay_0 with the full mass
        rule = gauss_jacobi_rule(1, ModelParams(0, 0))
        assert abs(rule.nodes[0] - 0.5) <= 1e-15
        assert abs(rule.weights[0] - 1.0) <= 1e-15

    def test_two_node_rule(self):
        # hand: a=b=0 nodes are 1/2 -+ 1/(2*sqrt(3)), weights 1/2
        rule = gauss_jacobi_rule(2, ModelParams(0, 0))
        lo = 0.5 - 0.5 / math.sqrt(3.0)
        hi = 0.5 + 0.5 / math.sqrt(3.0)
        assert rule.nodes == pytest.approx([lo, hi], abs=1e-14)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-14)

    @pytest.mark.parametrize("order", [5, 17, 40])
    @pytest.mark.parametrize("ab", [(0, 0), (3, 0), (0, 5), (5, 3)])
    def test_validity_and_moment_exactness(self, order, ab):
        params = ModelParams(*ab)
        rule = gauss_jacobi_rule(order, params)
        assert rule.nodes.shape == (order,)
        assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        for k in range(2 * order):
            exact = float(moment(k, params))
            got = rule.integrate(rule.nodes**k)
            assert abs(got - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("order", [141, 241, 600])
    @pytest.mark.parametrize("ab", [(0, 0), (6, 6), (0, 6), (-0.5, 2.75)])
    def test_validity_and_moments_at_benchmark_orders(self, order, ab):
        # the benchmark's float-sweep builds rules up to order 600 (quadrule)
        # and 241 (orthocheck)
        params = ModelParams(*ab)
        rule = gauss_jacobi_rule(order, params)
        assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(total_mass(params), rel=1e-13)
        a, b = params.alpha, params.beta
        for k in range(11):
            if params.is_integral:
                exact = float(moment(k, params))
            else:
                exact = math.exp(math.lgamma(a + k + 1) + math.lgamma(b + 1) - math.lgamma(a + b + k + 2))
            assert rule.integrate(rule.nodes**k) == pytest.approx(exact, rel=1e-12)

    def test_cached_and_immutable(self):
        params = ModelParams(1, 1)
        rule = gauss_jacobi_rule(6, params)
        assert gauss_jacobi_rule(6, params) is rule
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            gauss_jacobi_rule(0, ModelParams(0, 0))

    def test_integrate_rejects_values_of_wrong_shape(self):
        rule = gauss_jacobi_rule(4, ModelParams(1, 1))
        with pytest.raises(ValueError, match="must match the rule's nodes in shape"):
            rule.integrate(np.ones(3))

    @pytest.mark.parametrize(
        "alpha, beta", [(300, 0), (1000, 5), (5, 1000), (1000, 0), (0, 1000), (1000, 20)]
    )
    def test_underflowing_weights_are_named(self, alpha, beta):
        # the weights at the end where the weight vanishes to a high power
        # fall below the smallest subnormal, and none is negative.  Past
        # (300, 0) a few end nodes also fail the root-count check after
        # bisection; the rule still names the underflow
        gauss_jacobi_rule.cache_clear()
        with pytest.raises(NumericalError) as failure:
            gauss_jacobi_rule(600, ModelParams(alpha, beta))
        gauss_jacobi_rule.cache_clear()
        found = re.fullmatch(
            r"Gauss rule of order 600: (\d+) weights underflow binary64", str(failure.value)
        )
        assert found and 0 < int(found[1]) < 600

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    @pytest.mark.parametrize("node", [1, "middle"])
    @pytest.mark.parametrize("order, ab", [(20, (3, 5)), (600, (300, 0))])
    def test_negative_or_nan_weight_is_nonpositive(self, monkeypatch, bad, node, order, ab):
        # a planted negative or nan weight is named as such, also among
        # underflowed ones; at (300, 0) node 1's weight underflows, to -0.0
        # once negated
        real_sum = integrate_module._christoffel_sum

        def planted(xs, diag, off):
            kernel = real_sum(xs, diag, off)
            kernel[order // 2 if node == "middle" else node] *= bad
            return kernel

        monkeypatch.setattr(integrate_module, "_christoffel_sum", planted)
        gauss_jacobi_rule.cache_clear()
        with pytest.raises(NumericalError) as failure:
            gauss_jacobi_rule(order, ModelParams(*ab))
        gauss_jacobi_rule.cache_clear()
        assert str(failure.value) == f"Gauss rule of order {order}: nonpositive weight"

    def test_real_parameter_rule(self):
        # Chebyshev-like weight: mass pi, nodes still inside (0,1)
        rule = gauss_jacobi_rule(8, ModelParams(-0.5, -0.5))
        assert rule.weights.sum() == pytest.approx(math.pi, rel=1e-13)
        assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1)

    @pytest.mark.parametrize("ab", [(0, 0), (4, 2), (5, 5)])
    def test_weights_match_eigenvector_route(self, ab):
        # dual route (Golub-Welsch): the weight's total mass times the
        # squared first eigenvector components of the dense Jacobi matrix,
        # from LAPACK, must agree with the shipped kernel-identity weights
        # (measured worst 1.3e-13 relative)
        params = ModelParams(*ab)
        order = 33
        diag, off, mass = _symmetrized_recurrence(order, params)
        jacobi = np.diag(diag) + np.diag(off[: order - 1], 1) + np.diag(off[: order - 1], -1)
        _, vectors = np.linalg.eigh(jacobi)
        rule = gauss_jacobi_rule(order, params)
        assert rule.weights == pytest.approx(mass * vectors[0, :] ** 2, rel=1e-12)


class TestChristoffelDarboux:
    """The confluent Christoffel-Darboux identity, which ties the weights'
    kernel sum_k p_k**2 to p_M' at the nodes:

        sum_{k<M} Q_k(x)**2 / norm_squared(k)
            = up_{M-1} / norm_squared(M-1) * (Q_M' Q_{M-1} - Q_{M-1}' Q_M)(x)

    holds exactly for every rational x, inside [0, 1] or not.
    """

    @pytest.mark.parametrize("ab", [(0, 0), (2, 1), (3, 5), (6, 0)])
    def test_confluent_identity_exact(self, ab):
        params = ModelParams(*ab)

        def value(coeffs, x):
            return sum(c * x**k for k, c in enumerate(coeffs))

        def slope(coeffs, x):
            return sum(k * c * x ** (k - 1) for k, c in enumerate(coeffs) if k)

        for m in range(1, 10):
            q_m = monomial_coefficients(m, params)
            q_below = monomial_coefficients(m - 1, params)
            scale = step_coefficients(m - 1, params, "exact").up / norm_squared(m - 1, params, "exact")
            for x in (F(-3, 2), F(0), F(2, 7), F(1, 2), F(1), F(9, 4)):
                kernel = sum(
                    value(monomial_coefficients(k, params), x) ** 2 / norm_squared(k, params, "exact")
                    for k in range(m)
                )
                wronskian = slope(q_m, x) * value(q_below, x) - slope(q_below, x) * value(q_m, x)
                assert kernel == scale * wronskian


def _exact_sign_of_p_m(x, diag, off):
    """Sign of p_M(x), M = len(diag), evaluated exactly on double data.

    p_M is a positive multiple of the monic P_M with
    P_{k+1} = (x - diag[k]) P_k - off[k-1]**2 P_{k-1}.  Every double is a
    dyadic Fraction, so multiplying x and diag by their common denominator
    S (and off**2 by S**2) keeps the whole sweep in exact integers.
    """
    x = F(float(x))
    diag = [F(float(v)) for v in diag]
    off = [F(float(v)) for v in off[: len(diag) - 1]]
    scale = max(v.denominator for v in [x, *diag, *off])
    prev, cur = 0, 1
    for k, d in enumerate(diag):
        back = int(off[k - 1] ** 2 * scale**2) * prev if k else 0
        prev, cur = cur, int((x - d) * scale) * cur - back
    return (cur > 0) - (cur < 0)


def _brackets_zero(x, ulps, diag, off):
    """True when p_M changes sign (or vanishes) within x -+ ulps ulps."""
    lo, hi = x, x
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
    below, above = _exact_sign_of_p_m(lo, diag, off), _exact_sign_of_p_m(hi, diag, off)
    return below * above <= 0


class TestPolishAgainstExactRecurrence:
    """The Newton-polished nodes against the zeros of p_M on the same double data.

    p_M is evaluated exactly, so these tests measure how close the
    long-double Newton sweep gets to the recurrence it targets.
    """

    @pytest.mark.parametrize("order", [97, 241, 600])
    @pytest.mark.parametrize("ab", [(0, 0), (3, 5), (-0.5, 2.75), (6, 0), (0, 6), (6, 6)])
    def test_nodes_within_one_ulp(self, order, ab):
        params = ModelParams(*ab)
        diag, off, _ = _symmetrized_recurrence(order, params)
        rule = gauss_jacobi_rule(order, params)
        for k in (4, 5, order // 4, order // 2, 3 * order // 4, order - 1):
            assert _brackets_zero(rule.nodes[k], 1, diag, off), k

    @pytest.mark.parametrize("order", [97, 241, 600])
    @pytest.mark.parametrize("ab", [(0, 0), (3, 5), (-0.5, 2.75), (6, 0), (0, 6), (6, 6)])
    def test_end_nodes_within_64_ulps(self, order, ab):
        # near x = 0 long-double x - stay_k keeps only part of the node's
        # bits, so node 0 lands anywhere in a band of sign noise (measured:
        # at most 12 ulps, node 0 of (0, 0) at order 600; node 0 of
        # (-0.5, 2.75) there read 53 ulps under a schedule with one more
        # double sweep)
        params = ModelParams(*ab)
        diag, off, _ = _symmetrized_recurrence(order, params)
        rule = gauss_jacobi_rule(order, params)
        for k in (0, 1, 2, 3, order - 4, order - 3, order - 2, order - 1):
            assert _brackets_zero(rule.nodes[k], 64, diag, off), k

    def test_smallest_node_of_singular_weight(self):
        # near x = 0 the long-double sweep limits the polish, not the number
        # of sweeps (measured: 24 ulps)
        params = ModelParams(-0.99, 3.5)
        diag, off, _ = _symmetrized_recurrence(241, params)
        rule = gauss_jacobi_rule(241, params)
        assert _brackets_zero(rule.nodes[0], 64, diag, off)


def _record_bisected(monkeypatch):
    """Patch integrate._bisect to record the node indices it is given."""
    lanes_seen = []
    real_bisect = integrate_module._bisect

    def spy(lanes, diag, off):
        lanes_seen.extend(lanes.tolist())
        return real_bisect(lanes, diag, off)

    monkeypatch.setattr(integrate_module, "_bisect", spy)
    return lanes_seen


# large exponents, where the asymptotic start fails the root-count check
FALLBACKS = [
    (50, (300, 0)), (600, (40, 3)), (3, (100, 0)),
    (50, (0, 300)), (600, (3, 40)), (3, (0, 100)),
]


class TestRootCountFallback:
    """Nodes whose Newton result fails the Sturm root count are bisected."""

    @pytest.mark.parametrize("order, ab", FALLBACKS)
    def test_large_exponents_build_valid_rules(self, order, ab, monkeypatch):
        bisected = _record_bisected(monkeypatch)
        gauss_jacobi_rule.cache_clear()
        params = ModelParams(*ab)
        rule = gauss_jacobi_rule(order, params)
        assert bisected
        assert np.all(rule.nodes > 0) and np.all(rule.nodes < 1)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(total_mass(params), rel=1e-13)
        diag, off, _ = _symmetrized_recurrence(order, params)
        for k in sorted({*range(min(4, order)), *range(max(order - 4, 0), order)}):
            assert _brackets_zero(rule.nodes[k], 64, diag, off), k
        for k in (4, 5, order // 4, order // 2, 3 * order // 4, order - 1):
            if k < order:
                assert _brackets_zero(rule.nodes[k], 1, diag, off), k

    def test_colliding_start_is_caught_and_bisected(self, monkeypatch):
        params, order = ModelParams(3, 5), 97
        gauss_jacobi_rule.cache_clear()
        expected = gauss_jacobi_rule(order, params)
        real_start = integrate_module._start_nodes

        def colliding(order, a, b):
            xs = real_start(order, a, b)
            xs[41] = xs[40]
            return xs

        monkeypatch.setattr(integrate_module, "_start_nodes", colliding)
        bisected = _record_bisected(monkeypatch)
        gauss_jacobi_rule.cache_clear()
        rule = gauss_jacobi_rule(order, params)
        gauss_jacobi_rule.cache_clear()
        assert {40, 41} <= set(bisected)
        np.testing.assert_array_equal(rule.nodes, expected.nodes)
        np.testing.assert_array_equal(rule.weights, expected.weights)

    def test_unresolved_nodes_raise(self, monkeypatch):
        # a bisection that returns garbage leaves the check failing
        monkeypatch.setattr(
            integrate_module, "_start_nodes", lambda order, a, b: np.full(order, 0.5)
        )
        monkeypatch.setattr(
            integrate_module, "_bisect", lambda lanes, diag, off: np.full(lanes.size, 0.5)
        )
        gauss_jacobi_rule.cache_clear()
        with pytest.raises(NumericalError, match="root-count check"):
            gauss_jacobi_rule(7, ModelParams(1, 1))
        gauss_jacobi_rule.cache_clear()

    @pytest.mark.parametrize("ab", [(10**200, 0), (0, 10**200), (10**300, 3)])
    def test_overflowing_law_raises_before_newton(self, monkeypatch, ab):
        # nan recurrence data would be bisected and then blamed on the
        # root count; the rule names the law instead, and starts no sweep
        def no_start(order, a, b):
            raise AssertionError("start nodes built on non-finite data")

        monkeypatch.setattr(integrate_module, "_start_nodes", no_start)
        gauss_jacobi_rule.cache_clear()
        with pytest.raises(NumericalError) as failure:
            gauss_jacobi_rule(3, ModelParams(*ab))
        gauss_jacobi_rule.cache_clear()
        assert str(failure.value) == "Gauss rule of order 3: the one-step law overflows binary64"

    @pytest.mark.parametrize("order", [1, 2, 3, 7, 40])
    def test_sturm_count_matches_eigenvalues(self, order):
        # the count of zeros of p_M above x is the count of Jacobi-matrix
        # eigenvalues above x (LAPACK on the dense matrix)
        diag, off, _ = _symmetrized_recurrence(order, ModelParams(2, 1))
        jacobi = np.diag(diag) + np.diag(off[: order - 1], 1) + np.diag(off[: order - 1], -1)
        eigenvalues = np.linalg.eigvalsh(jacobi)
        xs = np.linspace(-0.25, 1.25, 301)
        expected = (eigenvalues[None, :] > xs[:, None]).sum(axis=1)
        np.testing.assert_array_equal(integrate_module._zeros_above(xs, diag, off), expected)


# Rules whose nodes lie on both sides of 1/2, singular weights and a
# bisected one; at nodes below 1/2 the complex step is scaled to the node
GRID_DIGEST_PAIRS = [(0, 0), (3, 5), (-0.99, 3.5), (-0.5, 2.75), (0.25, -0.9), (40, 3)]
GRID_DIGEST = "bed504b2215686136d7eff2a5cc56f0882fefed0dbbe441eca8fb06d7d3cca57"


class TestComplexStep:
    """Newton's complex step h = 2**-80 * 2**e follows each node's binade."""

    @pytest.mark.parametrize("exponent", [20, 40, 154])
    def test_zeros_near_zero_scale_with_beta(self, exponent):
        # as beta grows, beta * x_k tends to the zeros of the Laguerre
        # polynomial L_3 (alpha = 0), within O(1/beta); a fixed h = 2**-80
        # moved node 0 by 1.2e-8 relative at 10**20 and failed the
        # root-count check at 10**40 and 10**154
        beta = 10**exponent
        rule = gauss_jacobi_rule(3, ModelParams(0, beta))
        laguerre_zeros, laguerre_weights = np.polynomial.laguerre.laggauss(3)
        assert rule.nodes * float(beta) == pytest.approx(laguerre_zeros, rel=1e-15)
        assert rule.weights * (float(beta) + 1) == pytest.approx(laguerre_weights, rel=1e-15)

    def test_grid_digest(self):
        # the same bytes as with a fixed h on this grid
        digest = hashlib.sha256()
        for ab in GRID_DIGEST_PAIRS:
            for order in [*range(1, 41), 97, 241]:
                rule = gauss_jacobi_rule(order, ModelParams(*ab))
                digest.update(rule.nodes.tobytes() + rule.weights.tobytes())
        assert digest.hexdigest() == GRID_DIGEST

    def test_underflowing_step_fails_the_check(self, monkeypatch):
        # below 2**-994, h underflows binary64 to 0 and the double sweep's
        # step is nan; such nodes end in the root-count message
        tiny = 2.0**-1000
        diag, off, _ = _symmetrized_recurrence(3, ModelParams(1, 1))
        steps = integrate_module._recurrence_steps(diag, off, float)
        assert np.isnan(integrate_module._newton_step(np.array([tiny]), steps)).all()
        monkeypatch.setattr(
            integrate_module, "_start_nodes", lambda order, a, b: tiny * np.arange(1.0, order + 1)
        )
        monkeypatch.setattr(
            integrate_module, "_bisect", lambda lanes, diag, off: tiny * (lanes + 1.0)
        )
        gauss_jacobi_rule.cache_clear()
        with pytest.raises(NumericalError, match="3 nodes fail the root-count check"):
            gauss_jacobi_rule(3, ModelParams(1, 1))
        gauss_jacobi_rule.cache_clear()


# Huge, large and mirrored exponents, where rules are built, bisected, or
# refused with each of the rule's messages.  Per pair, the sha256 of one
# line per order: the NumericalError text, or the sha256 of the nodes and
# weights.  Order 600 only where the refusal needs no node.
REFUSAL_ORDERS = [*range(1, 21), 40, 59, 97, 141, 241]
REFUSED_BEFORE_NODES = [(10**200, 0), (1000, 1000), (10**6, 10**6)]
REFUSAL_GRID = {
    (10**20, 0): "4e0664f2ca8842de4324eba77f9b5bbf82be2921efff7e13c48771476c962cc6",
    (0, 10**20): "7278f157c13c6ec745090333e2bac45b18631e9c1d37361fada00fddb8aa0f52",
    (10**9, 0): "dacf4eb94a62161ca9311dbc9e2155b72290c1ce454d042bd1903bd4996a365d",
    (10**12, 0): "55f23708c57bfd0d728ee059f19818eedb2d67c1a60bbea1ec4b89778f426706",
    (10**200, 0): "1312343a6bf8a1bed3faf80477618cb38cad46ffc7a1bc612f9016f2dacbb02c",
    (1000, 0): "4671d5dc740f2a4625cfa090b0a553a6a73f147df5d56b9114e7b9888c11f485",
    (0, 1000): "e01fbd4c6ad9d6e6e79902862b53ea8a0173d0bd29ed7472d49e3b7c7a9531d9",
    (1000, 5): "da6bc8d9106b43bc2338e78b711ee2c5520b491c9a502467220afd41c31d2600",
    (5, 1000): "677a385c4e10e7945ac6d575d47d35088f08945c4448b24f87652d8ae682cb71",
    (1000, 20): "a80fc50955af551a720f03ea99d57e57527948bef2ef44f53ac9b5cb706d0440",
    (300, 0): "7a6048a958e5cd0690cc59fab32aa318a070062259837d33ca4945acf8402956",
    (100, 100): "8078d9a1b01a507c8e2b750deae775dd951a5e21eb227e7f5aaebda6197b42cb",
    (40, 3): "4743b57fccea37640181ba04f4f6e48233c2e12a8bbfe62fc261e2f420304366",
    (1000, 1000): "d49813951f5929fe8d7b51e275029e0ed308e2413b01b5c802324f41227f3701",
    (10**6, 10**6): "d49813951f5929fe8d7b51e275029e0ed308e2413b01b5c802324f41227f3701",
}


class TestRefusalGrid:
    """The rules and refusals of the exponents that push binary64 hardest."""

    @staticmethod
    def _record(order, params) -> str:
        try:
            rule = gauss_jacobi_rule(order, params)
        except NumericalError as failure:
            return str(failure)
        return hashlib.sha256(rule.nodes.tobytes() + rule.weights.tobytes()).hexdigest()

    @pytest.mark.parametrize(
        "ab", list(REFUSAL_GRID), ids=lambda ab: "-".join(f"{v:g}" for v in ab)
    )
    def test_refusal_grid(self, ab):
        orders = REFUSAL_ORDERS + [600] * (ab in REFUSED_BEFORE_NODES)
        lines = "\n".join(self._record(order, ModelParams(*ab)) for order in orders)
        assert hashlib.sha256(lines.encode()).hexdigest() == REFUSAL_GRID[ab]

    def test_underflowing_mass_needs_no_node(self, monkeypatch):
        # B(1001, 1001) lies below the doubles; the rule says so without
        # starting or polishing a node
        def no_nodes(*args):
            raise AssertionError("nodes computed for a rule without mass")

        monkeypatch.setattr(integrate_module, "_start_nodes", no_nodes)
        monkeypatch.setattr(integrate_module, "_polish", no_nodes)
        with pytest.raises(NumericalError) as failure:
            gauss_jacobi_rule(600, ModelParams(1000, 1000))
        assert str(failure.value) == (
            "Gauss rule of order 600: the weight's total mass underflows to 0.0"
        )

    @pytest.mark.parametrize(
        "order, ab, garbage, reason",
        [
            (5, (10**20, 0), False, "5 nodes round to the one double 0.9999999999999999; "
             "binary64 resolves only steps of 1.11e-16 there"),
            (141, (10**12, 0), False, "1 weights underflow binary64"),
            (7, (1, 1), True, "1 weights underflow binary64"),
            (20, (3, 5), False, "1 weights underflow binary64"),
        ],
        ids=["tie", "stall", "root-count", "verified"],
    )
    def test_which_refusal_wins_over_one_underflow(self, monkeypatch, order, ab, garbage, reason):
        # node 0's weight is planted to 0.0: zeros that round to one double
        # still win, and the underflow wins over the stall, over the root
        # count of test_unresolved_nodes_raise and in a verified rule
        real_sum = integrate_module._christoffel_sum

        def planted(xs, diag, off):
            kernel = real_sum(xs, diag, off)
            kernel[0] = np.inf
            return kernel

        monkeypatch.setattr(integrate_module, "_christoffel_sum", planted)
        if garbage:
            monkeypatch.setattr(
                integrate_module, "_start_nodes", lambda order, a, b: np.full(order, 0.5)
            )
            monkeypatch.setattr(
                integrate_module, "_bisect", lambda lanes, diag, off: np.full(lanes.size, 0.5)
            )
        gauss_jacobi_rule.cache_clear()
        with pytest.raises(NumericalError) as failure:
            gauss_jacobi_rule(order, ModelParams(*ab))
        gauss_jacobi_rule.cache_clear()
        assert str(failure.value) == f"Gauss rule of order {order}: {reason}"

    def test_stalled_nodes_are_counted_once_per_polish(self, monkeypatch):
        # the Sturm count at the 140 midpoints runs after each of the two
        # polishes; the stall message reads the second verdict
        midpoint_counts = []
        real_count = integrate_module._zeros_above

        def spy(xs, diag, off):
            midpoint_counts.append(xs.size == 140)
            return real_count(xs, diag, off)

        monkeypatch.setattr(integrate_module, "_zeros_above", spy)
        with pytest.raises(NumericalError, match="141 nodes stall at binary64's resolution"):
            gauss_jacobi_rule(141, ModelParams(10**12, 0))
        assert midpoint_counts.count(True) == 2


class TestOrthonormalityTable:
    def test_exact_engine_is_identity(self):
        table = orthonormality_table(6, ModelParams(2, 1), "exact")
        for i in range(7):
            for j in range(7):
                assert table[i][j] == (1 if i == j else 0)
                assert isinstance(table[i][j], Fraction)

    @pytest.mark.parametrize("ab", [(a, b) for a in range(7) for b in range(7)])
    def test_exact_gram_is_identity_to_degree_30(self, ab):
        table = orthonormality_table(30, ModelParams(*ab), "exact")
        assert table == [[int(i == j) for j in range(31)] for i in range(31)]
        assert all(isinstance(value, Fraction) for row in table for value in row)

    def test_float_engine_near_identity(self):
        table = orthonormality_table(12, ModelParams(3, 4), "float")
        assert float(np.abs(table - np.eye(13)).max()) <= 1e-12

    # ROADMAP item 1: the float table is this Gram of the orthonormal
    # polynomials scaled by sqrt(pi_j / pi_i), which blows its rounding up
    # to 7.7e-6 at (0, 6, 112) and 1.6e63 at (0, 10**40, 2).  Unscaled, on
    # the n + 1 nodes that degree 2n needs, the worst miss here is 1.0e-14.
    @pytest.mark.parametrize(
        "a, b, n",
        [(a, b, n) for a in (0, 3, 6) for b in (0, 3, 6) for n in (20, 120)]
        + [(0, 6, 112), (0, 10**40, 2), (0, 10**20, 2)],
    )
    def test_orthonormal_gram_is_identity_before_scaling(self, a, b, n):
        params = ModelParams(a, b)
        rule = gauss_jacobi_rule(n + 1, params)
        nodes = rule.nodes.astype(np.longdouble)
        table = np.array(list(_orthonormal_sweep(nodes, *_symmetrized_recurrence(n, params))))
        gram = np.dot(table * rule.weights.astype(np.longdouble), table.T).astype(float)
        assert float(np.abs(gram - np.eye(n + 1)).max()) <= 1e-13

    def test_real_parameters_float_only(self):
        params = ModelParams(-0.5, 0.25)
        table = orthonormality_table(5, params, "float")
        assert float(np.abs(table - np.eye(6)).max()) <= 1e-11
        with pytest.raises(ValueError):
            orthonormality_table(5, params, "exact")

    def test_rejects_negative_size_and_bad_engine(self):
        with pytest.raises(ValueError):
            orthonormality_table(-1, ModelParams(0, 0))
        with pytest.raises(ValueError):
            orthonormality_table(3, ModelParams(0, 0), "decimal")


def monomial_spectral_terms(t, rows, cols, params):
    """The spectral cells in powers of x, against mu_{t+k+l}: a reference kept
    here, whose moment table and integers grow with t."""
    a, b = params.require_integral("reference")
    degree = max(cols)
    tops, bottom = _normalized_moments(t + max(rows) + degree, a, b)
    poly = {n: _coefficient_numerators(n, a, b) for n in {*rows, *cols}}
    pi, scale = _invariant_numerators(degree, params)
    nums, dens = [], []
    for i in rows:
        nums_i, den_i = poly[i]
        shifted = [
            sum(map(operator.mul, nums_i, tops[t + l : t + l + i + 1])) for l in range(degree + 1)
        ]
        nums += [pi[j] * sum(map(operator.mul, poly[j][0], shifted)) for j in cols]
        dens += [scale * den_i * bottom * poly[j][1] for j in cols]
    return nums, dens


class TestExactSpectralTerms:
    @pytest.mark.parametrize("ab", [(a, b) for a in range(7) for b in range(7)])
    def test_text_equals_the_monomial_reference(self, ab):
        # 22 blocks per pair: 21 rows over the band t reaches, and the Gram
        params = ModelParams(*ab)
        blocks = [
            (t, [i], range(max(0, i - t), i + t + 1))
            for t in (0, 1, 2, 5, 9, 15, 40)
            for i in (0, 3, 8)
        ] + [(0, range(13), range(13))]
        for block in blocks:
            expected = _texts(*monomial_spectral_terms(*block, params))
            assert _texts(*_exact_spectral_terms(*block, params)) == expected, block

    @pytest.mark.parametrize("t", [10**6, 10**9])
    @pytest.mark.parametrize("ab", [(3, 5), (0, 0), (2, 1)])
    def test_chapman_kolmogorov_at_large_t(self, ab, t):
        # P^(t+3)(4, j) = sum_k P^3(4, k) P^t(k, j), the 3-step leg banded
        # over k = 1..7, the states that 3 steps from 4 reach
        params = ModelParams(*ab)
        leg = matrix_power_row(3, 4, 7, params, "exact")
        rows = {k: spectral_transition_row(t, k, params, 12, "exact") for k in range(1, 8)}
        expected = [sum(leg[k] * rows[k][j] for k in rows) for j in range(13)]
        assert spectral_transition_row(t + 3, 4, params, 12, "exact") == expected

    @pytest.mark.parametrize("t", [10**6, 10**9])
    @pytest.mark.parametrize("ab", [(3, 5), (0, 0), (2, 1)])
    def test_reversible_at_large_t(self, ab, t):
        params = ModelParams(*ab)
        pi = invariant_measure_table(8, params, "exact")
        rows = [spectral_transition_row(t, i, params, 8, "exact") for i in range(9)]
        for i in range(9):
            for j in range(9):
                assert pi[i] * rows[i][j] == pi[j] * rows[j][i]
        assert 0 < rows[8][0] < rows[0][0] < 1

    @pytest.mark.parametrize("t", [0, 40, 10**4, 10**9])
    def test_moment_table_does_not_grow_with_t(self, monkeypatch, t):
        asked = []

        def spy(k_max, a, b):
            asked.append(k_max + 1)
            assert k_max <= 5 + 40, "the table grows with t"  # fail before building it
            return _normalized_moments(k_max, a, b)

        monkeypatch.setattr(integrate_module, "_normalized_moments", spy)
        spectral_transition_row(t, 5, ModelParams(3, 5), 40, "exact")
        assert asked == [5 + min(40, 5 + t) + 1]


class TestIntegrateQuadrature:
    def test_constant_function(self):
        rule = gauss_jacobi_rule(3, ModelParams(0, 0))
        assert rule.integrate(np.ones(3)) == pytest.approx(1.0, abs=1e-15)

    def test_orthogonal_pair(self):
        params = ModelParams(1, 1)
        rule = gauss_jacobi_rule(3, params)
        values = [eval_poly(2, x, params) * eval_poly(3, x, params) for x in rule.nodes]
        assert abs(rule.integrate(values)) <= 1e-13

    def test_weighted_first_moment_pair(self):
        # hand: integral of x*Q_0*Q_1 = up_0 * norm_squared(1) = (1/2)(1/3)
        params = ModelParams(0, 0)
        rule = gauss_jacobi_rule(2, params)
        values = [x * eval_poly(1, x, params) for x in rule.nodes]
        assert abs(rule.integrate(values) - 1.0 / 6.0) <= 1e-14


class TestQuadratureAgainstRationalOracle:
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=31),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    )
    def test_random_integer_polynomials(self, coeffs, ab):
        params = ModelParams(*ab)
        exact = integrate_poly_exact(coeffs, params)
        order = (len(coeffs) - 1) // 2 + 1
        rule = gauss_jacobi_rule(order, params)
        xs = rule.nodes
        values = np.zeros_like(xs)
        for k, c in enumerate(coeffs):
            if c:
                values += c * xs**k
        got = rule.integrate(values)
        # scale relative error by the integrand's L1 mass so exact values
        # near 0 (by cancellation) do not blow the ratio up
        scale = max(
            float(abs(exact)),
            float(sum(abs(F(c)) * moment(k, params) for k, c in enumerate(coeffs))),
            1e-300,
        )
        assert abs(got - float(exact)) <= 1e-12 * scale

