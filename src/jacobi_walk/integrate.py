"""Integration against the weight x**alpha * (1 - x)**beta on [0, 1].

Two independent routes:

* exact rational integration of polynomials via the closed-form monomial
  moments (the oracle), and
* M-point Gauss quadrature for the weight, whose nodes are the zeros of
  the M-th polynomial of the recurrence, found by Newton's method on the
  recurrence itself (the production float path).

An M-point rule integrates polynomials of degree <= 2M - 1 exactly, which
the tests exploit by checking quadrature against the rational route.

The exact route runs on integers over common denominators.  The moments
scaled to unit mass, mu_k = (a+1)_k / (a+b+2)_k, share the denominator
(a+b+2)_K up to order K; a polynomial's coefficients share the lcm of
theirs, and the closed-form coefficients of Q_n share (b+1)_n.  An
integral is then one integer dot product and one Fraction.

Every spectral cell pi_j integral(x**t Q_i Q_j W) / total_mass is computed
here, once per engine; ``chain``'s spectral rows are blocks of cells and
the orthonormality table is the t = 0 block.  ``_exact_spectral_terms``
forms their integer numerators and denominators from one bilinear form in
powers of 1 - x: the coefficients are the closed form's at (b, a), and the
moments those of x**t W, the normalized moments at (b, a + t).  t enters
only through that exponent and the mass of x**t W, so a cell's cost and
integers do not grow with t.  At t = 0 the form is the Gram matrix
C H C^T diag(pi), C the coefficient matrix and H the Hankel matrix of the
moments.  ``_float_spectral_cells`` forms the cells on one Gauss rule.

The rule is built in three steps, each written out here rather than taken
from a linear-algebra package, which keeps the quadrature path
dependency-light and its failure mode explicit.  Each step sweeps the
three-term recurrence over all nodes at once and holds O(M) numbers:

1. the nodes start from asymptotic formulas (Hale & Townsend, SIAM J. Sci.
   Comput. 35 (2013)): Gatteschi and Pittaluga's in the interior, scaled
   Bessel zeros from McMahon's expansion at the ends;
2. Newton steps move each node to the zero of p_M on the double-precision
   recurrence the evaluations use.  One step is one sweep of the plain
   recurrence at the complex point x + ih, whose real and imaginary parts
   carry p_M and h p_M' together.  The sweeps run in double until every
   step is small against the node spacing, then once in extended
   precision;
3. one Sturm count (Barth, Martin & Wilkinson, Numer. Math. 9 (1967)) at
   the midpoints between nodes gives each node a verdict: placed when it
   lies between its neighbours and the k-th zero is the only one between
   the midpoints on either side of it, and converged when its last Newton
   step was small against its nearest gap.  A node that is not both is
   bisected afresh with the same count and polished again; if it still
   fails, or a weight is not a positive double, ``_refusal`` names why
   and NumericalError is raised.  The weights are 1 / sum_k p_k**2 at the
   nodes (the Christoffel-Darboux kernel), read off a final sweep; they are
   the only step that needs the weight's total mass, whose underflow is
   refused before step 1.

The extended precision matters because downstream identities divide by
polynomially small norms and feel every spare ulp.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .model import ModelParams, NumericalError, check_engine, check_int
from .polynomials import (
    _coefficient_numerators,
    _common_denominator,
    _invariant_numerators,
    _inverse_mass,
    _ratios,
    _rising,
    _step_table,
    _three_term_sweep,
    invariant_measure_table,
    total_mass,
)

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "integrate_poly_exact",
    "moment",
    "orthonormality_table",
]

# Gauss rules: at most this many Newton sweeps in double, handing over to
# the one long-double sweep once every step is within _HANDOVER of its
# node's nearest gap; the complex step h (Im p(x + ih) = h p'(x)) at nodes
# in [1/2, 1), scaled by each node's power of two elsewhere; the
# Bessel-started nodes at each end; a converged node's last step against its
# nearest gap; the sections per Sturm sweep of the fallback and the
# relative width at which it hands over to Newton.
_DOUBLE_SWEEPS = 6
_HANDOVER = 2.0**-20
_STEP = 2.0**-80
_END_NODES = 10
_CONVERGED = 2.0**-26
_SECTIONS = 16
_BISECT_WIDTH = 2.0**-20

# A float Gram cell this far from delta_ij has fewer than three correct
# digits, so its table is refused rather than printed.
_GRAM_SLACK = 1e-3


# A long-lived process keeps at most 8192 moments.  Moment k is
# 1 / N(a+k, b), whose size grows only like log k; an entry costs about 160
# bytes with its cache key at alpha, beta <= 6, k <= 96, so a full cache of
# such entries is about 1.3 MB.  The exact engine itself reads the
# normalized moments of ``_normalized_moments`` instead.
@lru_cache(maxsize=8192)
def moment(k, params: ModelParams) -> Fraction:
    """Exact k-th moment of the weight: integral of x**k * x**a * (1-x)**b.

    For integer exponents it is B(a+k+1, b+1) = 1 / N(a+k, b), N the
    inverse mass.
    """
    k = check_int(k, "moment order")
    a, b = params.require_integral("moment")
    return Fraction(1, _inverse_mass(a + k, b))


def _normalized_moments(k_max: int, a: int, b: int) -> tuple[list[int], int]:
    """Integers A_0..A_{k_max} and B with mu_k = A_k / B, for integer a, b.

    mu_k = moment(k) / moment(0) = (a+1)_k / (a+b+2)_k is the k-th moment of
    the weight scaled to unit mass (a ratio of Beta functions, DLMF 5.12.1).
    Over B = (a+b+2)_{k_max}, A_k = (a+1)_k (a+b+2+k)_{k_max-k}, and
    A_{k+1} = A_k (a+1+k) / (a+b+2+k) exactly.  ``integrate_poly_exact``
    reads them at the weight's (alpha, beta); the spectral core reads them
    at (beta, alpha + t), as the moments of 1 - x under x**t W.
    """
    bottom = _rising(a + b + 2, k_max)
    tops = [bottom]
    for k in range(k_max):
        tops.append(tops[-1] * (a + 1 + k) // (a + b + 2 + k))
    return tops, bottom


def integrate_poly_exact(coeffs, params: ModelParams) -> Fraction:
    """Exact weighted integral of a polynomial given by monomial coefficients.

    ``coeffs`` lists the coefficients lowest degree first (Fractions or
    ints); the result is sum_k coeffs[k] * moment(k), formed as one integer
    dot product of the coefficients and the normalized moments over their
    common denominators and the inverse mass N(a, b).
    """
    a, b = params.require_integral("integrate_poly_exact")
    nums, den = _common_denominator(coeffs)
    tops, bottom = _normalized_moments(len(nums) - 1, a, b)
    return Fraction(sum(map(operator.mul, nums, tops)), den * bottom * _inverse_mass(a, b))


def _exact_spectral_terms(t: int, rows, cols, params: ModelParams) -> tuple[list, list]:
    """pi_j * integral(x**t Q_i Q_j W) / total_mass for i in rows, j in cols,
    as lists of integer numerators and denominators in row-major order.

    In powers of 1 - x, Q_n(x) = 2F1(-n, n+a+b+1; b+1; 1-x) (DLMF 18.5.7
    and the symmetry P_n^(a,b)(-z) = (-1)^n P_n^(b,a)(z) of DLMF 18.6.1), so
    its coefficients are N_nk / N_n0, N_nk the closed-form numerators at
    (b, a) and N_n0 = (-1)^n (b+1)_n.  Against x**t W, 1 - x has the
    normalized moments nu_m = (b+1)_m / (a+t+b+2)_m = A_m / B, those of the
    weight at (b, a + t), and pi_j times the mass of x**t W over total_mass
    is p_j / N(a+t, b), N the inverse mass, since that mass is
    B(a+t+1, b+1).  Row i first forms the integers r_l = sum_k N_ik A_{k+l}
    once, and cell j is then p_j sum_l N_jl r_l over N(a+t, b) N_i0 B N_j0,
    a denominator of either sign.  t enters only through N(a+t, b) and the
    moments' exponent: the table holds i + j_max + 1 moments at every t.
    At t = 0 the cells are the Gram matrix C H C^T diag(pi), H being the
    Hankel matrix of the nu_m.
    """
    a, b = params.require_integral("engine='exact'")
    degree = max(cols)
    tops, bottom = _normalized_moments(max(rows) + degree, b, a + t)
    poly = {n: _coefficient_numerators(n, b, a)[0] for n in {*rows, *cols}}
    pi = _invariant_numerators(degree, params)[0]
    scale = _inverse_mass(a + t, b) * bottom
    nums, dens = [], []
    for i in rows:
        shifted = [sum(map(operator.mul, poly[i], tops[l : l + i + 1])) for l in range(degree + 1)]
        nums += [pi[j] * sum(map(operator.mul, poly[j], shifted)) for j in cols]
        dens += [scale * poly[i][0] * poly[j][0] for j in cols]
    return nums, dens


def _symmetrized_recurrence(order, params: ModelParams):
    """Double-precision data of the symmetrized three-term recurrence.

    Returns (diag, off, mass): stay_0..stay_{order-1} on the diagonal,
    sqrt(up_k * down_{k+1}) for k = 0..order-1 off it (one entry past the
    order-sized matrix, so callers can climb to the order-th polynomial),
    and the weight's total mass.  Rule construction and the float spectral
    cells share these exact double values, sliced from one ``_step_table``;
    the quadrature identities hold for the family as rounded, not the ideal.
    """
    up, stay, down = _step_table(order, params, "float")
    return stay[:order], np.sqrt(up[:order] * down[1:]), total_mass(params, "float")


def _recurrence_steps(diag, off, dtype):
    """The (stay_k, back_k, fwd_k) of ``_three_term_sweep`` for p_0..p_M in dtype.

    x p_k = off[k] p_{k+1} + diag[k] p_k + off[k-1] p_{k-1} with M = len(diag).
    """
    fwd = off.astype(dtype)
    return list(zip(diag.astype(dtype), np.concatenate(([0], fwd[:-1])), fwd))


def _orthonormal_sweep(xs, diag, off, mass):
    """Long-double p_0..p_M at xs for the data of ``_symmetrized_recurrence``.

    p_k is the orthonormal polynomial Q_k / norm(Q_k): p_0 = 1/sqrt(mass),
    M = len(diag).
    """
    q0 = np.full_like(xs, 1.0 / np.sqrt(np.longdouble(mass)))
    return _three_term_sweep(xs, q0, _recurrence_steps(diag, off, np.longdouble))


def _bessel_zeros(nu: float, count: int) -> np.ndarray:
    """McMahon's expansion (A&S 9.5.12) of the zeros j_{nu,1..count} of J_nu.

    In b = (s + nu/2 - 1/4) pi and mu = 4 nu**2, through the b**-7 term.
    Accurate once b is large against nu; for nu much larger than the zero's
    index it is rough, and the rule's root-count check catches what follows.
    """
    b = (np.arange(1, count + 1) + nu / 2 - 0.25) * math.pi
    mu = 4.0 * nu * nu
    terms = (
        1,
        4 * (7 * mu - 31) / 3,
        32 * (83 * mu**2 - 982 * mu + 3779) / 15,
        64 * (6949 * mu**3 - 153855 * mu**2 + 1585743 * mu - 6277237) / 105,
    )
    e = 1.0 / (8.0 * b) ** 2
    return b - (mu - 1) / (8.0 * b) * sum(c * e**k for k, c in enumerate(terms))


def _start_nodes(order: int, a: float, b: float) -> np.ndarray:
    """Asymptotic guesses for the zeros of Q_order, ascending (Hale & Townsend).

    x = sin(theta/2)**2 maps the classical Jacobi zeros cos(theta) of
    P^(a,b) on [-1, 1] onto [0, 1].  The interior uses Gatteschi and
    Pittaluga's formula in rho = order + (a+b+1)/2; the _END_NODES nodes at
    each end use Bessel zeros scaled by Gatteschi's
    1/sqrt(rho**2 + (1 - a**2 - 3 b**2)/12), with a and b swapped at x = 1.
    The exponents are taken as numpy binary64 scalars, so a guess that
    overflows is inf or nan, which the root-count check rejects.
    """
    a, b = np.float64(a), np.float64(b)
    with np.errstate(all="ignore"):
        rho = order + (a + b + 1) / 2
        phi = (np.arange(1, order + 1) + a / 2 - 0.25) * math.pi / rho
        theta = phi + ((0.25 - a * a) / np.tan(phi / 2) - (0.25 - b * b) * np.tan(phi / 2)) / (
            4 * rho * rho
        )
        ends = min(_END_NODES, order // 2)
        theta[:ends] = _bessel_zeros(a, ends) / np.sqrt(rho * rho + (1 - a * a - 3 * b * b) / 12)
        theta[order - ends :] = math.pi - _bessel_zeros(b, ends)[::-1] / np.sqrt(
            rho * rho + (1 - b * b - 3 * a * a) / 12
        )
        return np.sin(theta / 2) ** 2


def _newton_step(xs, steps):
    """The Newton correction p_M(xs) / p_M'(xs) from one three-term sweep.

    The sweep runs at the complex points xs + i h: its real part carries
    p_M and its imaginary part h p_M', both to O(h**2) relative, so value
    and derivative share one pass of the plain recurrence.  h is _STEP
    times the power of two of each node's binade, so it stays small against
    the node however close to 0 the node lies, and is itself a power of two,
    which keeps Im = h p_M' exact; an h that underflows gives a nan step,
    which the root-count check rejects.  The sweep starts from p_0 = 1,
    because the ratio does not depend on the scale.
    """
    h = np.ldexp(xs.dtype.type(_STEP), np.frexp(xs)[1])
    z = xs + h * 1j
    sweep = _three_term_sweep(z, np.ones_like(z), steps)
    # a wild start may overflow; the root-count check rejects what it yields
    with np.errstate(all="ignore"):
        for q in sweep:
            pass
        return h * q.real / q.imag


def _nearest_gap(nodes):
    """Distance from each node to its nearer neighbour, 0 and 1 included."""
    with np.errstate(invalid="ignore"):  # nodes sent to inf leave nan gaps, which fail checks
        gaps = np.diff(np.concatenate(([0.0], nodes, [1.0])))
    return np.minimum(gaps[:-1], gaps[1:])


def _polish(xs, diag, off):
    """Newton from xs toward the zeros of p_M: (long-double nodes, last step).

    Sweeps in double arithmetic run until every step is within _HANDOVER
    of its node's nearest gap (at most _DOUBLE_SWEEPS of them); one
    long-double sweep then removes what double evaluation leaves, up to
    1e-12 relative at order 1500.
    """
    steps = _recurrence_steps(diag, off, float)
    for _ in range(_DOUBLE_SWEEPS):
        step = _newton_step(xs, steps)
        xs = xs - step
        if np.all(np.abs(step) <= _HANDOVER * _nearest_gap(xs)):
            break
    xs = xs.astype(np.longdouble)
    step = _newton_step(xs, _recurrence_steps(diag, off, np.longdouble))
    return xs - step, step


def _zeros_above(xs, diag, off):
    """Sturm count: the number of zeros of p_M above each point of xs.

    The pivots q_k = (x - diag[k]) - off[k-1]**2 / q_{k-1} of x - J, J the
    Jacobi matrix, are negative exactly as often as J has eigenvalues above
    x (Barth, Martin & Wilkinson).  They are ratios of consecutive p_k, so
    they cannot overflow; a zero pivot turns the next one into -inf and the
    one after back to finite, which counts the sign change correctly.
    """
    above = np.zeros(xs.shape, dtype=np.intp)
    pivot = np.ones_like(xs)
    back = np.concatenate(([0.0], off[: len(diag) - 1] ** 2))
    with np.errstate(all="ignore"):
        for stay, back_sq in zip(diag.tolist(), back.tolist()):
            pivot = (xs - stay) - back_sq / pivot
            above += pivot < 0.0
    return above


def _verdict(nodes, step, diag, off):
    """Each node's verdict as two masks, (placed, converged).

    Node k is placed when it lies in (0, 1) strictly between its neighbours
    and the Sturm count puts exactly k zeros below the midpoint to its left
    and k + 1 below the one to its right.  It is converged when its last
    Newton step was within _CONVERGED of its nearest gap (to a neighbour or
    an end).
    """
    order = nodes.size
    below = order - _zeros_above((nodes[:-1] + nodes[1:]) / 2, diag, off)
    counted = below == np.arange(1, order)
    near = _nearest_gap(nodes)
    placed = np.concatenate(([True], counted)) & np.concatenate((counted, [True])) & (near > 0.0)
    return placed, np.abs(step) <= _CONVERGED * near


def _bisect(lanes, diag, off):
    """Sturm multisection for zero number k of p_M, for each k in ``lanes``.

    Each bracket starts as [0, 1]; one count at _SECTIONS - 1 inner points
    keeps the section that holds the zero, until the bracket's width is
    within _BISECT_WIDTH of its distance to the nearer end of [0, 1] (or a
    few ulps), so zeros near 1e-8 come out as sharp as the middle ones.
    """
    order = len(diag)
    lo, hi = np.zeros(lanes.size), np.ones(lanes.size)
    todo = np.arange(lanes.size)
    cuts = np.arange(_SECTIONS + 1) / _SECTIONS
    while todo.size:
        edges = lo[todo, None] + (hi[todo] - lo[todo])[:, None] * cuts
        inner = edges[:, 1:-1]
        above = _zeros_above(inner.ravel(), diag, off).reshape(inner.shape)
        # the zero lies above every inner point with at most k zeros below it
        section = np.count_nonzero(order - above <= lanes[todo, None], axis=1)
        rows = np.arange(todo.size)
        lo[todo], hi[todo] = edges[rows, section], edges[rows, section + 1]
        width = hi[todo] - lo[todo]
        scale = np.minimum(hi[todo], 1.0 - lo[todo])
        todo = todo[width > np.maximum(_BISECT_WIDTH * scale, 4 * np.spacing(hi[todo]))]
    return (lo + hi) / 2


def _christoffel_sum(xs, diag, off):
    """sum_{k<M} p_k(xs)**2 for p_0 = 1, M = len(diag), in long double.

    These p_k are the orthonormal polynomials times sqrt(mass).  Streams
    ``_orthonormal_sweep``: only the running sum and the last two
    polynomials are held, never the M-row table.
    """
    sweep = _orthonormal_sweep(xs, diag, off, 1.0)
    # non-finite values fail the rule's validity checks; see poly_table for
    # why the errstate wraps the consuming loop
    with np.errstate(all="ignore"):
        kernel = 0
        for _, p in zip(range(len(diag)), sweep):
            kernel = kernel + p * p
    return kernel


def _refusal(nodes, step, placed, converged, bisected, weights, diag, off) -> str | None:
    """Why the rule with these nodes and weights is refused, or None.

    ``placed`` and ``converged`` are the nodes' last verdict, ``bisected``
    the brackets' midpoints if any node was bisected.  For verified nodes
    the reasons are tried in this order: a negative or nan weight, then
    weights that round to 0.0.  For nodes still unverified after
    bisection: distinct zeros that round to one double, weights that round
    to 0.0, Newton stalled at binary64's resolution, and else the root
    count.
    """
    zeros = np.count_nonzero(weights == 0.0)
    underflow = f"{zeros} weights underflow binary64" if zeros else None
    unverified = ~(placed & converged)
    if not unverified.any():
        # each node passed the check with both its gaps > 0: 0 < nodes[0] < ... < nodes[-1] < 1
        # a negative weight, also one that underflows to -0.0, or a nan weight
        if np.any(np.signbit(weights) | np.isnan(weights)):
            return "nonpositive weight"
        return underflow
    # Bisection narrows each bracket down to the spacing of the doubles, so
    # equal neighbours in ``bisected`` can be distinct zeros that round to one
    # double: 1 - 2**-53 when a huge alpha puts them within 1e-19 of 1.  The
    # Sturm count confirms it when it finds two or more zeros between the
    # doubles on either side of the tied one.
    tied = np.flatnonzero(np.diff(bisected) <= 0.0)
    if tied.size:
        value = float(bisected[tied[0]])
        around = np.array([np.nextafter(value, -1.0), np.nextafter(value, 2.0)])
        above = _zeros_above(around, diag, off)
        if above[0] - above[1] >= 2:
            return (
                f"{np.count_nonzero(bisected == value)} nodes round to the one double "
                f"{value!r}; binary64 resolves only steps of {np.spacing(value):.3g} there"
            )
    # the end nodes of a huge exponent can fail the check while their weights
    # lie below the double range; the unverified ones may be nan
    if underflow:
        return underflow
    # within 1e-9 of 1 a double keeps few digits of 1 - x: a last step of half
    # an ulp cannot move its node, yet can exceed _CONVERGED of its gap
    ulp = np.where(unverified, np.spacing(nodes), 0.0)
    if placed.all() and np.all(converged | (np.abs(step) <= ulp / 2)):
        share = ulp / _nearest_gap(nodes)
        k = np.argmax(share)
        return (
            f"{np.count_nonzero(unverified)} nodes stall at binary64's resolution; near "
            f"{float(nodes[k])!r} it resolves 1 - x only in steps of {ulp[k]:.3g}, "
            f"{share[k]:.2g} of the gap to the nearer node"
        )
    return f"{np.count_nonzero(unverified)} nodes fail the root-count check"


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights of an M-point Gauss rule for the weight.

    Integrates polynomials of degree <= 2 * order - 1 exactly (up to
    rounding).  Nodes are strictly increasing inside (0, 1); weights are
    positive and sum to the total mass of the weight.  Arrays are read-only.
    """

    order: int
    params: ModelParams
    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values) -> float:
        """Weighted sum of function values given at the nodes.

        The weight function itself is built into the weights; ``values``
        must be the bare integrand evaluated at ``nodes``.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != self.nodes.shape:
            raise ValueError("values must match the rule's nodes in shape")
        return float(np.dot(self.weights, values))


# A long-lived process keeps at most 128 rules; the bound is in entries, not
# bytes (ROADMAP item 6).  An order-M rule holds 16 M bytes of nodes and
# weights: a rule of order 1500 retains 30.8 KB with its object (tracemalloc),
# so 128 of them are about 4 MB, but orders are not capped, and 128 rules of
# order 10**5 would hold about 205 MB of nodes and weights.
@lru_cache(maxsize=128)
def gauss_jacobi_rule(order, params: ModelParams) -> QuadratureRule:
    """Build (and cache) the M-point Gauss rule for the weight.

    The nodes are the zeros of p_M, the M-th orthonormal polynomial of the
    symmetrized recurrence (the eigenvalues of its Jacobi matrix); the
    weights are the reciprocal Christoffel-Darboux kernel
    1 / sum_{k<M} p_k**2 at the nodes (equal to the weight's total mass
    times the squared first eigenvector components).  Raises
    NumericalError if the one-step law overflows binary64 or the weight's
    total mass underflows, both before any node is computed, and else for
    the reason ``_refusal`` gives.
    """
    order = check_int(order, "quadrature order", 1)
    diag, off, mass = _symmetrized_recurrence(order, params)
    if not (np.isfinite(diag).all() and np.isfinite(off).all()):
        raise NumericalError(f"Gauss rule of order {order}: the one-step law overflows binary64")
    if not mass > 0.0:
        raise NumericalError(
            f"Gauss rule of order {order}: the weight's total mass underflows to {mass!r}"
        )
    # For alpha, beta in 0..6 and orders up to 600 the asymptotic starts lie
    # within 18% of the local node spacing, and one to four double sweeps
    # reach the handover.  Measured against the sign change of p_M
    # evaluated exactly on the same double data, nodes of index >= 4 then
    # land within 1 ulp, and the four at each end within 12 ulps for (0, 0),
    # (3, 5), (6, 0), (0, 6), (6, 6) and (-0.5, 2.75) at orders 97, 241 and
    # 600.  The smallest node of a weight singular at 0 can sit further off:
    # 385 ulps for (-0.99, 3.5) at order 600.  Long-double x - stay_k keeps
    # only part of such a node's bits, so further sweeps cannot help.
    # Exponents near -1 or in the tens and hundreds defeat the asymptotics
    # at the ends, and the root-count check sends those nodes to bisection.
    xs, step = _polish(_start_nodes(order, *params.require_float()), diag, off)
    placed, converged = _verdict(xs.astype(float), step, diag, off)
    lanes = np.flatnonzero(~(placed & converged))
    bisected = None
    if lanes.size:
        bisected = _bisect(lanes, diag, off)
        xs[lanes], step[lanes] = _polish(bisected, diag, off)
        placed, converged = _verdict(xs.astype(float), step, diag, off)
    weights = (np.longdouble(mass) / _christoffel_sum(xs, diag, off)).astype(float)
    nodes = xs.astype(float)
    reason = _refusal(nodes, step, placed, converged, bisected, weights, diag, off)
    if reason:
        raise NumericalError(f"Gauss rule of order {order}: {reason}")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(order=order, params=params, nodes=nodes, weights=weights)


def _float_spectral_cells(t: int, rows, cols, params: ModelParams, order: int) -> np.ndarray:
    """Float pi_j * integral(x**t Q_i Q_j W) / total_mass for i in rows, j in cols.

    The float twin of ``_exact_spectral_terms``, on the Gauss rule of the
    given order: one long-double ``_orthonormal_sweep`` tabulates
    p_n = Q_n / norm(Q_n) at the nodes, and the cells are the block
    (p_rows * w x**t) @ p_cols^T times sqrt(pi_j / pi_i), read off the float
    pi table: the weight's mass cancels from norm_n = total_mass / pi_n.
    Cells with j >> i divide near-cancelled dust by a polynomially small
    norm; accumulating in np.longdouble and rounding to double once gains
    an order of magnitude there, where that type is wider than double.
    The block goes through ``np.dot``, not ``@``: for long doubles both run
    numpy's own loop, not BLAS, and sum each cell in order from 0, so they
    give the same bytes, but ``@``'s loop took 3.2 to 3.8 times as long on a
    121 x 241 block (orthocheck --i-max 120).
    """
    rows, cols = np.asarray(rows), np.asarray(cols)
    degree = int(max(rows.max(), cols.max()))
    pi = np.array(invariant_measure_table(degree, params), dtype=np.longdouble)
    rule = gauss_jacobi_rule(order, params)
    nodes = rule.nodes.astype(np.longdouble)
    diag, off, mass = _symmetrized_recurrence(degree, params)
    with np.errstate(all="ignore"):
        table = np.array(list(_orthonormal_sweep(nodes, diag, off, mass)))
        weighted = table[rows] * (rule.weights.astype(np.longdouble) * nodes**t)
        cells = np.dot(weighted, table[cols].T)
        return (cells * np.sqrt(pi[None, cols] / pi[rows, None])).astype(float)


def orthonormality_table(n_max, params: ModelParams, engine: str = "float"):
    """Table of integral(Q_i * Q_j * W) / norm_squared(j) for i, j <= n_max.

    Both engines compute the t = 0 block of the spectral cells.  The exact
    engine forms the Gram matrix C H C^T diag(pi) from the closed-form
    coefficients C and the Hankel matrix H of the normalized moments, and
    returns a nested list of Fractions, equal to the identity matrix by
    orthogonality.  The float engine returns an ndarray from a rule of
    2 * n_max + 1 nodes.  The n_max + 1 nodes that degree 2 * n_max needs
    were measured less accurate: over alpha, beta in 0..6 and n_max in
    20..120 (4949 tables), 2635 tables missed the identity by more than
    1e-11 against 2534, and the worst miss was 1.15e-5, at (0, 6) with
    n_max 117, against 7.7e-6 at (0, 6) with n_max 112; 1.15e-5 is past
    the 1e-5 ceiling the benchmark allows float orthocheck.  A finite float
    table with a cell that misses delta_ij by more than 1e-3 raises
    NumericalError naming the first such cell in row order; a table with an
    inf or nan cell is returned for the caller to check.
    """
    n_max = check_int(n_max, "n_max")
    check_engine(engine)
    degrees = range(n_max + 1)
    if engine == "exact":
        cells = _ratios(*_exact_spectral_terms(0, degrees, degrees, params), engine)
        return cells.reshape(len(degrees), -1).tolist()
    cells = _float_spectral_cells(0, degrees, degrees, params, 2 * n_max + 1)
    miss = abs(cells - np.eye(n_max + 1))
    bad = np.argwhere(miss > _GRAM_SLACK)  # in row order
    if bad.size and np.isfinite(cells).all():
        i, j = bad[0]
        raise NumericalError(
            f"orthonormality_table(n_max={n_max}): value {float(cells[i, j])!r} at "
            f"i={i}, j={j} misses the identity by more than {_GRAM_SLACK:g}"
        )
    return cells
