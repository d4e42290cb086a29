"""Integration against the weight x**alpha * (1 - x)**beta on [0, 1].

Two independent routes:

* exact rational integration of polynomials via the closed-form monomial
  moments (the oracle), and
* M-point Gauss quadrature for the weight, built by the Golub-Welsch
  procedure from the recurrence coefficients (the production float path).

An M-point rule integrates polynomials of degree <= 2M - 1 exactly, which
the tests exploit by checking quadrature against the rational route.

The exact route runs on integers over common denominators.  The moments
scaled to unit mass, mu_k = (a+1)_k / (a+b+2)_k, share the denominator
(a+b+2)_K up to order K; a polynomial's coefficients share the lcm of
theirs, and the closed-form coefficients of Q_n share (b+1)_n.  An
integral is then one integer dot product and one Fraction.  The exact
Gram matrix C H C^T diag(pi), with C the coefficient matrix and H the
Hankel matrix of the mu_k, and the exact spectral transition rows of
``chain`` come from one such bilinear form, ``_exact_spectral_cells``.

The rule is built in three steps, each written out here rather than taken
from a linear-algebra package, which keeps the quadrature path
dependency-light and its failure mode explicit:

1. the nodes start as the eigenvalues of the Jacobi matrix, found by an
   implicit-shift QL iteration that accumulates no eigenvectors and raises
   NumericalError if any eigenvalue fails to converge;
2. two Newton corrections in extended precision move each node toward the
   zero of p_M on the double-precision recurrence the evaluations use.
   Each correction is one sweep of the plain three-term recurrence: the
   confluent Christoffel-Darboux identity turns the sum of squares
   sum_k p_k**2 into the derivative Newton needs, so no derivative
   recurrence is run;
3. the weights are 1 / sum_k p_k**2 at the corrected nodes (the
   Christoffel-Darboux kernel), read off a final sweep.

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
    _rising,
    _three_term_sweep,
    invariant_measure_table,
    step_coefficients,
    total_mass,
)

__all__ = [
    "QuadratureRule",
    "gauss_jacobi_rule",
    "integrate_poly_exact",
    "integrate_quadrature",
    "moment",
    "orthonormality_table",
]

# Deflation is relative to neighbouring diagonal magnitude; 50 implicit QL
# sweeps per eigenvalue is far beyond what well-conditioned Jacobi matrices
# need (typically 2-3).
_QL_TOL = 1e-14
_QL_MAX_SWEEPS = 50


# A long-lived process keeps at most 8192 moments.  Moment k is
# b! / ((a+k+1) ... (a+b+k+1)), whose size grows only like log k; an entry
# costs about 160 bytes with its cache key at alpha, beta <= 6, k <= 96, so a
# full cache of such entries is about 1.3 MB.  The exact engine itself reads
# the normalized moments of ``_normalized_moments`` instead.
@lru_cache(maxsize=8192)
def moment(k, params: ModelParams) -> Fraction:
    """Exact k-th moment of the weight: integral of x**k * x**a * (1-x)**b.

    Equals (a+k)! b! / (a+b+k+1)! for integer exponents.
    """
    k = check_int(k, "moment order")
    a, b = params.require_integral("moment")
    return Fraction(
        math.factorial(a + k) * math.factorial(b), math.factorial(a + b + k + 1)
    )


def _normalized_moments(k_max: int, a: int, b: int) -> tuple[list[int], int]:
    """Integers A_0..A_{k_max} and B with mu_k = A_k / B, for integer a, b.

    mu_k = moment(k) / moment(0) = (a+1)_k / (a+b+2)_k is the k-th moment of
    the weight scaled to unit mass (a ratio of Beta functions, DLMF 5.12.1).
    Over B = (a+b+2)_{k_max}, A_k = (a+1)_k (a+b+2+k)_{k_max-k}, and
    A_{k+1} = A_k (a+1+k) / (a+b+2+k) exactly.
    """
    bottom = _rising(a + b + 2, k_max)
    tops = [bottom]
    for k in range(k_max):
        tops.append(tops[-1] * (a + 1 + k) // (a + b + 2 + k))
    return tops, bottom


def integrate_poly_exact(coeffs, params: ModelParams) -> Fraction:
    """Exact weighted integral of a polynomial given by monomial coefficients.

    ``coeffs`` lists the coefficients lowest degree first (Fractions or
    ints); the result is sum_k coeffs[k] * moment(k), formed as total_mass
    times one integer dot product of the coefficients and the normalized
    moments over their common denominators.
    """
    a, b = params.require_integral("integrate_poly_exact")
    nums, den = _common_denominator(coeffs)
    tops, bottom = _normalized_moments(len(nums) - 1, a, b)
    mass = total_mass(params, "exact")
    return Fraction(
        mass.numerator * sum(map(operator.mul, nums, tops)), mass.denominator * den * bottom
    )


def _exact_spectral_cells(t: int, rows, cols, params: ModelParams) -> list[list[Fraction]]:
    """pi_j * integral(x**t Q_i Q_j W) / total_mass for i in rows, j in cols.

    In the monomial basis a cell is pi_j sum_{k,l} c_ik c_jl mu_{t+k+l}.
    With c_ik = N_ik / D_i and mu_m = A_m / B, row i first forms the
    integers r_l = sum_k N_ik A_{t+k+l} once, and cell j is then
    pi_j sum_l N_jl r_l / (D_i D_j B), one Fraction per cell.  At t = 0 the
    cells are the Gram matrix C H C^T diag(pi), H being the Hankel matrix
    of the normalized moments.
    """
    a, b = params.require_integral("engine='exact'")
    degree = max(cols)
    tops, bottom = _normalized_moments(t + max(rows) + degree, a, b)
    poly = {n: _coefficient_numerators(n, a, b) for n in {*rows, *cols}}
    pi = invariant_measure_table(degree, params, "exact")
    table = []
    for i in rows:
        nums_i, den_i = poly[i]
        shifted = [
            sum(map(operator.mul, nums_i, tops[t + l : t + l + i + 1])) for l in range(degree + 1)
        ]
        table.append(
            [
                Fraction(
                    pi[j].numerator * sum(map(operator.mul, poly[j][0], shifted)),
                    pi[j].denominator * den_i * poly[j][1] * bottom,
                )
                for j in cols
            ]
        )
    return table


def _tridiag_eigenvalues(diag, off):
    """Eigenvalues of a symmetric tridiagonal matrix, ascending.

    Implicit-shift QL iteration on the diagonal ``diag`` and the
    off-diagonal ``off`` (one shorter); no eigenvector data is accumulated.
    """
    d = [float(v) for v in diag]
    e = [float(v) for v in off] + [0.0]
    n = len(d)
    if len(off) != n - 1:
        raise ValueError("off-diagonal must be one shorter than the diagonal")
    for l in range(n):
        sweeps = 0
        while True:
            for m in range(l, n - 1):
                if abs(e[m]) <= _QL_TOL * (abs(d[m]) + abs(d[m + 1])):
                    break
            else:
                m = n - 1
            if m == l:
                break
            if sweeps == _QL_MAX_SWEEPS:
                raise NumericalError(
                    f"tridiagonal eigensolver failed to converge at index {l} "
                    f"after {_QL_MAX_SWEEPS} sweeps"
                )
            sweeps += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                h = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # rare underflow escape: drop the shift and restart
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * h
                p = s * r
                d[i + 1] = g + p
                g = c * r - h
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return np.array(sorted(d))


def _symmetrized_recurrence(order, params: ModelParams):
    """Double-precision data of the symmetrized three-term recurrence.

    Returns (diag, off, mass): stay_0..stay_{order-1} on the diagonal,
    sqrt(up_k * down_{k+1}) for k = 0..order-1 off it (one entry past the
    order-sized matrix, so callers can climb to the order-th polynomial),
    and the weight's total mass.  Rule construction and the orthonormality
    check must share these exact double values; the quadrature identities
    hold for the recurrence family as rounded, not the ideal one.
    """
    coeffs = [step_coefficients(k, params, "float") for k in range(order + 1)]
    diag = np.array([c.stay for c in coeffs[:order]])
    off = np.array([math.sqrt(coeffs[k].up * coeffs[k + 1].down) for k in range(order)])
    return diag, off, total_mass(params, "float")


def _orthonormal_sweep(xs, diag, off, mass):
    """Long-double p_0..p_M at xs for the data of ``_symmetrized_recurrence``.

    p_k is the orthonormal polynomial Q_k / norm(Q_k): p_0 = 1/sqrt(mass)
    and x p_k = off[k] p_{k+1} + diag[k] p_k + off[k-1] p_{k-1}, with
    M = len(diag).
    """
    dl = diag.astype(np.longdouble)
    ol = off.astype(np.longdouble)
    q0 = np.full_like(xs, 1.0 / np.sqrt(np.longdouble(mass)))
    return _three_term_sweep(xs, q0, zip(dl, np.concatenate(([0], ol)), ol))


def _christoffel_sweep(xs, diag, off, mass):
    """(sum_{k<M} p_k(xs)**2, p_{M-1}(xs), p_M(xs)) with M = len(diag) >= 1.

    Streams ``_orthonormal_sweep``: only the running sum and the last two
    polynomials are held, never the M-row table.
    """
    sweep = _orthonormal_sweep(xs, diag, off, mass)
    # non-finite values fail the rule's validity checks; see poly_table for
    # why the errstate wraps the consuming loop
    with np.errstate(all="ignore"):
        kernel, p = 0, next(sweep)
        for p_next in sweep:
            kernel = kernel + p * p
            p_prev, p = p, p_next
    return kernel, p_prev, p


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


# A long-lived process keeps at most 128 rules; an order-M rule holds 16 M
# bytes of nodes and weights, so 128 rules of order 1500 are about 3 MB.
@lru_cache(maxsize=128)
def gauss_jacobi_rule(order, params: ModelParams) -> QuadratureRule:
    """Build (and cache) the M-point Gauss rule via Golub-Welsch.

    The Jacobi matrix is the symmetric tridiagonal with stay_0..stay_{M-1}
    on the diagonal and sqrt(up_n * down_{n+1}) off it; its eigenvalues are
    the nodes.  Two Christoffel-Darboux Newton corrections polish them, and
    the weights are the reciprocal Christoffel-Darboux kernel at the
    polished nodes (equal to the weight's total mass times the squared
    first eigenvector components).  Raises NumericalError if the
    eigensolver stalls or the resulting rule violates its validity
    invariants (node ordering and containment, weight positivity).
    """
    order = check_int(order, "quadrature order", 1)
    diag, off, mass = _symmetrized_recurrence(order, params)
    raw_nodes = _tridiag_eigenvalues(diag, off[: order - 1])
    # The QL eigenvalues carry a few ulps of backward error, too coarse for
    # the invariant-measure-weighted identities downstream, so two Newton
    # corrections in extended precision move each node toward the zero of
    # p_M on the same double-precision recurrence the evaluations use.  At a
    # zero of p_M the confluent Christoffel-Darboux identity
    # sum_{k<M} p_k**2 = off[M-1] * (p_M' p_{M-1} - p_{M-1}' p_M) gives
    # p_M' = sum_{k<M} p_k**2 / (off[M-1] p_{M-1}), so the Newton step
    # p_M / p_M' costs one plain sweep (its error is O(p_M**2)).  Measured
    # against the sign change of p_M evaluated exactly on the same data,
    # nodes of index >= 4 land within 1 ulp at orders 97 and 241, but the
    # smallest node of a weight that is singular at 0 does not: node 0 of
    # (alpha, beta) = (-0.99, 3.5) ends 41 ulps away at order 241 and 86 at
    # order 600.  Three to five corrections, from this start or from
    # LAPACK's, leave that node 67 to 169 ulps away, so the long-double
    # evaluation near x = 0 sets the limit, not the number of corrections.
    # The kernel identity mass * v[0]**2 == 1 / sum_{k<M} p_k**2 then
    # rebuilds the weights at the polished nodes.
    xs = raw_nodes.astype(np.longdouble)
    last_off = np.longdouble(off[order - 1])
    for _ in range(2):
        kernel, p_prev, p = _christoffel_sweep(xs, diag, off, mass)
        xs = xs - last_off * p * p_prev / kernel
    kernel, _, _ = _christoffel_sweep(xs, diag, off, mass)
    nodes = xs.astype(float)
    weights = (1.0 / kernel).astype(float)
    if not (np.all(nodes > 0.0) and np.all(nodes < 1.0) and np.all(np.diff(nodes) > 0.0)):
        raise NumericalError(f"Gauss rule of order {order}: nodes violate (0, 1) ordering")
    if not np.all(weights > 0.0):
        raise NumericalError(f"Gauss rule of order {order}: nonpositive weight")
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(order=order, params=params, nodes=nodes, weights=weights)


def integrate_quadrature(f, order, params: ModelParams) -> float:
    """Approximate the weighted integral of a callable with an M-point rule.

    ``f`` is evaluated once per node; exact for polynomials of degree
    <= 2 * order - 1.
    """
    rule = gauss_jacobi_rule(order, params)
    return rule.integrate([float(f(x)) for x in rule.nodes])


def orthonormality_table(n_max, params: ModelParams, engine: str = "float"):
    """Table of integral(Q_i * Q_j * W) / norm_squared(j) for i, j <= n_max.

    The exact engine forms the Gram matrix C H C^T diag(pi) from the
    closed-form coefficients C and the Hankel matrix H of the normalized
    moments, and returns a nested list of Fractions, equal to the identity
    matrix by orthogonality.  The float engine quadratures the
    orthonormalized recurrence against a rule of 2 * n_max + 1 nodes and
    rescales each entry by norm_i / norm_j, returning an ndarray.  Entries with j >> i divide near-cancelled dust by
    a polynomially small norm, so the float gram is accumulated in extended
    precision and rounded once at the end; plain double evaluation loses an
    order of magnitude there.
    """
    n_max = check_int(n_max, "n_max")
    check_engine(engine)
    if engine == "exact":
        return _exact_spectral_cells(0, range(n_max + 1), range(n_max + 1), params)
    # norm_squared(j) is total_mass / pi_j; one pi table serves every j, in
    # rational arithmetic whenever the exponents allow it
    norm_engine = "exact" if params.is_integral else "float"
    weight_mass = total_mass(params, norm_engine)
    norms = [weight_mass / pi for pi in invariant_measure_table(n_max, params, norm_engine)]
    rule = gauss_jacobi_rule(2 * n_max + 1, params)
    diag, off, mass = _symmetrized_recurrence(n_max, params)
    with np.errstate(all="ignore"):
        sweep = _orthonormal_sweep(rule.nodes.astype(np.longdouble), diag, off, mass)
        table = np.array(list(sweep))
        gram = (table * rule.weights.astype(np.longdouble)) @ table.T
        scale = np.array([float(norm) for norm in norms], dtype=np.longdouble)
        ratio = np.sqrt(scale[:, None] / scale[None, :])
        return (gram * ratio).astype(float)
