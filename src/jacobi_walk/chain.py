"""Walk dynamics: banded one-step matrix, exact powers, spectral closed form.

The walk's one-step matrix P is tridiagonal: row n holds (down_n, stay_n,
up_n) at columns (n-1, n, n+1).  Its truncation to states 0..N-1 (or a
window of them) is ``_scaled_bands``: the diagonal, super- and subdiagonal
sliced from one table of the law.  Every interior row sums to 1, and the
last to 1 - up_{N-1}; a window that starts above state 0 also loses the
down-move out of its first state.  Two independent routes
to the t-step probabilities (P^t)_{ij} live here, each a core for the
reachable columns of one row:

* ``_power_row``: t banded row-vector products on the window of states
  max(0, i - t)..i + t.  It is exact, not approximate: t steps from i
  reach no state outside it, and the only coefficients the window drops
  (the down-move out of its first state when that is not 0, the up-move
  out of its last) are never touched by reachable mass, which first
  reaches either end at step t.  In exact arithmetic this is the
  brute-force oracle.

* ``_spectral_row``: the Karlin-McGregor representation

      (P^t)_{ij} = pi_j * integral_0^1 x^t Q_i(x) Q_j(x) W(x) dx,

  with pi_j = 1 / norm_squared(j), one block of ``integrate``'s spectral
  cells (the Gram matrix is another).  In float mode cell j's integrand
  is a polynomial of degree t + i + j, and an M-point Gauss rule is exact
  up to degree 2M - 1, so one rule with floor((t+i+j)/2) + 1 nodes for
  the last column j integrates every cell exactly up to rounding.  In
  exact mode the cells are integers from the closed-form coefficients in
  powers of 1 - x and the normalized moments of x^t W, so their cost does
  not grow with t.

Every row and cell goes through one window, ``_row``: it checks the
arguments once, intersects the requested columns (0..j_max for a row, j
for a cell) with the band max(0, i - t)..i + t that t steps reach, and
fills 0 over 1 elsewhere, calling no core when that band is missed.  The
CLI prints exact rows as numerators over denominators, and the public
functions divide them by ``polynomials._ratios``.

Banded propagation runs one step body on the bands over the denominators
of the states they reach: float64 over 1, or for the exact engine
integers over den_k, the lcm of the three denominators that state k
receives (up_{k-1}, stay_k and down_{k+1}), of O(log(k + alpha + beta))
bits.  Each state's new mass adds the same products in the same order as
a plain loop over states would, so neither engine's results depend on
the vectorization.

``stationarity_residuals`` checks the fixed-point identity pi P = pi for
the pi_0-normalized invariant measure state by state, forming pi P with
the same banded step on the same bands.  pi is a measure, not a
distribution: its total mass diverges, so no probability normalization
exists and none is attempted.  Residuals are reported relative to the
local component pi_i, since pi_i grows polynomially in i and an absolute
residual would be dominated by the largest retained component's rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .model import ModelParams, NumericalError, check_engine, check_int
from .polynomials import _invariant_terms, _law_table, _ratios, _step_table
from .integrate import _exact_spectral_terms, _float_spectral_cells

__all__ = [
    "matrix_power_row",
    "matrix_power_transition",
    "spectral_transition",
    "spectral_transition_row",
    "stationarity_residuals",
]

# Rounding dust this far past [0, 1] is clamped; anything worse is a bug
# and raises instead of being silently hidden.
_CLAMP_SLACK = 1e-9


def _banded_step(mass: np.ndarray, diag, sup, sub) -> np.ndarray:
    """One walk step on ndarrays of either engine's dtype.

    State n receives mass[n] * diag[n], then mass[n-1] * sup[n-1], then
    mass[n+1] * sub[n], added in that order.
    """
    out = mass * diag
    out[1:] += mass[:-1] * sup
    out[:-1] += mass[1:] * sub
    return out


def _scaled_bands(N: int, params: ModelParams, engine: str, first: int = 0) -> tuple:
    """(diag, sup, sub) on states first..N-1 as numerators over the denominators
    of the states they reach, and those denominators: den (1 in float).

    Exact entry k of den is the lcm of the three denominators that state k
    receives (up_{k-1}, stay_k and down_{k+1}, those inside the window), so
    diag[k] is over den[k], sup[k] over den[k+1] and sub[k] over den[k].
    """
    if engine == "exact":
        (up, ups), (stay, stays), (down, downs) = _law_table(N - 1, params, engine, first)
        den = np.lcm.reduce([stays, np.r_[1, ups[:-1]], np.r_[downs[1:], 1]])
        sup, sub = up[:-1] * (den[1:] // ups[:-1]), down[1:] * (den[:-1] // downs[1:])
        return (stay * (den // stays), sup, sub), den
    up, stay, down = _step_table(N - 1, params, engine, first)
    return (stay, up[:-1], down[1:]), 1


def _power_row(t: int, i: int, cols: range, params: ModelParams, engine: str) -> tuple:
    """Columns ``cols`` of row i of P^t by t steps on the states max(0, i-t)..i+t:
    numerators over a scale.

    The float row is the values over a scale of 1.  The exact row is an
    integer vector x over one scale S.  A step on the integer bands of
    ``_scaled_bands`` puts state k at x_k / (S den_k); the gcd of x_k and
    the small den_k leaves r_k = den_k / gcd(x_k, den_k), and the row goes
    back over one scale S m with m = lcm(r), as x_k m / den_k (Henrici's
    rule: the gcds are taken on the small denominators, not on the row).
    No gcd over the whole row is needed: row 0 at t = 400 keeps a scale of
    under 1.5 times the bits of its reduced denominator.
    """
    first = max(0, i - t)
    bands, den = _scaled_bands(i + t + 1, params, engine, first)
    mass = np.zeros(bands[0].size, dtype=bands[0].dtype)
    mass[i - first] = 1
    scale = 1
    for _ in range(t):
        mass = _banded_step(mass, *bands)
        if engine == "exact":
            r = den // np.gcd(mass, den)
            m = math.lcm(*r)
            mass = mass * m // den
            scale *= m
    return mass[cols.start - first : cols.stop - first], scale


def _spectral_row(t: int, i: int, cols: range, params: ModelParams, engine: str) -> tuple:
    """Columns ``cols`` of row i of P^t by the spectral integral: numerators over denominators.

    Exact cells are the integers of ``_exact_spectral_terms``.  Float cells
    come off one Gauss rule with floor((t+i+cols[-1])/2) + 1 nodes, over 1;
    rounding dust within 1e-9 of [0, 1] is clamped, and a cell further out
    raises NumericalError naming it.
    """
    if engine == "exact":
        return _exact_spectral_terms(t, [i], cols, params)
    cells = _float_spectral_cells(t, [i], cols, params, (t + i + cols[-1]) // 2 + 1)[0]
    # nan is out of range too; clip keeps -0.0, which lies in [0, 1]
    bad = np.flatnonzero(~((cells >= -_CLAMP_SLACK) & (cells <= 1.0 + _CLAMP_SLACK)))
    if bad.size:
        raise NumericalError(
            f"spectral_transition(t={t}, i={i}, j={cols[bad[0]]}): value "
            f"{float(cells[bad[0]])!r} outside [0, 1] beyond rounding slack"
        )
    return np.clip(cells, 0.0, 1.0), 1


def _row(core, t, i, js: range, params: ModelParams, engine: str) -> tuple:
    """Row i of P^t at the columns js by ``core``: arrays of numerators and denominators.

    Checks t, i, the engine and the exact engine's integer exponents.  The
    columns of js in the band max(0, i-t)..i+t that t steps reach are
    ``core(t, i, cols, params, engine)``; every other cell is exactly 0 over
    1, and the core is not called when js misses the band.
    """
    t = check_int(t, "t")
    i = check_int(i, "i")
    if check_engine(engine) == "exact":
        params.require_integral("engine='exact'")
    dtype = object if engine == "exact" else float
    nums, dens = np.zeros(len(js), dtype=dtype), np.ones(len(js), dtype=dtype)
    cols = range(max(js.start, i - t), min(js.stop, i + t + 1))
    if cols:
        reach = slice(cols.start - js.start, cols.stop - js.start)
        nums[reach], dens[reach] = core(t, i, cols, params, engine)
    return nums, dens


def matrix_power_row(t, i, j_max, params: ModelParams, engine: str = "exact") -> list:
    """Row i of P^t, entries j = 0..j_max, by repeated banded products.

    Exact by the truncation argument in the module docstring; the float
    variant runs the same recursion in binary64.
    """
    js = range(check_int(j_max, "j_max") + 1)
    return _ratios(*_row(_power_row, t, i, js, params, engine), engine).tolist()


def matrix_power_transition(t, i, j, params: ModelParams) -> Fraction:
    """(P^t)_{ij} as an exact rational: the brute-force oracle.

    Requires integer parameters.  Cells with |i - j| > t are exactly zero,
    without a truncation being built.
    """
    j = check_int(j, "j")
    return _ratios(*_row(_power_row, t, i, range(j, j + 1), params, "exact"), "exact").item()


def spectral_transition(t, i, j, params: ModelParams, engine: str = "float"):
    """(P^t)_{ij} via the Karlin-McGregor integral representation.

    The spectral route's one column j, equal to entry j of
    ``spectral_transition_row`` with j_max = j.  Float mode clamps this
    cell's rounding dust at the [0, 1] boundary (within 1e-9) and raises
    NumericalError further out.  Exact mode returns a Fraction and requires
    integer parameters.  Cells with |i - j| > t are exactly zero.
    """
    j = check_int(j, "j")
    return _ratios(*_row(_spectral_row, t, i, range(j, j + 1), params, engine), engine).item()


def spectral_transition_row(t, i, params: ModelParams, j_max, engine: str = "float") -> list:
    """Row i of P^t for j = 0..j_max via the spectral representation.

    The reachable columns max(0, i-t)..min(j_max, i+t) are one block of
    ``integrate``'s spectral cells; float mode clamps their rounding dust
    at the [0, 1] boundary.  Unreachable cells are exactly zero in both.
    """
    js = range(check_int(j_max, "j_max") + 1)
    return _ratios(*_row(_spectral_row, t, i, js, params, engine), engine).tolist()


def _residual_terms(N: int, params: ModelParams, engine: str) -> tuple:
    """((pi, S), (errors, scaled)): ``stationarity_residuals`` as numerators.

    pi_n = pi[n] / S from ``_invariant_terms``, and residual n =
    errors[n] / scaled[n].  One banded step of pi's numerators over the
    bands of ``_scaled_bands`` puts state n's flow over its own denominator
    den_n, so the residual is |flow_n - den_n pi[n]| / (den_n pi[n]): exact
    integers, or floats with S = den = 1.
    """
    measure, scale = _invariant_terms(N - 1, params, engine)
    bands, den = _scaled_bands(N, params, engine)
    # a float overflow leaves inf or nan for the caller to check
    with np.errstate(all="ignore"):
        scaled = (den * measure)[:-1]
        errors = abs(_banded_step(measure, *bands)[:-1] - scaled)
    return (measure, scale), (errors, scaled)


def stationarity_residuals(N, params: ModelParams, engine: str = "float") -> tuple[list, list]:
    """pi_0..pi_{N-1} and the relative residuals of pi P = pi on N states.

    Residual n is |(pi P)_n - pi_n| / pi_n for n = 0..N-2, where pi P is
    one banded step of pi on the truncation to N states (the component N-1
    would need pi_N and is excluded, so there is one residual fewer than pi
    entries).  Both are ``_residual_terms`` divided by ``_ratios``.
    """
    N = check_int(N, "N", 2)
    (pi, scale), (errors, scaled) = _residual_terms(N, params, check_engine(engine))
    return _ratios(pi, scale, engine).tolist(), _ratios(errors, scaled, engine).tolist()
