"""Walk dynamics: banded one-step matrix, exact powers, spectral closed form.

The walk's one-step matrix P is tridiagonal: row n holds (down_n, stay_n,
up_n) at columns (n-1, n, n+1), sliced from one ``polynomials._step_table``
by ``build_transition``.  Two independent routes to the t-step
probabilities (P^t)_{ij} live here, each a core for the reachable
columns of one row:

* ``_power_row``: t banded row-vector products on the truncation to
  N = i + t + 1 states.  It is exact, not approximate: t steps from i
  reach at most state i + t, and the only coefficient the truncation
  drops (the up-move out of state N - 1) is never touched by reachable
  mass.  In exact arithmetic this is the brute-force oracle.

* ``_spectral_row``: the Karlin-McGregor representation

      (P^t)_{ij} = pi_j * integral_0^1 x^t Q_i(x) Q_j(x) W(x) dx,

  with pi_j = 1 / norm_squared(j), one block of ``integrate``'s spectral
  cells (the Gram matrix is another).  In float mode cell j's integrand
  is a polynomial of degree t + i + j, and an M-point Gauss rule is exact
  up to degree 2M - 1, so one rule with floor((t+i+j)/2) + 1 nodes for
  the last column j integrates every cell exactly up to rounding.  In
  exact mode the cells are integers from the closed-form monomial
  coefficients and the normalized moments.

Every row and cell goes through one window, ``_row``: it checks the
arguments once, intersects the requested columns (0..j_max for a row, j
for a cell) with the band max(0, i - t)..i + t that t steps reach, and
fills 0 over 1 elsewhere, calling no core when that band is missed.  The
CLI prints exact rows as numerators over denominators, and the public
functions divide them by ``polynomials._ratios``.

Banded propagation runs one step body on the bands over one common
denominator D: float64 with D = 1, or for the exact engine the integers
the law's numerators become over the lcm D of its denominators.  Each
state's new mass adds the same products in the same order as a plain
loop over states would, so neither engine's results depend on the
vectorization.  ``BandedTransition.propagate`` runs the same step body on
Fractions.

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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import ModelParams, NumericalError, check_engine, check_int
from .polynomials import (
    _invariant_numerators,
    _law_table,
    _ratios,
    _step_table,
    invariant_measure_table,
)
from .integrate import _exact_spectral_terms, _float_spectral_cells

__all__ = [
    "BandedTransition",
    "build_transition",
    "matrix_power_row",
    "matrix_power_transition",
    "spectral_transition",
    "spectral_transition_row",
    "stationarity_residuals",
]

# Rounding dust this far past [0, 1] is clamped; anything worse is a bug
# and raises instead of being silently hidden.
_CLAMP_SLACK = 1e-9


@dataclass(frozen=True)
class BandedTransition:
    """Truncation of the one-step matrix to states 0..size-1.

    sub holds down_1..down_{size-1} (the entry at row n, column n-1), diag
    holds stay_0..stay_{size-1}, sup holds up_0..up_{size-2}.  Every
    interior row sums to 1 (exactly in rational mode); the last row sums to
    1 - up_{size-1}, i.e. truncation leaks mass upward only.  Row n of the
    untruncated matrix is ``step_coefficients(n, params, engine)``.
    """

    size: int
    sub: tuple
    diag: tuple
    sup: tuple
    params: ModelParams
    engine: str

    def propagate(self, mass) -> list:
        """One walk step applied to a row vector of state masses."""
        if len(mass) != self.size:
            raise ValueError(f"mass vector of length {len(mass)} for size {self.size}")
        dtype = object if self.engine == "exact" else float
        bands = (np.array(band, dtype=dtype) for band in (self.diag, self.sup, self.sub))
        return _banded_step(np.array(mass, dtype=dtype), *bands).tolist()


def _banded_step(mass: np.ndarray, diag, sup, sub) -> np.ndarray:
    """One walk step on ndarrays of either engine's dtype.

    State n receives mass[n] * diag[n], then mass[n-1] * sup[n-1], then
    mass[n+1] * sub[n], added in that order.
    """
    out = mass * diag
    out[1:] += mass[:-1] * sup
    out[:-1] += mass[1:] * sub
    return out


def build_transition(N, params: ModelParams, engine: str = "float") -> BandedTransition:
    """One-step matrix truncated to the first N states."""
    N = check_int(N, "N", 1)
    up, stay, down = _step_table(N - 1, params, engine)
    return BandedTransition(
        size=N,
        sub=tuple(down[1:].tolist()),
        diag=tuple(stay.tolist()),
        sup=tuple(up[:-1].tolist()),
        params=params,
        engine=engine,
    )


def _scaled_bands(N: int, params: ModelParams, engine: str) -> tuple:
    """(diag, sup, sub) on N states as numerators over one denominator D, and D (1 in float)."""
    if engine == "exact":
        law = _law_table(N - 1, params, engine)
        den = math.lcm(*map(math.lcm, *(dens for _, dens in law)))  # small lcms first
        up, stay, down = (nums * (den // dens) for nums, dens in law)
    else:
        (up, stay, down), den = _step_table(N - 1, params, engine), 1
    return (stay, up[:-1], down[1:]), den


def _power_row(t: int, i: int, cols: range, params: ModelParams, engine: str) -> tuple:
    """Columns ``cols`` of row i of P^t by t steps on i + t + 1 states: numerators over a scale.

    The float row is the values over a scale of 1.  The exact one runs on
    the integer bands of ``_scaled_bands`` over one common denominator D,
    so after each step the row is an integer vector m over a scale that has
    gained a factor D.  Cancelling the gcd of the scale and all of m after
    every step keeps the integers near the size of the row's reduced
    denominators.
    """
    bands, den = _scaled_bands(i + t + 1, params, engine)
    mass = np.zeros(bands[0].size, dtype=bands[0].dtype)
    mass[i] = 1
    scale = 1
    for _ in range(t):
        mass = _banded_step(mass, *bands)
        if engine == "exact":
            scale *= den
            common = math.gcd(scale, *mass)
            mass //= common
            scale //= common
    return mass[cols.start : cols.stop], scale


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
    dtype = float
    if check_engine(engine) == "exact":
        params.require_integral("engine='exact'")
        dtype = object
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

    pi_n = pi[n] / S, and residual n = errors[n] / scaled[n].  Exact mode
    steps pi's integer numerators p_n over the integer bands, so the
    residual is |flow_n - D p_n| / (D p_n); float mode has S = D = 1.
    """
    if engine == "exact":
        pi, scale = _invariant_numerators(N - 1, params)
        measure = np.array(pi, dtype=object)
    else:
        pi, scale = invariant_measure_table(N - 1, params, engine), 1
        measure = np.array(pi)
    bands, den = _scaled_bands(N, params, engine)
    # a float overflow leaves inf or nan for the caller to check
    with np.errstate(all="ignore"):
        scaled = den * measure[:-1]
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
