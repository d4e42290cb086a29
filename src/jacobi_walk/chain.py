"""Walk dynamics: banded one-step matrix, exact powers, spectral closed form.

The walk's one-step matrix P is tridiagonal: row n holds (down_n, stay_n,
up_n) at columns (n-1, n, n+1), sliced from one ``polynomials._step_table``
by ``build_transition``.  Two independent routes to the t-step
probabilities (P^t)_{ij} live here:

* ``matrix_power_transition``: t banded row-vector products in exact
  arithmetic on a finite truncation.  The truncation at
  N = max(i, j) + t + 1 states is exact, not approximate: starting from i,
  t steps of a tridiagonal walk reach at most state i + t, and the only
  coefficient the truncation drops (the up-move out of state N - 1) is
  never touched by reachable mass.  This is the brute-force oracle.

* ``spectral_transition``: the Karlin-McGregor representation

      (P^t)_{ij} = pi_j * integral_0^1 x^t Q_i(x) Q_j(x) W(x) dx,

  with pi_j = 1 / norm_squared(j).  Both engines read a row's reachable
  columns max(0, i - t)..reach, reach = min(j_max, i + t), off one block
  of ``integrate``'s spectral cells (the Gram matrix is another).  In float
  mode the integrand of cell j is a polynomial of degree t + i + j, and an
  M-point Gauss rule is exact up to degree 2M - 1, so one rule with
  floor((t+i+reach)/2) + 1 nodes integrates every cell of a row exactly
  up to rounding.  In exact mode the cells come from the closed-form
  monomial coefficients and the normalized moments, in integers.

Banded propagation runs one step body on ndarrays for both engines:
float64 for the float engine, dtype object holding integers for the exact
one (the bands over one common denominator, see ``matrix_power_row``).
Each state's new mass adds the same products in the same order as a plain
loop over states would, so neither engine's results depend on the
vectorization.  ``BandedTransition.propagate`` and the exact
``stationarity_residuals`` run the same step on Fractions.

``stationarity_residuals`` checks the fixed-point identity pi P = pi for
the pi_0-normalized invariant measure state by state, forming pi P with
the same banded step on the bands of ``build_transition``, and
``stationarity_residual`` reports the worst state.  pi is a measure, not a
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
    StepCoefficients,
    _common_denominator,
    _step_table,
    invariant_measure_table,
)
from .integrate import _exact_spectral_cells, _float_spectral_cells

__all__ = [
    "BandedTransition",
    "build_transition",
    "matrix_power_row",
    "matrix_power_transition",
    "spectral_transition",
    "spectral_transition_row",
    "stationarity_residual",
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
    1 - up_{size-1}, i.e. truncation leaks mass upward only.
    """

    size: int
    sub: tuple
    diag: tuple
    sup: tuple
    params: ModelParams
    engine: str

    def row(self, n: int) -> StepCoefficients:
        """The retained entries of row n as a StepCoefficients triple.

        Entries clipped by the truncation read as zero.
        """
        if not 0 <= n < self.size:
            raise IndexError(f"row {n} outside truncation of size {self.size}")
        zero = Fraction(0) if self.engine == "exact" else 0.0
        return StepCoefficients(
            n=n,
            up=self.sup[n] if n < self.size - 1 else zero,
            stay=self.diag[n],
            down=self.sub[n - 1] if n > 0 else zero,
        )

    def _bands(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(diag, sup, sub) as ndarrays: float64, or dtype object of Fractions."""
        dtype = object if self.engine == "exact" else float
        return tuple(np.array(band, dtype=dtype) for band in (self.diag, self.sup, self.sub))

    def propagate(self, mass) -> list:
        """One walk step applied to a row vector of state masses."""
        if len(mass) != self.size:
            raise ValueError(f"mass vector of length {len(mass)} for size {self.size}")
        diag, sup, sub = self._bands()
        return _banded_step(np.array(mass, dtype=diag.dtype), diag, sup, sub).tolist()


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
    check_engine(engine)
    up, stay, down = _step_table(N - 1, params, engine)
    return BandedTransition(
        size=N,
        sub=tuple(down[1:].tolist()),
        diag=tuple(stay.tolist()),
        sup=tuple(up[:-1].tolist()),
        params=params,
        engine=engine,
    )


def matrix_power_row(t, i, j_max, params: ModelParams, engine: str = "exact") -> list:
    """Row i of P^t, entries j = 0..j_max, by repeated banded products.

    Exact by the truncation argument in the module docstring; the float
    variant runs the same recursion in binary64.  The exact variant runs on
    integers: every band entry is scaled to an integer over one common
    denominator D, so after each step the row is an integer vector m over a
    scale that has gained a factor D.  Cancelling the gcd of the scale and
    all of m after every step keeps the integers near the size of the
    row's reduced denominators; the row is m_j / scale.
    """
    t = check_int(t, "t")
    i = check_int(i, "i")
    j_max = check_int(j_max, "j_max")
    bands = build_transition(max(i, j_max) + t + 1, params, engine)._bands()
    mass = np.zeros(bands[0].size, dtype=bands[0].dtype)
    mass[i] = 1
    if engine == "float":
        for _ in range(t):
            mass = _banded_step(mass, *bands)
        # tolist yields plain floats, never np.float64
        return mass[: j_max + 1].tolist()
    nums, den = _common_denominator(np.concatenate(bands))
    bands = np.split(np.array(nums, dtype=object), np.cumsum([band.size for band in bands[:-1]]))
    scale = 1
    for _ in range(t):
        mass = _banded_step(mass, *bands)
        scale *= den
        common = math.gcd(scale, *mass)
        mass //= common
        scale //= common
    return [Fraction(m, scale) for m in mass[: j_max + 1].tolist()]


def matrix_power_transition(t, i, j, params: ModelParams) -> Fraction:
    """(P^t)_{ij} as an exact rational: the brute-force oracle."""
    j = check_int(j, "j")
    return matrix_power_row(t, i, j, params, "exact")[j]


def _clamp_probability(value: float, context: str) -> float:
    if 0.0 <= value <= 1.0:
        return value
    if -_CLAMP_SLACK <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + _CLAMP_SLACK:
        return 1.0
    raise NumericalError(f"{context}: value {value!r} outside [0, 1] beyond rounding slack")


def spectral_transition(t, i, j, params: ModelParams, engine: str = "float"):
    """(P^t)_{ij} via the Karlin-McGregor integral representation.

    Entry j of ``spectral_transition_row`` with j_max = j; in float mode its
    Gauss rule has floor((t+i+j)/2) + 1 nodes.  Float mode clamps rounding
    dust at the [0, 1] boundary (within 1e-9) and raises NumericalError
    further out.  Exact mode returns a Fraction and requires integer
    parameters.  Cells with |i - j| > t are unreachable and exactly zero.
    """
    t = check_int(t, "t")
    i = check_int(i, "i")
    j = check_int(j, "j")
    check_engine(engine)
    if abs(i - j) > t:
        # unreachable in t steps of a birth-death walk
        return Fraction(0) if engine == "exact" else 0.0
    return spectral_transition_row(t, i, params, j, engine)[j]


def spectral_transition_row(t, i, params: ModelParams, j_max, engine: str = "float") -> list:
    """Row i of P^t for j = 0..j_max via the spectral representation.

    The reachable columns max(0, i-t)..min(j_max, i+t) are one block of
    ``integrate``'s spectral cells; float mode clamps their rounding dust
    at the [0, 1] boundary.  Unreachable cells are exactly zero in both.
    """
    t = check_int(t, "t")
    i = check_int(i, "i")
    j_max = check_int(j_max, "j_max")
    check_engine(engine)
    exact = engine == "exact"
    if exact:
        params.require_integral("engine='exact'")
    row = [Fraction(0) if exact else 0.0] * (j_max + 1)
    first, reach = max(0, i - t), min(j_max, i + t)
    if first <= reach:
        cols = range(first, reach + 1)
        if exact:
            row[first : reach + 1] = _exact_spectral_cells(t, [i], cols, params)[0]
        else:
            cells = _float_spectral_cells(t, [i], cols, params, (t + i + reach) // 2 + 1)
            row[first : reach + 1] = [
                _clamp_probability(value, f"spectral_transition(t={t}, i={i}, j={j})")
                for j, value in zip(cols, cells[0].tolist())
            ]
    return row


def stationarity_residuals(N, params: ModelParams, engine: str = "float") -> tuple[list, list]:
    """pi_0..pi_{N-1} and the relative residuals of pi P = pi on N states.

    Residual n is |(pi P)_n - pi_n| / pi_n for n = 0..N-2, where pi P is
    one banded step of pi on the truncation to N states (the component N-1
    would need pi_N and is excluded, so there is one residual fewer than pi
    entries).
    """
    N = check_int(N, "N", 2)
    check_engine(engine)
    pi = invariant_measure_table(N - 1, params, engine)
    diag, sup, sub = build_transition(N, params, engine)._bands()
    measure = np.array(pi, dtype=diag.dtype)
    # a float overflow leaves inf or nan for the caller to check
    with np.errstate(all="ignore"):
        flow = _banded_step(measure, diag, sup, sub)[:-1]
        residuals = abs(flow - measure[:-1]) / measure[:-1]
    # tolist yields plain floats or the Fractions themselves
    return pi, residuals.tolist()


def stationarity_residual(N, params: ModelParams, engine: str = "float"):
    """Largest relative residual of the fixed-point identity pi P = pi.

    The maximum of ``stationarity_residuals`` over states 0..N-2.  Exact
    mode returns Fraction(0); the identity is algebraic.
    """
    return max(stationarity_residuals(N, params, engine)[1])
