"""Recurrence coefficients, polynomial evaluation, norms, invariant measure.

The family here is the Jacobi family on [0, 1] for the weight
x**alpha * (1 - x)**beta, normalized so that every polynomial equals 1 at
x = 1.  Writing Q_n for the degree-n member, the three-term recurrence is

    x * Q_n(x) = up_n * Q_{n+1}(x) + stay_n * Q_n(x) + down_n * Q_{n-1}(x)

with Q_0 = 1 and Q_{-1} = 0.  Under this normalization the coefficients are
nonnegative and sum to 1, so (down_n, stay_n, up_n) is also the one-step law
of a birth-and-death walk on the nonnegative integers: down_n is the
probability of moving from n to n-1, stay_n of staying, up_n of moving to
n+1.  down_0 = 0, so the walk never leaves the state space.

The law's numerators and denominators are written once, in ``_law_terms``,
and tabulated over states by ``_law_table``; ``step_coefficients`` divides
them at one state and ``_step_table`` over the table by ``_ratios``, the
one converter of numerator and denominator tables: Fraction or binary64.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

from .model import ModelParams, check_engine, check_int

__all__ = [
    "StepCoefficients",
    "eval_poly",
    "invariant_measure",
    "invariant_measure_table",
    "monomial_coefficients",
    "norm_squared",
    "poly_product",
    "poly_table",
    "step_coefficients",
    "total_mass",
    "weight",
]

Scalar = Union[Fraction, float]


@dataclass(frozen=True)
class StepCoefficients:
    """One-step transition probabilities out of state n.

    up multiplies Q_{n+1} in the recurrence, stay multiplies Q_n, down
    multiplies Q_{n-1}.  As probabilities: P(n -> n+1) = up,
    P(n -> n) = stay, P(n -> n-1) = down.  Always up > 0, stay >= 0,
    down >= 0, with down = 0 exactly at n = 0, and up + stay + down = 1
    (exactly in rational arithmetic, to rounding in float).
    """

    n: int
    up: Scalar
    stay: Scalar
    down: Scalar

    @property
    def total(self) -> Scalar:
        return self.up + self.stay + self.down


def _law_terms(n, params: ModelParams, engine: str):
    """(numerator, denominator) of up, stay and down at state n.

    The law's one formula, at one state or over an ndarray of states >= 1:
    in integers for the exact engine, in binary64 throughout for the float one.
    """
    check_engine(engine)
    if engine == "exact":
        a, b = params.require_integral("engine='exact'")
    else:
        a, b = params.require_float()
    if not isinstance(n, np.ndarray) and n == 0:
        # Cancelling the factors that vanish at n = 0 keeps both finite for
        # all a, b: (a+b+1) from up (0/0 at a + b = -1), and (a+b) from
        # stay (0/0 at a = b = 0), which leaves stay_0 = (a+1)/(a+b+2).
        return (b + 1, a + b + 2), (a + 1, a + b + 2), (0, 1)
    s = 2 * n + a + b
    return (
        ((n + b + 1) * (n + a + b + 1), (s + 1) * (s + 2)),
        (2 * n * (n + a + b + 1) + (a + 1) * b + a * (a + 1), s * (s + 2)),
        (n * (n + a), s * (s + 1)),
    )


def step_coefficients(n, params: ModelParams, engine: str = "float") -> StepCoefficients:
    """Recurrence coefficients (up, stay, down) at state n.

    The terms of ``_law_terms`` divided with Fraction (exact) or true
    division (float); entry n of ``_step_table`` equals it bit for bit.
    """
    n = check_int(n, "state index")
    divide = Fraction if engine == "exact" else operator.truediv
    up, stay, down = (divide(*terms) for terms in _law_terms(n, params, engine))
    return StepCoefficients(n=n, up=up, stay=stay, down=down)


def _law_table(n_max, params: ModelParams, engine: str, n_min: int = 0) -> tuple:
    """(numerators, denominators) of up, stay and down at states n_min..n_max.

    ``_law_terms`` over the array of states: integers (exact) or float64.  Huge
    exponents leave inf or nan, silently as in the scalar's Python floats.
    """
    n_max = check_int(n_max, "n_max")
    states = np.arange(max(n_min, 1), n_max + 1, dtype=object if engine == "exact" else float)
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = zip(_law_terms(0, params, engine), _law_terms(states, params, engine))
        # state 0 has terms of its own; a table that starts above it drops them
        cut = slice(min(n_min, 1), None)
        return tuple(tuple(np.concatenate(([z], s))[cut] for z, s in zip(*pair)) for pair in pairs)


def _ratios(nums, dens, engine: str) -> np.ndarray:
    """nums / dens per cell, ``dens`` one number or one per cell: Fractions or float64.

    Exact cells come from object arrays, so integers past 2**63 stay Python
    ints; a float overflow leaves inf or nan for the caller to check.
    """
    if engine == "exact":
        fraction = np.frompyfunc(Fraction, 2, 1)
        return fraction(np.asarray(nums, dtype=object), np.asarray(dens, dtype=object))
    with np.errstate(all="ignore"):
        return np.true_divide(nums, dens)


def _step_table(n_max, params: ModelParams, engine: str, n_min: int = 0) -> tuple:
    """(up, stay, down) at states n_min..n_max: ``_law_table`` divided, float64 or Fractions."""
    return tuple(_ratios(*pair, engine) for pair in _law_table(n_max, params, engine, n_min))


def _three_term_sweep(x, q0, steps):
    """Yield q_0 = q0, q_1, ... of the three-term recurrence

        q_{k+1} = ((x - stay_k) * q_k - back_k * q_{k-1}) / fwd_k,  q_{-1} = 0,

    one further value per (stay_k, back_k, fwd_k) that ``steps`` yields.
    x and q0 may be Fractions, floats, or ndarrays of float64 or long
    double, real or complex; the arithmetic stays in their type.  Only the
    last two values are held, so a caller that keeps running sums needs no
    table.
    """
    q_prev, q = q0 * 0, q0
    yield q
    for stay, back, fwd in steps:
        q, q_prev = ((x - stay) * q - back * q_prev) / fwd, q
        yield q


def _poly_values(n, x, params: ModelParams, engine: str) -> list:
    """Q_0(x)..Q_n(x): the exact sweep's Fractions, or a column of ``poly_table``."""
    if check_engine(engine) == "float":
        return poly_table(n, [x], params)[:, 0].tolist()
    up, stay, down = _step_table(n, params, engine)
    return list(_three_term_sweep(Fraction(x), Fraction(1), zip(stay[:n], down[:n], up[:n])))


def eval_poly(n, x, params: ModelParams, engine: str = "float"):
    """Evaluate Q_n(x) by the forward recurrence.

    Exact mode accepts any rational x and returns a Fraction; float mode
    reads the last row of ``poly_table`` at x, in binary64, where an
    overflow leaves inf or nan.  Forward recursion is stable on [0, 1]
    under this normalization (values stay within the modest growth of
    |Q_n(0)|); float agreement with exact has been checked to degree
    several hundred.
    """
    return _poly_values(n, x, params, engine)[-1]


def poly_table(n_max, xs, params: ModelParams) -> np.ndarray:
    """Float values Q_n(x) for n = 0..n_max at each point of xs.

    Returns an array of shape (n_max + 1, len(xs)); row n is Q_n evaluated
    at all points.  One recurrence sweep shared across points.
    """
    n_max = check_int(n_max, "n_max")
    xs = np.asarray(xs, dtype=float)
    out = np.empty((n_max + 1, xs.size))
    up, stay, down = _step_table(n_max, params, "float")
    sweep = _three_term_sweep(xs, np.ones(xs.size), zip(stay[:n_max], down[:n_max], up[:n_max]))
    # An overflow leaves inf or nan in the table for the caller to check, so
    # numpy's warnings are silenced.  The errstate wraps the loop that drives
    # the sweep: inside the generator it would stay in force across each
    # yield, in whatever code the caller runs between values.
    with np.errstate(all="ignore"):
        for k, q in enumerate(sweep):
            out[k] = q
    return out


def _rising(x: int, n: int) -> int:
    """The Pochhammer symbol (x)_n = x (x+1) ... (x+n-1)."""
    return math.prod(range(x, x + n))


def _coefficient_numerators(n: int, a: int, b: int) -> tuple[list[int], int]:
    """Integers N_0..N_n and D with Q_n(x) = sum_k N_k x**k / D, for integer a, b.

    From the hypergeometric form (DLMF 18.5.7, mapped to [0, 1] and scaled
    so that Q_n(1) = 1 by Chu-Vandermonde)

        Q_n(x) = (-1)^n (a+1)_n / (b+1)_n * 2F1(-n, n+a+b+1; a+1; x),

    D = (b+1)_n and N_k = (-1)^(n+k) C(n, k) (a+k+1)_(n-k) (n+a+b+1)_k.  The
    term ratio N_{k+1} / N_k = (k-n)(n+a+b+1+k) / ((k+1)(a+k+1)) builds them
    in O(n) integer steps, each division exact.
    """
    top = (-1) ** n * _rising(a + 1, n)
    nums = [top]
    for k in range(n):
        top = top * (k - n) * (n + a + b + 1 + k) // ((k + 1) * (a + k + 1))
        nums.append(top)
    return nums, _rising(b + 1, n)


# A long-lived process keeps at most 4096 expansions; the bound is in
# entries, not bytes (ROADMAP item 6).  A degree-n entry holds O(n**2) bits:
# about 6.1 KB at n = 48 with alpha, beta <= 6, so a full cache of such
# entries is about 25 MB, but 0.72 MB at n = 1500 with (alpha, beta) = (3, 5)
# (tracemalloc), so a full cache of those is about 3 GB.
@lru_cache(maxsize=4096)
def monomial_coefficients(n, params: ModelParams) -> tuple[Fraction, ...]:
    """Exact monomial coefficients of Q_n, lowest degree first."""
    n = check_int(n, "degree")
    nums, den = _coefficient_numerators(n, *params.require_integral("monomial_coefficients"))
    return tuple(_ratios(nums, den, "exact"))


def _common_denominator(coeffs) -> tuple[list[int], int]:
    """Integers and one denominator D with coeffs[k] == nums[k] / D."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def poly_product(a, b) -> tuple[Fraction, ...]:
    """Coefficient convolution of two polynomials (lowest degree first).

    The convolution runs on integer numerators over one common denominator
    per factor; each output coefficient is one Fraction.
    """
    a, den_a = _common_denominator(a)
    b, den_b = _common_denominator(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return tuple(_ratios(out, den_a * den_b, "exact"))


def _inverse_mass(a: int, b: int) -> int:
    """N = (a+b+1) C(a+b, b), the integer with B(a+1, b+1) = 1 / N."""
    return (a + b + 1) * math.comb(a + b, b)


def total_mass(params: ModelParams, engine: str = "float"):
    """Integral of the bare weight over [0, 1] (the Beta function B(a+1, b+1)).

    For integer exponents both engines form it as 1 / N, N = (a+b+1) C(a+b, b).
    The float one returns 0.0, as 1 / N would, without forming N where its
    lower bound ((a+b)/k)^k, k = min(a, b), exceeds 2^1076: 1 / N rounds to
    0.0 from N = 2^1075 on, and the factor 2 covers the logarithms' rounding.
    """
    check_engine(engine)
    if engine == "exact" or params.is_integral:
        a, b = params.require_integral("engine='exact'")
        k = min(a, b)
        if engine == "float" and k and k * (math.log(a + b) - math.log(k)) > 1076 * math.log(2):
            return 0.0
        n = _inverse_mass(a, b)
        return Fraction(1, n) if engine == "exact" else 1 / n
    a, b = params.require_float()
    return math.exp(math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2))


def _invariant_numerators(n_max: int, params: ModelParams) -> tuple[list[int], int]:
    """Integers p_0..p_{n_max} and S with pi_i = p_i / S: the exact closed form."""
    a, b = params.require_integral("engine='exact'")
    return [
        (2 * i + a + b + 1) * math.comb(i + b, b) * math.comb(i + a + b, b)
        for i in range(n_max + 1)
    ], _inverse_mass(a, b)


def invariant_measure_table(n_max, params: ModelParams, engine: str = "float") -> list:
    """Invariant measure pi_0..pi_{n_max} of the walk, normalized so pi_0 = 1.

    pi_i = norm_squared(0) / norm_squared(i); the walk is reversible with
    respect to it.  For alpha = beta = 0 this is 2i + 1.  Neither engine
    reads the recurrence coefficients, so checking pi P = pi against them
    is not circular.

    Exact mode uses the closed form

        pi_i = (2i+a+b+1) C(i+b, b) C(i+a+b, b) / [(a+b+1) C(a+b, b)].

    Float mode reads alpha and beta as binary64 and multiplies out a
    telescoped product: pi_i is the prefactor (b+1)(2i+a+b+1)/(a+1) times
    prod_{m=2..i} (b+m)(a+b+m) / [m(a+m)], one ``np.cumprod`` of the
    factors in order of m.  Its factors are all safely sized and all
    denominators stay positive down to a, b > -1, so no large-Gamma
    cancellation occurs and the relative error stays at a few ulps per
    factor.  The (a+b+1) prefactor of the raw telescoping is cancelled into
    the m = 1 term, keeping a + b = -1 finite.  Exponents whose products
    leave the double range yield inf or nan entries for the caller to check.
    """
    n_max = check_int(n_max, "n_max")
    check_engine(engine)
    if engine == "exact":
        return _ratios(*_invariant_numerators(n_max, params), engine).tolist()
    a, b = params.require_float()
    m = np.arange(1.0, n_max + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = (b + m) * (a + b + m) / (m * (a + m))
        ratio[:1] = 1.0  # the m = 1 factor sits in the prefactor
        pi = (b + 1) * (2 * m + a + b + 1) / (a + 1) * np.cumprod(ratio)
    return [1.0, *pi.tolist()]


def invariant_measure(i, params: ModelParams, engine: str = "float"):
    """Invariant measure of the walk at state i, normalized so pi_0 = 1.

    Entry i of ``invariant_measure_table``; callers needing many states
    should build the table once.
    """
    i = check_int(i, "state index")
    return invariant_measure_table(i, params, engine)[i]


def norm_squared(i, params: ModelParams, engine: str = "float"):
    """Squared weighted L2 norm of Q_i: total_mass / pi_i.

    Both engines divide the weight's total mass by the invariant measure,
    so the relative error in float is that of pi_i plus one rounding.
    """
    return total_mass(params, engine) / invariant_measure(i, params, engine)


def weight(x, params: ModelParams):
    """The weight x**alpha * (1 - x)**beta; x must lie in [0, 1].

    Exact when x is a Fraction (or int) and the exponents are integers;
    otherwise evaluated in float.
    """
    if not 0 <= x <= 1:
        raise ValueError(f"weight is defined on [0, 1], got x={x}")
    if params.is_integral:
        return x**params.alpha * (1 - x) ** params.beta
    a, b = params.require_float()
    return math.pow(x, a) * math.pow(1 - x, b)
