"""Shared parameter and error types.

Everything in this package is parametrized by a pair of weight exponents
(alpha, beta) and an arithmetic engine: "float" (binary64, the Gauss
polish and spectral cells in np.longdouble) or "exact" (fractions.Fraction).
The exact engine is the trusted oracle, only for nonnegative integer
exponents, where every quantity of interest is rational; the float engine
is the production path for any real exponents > -1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

__all__ = ["ENGINES", "ModelParams", "NumericalError"]

ENGINES = ("float", "exact")


class NumericalError(RuntimeError):
    """A floating-point result failed a sanity bound with no exact fallback."""


def check_engine(engine: str) -> str:
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    return engine


def check_int(value, name: str, minimum: int = 0) -> int:
    """``value`` as an int no smaller than ``minimum``.

    operator.index rejects non-integers (floats included) with TypeError;
    an integer below ``minimum`` raises ValueError naming the argument.
    """
    value = operator.index(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Exponents of the weight x**alpha * (1 - x)**beta on [0, 1].

    The urn mechanism interprets alpha and beta as ball counts, so it (and
    the exact engine generally) requires nonnegative integers.  The same
    recurrence still defines an orthogonal family for any real exponents
    > -1, which the float engine supports.

    Integer-valued floats are canonicalized to int on construction so that
    ``is_integral`` is a plain type check afterwards.
    """

    alpha: int | float
    beta: int | float

    def __post_init__(self) -> None:
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            # bool is an int subclass but makes no sense as an exponent
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name} must be an int or float, got {type(value).__name__}")
            # NaN fails every comparison; +inf would pass "> -1" alone and
            # turn the coefficients into NaN downstream
            if not -1 < value < math.inf:
                raise ValueError(f"{name} must be finite and > -1, got {value}")
            if isinstance(value, float) and value.is_integer():
                object.__setattr__(self, name, int(value))

    @property
    def is_integral(self) -> bool:
        """True when both exponents are nonnegative integers."""
        # > -1 plus integer-valued already forces >= 0
        return isinstance(self.alpha, int) and isinstance(self.beta, int)

    def require_integral(self, context: str) -> tuple[int, int]:
        """Return (alpha, beta) as ints, or raise if either is fractional."""
        if not self.is_integral:
            raise ValueError(
                f"{context} requires nonnegative integer alpha and beta, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )
        return self.alpha, self.beta

    def require_float(self) -> tuple[float, float]:
        """Return (alpha, beta) as floats, or raise OverflowError naming the
        exponent too large for binary64 (its digits are not echoed)."""
        floats = []
        for name, value in (("alpha", self.alpha), ("beta", self.beta)):
            try:
                floats.append(float(value))
            except OverflowError:
                raise OverflowError(
                    f"{name} is too large for the float engine, which needs it below 2**1024"
                ) from None
        return floats[0], floats[1]
