"""Random walk on the nonnegative integers driven by Jacobi polynomials.

For the weight x**alpha * (1 - x)**beta on [0, 1] and the Jacobi family
normalized to 1 at x = 1, the three-term recurrence coefficients
(up_n, stay_n, down_n) are nonnegative and sum to 1, so they double as the
one-step law of a lazy birth-and-death walk.  This package provides:

* the coefficients, polynomial evaluation, norms, and invariant measure
  (``polynomials``), in both float and exact rational arithmetic;
* exact moments and Gauss quadrature for the weight (``integrate``);
* the walk's dynamics: banded transition matrix, exact matrix powers, the
  Karlin-McGregor spectral closed form for t-step probabilities, and
  stationarity verification (``chain``);
* a literal simulator of the two-urn sampling mechanism that realizes the
  same walk, with exact enumeration and reproducible vectorized ensembles
  (``urn``);
* a command-line surface for all of it (``cli``, installed as
  ``jacobi-walk``).

The exact engine (Fractions, integer exponents only) serves as the oracle
for the float engine throughout.
"""

from .model import *
from .polynomials import *
from .integrate import *
from .chain import *
from .rng import *
from .urn import *

__version__ = "0.1.0"

__all__ = (
    model.__all__
    + polynomials.__all__
    + integrate.__all__
    + chain.__all__
    + rng.__all__
    + urn.__all__
    + ["__version__"]
)
