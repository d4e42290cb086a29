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

from .model import ENGINES, ModelParams, NumericalError
from .polynomials import (
    StepCoefficients,
    eval_poly,
    invariant_measure,
    invariant_measure_table,
    monomial_coefficients,
    norm_squared,
    poly_product,
    poly_table,
    step_coefficients,
    total_mass,
    weight,
)
from .integrate import (
    QuadratureRule,
    gauss_jacobi_rule,
    integrate_poly_exact,
    integrate_quadrature,
    moment,
    orthonormality_table,
)
from .chain import (
    BandedTransition,
    build_transition,
    matrix_power_row,
    matrix_power_transition,
    spectral_transition,
    spectral_transition_row,
    stationarity_residual,
    stationarity_residuals,
)
from .rng import CounterStream, stream_key, stream_keys
from .urn import (
    StepTrace,
    TransitionEstimate,
    estimate_transition,
    simulate_step,
    simulate_trajectory,
    step_distribution_exact,
    terminal_state_counts,
)

__version__ = "0.1.0"

__all__ = [
    "BandedTransition",
    "CounterStream",
    "ENGINES",
    "ModelParams",
    "NumericalError",
    "QuadratureRule",
    "StepCoefficients",
    "StepTrace",
    "TransitionEstimate",
    "build_transition",
    "estimate_transition",
    "eval_poly",
    "gauss_jacobi_rule",
    "integrate_poly_exact",
    "integrate_quadrature",
    "invariant_measure",
    "invariant_measure_table",
    "matrix_power_row",
    "matrix_power_transition",
    "moment",
    "monomial_coefficients",
    "norm_squared",
    "orthonormality_table",
    "poly_product",
    "poly_table",
    "simulate_step",
    "simulate_trajectory",
    "spectral_transition",
    "spectral_transition_row",
    "stationarity_residual",
    "stationarity_residuals",
    "step_coefficients",
    "step_distribution_exact",
    "stream_key",
    "stream_keys",
    "terminal_state_counts",
    "total_mass",
    "weight",
    "__version__",
]
