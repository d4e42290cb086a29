"""The package's public surface: each name is declared once, in its module's
``__all__``, and the package re-exports exactly those lists."""

import inspect

import jacobi_walk
from jacobi_walk import chain, integrate, model, polynomials, rng, urn

MODULES = (model, polynomials, integrate, chain, rng, urn)

# jacobi_walk.__all__ as released; an export added or dropped fails here
PUBLIC = [
    "CounterStream",
    "ENGINES",
    "ModelParams",
    "NumericalError",
    "QuadratureRule",
    "StepCoefficients",
    "StepTrace",
    "TransitionEstimate",
    "__version__",
    "estimate_transition",
    "eval_poly",
    "gauss_jacobi_rule",
    "integrate_poly_exact",
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
    "stationarity_residuals",
    "step_coefficients",
    "step_distribution_exact",
    "stream_key",
    "stream_keys",
    "terminal_state_counts",
    "total_mass",
    "weight",
]


def test_package_exports_the_released_names():
    assert len(jacobi_walk.__all__) == len(set(jacobi_walk.__all__))
    assert set(jacobi_walk.__all__) == set(PUBLIC)


def test_each_export_is_its_modules_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(jacobi_walk, name) is getattr(module, name), name


def test_module_lists_do_not_overlap():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert set(names) | {"__version__"} == set(jacobi_walk.__all__)


def test_module_lists_name_only_what_the_module_defines():
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


# the transition functions' signatures as released; they read one private
# row window, which must not leak a parameter or option into them
SIGNATURES = {
    "matrix_power_row": "(t, i, j_max, params: 'ModelParams', engine: 'str' = 'exact') -> 'list'",
    "matrix_power_transition": "(t, i, j, params: 'ModelParams') -> 'Fraction'",
    "spectral_transition": "(t, i, j, params: 'ModelParams', engine: 'str' = 'float')",
    "spectral_transition_row": (
        "(t, i, params: 'ModelParams', j_max, engine: 'str' = 'float') -> 'list'"
    ),
}


def test_transition_signatures_are_the_released_ones():
    for name, signature in SIGNATURES.items():
        assert str(inspect.signature(getattr(jacobi_walk, name))) == signature, name
