"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Each
criterion states its full parameter grid and tolerance; nothing here is
sampled down.  Where two independent routes exist (mechanism vs formulas,
spectral vs matrix power, quadrature vs rational moments, Monte Carlo vs
closed form) the criterion compares the routes, never a route with itself.
"""

import math
from fractions import Fraction

import numpy as np

from jacobi_walk import (
    ModelParams,
    gauss_jacobi_rule,
    integrate_poly_exact,
    invariant_measure,
    matrix_power_row,
    moment,
    monomial_coefficients,
    norm_squared,
    orthonormality_table,
    poly_product,
    spectral_transition,
    stationarity_residuals,
    step_coefficients,
    step_distribution_exact,
    terminal_state_counts,
)
from jacobi_walk.cli import main


def _report(name: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_mechanism_identity():
    """Urn enumeration equals recurrence coefficients, n <= 100, params <= 8."""
    mismatches = 0
    checked = 0
    for a in range(9):
        for b in range(9):
            params = ModelParams(a, b)
            for n in range(101):
                down, stay, up = step_distribution_exact(n, params)
                c = step_coefficients(n, params, "exact")
                checked += 1
                if (down, stay, up) != (c.down, c.stay, c.up):
                    mismatches += 1
    _report(
        "criterion 1 (mechanism identity)",
        mismatches == 0,
        f"exact equality on {checked} (n, alpha, beta) triples"
        if mismatches == 0
        else f"{mismatches} of {checked} triples disagree",
    )


def test_criterion_2_spectral_identity():
    """Spectral route vs banded matrix power: exact equality and float 1e-10."""
    worst_float = 0.0
    exact_mismatches = 0
    cells = 0
    for a in range(4):
        for b in range(4):
            params = ModelParams(a, b)
            for i in range(9):
                for t in range(16):
                    oracle_row = matrix_power_row(t, i, 8, params, "exact")
                    for j in range(9):
                        cells += 1
                        exact = spectral_transition(t, i, j, params, "exact")
                        if exact != oracle_row[j]:
                            exact_mismatches += 1
                        got = spectral_transition(t, i, j, params, "float")
                        worst_float = max(worst_float, abs(got - float(oracle_row[j])))
    passed = exact_mismatches == 0 and worst_float <= 1e-10
    _report(
        "criterion 2 (spectral identity)",
        passed,
        f"{cells} cells; exact mismatches {exact_mismatches}; "
        f"max float deviation {worst_float:.3e} (tol 1e-10)",
    )


def test_criterion_3_orthonormality():
    """Normalized Gram matrix is the identity: exactly, and to 1e-11 in float."""
    worst_exact = Fraction(0)
    worst_float = 0.0
    i_max = 20
    identity = np.eye(i_max + 1)
    for a in range(5):
        for b in range(5):
            params = ModelParams(a, b)
            exact = orthonormality_table(i_max, params, "exact")
            for i in range(i_max + 1):
                for j in range(i_max + 1):
                    delta = Fraction(1 if i == j else 0)
                    worst_exact = max(worst_exact, abs(exact[i][j] - delta))
            table = orthonormality_table(i_max, params, "float")
            worst_float = max(worst_float, float(np.abs(table - identity).max()))
    passed = worst_exact == 0 and worst_float <= 1e-11
    _report(
        "criterion 3 (orthonormality)",
        passed,
        f"i, j <= {i_max}, alpha, beta <= 4; exact deviation {worst_exact}; "
        f"max float deviation {worst_float:.3e} (tol 1e-11)",
    )


def test_criterion_4_norm_formula():
    """Factorial-ratio norm equals exact integration of Q_i^2, i <= 50."""
    mismatches = 0
    checked = 0
    for a in range(7):
        for b in range(7):
            params = ModelParams(a, b)
            for i in range(51):
                q = monomial_coefficients(i, params)
                integral = integrate_poly_exact(poly_product(q, q), params)
                checked += 1
                if integral != norm_squared(i, params, "exact"):
                    mismatches += 1
    _report(
        "criterion 4 (norm formula)",
        mismatches == 0,
        f"exact equality on {checked} (i, alpha, beta) triples"
        if mismatches == 0
        else f"{mismatches} of {checked} disagree",
    )


def test_criterion_5_stationarity():
    """pi P = pi on 200 states: exact zero, float relative residual <= 1e-12."""
    worst_exact = Fraction(0)
    worst_float = 0.0
    for a in range(7):
        for b in range(7):
            params = ModelParams(a, b)
            worst_exact = max(worst_exact, *stationarity_residuals(200, params, "exact")[1])
            worst_float = max(worst_float, *stationarity_residuals(200, params, "float")[1])
    spot = [invariant_measure(i, ModelParams(0, 0), "exact") for i in range(4)]
    passed = worst_exact == 0 and worst_float <= 1e-12 and spot == [1, 3, 5, 7]
    _report(
        "criterion 5 (stationarity)",
        passed,
        f"N=200, alpha, beta <= 6; exact residual {worst_exact}; max float "
        f"relative residual {worst_float:.3e} (tol 1e-12); spot measure {spot}",
    )


def test_criterion_6_monte_carlo_consistency():
    """Urn ensembles vs the closed form over the full grid, 1e6 each."""
    trajectories = 10**6
    base_seed = 20260816
    cells = 0
    within4 = 0
    worst_z = 0.0
    ensemble = 0
    for a in (0, 1, 2):
        for b in (0, 1, 2):
            params = ModelParams(a, b)
            for n0 in (0, 1, 3):
                for t in (1, 2, 5):
                    counts = terminal_state_counts(
                        n0, t, params, trajectories, seed=base_seed + ensemble, threads=4
                    )
                    ensemble += 1
                    for j in range(max(0, n0 - t), n0 + t + 1):
                        cells += 1
                        target = spectral_transition(t, n0, j, params, "float")
                        estimate = int(counts[j]) / trajectories
                        stderr = math.sqrt(estimate * (1.0 - estimate) / trajectories)
                        if stderr == 0.0:
                            z = 0.0 if estimate == target else math.inf
                        else:
                            z = abs(estimate - target) / stderr
                        worst_z = max(worst_z, z)
                        if z <= 4.0:
                            within4 += 1
    share = within4 / cells
    passed = share >= 0.99 and worst_z <= 6.0
    _report(
        "criterion 6 (Monte Carlo consistency)",
        passed,
        f"{ensemble} ensembles, {cells} reachable cells; {share:.2%} within "
        f"4 stderr (need >= 99%); worst deviation {worst_z:.2f} stderr (limit 6)",
    )


def test_criterion_7_quadrature_construction():
    """Rule validity and moment exactness for M <= 40, alpha, beta <= 5."""
    worst_rel = 0.0
    shape_failures = 0
    for a in range(6):
        for b in range(6):
            params = ModelParams(a, b)
            for order in range(1, 41):
                rule = gauss_jacobi_rule(order, params)
                inside = bool(np.all(rule.nodes > 0.0) and np.all(rule.nodes < 1.0))
                increasing = bool(np.all(np.diff(rule.nodes) > 0.0))
                positive = bool(np.all(rule.weights > 0.0))
                if not (inside and increasing and positive):
                    shape_failures += 1
                powers = np.ones_like(rule.nodes)
                for k in range(2 * order):
                    exact = float(moment(k, params))
                    worst_rel = max(worst_rel, abs(rule.integrate(powers) - exact) / exact)
                    powers = powers * rule.nodes
    tiny = gauss_jacobi_rule(1, ModelParams(0, 0))
    spot = abs(tiny.nodes[0] - 0.5) <= 1e-15 and abs(tiny.weights[0] - 1.0) <= 1e-15
    passed = shape_failures == 0 and worst_rel <= 1e-12 and spot
    _report(
        "criterion 7 (quadrature construction)",
        passed,
        f"1440 rules; node/weight validity failures {shape_failures}; max moment "
        f"relative error {worst_rel:.3e} (tol 1e-12); M=1 spot rule ok: {spot}",
    )


def test_criterion_8_reproducibility(tmp_path):
    """cmd_simulate output is byte-identical across runs and thread counts."""
    outputs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4"), ("d", "3")):
        target = tmp_path / f"run_{name}.csv"
        code = main(
            [
                "simulate",
                "--alpha", "1", "--beta", "2",
                "--n0", "2", "--t", "5",
                "--trajectories", "500000",
                "--seed", "123456789",
                "--threads", threads,
                "--output", str(target),
            ]
        )
        assert code == 0
        outputs.append(target.read_bytes())
    identical = all(blob == outputs[0] for blob in outputs[1:])
    _report(
        "criterion 8 (reproducibility)",
        identical,
        f"4 runs (threads 1,1,4,3) produced {'identical' if identical else 'DIFFERING'} "
        f"bytes ({len(outputs[0])} bytes each)",
    )
