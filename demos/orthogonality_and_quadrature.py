"""Two integrators for one weight: exact rational moments vs Gauss rules.

Everything spectral in this package rests on integrating polynomials
against x**alpha * (1-x)**beta.  There are two independent routes: closed
form rational moments (exact, integer parameters only) and an M-point
Gauss rule built from the recurrence (float, any parameters > -1).  An
M-point rule owes exactness through degree 2M - 1, so the rational route
can grade the quadrature route cell by cell.
"""

from fractions import Fraction

import numpy as np

from jacobi_walk import (
    ModelParams,
    gauss_jacobi_rule,
    integrate_poly_exact,
    invariant_measure,
    moment,
    norm_squared,
    orthonormality_table,
)

params = ModelParams(alpha=2, beta=1)

# Closed-form moments: integral of x**k against the weight.
print("first moments of the weight:", [str(moment(k, params)) for k in range(5)])

# The same integrals through the 3-point Gauss rule; degree 5 is the
# guaranteed budget of M = 3, and the errors sit at rounding level.
rule = gauss_jacobi_rule(3, params)
print("3-point rule nodes:  ", np.round(rule.nodes, 6))
print("3-point rule weights:", np.round(rule.weights, 6))
for k in range(6):
    exact = float(moment(k, params))
    quad = rule.integrate(rule.nodes**k)
    print(f"  x**{k}: exact {exact:.12f}   quadrature {quad:.12f}   diff {quad - exact:+.1e}")
print()

# Arbitrary polynomials go the same way: coefficients lowest degree first.
poly = [Fraction(1), Fraction(-3), Fraction(0), Fraction(2)]  # 1 - 3x + 2x^3
exact_val = integrate_poly_exact(poly, params)
rule = gauss_jacobi_rule(2, params)
quad_val = rule.integrate(1 - 3 * rule.nodes + 2 * rule.nodes**3)
print(f"integral of 1 - 3x + 2x^3: exact {exact_val} = {float(exact_val):.12f}")
print(f"                       quadrature {quad_val:.12f}")
print()

# Orthogonality, the property the whole construction hangs on: the table of
# integral(Q_i * Q_j * W) / norm_squared(j) is the identity matrix.  The
# exact engine gives it literally; the float engine reproduces it through
# quadrature to ~1e-12.
exact_table = orthonormality_table(4, params, "exact")
print("exact orthonormality table (5 x 5):")
for row in exact_table:
    print("  ", [str(v) for v in row])
float_table = orthonormality_table(4, params, "float")
dev = float(np.abs(float_table - np.eye(5)).max())
print(f"float route max deviation from identity: {dev:.2e}")
print()

# The norms encode the walk's invariant measure: pi_i = norm_0^2 / norm_i^2
# grows polynomially, which is why the chain has no stationary distribution
# to normalize, only a stationary measure.
print("norm_squared and invariant measure:")
for i in range(5):
    n2 = norm_squared(i, params, "exact")
    pi = invariant_measure(i, params, "exact")
    print(f"  i={i}: ||Q_i||^2 = {str(n2):<10}  pi_i = {pi}")
