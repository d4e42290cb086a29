"""t-step dynamics three ways: spectral formula, matrix power, Monte Carlo.

The t-step transition probabilities have a closed form: an integral of
x**t * Q_i * Q_j against the weight, normalized by ||Q_j||^2.  They are
also literally the powers of the banded one-step matrix, and the urn
sampler estimates them from trajectories.  Three routes, one answer.
"""

import numpy as np

from jacobi_walk import (
    ModelParams,
    estimate_transition,
    invariant_measure,
    matrix_power_transition,
    spectral_transition,
    spectral_transition_row,
    stationarity_residuals,
)

params = ModelParams(alpha=0, beta=0)
t, start = 6, 2

# Route one: exact spectral integral.  Route two: exact banded matrix power.
# The walk moves one unit per step, so anything beyond distance t is zero.
print(f"P^{t}({start} -> j), alpha=beta=0, exact engine:")
row = spectral_transition_row(t, start, params, start + t, "exact")
for j, p in enumerate(row):
    powered = matrix_power_transition(t, start, j, params)
    assert p == powered
    print(f"  j={j}: {str(p):<22} (spectral == matrix power)")
print(f"  row sum: {sum(row)}")
print()

# The float engine integrates the whole row with one Gauss rule, just big
# enough for the integrand of the row's last reachable column.
frow = spectral_transition_row(t, start, params, start + t, "float")
dev = max(abs(float(p) - f) for p, f in zip(row, frow))
print(f"float spectral row, max |float - exact| = {dev:.2e}")
print()

# The invariant measure pi (here 1, 3, 5, ...) is stationary for the banded
# operator: the relative residual of pi P = pi vanishes identically in the
# exact engine and at rounding level in float.
print("invariant measure:", [str(invariant_measure(i, params, "exact")) for i in range(6)])
print("max relative residual of pi P = pi (exact, N=60):",
      max(stationarity_residuals(60, params, "exact")[1]))
print("max relative residual (float, N=60):           ",
      f"{max(stationarity_residuals(60, params, 'float')[1]):.2e}")
print()

# Route three: run the urn mechanism a million times and compare against
# the closed form.  The estimator carries a binomial standard error; the
# fixed seed makes the run bit-reproducible, and the thread count never
# changes the counts, only the wall time.
target = start + 1
closed = float(spectral_transition(t, start, target, params, "float"))
est = estimate_transition(start, t, target, params, trajectories=1_000_000,
                          seed=20260816, threads=4)
sigma = (est.estimate - closed) / est.standard_error
print(f"P^{t}({start} -> {target}): closed form {closed:.6f}")
print(f"Monte Carlo {est.estimate:.6f} +- {est.standard_error:.6f} "
      f"({est.trajectories} trajectories, {sigma:+.2f} stderr off)")
rerun = estimate_transition(start, t, target, params, trajectories=1_000_000,
                            seed=20260816, threads=1)
assert rerun.estimate == est.estimate
print("re-run with threads=1 reproduces the estimate bit for bit")
