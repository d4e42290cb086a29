"""One-step law of the walk: recurrence coefficients vs the urn mechanism.

The chain moves on {0, 1, 2, ...} one unit at a time (or stays put).  Its
one-step probabilities are the three-term recurrence coefficients of the
orthogonal polynomial family for the weight x**alpha * (1-x)**beta, and the
same numbers fall out of a two-urn sampling mechanism that never looks at
the recurrence.  This script walks both routes side by side.
"""

from fractions import Fraction

from jacobi_walk import (
    CounterStream,
    ModelParams,
    eval_poly,
    simulate_trajectory,
    step_coefficients,
    step_distribution_exact,
)

params = ModelParams(alpha=1, beta=2)
print(f"weight: x**{params.alpha} * (1-x)**{params.beta} on [0, 1]")
print()

# Route one: the recurrence x*Q_n = up*Q_{n+1} + stay*Q_n + down*Q_{n-1}.
# Route two: draw a ball from the main urn, consult the side urn for the
# drawn colour, move up or down on a match, stay otherwise.  Enumerating
# every (main ball, side ball) outcome of that experiment and adding up the
# cells gives the same law without looking at the recurrence.
print("state   up (recurrence/urn)      stay                    down")
for n in range(6):
    rec = step_coefficients(n, params, "exact")
    down, stay, up = step_distribution_exact(n, params)
    assert (rec.up, rec.stay, rec.down) == (up, stay, down)
    print(f"{n:>5}   {str(rec.up):<22}  {str(rec.stay):<22}  {rec.down}")
print()

# The probabilities sum to one state by state, which is the recurrence's
# normalization Q_n(1) = 1 in disguise.
totals = [step_coefficients(n, params, "exact").total for n in range(50)]
print("sum(up + stay + down) over states 0..49:", set(map(str, totals)))
print()

# The polynomials themselves evaluate by the same recurrence.  At x=1 every
# one equals 1; at x=0 they alternate through a ratio of rising factorials.
xs = [Fraction(0), Fraction(1, 2), Fraction(1)]
print("Q_n at x = 0, 1/2, 1 (exact):")
for n in range(4):
    row = [str(eval_poly(n, x, params, "exact")) for x in xs]
    print(f"  Q_{n}: {row}")
print()

# And the urn mechanism runs as an actual sampler.  Same seed, same path.
path = simulate_trajectory(4, 12, params, CounterStream.from_seed(2026))
print("12 urn steps from state 4, seed 2026:", path)
path_again = simulate_trajectory(4, 12, params, CounterStream.from_seed(2026))
assert path == path_again
print("replayed with the same seed:        ", path_again)
