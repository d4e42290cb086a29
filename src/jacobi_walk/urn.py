"""Mechanistic three-step urn simulator for the walk.

The state is the number of blue balls in the main urn.  One step, with
state n and integer exponents (alpha, beta):

1. Mix in n + alpha + beta + 1 red balls from an unlimited bath, then draw
   one ball uniformly from the 2n + alpha + beta + 1 in the urn (n blue).
2. Decide whether the drawn ball changes color by one auxiliary draw:
   * drawn ball blue: the auxiliary urn holds n + alpha blue and n + beta
     red (2n + alpha + beta balls); a *blue* auxiliary draw is a match and
     the drawn ball turns red;
   * drawn ball red: the auxiliary urn holds n + alpha + 1 blue and
     n + beta + 1 red (2n + alpha + beta + 2 balls); a *red* auxiliary draw
     is a match and the drawn ball turns blue.
   The color changes exactly on a match; otherwise nothing changes.
3. Remove every red ball.  The new state is the blue count: n - 1 after a
   blue-to-red flip, n + 1 after a red-to-blue flip, n otherwise.

At n = 0 there is no blue ball to draw, so the blue branch (and its
auxiliary urn, which would hold alpha + beta balls and may be empty) never
comes into play.

``simulate_step`` performs the draws literally, two bounded uniform draws
per step; it never samples the one-step law (down, stay, up) directly, so
comparing its statistics with the recurrence coefficients is a real test of
the mechanism, not a tautology.  ``step_distribution_exact`` enumerates the
same branches with exact rational probabilities and is the corresponding
brute-force oracle; it shares the match rule with the simulator but is
deliberately independent of the coefficient formulas in polynomials.py.

Ensemble runs (``estimate_transition``, ``terminal_state_counts``) assign
substream k of the master seed to trajectory k and reduce to terminal-state
counts.  An ensemble runs as contiguous pieces of at most 5 * 2^15 lanes,
balanced over the threads, on a grid that depends on the trajectory count
and the thread count; the counts depend on neither, since lane k's draws
depend only on (seed, k, draw index) and the histogram is a sum, so
results are bit-reproducible.  A thread holds one piece's lane arrays at
a time, and a piece counts only the 2t + 1 states max(0, n0 - t)..n0 + t
that t steps reach, added to the result as it arrives.  So besides the
(n0 + t + 1)-state result, an ensemble of either sampler holds its
threads' lane arrays and at most one (2t + 1)-state window per piece,
whatever its size; the coefficients sampler also holds two uint64 tables
of that window, built once per ensemble.
The vectorized literal sampler keeps each lane's state, urn sizes and
picks in uint64, the dtype of the draws, and moves a lane by adding
its up mask and subtracting its down mask.  A vectorized sampler that
draws from the float one-step law directly (one draw per step) is
available as sampler="coefficients"; it is a labeled fast path and is
excluded from mechanism-agreement tests.
It decides each step as u = raw * 2^-64 against the law's float
thresholds would, in uint64: float(raw) < x * 2^64 exactly when raw lies
below L(x), the least integer whose double reaches x * 2^64, so the
thresholds become per-state integer tables and no raw is cast to float.
A law that overflows binary64 is refused before any draw.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Literal

import numpy as np

from .model import ModelParams, NumericalError, check_int
from .polynomials import _step_table
from .rng import _MASK, CounterStream, draw_below_many, raw_many, stream_keys

__all__ = [
    "StepTrace",
    "TransitionEstimate",
    "estimate_transition",
    "simulate_step",
    "simulate_trajectory",
    "step_distribution_exact",
    "terminal_state_counts",
]

Color = Literal["blue", "red"]

# An ensemble runs as contiguous pieces of at most _CHUNK lanes, and on as
# many threads as get at least _PIECE lanes each; the piece count is a
# multiple of that pool width, so no thread is left waiting on a last piece.
# The grid depends on the trajectory count and the thread count; the counts
# depend on neither.  Below 2^15 lanes a second thread costs more in GIL
# handoffs than the short numpy calls it overlaps.  A lane holds about 55
# bytes of arrays, and a literal-urn lane step (t = 35, (3,5), one piece on
# one thread; x86-64) cost 21.4 / 21.7 / 23.2 / 25.5 / 28.7 / 31.1 ns at
# 2^15 / 2^16 / 2^17 / 5 * 2^15 / 6 * 2^15 / 2^18 lanes per piece, so
# smaller pieces are both leaner and faster.  5 * 2^15 is the smallest
# multiple of _PIECE that still splits 2^18 + 2^15 + 3 lanes on two threads
# into two pieces, as the benchmark's tracer test and the grid tests expect.
_CHUNK = 5 << 15
_PIECE = 1 << 15


@dataclass(frozen=True)
class StepTrace:
    """Full record of one simulated step."""

    state_before: int
    mixed_in: int
    chosen_color: Color
    auxiliary_color: Color
    color_changed: bool
    state_after: int

    def __post_init__(self) -> None:
        delta = _state_change(self.chosen_color, self.auxiliary_color)
        assert self.color_changed == (delta != 0)
        assert self.state_after == self.state_before + delta >= 0


def _state_change(chosen: Color, auxiliary: Color) -> int:
    """The match rule: the drawn ball flips color exactly when the auxiliary
    draw matches it; a blue-to-red flip lowers the blue count, red-to-blue
    raises it."""
    if auxiliary != chosen:
        return 0
    return -1 if chosen == "blue" else 1


def _auxiliary_urn(n: int, a: int, b: int, chosen: Color) -> tuple[int, int]:
    """(blue balls, total balls) of the auxiliary urn after a ``chosen`` draw
    at state n: it holds n + alpha blue and n + beta red after a blue draw,
    one ball of each color more after a red one."""
    if chosen == "blue":
        return n + a, 2 * n + a + b
    return n + a + 1, 2 * n + a + b + 2


def simulate_step(n, params: ModelParams, rng) -> StepTrace:
    """One literal mechanism step; ``rng`` provides draw_below(bound)."""
    n = check_int(n, "state")
    a, b = params.require_integral("simulate_step")
    mixed_in = n + a + b + 1
    # a blue draw needs n >= 1, so the auxiliary urn it selects is nonempty
    chosen: Color = "blue" if rng.draw_below(2 * n + a + b + 1) < n else "red"
    blue, total = _auxiliary_urn(n, a, b, chosen)
    auxiliary: Color = "blue" if rng.draw_below(total) < blue else "red"
    delta = _state_change(chosen, auxiliary)
    return StepTrace(
        state_before=n,
        mixed_in=mixed_in,
        chosen_color=chosen,
        auxiliary_color=auxiliary,
        color_changed=delta != 0,
        state_after=n + delta,
    )


def step_distribution_exact(n, params: ModelParams) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (down, stay, up) law of one step, by outcome enumeration.

    Walks the same branches as simulate_step with ball-count probabilities,
    aggregating by the state change the match rule produces.
    """
    n = check_int(n, "state")
    a, b = params.require_integral("step_distribution_exact")
    main = 2 * n + a + b + 1
    law = {-1: Fraction(0), 0: Fraction(0), 1: Fraction(0)}
    for chosen, drawn in (("blue", n), ("red", main - n)):
        if not drawn:  # no blue ball at n = 0, whose auxiliary urn may be empty
            continue
        blue, total = _auxiliary_urn(n, a, b, chosen)
        for auxiliary, matched in (("blue", blue), ("red", total - blue)):
            law[_state_change(chosen, auxiliary)] += Fraction(drawn * matched, main * total)
    assert sum(law.values()) == 1
    return law[-1], law[0], law[1]


def simulate_trajectory(n0, t, params: ModelParams, rng) -> list[int]:
    """States visited over t literal mechanism steps, starting at n0."""
    n0 = check_int(n0, "n0")
    t = check_int(t, "t")
    states = [n0]
    for _ in range(t):
        states.append(simulate_step(states[-1], params, rng).state_after)
    return states


def _mechanism_chunk(
    n0: int, t: int, a: int, b: int, seed: int, start: int, size: int
) -> np.ndarray:
    """Counts of the terminal states of trajectories start..start+size-1,
    literal mechanism, all lanes advanced in lockstep (two bounded draws per
    step per lane): entry k counts state max(0, n0 - t) + k, the lowest that
    t steps reach, up to the highest state a lane reached."""
    keys = stream_keys(seed, start, size)
    # the lane arrays are allocated once per chunk and updated in place; the
    # draws write picks and whichever counter array is not their input
    counters, advanced = np.zeros(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    states = np.full(size, n0, dtype=np.uint64)
    totals, picks = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    blue, down, up = (np.empty(size, dtype=bool) for _ in range(3))
    for _ in range(t):
        np.multiply(states, np.uint64(2), out=totals)
        totals += np.uint64(a + b + 1)
        draw_below_many(keys, counters, totals, out=(picks, advanced))
        counters, advanced = advanced, counters
        np.less(picks, states, out=blue)
        # the auxiliary urn holds one ball more than the main urn after a
        # red draw, one fewer after a blue draw; subtracting the mask twice
        # beats np.where or a masked ufunc on lanes that mix both colors
        totals += np.uint64(1)
        totals -= blue
        totals -= blue
        draw_below_many(keys, counters, totals, out=(picks, advanced))
        counters, advanced = advanced, counters
        # a match: blue drawn and a blue auxiliary pick (below n + a), or red
        # drawn and a red auxiliary pick (above n + a)
        blue_side = np.add(states, np.uint64(a), out=totals)
        np.less(picks, blue_side, out=down)
        down &= blue
        np.greater(picks, blue_side, out=up)
        up &= np.logical_not(blue, out=blue)
        states += up
        states -= down
    states -= np.uint64(max(0, n0 - t))
    return np.bincount(states.astype(np.intp))


def _raw_threshold(x: float) -> int:
    """L(x), the least integer r >= 0 with float(r) >= x * 2^64, or 2^64 if
    no raw reaches it; float(raw) < x * 2^64 exactly when raw < L(x).

    Integers up to 2^53 are doubles, so there L is the ceiling.  Above it
    the target is an integer double and float(r) reaches it from the
    midpoint with the double below on: the ceiling of that midpoint, or
    the integer above it when the midpoint is a tie that rounds down.
    """
    target = x * 2.0**64  # scaling by a power of two is exact
    if target <= 2.0**53:
        return max(0, math.ceil(target))
    if target > 2.0**64:
        return 1 << 64
    r = -(-(int(math.nextafter(target, 0)) + int(target)) // 2)
    return r if float(r) >= target else r + 1


def _raw_tables(thresholds: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """uint64 tables of L(down) and L(down + stay) - 1 from the float
    thresholds (down, down + stay): a lane steps down when raw < L(down),
    that is float(raw) < down * 2^64, and up when raw > L(down + stay) - 1.
    A finite law has down < 1/2 and down + stay > 0, so both fit in uint64."""
    down, top = (table.tolist() for table in thresholds)
    return (
        np.array([_raw_threshold(x) for x in down], dtype=np.uint64),
        np.array([_raw_threshold(x) - 1 for x in top], dtype=np.uint64),
    )


def _coefficient_chunk(
    n0: int, t: int, down_below: np.ndarray, up_above: np.ndarray, seed: int, start: int, size: int
) -> np.ndarray:
    """Fast path: one categorical draw per step from the float one-step law,
    given as ``_raw_tables`` of states max(0, n0 - t)..n0 + t; the counts are
    laid out as ``_mechanism_chunk``'s."""
    keys = stream_keys(seed, start, size)
    counters, advanced = np.zeros(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    raws, gathered = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    # a lane holds its state's offset in the tables' window
    states = np.full(size, min(n0, t), dtype=np.intp)
    down, up = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    for _ in range(t):
        raw_many(keys, counters, out=(raws, advanced))
        counters, advanced = advanced, counters
        # a lane's offset lies within the window, the tables' length, so the
        # gathers clip nothing (mode="raise" would buffer its output);
        # L(down) <= L(down + stay), so a lane never steps both ways
        np.less(raws, np.take(down_below, states, out=gathered, mode="clip"), out=down)
        np.greater(raws, np.take(up_above, states, out=gathered, mode="clip"), out=up)
        states += up
        states -= down
    return np.bincount(states)


def _jobs(trajectories: int, threads: int) -> list[tuple[int, int]]:
    """(start, size) of each piece, in order, sizes differing by at most one:
    the fewest pieces of at most _CHUNK lanes whose count is a multiple of
    the pool width, the threads that get _PIECE lanes each (at least one)."""
    width = max(1, min(threads, trajectories // _PIECE))
    count = width * -(-trajectories // (width * _CHUNK))
    size, extra = divmod(trajectories, count)
    starts = [k * size + min(k, extra) for k in range(count + 1)]
    return [(start, end - start) for start, end in zip(starts, starts[1:])]


def terminal_state_counts(
    n0,
    t,
    params: ModelParams,
    trajectories,
    seed,
    threads: int = 1,
    sampler: str = "urn",
) -> np.ndarray:
    """Histogram of terminal states over an ensemble of trajectories.

    Returns int64 counts for states 0..n0+t; the states below
    max(0, n0 - t) are unreachable in t steps and count 0.
    Trajectory k runs on substream k of ``seed``, so the result depends
    only on (n0, t, params, trajectories, seed, sampler), not on threads.
    sampler="urn" is the literal mechanism; sampler="coefficients" draws
    from the float one-step law directly (faster, but no longer a test of
    the mechanism, and a different draw sequence).
    """
    n0 = check_int(n0, "n0")
    t = check_int(t, "t")
    trajectories = check_int(trajectories, "trajectories", 1)
    threads = check_int(threads, "threads", 1)
    a, b = params.require_integral("terminal_state_counts")
    first = max(0, n0 - t)
    if sampler == "urn":
        for name, value in (("alpha", a), ("beta", b)):
            if value > _MASK:
                raise OverflowError(f"{name} exceeds the urn's uint64 limit 2**64 - 1")
        if 2 * (n0 + t) + a + b + 2 > _MASK:  # the lanes count balls in uint64
            raise OverflowError(
                f"alpha={a}, beta={b}: the largest urn, 2(n0+t) + alpha + beta + 2 balls, "
                f"exceeds the uint64 limit {_MASK}"
            )
        chunk, law = _mechanism_chunk, (a, b)
    elif sampler == "coefficients":
        # the tables cover only the window of states that t steps reach
        window = _step_table(n0 + t, params, "float", first)
        finite = np.isfinite(window).all(axis=0)
        if not finite.all():
            raise NumericalError(
                "coefficients sampler: the one-step law overflows binary64 "
                f"at state {first + np.argmin(finite)}"
            )
        _, stay, down = window
        chunk, law = _coefficient_chunk, _raw_tables((down, down + stay))
    else:
        raise ValueError(f"sampler must be 'urn' or 'coefficients', got {sampler!r}")
    run = partial(chunk, n0, t, *law, seed)
    starts, sizes = zip(*_jobs(trajectories, threads))
    workers = min(threads, len(starts))
    counts = np.zeros(n0 + t + 1, dtype=np.int64)
    reach = counts[first:]
    # counts add commutatively, so each piece is added as it arrives; one
    # worker maps the pieces on the calling thread, and a pool that is
    # never submitted to starts no thread
    with ThreadPoolExecutor(workers) as pool:
        for piece in (pool.map if workers > 1 else map)(run, starts, sizes):
            reach[: piece.size] += piece
    return counts


@dataclass(frozen=True)
class TransitionEstimate:
    """Monte Carlo estimate of one t-step transition probability."""

    estimate: float
    trajectories: int
    standard_error: float
    start: int
    steps: int
    target: int


def binomial_estimate(hits, trajectories) -> tuple:
    """Empirical frequency hits / trajectories and its binomial standard error, elementwise."""
    p = hits / trajectories
    return p, np.sqrt(p * (1.0 - p) / trajectories)


def estimate_transition(
    n0, t, j, params: ModelParams, trajectories, seed, threads: int = 1
) -> TransitionEstimate:
    """Empirical frequency of ending at j after t steps, with binomial stderr."""
    j = check_int(j, "j")
    counts = terminal_state_counts(n0, t, params, trajectories, seed, threads=threads)
    hits = int(counts[j]) if j < counts.size else 0
    p, stderr = binomial_estimate(hits, trajectories)
    return TransitionEstimate(
        estimate=p,
        trajectories=trajectories,
        standard_error=float(stderr),
        start=n0,
        steps=t,
        target=j,
    )
