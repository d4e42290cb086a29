"""Urn mechanism: literal simulation, exact enumeration, ensembles.

step_distribution_exact enumerates the mechanism's branches and is
deliberately independent of the recurrence-coefficient formulas; their
agreement (here sampled, in the acceptance suite exhaustive) is the
package's central cross-check.
"""

import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacobi_walk import (
    CounterStream,
    ModelParams,
    NumericalError,
    estimate_transition,
    simulate_step,
    simulate_trajectory,
    spectral_transition,
    step_coefficients,
    step_distribution_exact,
    terminal_state_counts,
)
import jacobi_walk.urn as urn_module
from jacobi_walk.polynomials import _step_table
from test_rng import stop_after_raws

F = Fraction

params_strategy = st.tuples(st.integers(0, 8), st.integers(0, 8)).map(
    lambda ab: ModelParams(*ab)
)


class TestStepDistributionExact:
    def test_hand_enumeration_state_one(self):
        # hand: n=1, a=b=0: blue 1/3 -> aux (1 blue, 1 red); red 2/3 -> aux
        # (2 blue, 2 red); gives (down, stay, up) = (1/6, 1/2, 1/3)
        assert step_distribution_exact(1, ModelParams(0, 0)) == (F(1, 6), F(1, 2), F(1, 3))

    def test_hand_enumeration_origin(self):
        # hand: n=0, a=b=0: only the red branch; aux is (1 blue, 1 red)
        assert step_distribution_exact(0, ModelParams(0, 0)) == (F(0), F(1, 2), F(1, 2))

    @given(st.integers(0, 120), params_strategy)
    def test_matches_recurrence_coefficients(self, n, params):
        down, stay, up = step_distribution_exact(n, params)
        c = step_coefficients(n, params, "exact")
        assert (down, stay, up) == (c.down, c.stay, c.up)

    def test_rejects_fractional_params(self):
        with pytest.raises(ValueError):
            step_distribution_exact(1, ModelParams(0.5, 1))


class TestSimulateStep:
    @given(
        st.integers(0, 40),
        params_strategy,
        st.integers(0, 2**32),
        st.integers(0, 64),
    )
    def test_trace_invariants(self, n, params, seed, index):
        trace = simulate_step(n, params, CounterStream.from_seed(seed, index))
        assert trace.state_before == n
        assert trace.mixed_in == n + params.alpha + params.beta + 1
        assert trace.color_changed == (trace.chosen_color == trace.auxiliary_color)
        assert trace.state_after >= 0
        assert abs(trace.state_after - n) <= 1

    def test_origin_never_steps_down(self):
        params = ModelParams(0, 0)
        for seed in range(300):
            trace = simulate_step(0, params, CounterStream.from_seed(seed))
            assert trace.state_after in (0, 1)
            assert trace.chosen_color == "red"  # no blue ball to draw

    def test_exhausts_both_branches(self):
        params = ModelParams(1, 2)
        seen = set()
        for seed in range(200):
            trace = simulate_step(3, params, CounterStream.from_seed(seed))
            seen.add((trace.chosen_color, trace.auxiliary_color))
        assert len(seen) == 4  # all four (main, auxiliary) combinations occur

    def test_empirical_step_frequencies(self):
        # 60000 single steps from n=2, a=1, b=0, against the exact law
        params = ModelParams(1, 0)
        down, stay, up = (float(v) for v in step_distribution_exact(2, params))
        counts = {1: 0, 2: 0, 3: 0}
        total = 60000
        for k in range(total):
            counts[simulate_step(2, params, CounterStream.from_seed(314159, k)).state_after] += 1
        for state, expected in ((1, down), (2, stay), (3, up)):
            sigma = (expected * (1 - expected) / total) ** 0.5
            assert abs(counts[state] / total - expected) < 5 * sigma


class TestSimulateTrajectory:
    def test_zero_steps(self):
        assert simulate_trajectory(4, 0, ModelParams(0, 0), CounterStream.from_seed(1)) == [4]

    def test_birth_death_increments(self):
        path = simulate_trajectory(2, 200, ModelParams(2, 1), CounterStream.from_seed(8))
        assert len(path) == 201
        assert path[0] == 2
        assert all(s >= 0 for s in path)
        assert all(abs(b - a) <= 1 for a, b in zip(path, path[1:]))

    def test_urn_past_uint64_is_refused(self, monkeypatch):
        # the first draw's bound, 2^70 + 1, is past the scalar draw's range;
        # unrefused it rejects every raw, and the ninth raw fails the test
        stop_after_raws(monkeypatch, 8)
        stream = CounterStream.from_seed(1)
        with pytest.raises(ValueError, match="bound exceeds the uint64 limit"):
            simulate_trajectory(0, 2, ModelParams(2**70, 0), stream)
        assert stream.counter == 0

    def test_deterministic_replay(self):
        params = ModelParams(0, 0)
        first = simulate_trajectory(0, 10, params, CounterStream.from_seed(5, 17))
        second = simulate_trajectory(0, 10, params, CounterStream.from_seed(5, 17))
        assert first == second


class TestEnsembles:
    def test_vectorized_matches_per_trajectory_scalar(self):
        # the vectorized ensemble must reproduce, count for count, what the
        # scalar mechanism produces trajectory by trajectory on the same
        # substreams -- this is what makes chunking/threading irrelevant
        n0, t, seed, total = 2, 7, 424242, 300
        params = ModelParams(1, 2)
        scalar_counts = np.zeros(n0 + t + 1, dtype=np.int64)
        for k in range(total):
            path = simulate_trajectory(n0, t, params, CounterStream.from_seed(seed, k))
            scalar_counts[path[-1]] += 1
        vector_counts = terminal_state_counts(n0, t, params, total, seed)
        assert np.array_equal(scalar_counts, vector_counts)

    def test_thread_count_does_not_change_counts(self):
        params = ModelParams(2, 0)
        base = terminal_state_counts(1, 4, params, 600000, 31337, threads=1)
        threaded = terminal_state_counts(1, 4, params, 600000, 31337, threads=4)
        assert np.array_equal(base, threaded)

    @pytest.mark.parametrize("sampler", ["urn", "coefficients"])
    @pytest.mark.parametrize("trajectories", [1 << 15, (1 << 16) + 1, 3 << 16])
    def test_threads_do_not_change_counts_at_split_sizes(self, sampler, trajectories):
        # sizes at which threads split what one thread runs as one chunk
        params = ModelParams(2, 3)
        counts = [
            terminal_state_counts(3, 5, params, trajectories, 4242, threads, sampler)
            for threads in (1, 2, 3, 4)
        ]
        assert all(np.array_equal(counts[0], other) for other in counts[1:])

    def test_pool_has_one_worker_per_piece(self, monkeypatch):
        # 3 * 2^15 lanes make three pieces however many threads are asked
        # for; the stand-in pool runs them in order and starts no thread
        workers = []

        class InlinePool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        params = ModelParams(1, 0)
        base = terminal_state_counts(0, 3, params, 3 << 15, 77)
        monkeypatch.setattr(urn_module, "ThreadPoolExecutor", InlinePool)
        assert np.array_equal(terminal_state_counts(0, 3, params, 3 << 15, 77, 10**4), base)
        assert workers == [3]

    def test_counts_cover_all_trajectories(self):
        counts = terminal_state_counts(0, 3, ModelParams(0, 1), 5000, 9)
        assert counts.sum() == 5000
        assert counts.size == 4

    def test_coefficient_sampler_statistically_consistent(self):
        # labeled fast path: same law, different draws; compare to the
        # closed form at 5 sigma
        params = ModelParams(1, 1)
        total = 200000
        counts = terminal_state_counts(0, 2, params, total, 2718, sampler="coefficients")
        for j in range(3):
            p = spectral_transition(2, 0, j, params, "float")
            sigma = (p * (1 - p) / total) ** 0.5
            assert abs(counts[j] / total - p) < 5 * sigma

    @pytest.mark.parametrize("params", [ModelParams(1, 2), ModelParams(0, 5), ModelParams(4, 4)])
    def test_coefficient_sampler_matches_scalar_replay_lane_for_lane(self, params):
        # the scalar replay draws u = raw * 2^-64 and steps down below
        # down_n, stays below down_n + stay_n, else steps up; lane k's end
        # state is the one count by which the first k + 1 lanes' histogram
        # exceeds the first k lanes'
        n0, t, seed, total = 3, 30, 8080, 200
        laws = [step_coefficients(s, params, "float") for s in range(n0 + t + 1)]
        previous = np.zeros(n0 + t + 1, dtype=np.int64)
        for k in range(total):
            stream = CounterStream.from_seed(seed, k)
            state = n0
            for _ in range(t):
                u = stream.raw64() * 2.0**-64
                law = laws[state]
                state += -1 if u < law.down else 0 if u < law.down + law.stay else 1
            counts = terminal_state_counts(
                n0, t, params, k + 1, seed, sampler="coefficients"
            )
            assert np.flatnonzero(counts - previous).tolist() == [state]
            previous = counts

    # n0 = 5, t = 3: the largest urn holds 2 (n0 + t) + alpha + beta + 2 balls,
    # which must fit in the lanes' uint64.  At the largest size that fits,
    # a huge alpha makes stay ~ 1 and a huge beta makes up ~ 1.
    @pytest.mark.parametrize("huge, end", [("alpha", 5), ("beta", 8)])
    def test_largest_urn_that_fits_uint64_runs(self, huge, end):
        params = ModelParams(**{"alpha": 0, "beta": 0, huge: 2**64 - 1 - 18})
        counts = terminal_state_counts(5, 3, params, 2000, 1)
        assert counts.tolist() == [2000 * (n == end) for n in range(9)]

    @pytest.mark.parametrize("huge", ["alpha", "beta"])
    def test_urn_past_uint64_is_refused(self, huge):
        # one ball more would wrap the urn sizes in uint64, which spreads the
        # mass silently: at alpha = 2**64 - 3, 65% of it left state 5
        params = ModelParams(**{"alpha": 0, "beta": 0, huge: 2**64 - 18})
        with pytest.raises(OverflowError, match=f"{huge}={2**64 - 18}.*{2**64 - 1}"):
            terminal_state_counts(5, 3, params, 2000, 1)
        # the coefficients sampler keeps no urn and is not limited
        assert terminal_state_counts(5, 3, params, 10, 1, sampler="coefficients").sum() == 10

    @pytest.mark.parametrize("huge", ["alpha", "beta"])
    def test_coefficient_sampler_refuses_an_overflowing_law(self, huge):
        # at 10**300 the float law is nan from state 1 on; every compare with
        # nan is False, so the lanes would stand still (alpha) or climb (beta)
        params = ModelParams(**{"alpha": 0, "beta": 0, huge: 10**300})
        with pytest.raises(NumericalError, match="one-step law overflows binary64 at state 1"):
            terminal_state_counts(5, 3, params, 1000, 1, sampler="coefficients")

    @pytest.mark.parametrize("value", [2**64, 10**400])
    @pytest.mark.parametrize("huge", ["alpha", "beta"])
    def test_exponent_past_uint64_is_named_without_digits(self, huge, value):
        # an exponent that alone overflows the lanes is named, not echoed
        params = ModelParams(**{"alpha": 0, "beta": 0, huge: value})
        with pytest.raises(OverflowError) as failure:
            terminal_state_counts(5, 3, params, 2000, 1)
        assert str(failure.value) == f"{huge} exceeds the urn's uint64 limit 2**64 - 1"

    @pytest.mark.parametrize("sampler", ["urn", "coefficients"])
    def test_step_loop_holds_its_lane_arrays_once(self, sampler):
        # a chunk allocates its lane arrays once and updates them in place:
        # keys, two counters, states, totals or raws, picks or floats, masks
        # and gathers come to about 58 bytes per lane.  A step loop that
        # allocates its temporaries peaks at 91 (urn) and 66 (coefficients)
        lanes, t = 1 << 16, 8
        if sampler == "urn":
            chunk, law = urn_module._mechanism_chunk, (3, 5)
        else:
            _, stay, down = _step_table(3 + t, ModelParams(3, 5), "float")
            chunk, law = urn_module._coefficient_chunk, ((down, down + stay),)
        tracemalloc.start()
        try:
            chunk(3, t, *law, 7, 0, lanes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * lanes

    def test_sampler_name_validated(self):
        with pytest.raises(ValueError):
            terminal_state_counts(0, 1, ModelParams(0, 0), 10, 1, sampler="magic")


def _check_threshold(threshold, x, raw):
    """Assert that raw < threshold(x) decides as float(raw) < x * 2^64; the
    up compare, raw > threshold(x) - 1, is its negation."""
    assert (raw < threshold(x)) == (float(raw) < x * 2.0**64)


# thresholds of both kinds: down (0 at state 0, subnormal to below 1/2) and
# down + stay (up to 1.0, or a few ulps above when the sum rounds up); 2^-11
# scales to 2^53, where the integers stop being doubles
THRESHOLD_EDGES = [
    0.0, 5e-324, math.nextafter(2.0**-1022, 0), 2.0**-1022, 2.0**-64,
    math.nextafter(2.0**-11, 0), 2.0**-11, math.nextafter(2.0**-11, 1), 0.25, 0.5,
    1 - 2.0**-53, 1.0, 1 + 2.0**-52, 1 + 2.0**-51,
]
THRESHOLDS = (
    st.sampled_from(THRESHOLD_EDGES)
    | st.floats(0.0, 1 + 2.0**-51)
    | st.floats(2.0**-12, 2.0**-10)
    | st.floats(0.0, 2.0**-1000)
)
RAW_EDGES = [2**53, 2**63, 2**64 - 1]


class TestRawThresholds:
    """The coefficients sampler compares raws with integers L(x) in place
    of float(raw) with x * 2^64.  A raw hits one given integer with
    probability 2^-64, so only these tests, not the golden digests, would
    see an off-by-one in L."""

    @given(THRESHOLDS, st.integers(0, 2**64 - 1))
    def test_integer_compare_decides_as_the_float_one(self, x, drawn):
        bound = urn_module._raw_threshold(x)
        assert 0 <= bound <= 2**64
        for raw in {bound - 1, bound, bound + 1, drawn, *RAW_EDGES}:
            if 0 <= raw < 2**64:
                _check_threshold(urn_module._raw_threshold, x, raw)

    # hand: 2^53 + 1 and 2^64 - 2^10 are ties that round to the even 2^53
    # and 2^64; above 1, x * 2^64 exceeds every double a raw rounds to
    @pytest.mark.parametrize(
        "x, bound",
        [
            (0.0, 0),
            (5e-324, 1),
            (2.0**-11, 2**53),
            (math.nextafter(2.0**-11, 1), 2**53 + 2),
            (1.0, 2**64 - 2**10),
            (1 + 2.0**-52, 2**64),
        ],
    )
    def test_hand_values(self, x, bound):
        assert urn_module._raw_threshold(x) == bound

    @pytest.mark.parametrize("off", [-1, 1])
    @pytest.mark.parametrize("x", [2.0**-64, 0.25, math.nextafter(2.0**-11, 1), 1.0])
    def test_check_fails_an_off_by_one(self, x, off):
        planted = lambda y: urn_module._raw_threshold(y) + off
        bound = urn_module._raw_threshold(x)
        with pytest.raises(AssertionError):
            for raw in (bound - 1, bound):
                _check_threshold(planted, x, raw)

    def test_tables_hold_the_compares_in_uint64(self):
        # an up threshold above 1 leaves no raw above its table entry
        _, stay, down = _step_table(12, ModelParams(2, 3), "float")
        top = np.append(down + stay, 1 + 2.0**-52)
        down = np.append(down, 0.25)
        down_below, up_above = urn_module._raw_tables((down, top))
        assert down_below.dtype == up_above.dtype == np.uint64
        assert down_below.tolist() == [urn_module._raw_threshold(x) for x in down.tolist()]
        assert up_above.tolist() == [urn_module._raw_threshold(x) - 1 for x in top.tolist()]
        assert down_below[0] == 0 and up_above[-1] == 2**64 - 1


GRID_TRAJECTORIES = [
    1, 2, (1 << 15) - 1, 1 << 15, (1 << 16) + 1, 1 << 18, (1 << 18) + (1 << 15) + 3, 10**6
]
GRID_THREADS = [1, 2, 3, 4, 10**4]


def _check_grid(jobs, trajectories):
    """Assert that ``jobs`` tiles lanes 0..trajectories-1 in order, without
    gap or overlap, in pieces whose sizes differ by at most one and lie
    within [_PIECE, _CHUNK] (a lone piece may be smaller)."""
    starts = [start for start, _ in jobs]
    ends = [start + size for start, size in jobs]
    assert starts[0] == 0 and ends[-1] == trajectories
    assert starts[1:] == ends[:-1]
    sizes = [size for _, size in jobs]
    assert max(sizes) - min(sizes) <= 1
    assert max(sizes) <= urn_module._CHUNK
    assert len(jobs) == 1 or min(sizes) >= urn_module._PIECE


class TestJobGrid:
    """The piece grid: all but the last test call the helper alone and start
    no thread."""

    @pytest.mark.parametrize("threads", GRID_THREADS)
    @pytest.mark.parametrize("trajectories", GRID_TRAJECTORIES)
    def test_pieces_tile_the_ensemble(self, trajectories, threads):
        _check_grid(urn_module._jobs(trajectories, threads), trajectories)

    @pytest.mark.parametrize("trajectories", GRID_TRAJECTORIES)
    def test_one_thread_takes_the_fewest_pieces(self, trajectories):
        assert len(urn_module._jobs(trajectories, 1)) == -(-trajectories // urn_module._CHUNK)

    def test_two_threads_split_one_chunk(self):
        assert urn_module._jobs((1 << 16) + 1, 2) == [(0, 32769), (32769, 32768)]
        assert len(urn_module._jobs(1 << 15, 2)) == 1

    def test_many_threads_get_few_pieces(self):
        assert len(urn_module._jobs(10**6, 10**4)) <= 30

    @pytest.mark.parametrize("threads", [t for t in GRID_THREADS if t > 1])
    @pytest.mark.parametrize("trajectories", GRID_TRAJECTORIES + [600000])
    def test_piece_count_is_a_multiple_of_the_pool_width(self, trajectories, threads):
        # the pool runs as many threads as get _PIECE lanes each, and each
        # of them takes the same number of pieces: 600000 lanes on two
        # threads run as four pieces, not three
        width = max(1, min(threads, trajectories // urn_module._PIECE))
        assert len(urn_module._jobs(trajectories, threads)) % width == 0

    @pytest.mark.parametrize("plant", ["drop first", "repeat first", "drop last", "repeat last"])
    def test_check_fails_a_grid_that_drops_or_repeats_a_lane(self, plant):
        trajectories = (1 << 18) + (1 << 15) + 3
        (s0, z0), (s1, z1) = urn_module._jobs(trajectories, 2)
        planted = {
            "drop first": [(s0 + 1, z0 - 1), (s1, z1)],
            "repeat first": [(s0, z0 + 1), (s1, z1)],
            "drop last": [(s0, z0), (s1, z1 - 1)],
            "repeat last": [(s0, z0), (s1 - 1, z1 + 1)],
        }[plant]
        with pytest.raises(AssertionError):
            _check_grid(planted, trajectories)

    def test_pool_holds_one_piece_per_thread(self):
        # 2^19 lanes on two threads run as four pieces of 2^17 lanes, two at
        # a time, at about 55 bytes per lane; two pieces of 2^18 lanes at
        # once peak near 27.5 MiB
        tracemalloc.start()
        try:
            terminal_state_counts(3, 2, ModelParams(3, 5), 1 << 19, 7, threads=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 << 20


class TestEstimateTransition:
    def test_against_one_step_law(self):
        # hand target: up_0 = 1/2 for a=b=0
        est = estimate_transition(0, 1, 1, ModelParams(0, 0), 10**6, seed=20240816)
        assert est.trajectories == 10**6
        assert est.standard_error == pytest.approx(
            (est.estimate * (1 - est.estimate) / 10**6) ** 0.5
        )
        assert abs(est.estimate - 0.5) < 4 * est.standard_error

    def test_against_two_step_hand_value(self):
        est = estimate_transition(0, 2, 0, ModelParams(0, 0), 10**6, seed=7)
        assert abs(est.estimate - 1.0 / 3.0) < 4 * est.standard_error

    def test_unreachable_state(self):
        est = estimate_transition(0, 3, 5, ModelParams(0, 0), 2000, seed=3)
        assert est.estimate == 0.0
        assert est.standard_error == 0.0

    def test_threads_do_not_change_estimate(self):
        one = estimate_transition(1, 3, 2, ModelParams(1, 1), 400000, seed=55, threads=1)
        four = estimate_transition(1, 3, 2, ModelParams(1, 1), 400000, seed=55, threads=4)
        assert one == four


# sha256 of the little-endian int64 counts of terminal_state_counts over
# n0 in (0, 7), t in (1, 40) and trajectories in (1, 4097), in that nesting,
# at seed 2009; and of one two-chunk run on two threads.  They pin both
# samplers' draw sequences to the bytes they have always produced.
GOLDEN_SEED = 2009
GOLDEN_GRID = {
    ("urn", (0, 0)): "af6e9e0a03a3d45dda04119938882a6dc8c5d661037a47c3e6b8913e8c3ce46d",
    ("urn", (2, 3)): "850f9ceb932e93c2adde75b2ba25a2fd3263c1c8c4fa6eec3224bd7d9257481c",
    ("urn", (6, 1)): "ca15280249cbab839d398c60d5de3925cf7dc5bee6206fe9f8923aa4a312a684",
    ("coefficients", (0, 0)): "92559bf693f07bc683dce83db3ba383b52afe821414a204a659bc3e2c155da37",
    ("coefficients", (2, 3)): "48d5c54950fd9cc166a3db9bca347ffeb90157b8a984d83615cd37669f0a01b3",
    ("coefficients", (6, 1)): "395adc1f21d1fc11bfbacbd81f5dcd740e8ff3d4070b44fc1216ffde2e724257",
}
GOLDEN_TWO_CHUNK = {
    "urn": "af12adb459bb642d582eee95d46690940da1ac0922cc58983ddb69f5bcda5917",
    "coefficients": "599c3648a20eb384b91b33a7c8b4889bd401ec184e215c221f9b2336b0a4867d",
}


def _digest(*histograms):
    h = hashlib.sha256()
    for counts in histograms:
        h.update(counts.astype("<i8").tobytes())
    return h.hexdigest()


class TestGoldenCounts:
    @pytest.mark.parametrize("sampler, ab", list(GOLDEN_GRID))
    def test_grid(self, sampler, ab):
        params = ModelParams(*ab)
        histograms = [
            terminal_state_counts(n0, t, params, lanes, GOLDEN_SEED, sampler=sampler)
            for n0 in (0, 7)
            for t in (1, 40)
            for lanes in (1, 4097)
        ]
        assert _digest(*histograms) == GOLDEN_GRID[sampler, ab]

    @pytest.mark.parametrize("sampler", list(GOLDEN_TWO_CHUNK))
    def test_two_chunks_on_two_threads(self, sampler):
        lanes = (1 << 18) + (1 << 15) + 3
        counts = terminal_state_counts(
            7, 4, ModelParams(2, 3), lanes, GOLDEN_SEED, threads=2, sampler=sampler
        )
        assert _digest(counts) == GOLDEN_TWO_CHUNK[sampler]
