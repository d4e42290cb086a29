"""Counter-based streams: determinism, substream independence, and exact
scalar/vector equivalence (the property thread-reproducibility rests on)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacobi_walk import CounterStream, stream_key, stream_keys
from jacobi_walk.rng import draw_below_many, raw_many


class TestScalarStream:
    def test_deterministic_replay(self):
        a = CounterStream.from_seed(2024, 5)
        b = CounterStream.from_seed(2024, 5)
        assert [a.raw64() for _ in range(20)] == [b.raw64() for _ in range(20)]

    def test_streams_differ(self):
        a = CounterStream.from_seed(2024, 0)
        b = CounterStream.from_seed(2024, 1)
        c = CounterStream.from_seed(2025, 0)
        first = {a.raw64(), b.raw64(), c.raw64()}
        assert len(first) == 3

    def test_draw_below_range_and_bias_guard(self):
        stream = CounterStream.from_seed(7, 0)
        draws = [stream.draw_below(6) for _ in range(3000)]
        assert all(0 <= d < 6 for d in draws)
        counts = np.bincount(draws, minlength=6)
        # 6 bins, 500 expected each; 5 sigma ~ 102
        assert np.all(np.abs(counts - 500) < 110)

    def test_draw_below_one(self):
        stream = CounterStream.from_seed(7, 0)
        assert stream.draw_below(1) == 0

    def test_draw_below_validates(self):
        stream = CounterStream.from_seed(7, 0)
        with pytest.raises(ValueError):
            stream.draw_below(0)

    def test_rejection_region_exercised(self):
        # bound just above 2^63: leftover region is ~2^63 wide, so roughly
        # half of all raws are rejected and the loop must keep drawing
        stream = CounterStream.from_seed(11, 3)
        bound = (1 << 63) + 1
        draws = [stream.draw_below(bound) for _ in range(200)]
        assert all(0 <= d < bound for d in draws)
        assert stream.counter > 200  # rejections consumed extra raws

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            stream_key(-1, 0)
        with pytest.raises(ValueError):
            stream_key(5, -2)


class TestVectorEquivalence:
    @given(st.integers(0, 2**64 - 1), st.integers(0, 500), st.integers(1, 64))
    def test_keys_match_scalar(self, seed, start, count):
        keys = stream_keys(seed, start, count)
        assert keys.dtype == np.uint64
        assert [int(k) for k in keys] == [stream_key(seed, start + i) for i in range(count)]

    def test_raw_sequence_matches_scalar(self):
        keys = stream_keys(99, 0, 8)
        counters = np.zeros(8, dtype=np.uint64)
        streams = [CounterStream.from_seed(99, k) for k in range(8)]
        for _ in range(50):
            raws, counters = raw_many(keys, counters)
            assert [int(r) for r in raws] == [s.raw64() for s in streams]

    def test_bounded_draws_match_scalar(self):
        keys = stream_keys(123, 10, 6)
        counters = np.zeros(6, dtype=np.uint64)
        streams = [CounterStream.from_seed(123, 10 + k) for k in range(6)]
        bounds_cycle = [
            np.array([1, 2, 3, 7, 360, (1 << 63) + 1], dtype=np.uint64),
            np.array([5, 5, 5, 5, 5, 5], dtype=np.uint64),
            np.array([(1 << 63) + 7, 2, 9, 100, 11, 13], dtype=np.uint64),
        ]
        for bounds in bounds_cycle * 30:
            values, counters = draw_below_many(keys, counters, bounds)
            expected = [s.draw_below(int(b)) for s, b in zip(streams, bounds)]
            assert [int(v) for v in values] == expected
            assert [int(c) for c in counters] == [s.counter for s in streams]

    def test_large_seed_masked_consistently(self):
        big = (1 << 70) + 12345
        assert stream_key(big, 0) == stream_key(big % (1 << 64), 0)

    def test_inputs_unchanged_and_redraw_chains_match_scalar(self):
        # a bound of 2^63 + 1 rejects almost half of all raws, so most lanes
        # pass the below-bound prefilter and many redraw several times
        bound = (1 << 63) + 1
        keys = stream_keys(77, 0, 16)
        counters = np.zeros(16, dtype=np.uint64)
        bounds = np.full(16, bound, dtype=np.uint64)
        streams = [CounterStream.from_seed(77, k) for k in range(16)]
        for _ in range(50):
            keys_before, counters_before = keys.copy(), counters.copy()
            raw_many(keys, counters)
            values, advanced = draw_below_many(keys, counters, bounds)
            assert np.array_equal(keys, keys_before)
            assert np.array_equal(counters, counters_before)
            assert [int(v) for v in values] == [s.draw_below(bound) for s in streams]
            assert [int(c) for c in advanced] == [s.counter for s in streams]
            counters = advanced
        assert int(counters.sum()) > 50 * 16 + 200  # redraws did happen
        assert np.all(bounds == np.uint64(bound))


# bounds that reject often (2^63 + 1 rejects almost half of all raws, so
# lanes redraw in chains), never (1) or in between
BOUNDS = st.sampled_from([1, 2, 3, 360, (1 << 63) + 1, (1 << 64) - 1]) | st.integers(1, (1 << 64) - 1)


class TestDrawIntoOut:
    """out=(values, counters) gives the fresh-array path's bits in place."""

    @given(st.integers(0, 2**64 - 1), st.data())
    def test_out_matches_fresh_arrays(self, seed, data):
        lanes = data.draw(st.integers(1, 40))
        keys = stream_keys(seed, data.draw(st.integers(0, 1000)), lanes)
        counters = np.array(
            data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=lanes, max_size=lanes)),
            dtype=np.uint64,
        )
        bounds = np.array(
            data.draw(st.lists(BOUNDS, min_size=lanes, max_size=lanes)), dtype=np.uint64
        )
        inputs = (keys, counters, bounds)
        copies = [array.copy() for array in inputs]
        for draw, args in ((raw_many, inputs[:2]), (draw_below_many, inputs)):
            fresh = draw(*args)
            # stale contents must not leak into the result
            out = (np.full(lanes, 12345, np.uint64), np.full(lanes, 678, np.uint64))
            result = draw(*args, out=out)
            assert result[0] is out[0] and result[1] is out[1]
            assert np.array_equal(result[0], fresh[0])
            assert np.array_equal(result[1], fresh[1])
            assert all(np.array_equal(a, b) for a, b in zip(inputs, copies))

    @pytest.mark.parametrize("draw", [raw_many, draw_below_many])
    @pytest.mark.parametrize("into_out", [False, True])
    def test_lanes_of_any_shape_give_the_flat_draws(self, draw, into_out):
        # 2^63 + 1 sends about half the lanes down the redraw path, which
        # must address lanes by all their indices, not a flat number
        keys = stream_keys(77, 0, 16)
        inputs = (keys, np.zeros(16, np.uint64), np.full(16, (1 << 63) + 1, np.uint64))
        inputs = inputs[: 2 if draw is raw_many else 3]
        flat = draw(*inputs)
        grid = tuple(array.reshape(4, 4) for array in inputs)
        copies = [array.copy() for array in grid]
        out = (np.empty((4, 4), np.uint64), np.empty((4, 4), np.uint64)) if into_out else None
        values, counters = draw(*grid, out=out)
        assert values.shape == counters.shape == (4, 4)
        assert np.array_equal(values.ravel(), flat[0])
        assert np.array_equal(counters.ravel(), flat[1])
        assert all(np.array_equal(a, b) for a, b in zip(grid, copies))

    def test_turn_taking_counters_match_fresh_redraw_chains(self):
        keys = stream_keys(77, 0, 16)
        bounds = np.full(16, (1 << 63) + 1, dtype=np.uint64)
        fresh = np.zeros(16, dtype=np.uint64)
        counters, advanced = np.zeros(16, dtype=np.uint64), np.empty(16, dtype=np.uint64)
        values = np.empty(16, dtype=np.uint64)
        for _ in range(50):
            expected, fresh = draw_below_many(keys, fresh, bounds)
            draw_below_many(keys, counters, bounds, out=(values, advanced))
            counters, advanced = advanced, counters
            assert np.array_equal(values, expected)
            assert np.array_equal(counters, fresh)
        assert int(counters.sum()) > 50 * 16 + 200  # redraws did happen


class TestVectorValidation:
    """The vectorized draws take uint64 lanes of one shape; anything else
    would be promoted by numpy to float64 and give values of another stream."""

    @staticmethod
    def lanes():
        keys = stream_keys(1, 0, 6)
        counters = np.zeros(6, dtype=np.uint64)
        bounds = np.array([3, 5, 7, 11, 13, 360], dtype=np.uint64)
        return {"keys": keys, "counters": counters, "bounds": bounds}

    def test_uint64_lanes_give_the_scalar_draws(self):
        values, _ = draw_below_many(**self.lanes())
        streams = [CounterStream.from_seed(1, k) for k in range(6)]
        expected = [s.draw_below(b) for s, b in zip(streams, [3, 5, 7, 11, 13, 360])]
        assert expected == [0, 0, 6, 3, 2, 146]
        assert [int(v) for v in values] == expected

    @pytest.mark.parametrize("name", ["keys", "counters", "bounds"])
    def test_draw_below_many_rejects_int64(self, name):
        lanes = self.lanes()
        lanes[name] = lanes[name].astype(np.int64)
        with pytest.raises(ValueError, match=name):
            draw_below_many(**lanes)

    @pytest.mark.parametrize("name", ["keys", "counters"])
    def test_raw_many_rejects_int64(self, name):
        lanes = self.lanes()
        del lanes["bounds"]
        lanes[name] = lanes[name].astype(np.int64)
        with pytest.raises(ValueError, match=name):
            raw_many(**lanes)

    def test_rejects_non_arrays(self):
        lanes = self.lanes()
        lanes["bounds"] = [3, 5, 7, 11, 13, 360]
        with pytest.raises(ValueError, match="bounds"):
            draw_below_many(**lanes)

    @pytest.mark.parametrize("name", ["keys", "counters", "bounds"])
    def test_draw_below_many_rejects_shape_mismatch(self, name):
        lanes = self.lanes()
        lanes[name] = lanes[name][:5]
        with pytest.raises(ValueError, match="shape"):
            draw_below_many(**lanes)

    def test_raw_many_rejects_shape_mismatch(self):
        lanes = self.lanes()
        with pytest.raises(ValueError, match="shape"):
            raw_many(lanes["keys"], lanes["counters"][:5])

    def test_rejects_zero_bound(self):
        lanes = self.lanes()
        lanes["bounds"][3] = 0
        with pytest.raises(ValueError, match="bound"):
            draw_below_many(**lanes)

    def test_rejects_zero_bound_into_out(self):
        lanes = self.lanes()
        lanes["bounds"][3] = 0
        before = {name: array.copy() for name, array in lanes.items()}
        out = (np.empty(6, np.uint64), np.empty(6, np.uint64))
        with pytest.raises(ValueError, match="bound"):
            draw_below_many(**lanes, out=out)
        assert all(np.array_equal(lanes[name], before[name]) for name in lanes)

    def draw_lanes(self, draw):
        lanes = self.lanes()
        if draw is raw_many:
            del lanes["bounds"]
        return lanes

    @pytest.mark.parametrize(
        "draw, alias",
        [(raw_many, alias) for alias in ("keys", "counters", "out")]
        + [(draw_below_many, alias) for alias in ("keys", "counters", "bounds", "out")],
    )
    @pytest.mark.parametrize("slot", [0, 1])
    def test_out_aliasing_an_input_is_refused(self, draw, alias, slot):
        lanes = self.draw_lanes(draw)
        out = [np.empty(6, np.uint64), np.empty(6, np.uint64)]
        if alias == "out":
            out[slot] = out[1 - slot][::-1]
            message = "out\\[0\\] shares memory with out\\[1\\]"
        else:
            out[slot] = lanes[alias][:]  # a view, not the same object
            message = f"out\\[{slot}\\] shares memory with {alias}"
        before = {name: array.copy() for name, array in lanes.items()}
        with pytest.raises(ValueError, match=message):
            draw(**lanes, out=tuple(out))
        assert all(np.array_equal(lanes[name], before[name]) for name in lanes)

    @pytest.mark.parametrize("draw", [raw_many, draw_below_many])
    @pytest.mark.parametrize("slot", [0, 1])
    def test_out_of_wrong_dtype_or_shape_is_refused(self, draw, slot):
        lanes = self.draw_lanes(draw)
        out = [np.empty(6, np.uint64), np.empty(6, np.uint64)]
        out[slot] = np.empty(6, np.int64)
        with pytest.raises(ValueError, match=f"out\\[{slot}\\] must be a uint64 array"):
            draw(**lanes, out=tuple(out))
        out[slot] = np.empty(5, np.uint64)
        with pytest.raises(ValueError, match=f"shape.*'out\\[{slot}\\]': \\(5,\\)"):
            draw(**lanes, out=tuple(out))

    @pytest.mark.parametrize("draw", [raw_many, draw_below_many])
    @pytest.mark.parametrize("into_out", [False, True])
    def test_zero_dimensional_lanes_are_refused(self, draw, into_out):
        # a 0-d array holds one value but no lane axis; both draws refuse it
        lanes = {name: np.array(lane[2]) for name, lane in self.draw_lanes(draw).items()}
        out = (np.empty((), np.uint64), np.empty((), np.uint64)) if into_out else None
        with pytest.raises(ValueError, match=r"at least one dimension, got shape \(\)"):
            draw(**lanes, out=out)
