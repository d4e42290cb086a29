"""Counter-based random streams with per-trajectory substreams.

Draw r of substream k under a master seed is the pure function

    mix(key_k + r * GAMMA),      key_k = mix(mix(seed) ^ ((k + 1) * GAMMA2))

where mix is the SplitMix64 output finalizer.  Because a draw depends only
on (seed, k, r), any subset of substreams can be generated in any order, in
any interleaving, scalar or vectorized, with bit-identical results; that is
what makes ensemble runs reproducible independent of thread count.  Within
one seed the keys are pairwise distinct: k -> mix(seed) ^ ((k+1) * GAMMA2)
is injective modulo 2^64 (GAMMA2 is odd) and mix is a bijection.

Bounded draws are unbiased: a raw 64-bit value is rejected when it falls in
the short leftover range [0, 2^64 mod m), then reduced.  Plain modulo
reduction would bias small residues by about m / 2^64; negligible here, but
avoidable, so avoided.  The leftover 2^64 mod m is below m, so a raw at or
above its bound is never rejected: the vectorized path compares each raw
with its bound, computes the leftover only on the rare lanes below it and
redraws only those it rejects, then reduces in place.  No raw lies below a
zero bound, so such a lane skips the redraw path and is caught by the
reduction's division by zero, with no separate pass over the bounds.

The scalar path (Python ints) and the vectorized path (uint64 arrays with
wrapping arithmetic) implement the same function and are tested to match
bit for bit.  The vectorized functions take uint64 arrays of one shape and
raise ValueError otherwise: numpy would silently promote int64 lanes to
float64 and return values of another stream.

``raw_many`` and ``draw_below_many`` write into ``out=(values, counters)``
when given.  A loop that passes the same two arrays on every step, with two
counter arrays taking turns as input and output, draws without allocating
a uint64 lane array (the counter output is the mix's scratch before it is
written); freed lane-sized buffers would otherwise go back to the kernel
and fault in again on the next step.  Inputs and ``out`` are checked once
per call; a call that raises leaves ``out`` holding unspecified values.
"""

from __future__ import annotations

import operator

import numpy as np

from .model import check_int

__all__ = ["CounterStream", "stream_key", "stream_keys"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_GAMMA2 = 0xD1342543DE82EF95
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """mix applied in place to z, a uint64 array the caller owns, through
    scratch, a uint64 array of z's shape whose contents it overwrites;
    returns z."""
    # uint64 arithmetic wraps, which is exactly the mod-2^64 we need
    z ^= np.right_shift(z, np.uint64(30), out=scratch)
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=scratch)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=scratch)
    return z


def stream_key(seed, index) -> int:
    """Key of substream ``index`` under ``seed``."""
    seed = check_int(seed, "seed")
    index = check_int(index, "stream index")
    return _mix64(_mix64(seed) ^ (((index + 1) * _GAMMA2) & _MASK))


def stream_keys(seed, start, count) -> np.ndarray:
    """Keys of substreams start..start+count-1 as a uint64 array."""
    seed = check_int(seed, "seed")
    start = check_int(start, "start")
    count = check_int(count, "count")
    indices = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    keys = indices * np.uint64(_GAMMA2)
    keys ^= np.uint64(_mix64(seed))
    return _mix64_array(keys, indices)


class CounterStream:
    """Scalar view of one substream; draws advance an internal counter."""

    __slots__ = ("key", "counter")

    def __init__(self, key: int, counter: int = 0):
        self.key = operator.index(key) & _MASK
        self.counter = operator.index(counter)

    @classmethod
    def from_seed(cls, seed, index=0) -> "CounterStream":
        return cls(stream_key(seed, index))

    def raw64(self) -> int:
        """Next raw 64-bit value."""
        self.counter += 1
        return _mix64(self.key + self.counter * _GAMMA)

    def draw_below(self, bound) -> int:
        """Uniform integer in [0, bound) by rejection (unbiased).

        bound runs from 1 to 2^64 - 1, the range of the vectorized draw's
        uint64 lanes; past it the leftover would be 2^64 and reject every
        raw, so a larger bound raises ValueError before any raw is drawn.
        """
        bound = check_int(bound, "bound", 1)
        if bound > _MASK:
            raise ValueError("bound exceeds the uint64 limit 2**64 - 1")
        # reject raws below 2^64 mod bound, the leftover of the last
        # full block of size bound
        leftover = ((1 << 64) - bound) % bound
        while True:
            raw = self.raw64()
            if raw >= leftover:
                return raw % bound


def _next_raws(keys, counters, raws, advanced) -> None:
    """Write mix(key + (counter + 1) * GAMMA) to raws and counter + 1 to
    advanced, lane by lane; advanced is the mix's scratch until the last
    step."""
    np.multiply(counters, np.uint64(_GAMMA), out=raws)
    raws += keys
    raws += np.uint64(_GAMMA)
    _mix64_array(raws, advanced)
    np.add(counters, np.uint64(1), out=advanced)


def _check_lanes(**arrays: np.ndarray) -> None:
    for name, lanes in arrays.items():
        if not isinstance(lanes, np.ndarray) or lanes.dtype != np.uint64:
            kind = getattr(lanes, "dtype", type(lanes).__name__)
            raise ValueError(f"{name} must be a uint64 array, got {kind}")
    shapes = {name: lanes.shape for name, lanes in arrays.items()}
    if len(set(shapes.values())) > 1:
        raise ValueError(f"lane arrays must have one shape, got {shapes}")
    if () in shapes.values():
        raise ValueError("lane arrays must have at least one dimension, got shape ()")


def _outputs(out, **inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (values, counters) arrays a draw writes, once the inputs and
    ``out`` are checked: two new ones, or the caller's ``out`` if each is a
    uint64 array of the inputs' shape that shares memory with no input and
    not with the other."""
    if out is None:
        _check_lanes(**inputs)
        lanes = inputs["counters"]
        return np.empty_like(lanes), np.empty_like(lanes)
    values, advanced = out
    outputs = {"out[0]": values, "out[1]": advanced}
    _check_lanes(**inputs, **outputs)
    for name, array in outputs.items():
        for other, lanes in inputs.items():
            if np.shares_memory(array, lanes):
                raise ValueError(f"{name} shares memory with {other}")
    if np.shares_memory(values, advanced):
        raise ValueError("out[0] shares memory with out[1]")
    return values, advanced


def raw_many(
    keys: np.ndarray, counters: np.ndarray, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Next raw value of each substream; returns (raws, advanced counters).

    keys and counters are uint64 arrays of one shape, with at least one
    dimension; neither is modified.
    The result is written to ``out=(raws, counters)`` if given, two uint64
    arrays of that shape that share no memory with the inputs or each
    other, and to two new arrays otherwise.
    """
    raws, advanced = _outputs(out, keys=keys, counters=counters)
    _next_raws(keys, counters, raws, advanced)
    return raws, advanced


def draw_below_many(
    keys: np.ndarray, counters: np.ndarray, bounds: np.ndarray, out=None
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``draw_below``: one bounded draw per substream.

    keys, counters and bounds are uint64 arrays of one shape, every bound
    at least 1; returns (values, advanced counters) and modifies none of
    them.  ``out`` is as for ``raw_many``; if the call raises, what it holds
    is unspecified.  Only lanes whose raw lies below its bound can be in
    the leftover range; of those, the rejected ones redraw until accepted.
    For the urn's bounds, far below 2^32, a raw lies below its bound with
    probability under 2^-32, so the redraw path almost never runs.  No raw
    lies below a zero bound, so such a lane reaches the final reduction,
    whose division by zero raises ValueError.
    """
    raws, advanced = _outputs(out, keys=keys, counters=counters, bounds=bounds)
    _next_raws(keys, counters, raws, advanced)
    # a tuple of index arrays addresses lanes of any shape
    lanes = np.nonzero(raws < bounds)
    leftover = (np.uint64(0) - bounds[lanes]) % bounds[lanes]
    rejected = raws[lanes] < leftover
    while rejected.any():
        lanes = tuple(index[rejected] for index in lanes)
        leftover = leftover[rejected]
        raws[lanes], advanced[lanes] = raw_many(keys[lanes], advanced[lanes])
        rejected = raws[lanes] < leftover
    try:
        with np.errstate(divide="raise"):
            np.remainder(raws, bounds, out=raws)
    except FloatingPointError:
        raise ValueError("every bound must be >= 1") from None
    return raws, advanced
