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
the short leftover range of size 2^64 mod m, then reduced.  Plain modulo
reduction would bias small residues by about m / 2^64; negligible here, but
avoidable, so avoided.

The scalar path (Python ints) and the vectorized path (uint64 arrays with
wrapping arithmetic) implement the same function and are tested to match
bit for bit.
"""

from __future__ import annotations

import operator

import numpy as np

from .model import check_int

__all__ = ["CounterStream", "draw_below_many", "raw_many", "stream_key", "stream_keys"]

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


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps, which is exactly the mod-2^64 we need
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


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
    return _mix64_array(np.uint64(_mix64(seed)) ^ (indices * np.uint64(_GAMMA2)))


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
        """Uniform integer in [0, bound) by rejection (unbiased)."""
        bound = check_int(bound, "bound", 1)
        # reject raws below 2^64 mod bound, the leftover of the last
        # full block of size bound
        leftover = ((1 << 64) - bound) % bound if bound > 1 else 0
        while True:
            raw = self.raw64()
            if raw >= leftover:
                return raw % bound


def raw_many(keys: np.ndarray, counters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Next raw value of each substream; returns (raws, advanced counters)."""
    counters = counters + np.uint64(1)
    return _mix64_array(keys + counters * np.uint64(_GAMMA)), counters


def draw_below_many(
    keys: np.ndarray, counters: np.ndarray, bounds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``draw_below``: one bounded draw per substream.

    bounds is a uint64 array (all >= 1) aligned with keys; returns
    (values, advanced counters).  Lanes whose raw lands in the leftover
    range redraw until accepted; acceptance per attempt is > 1 - 2^-32 for
    the urn-sized bounds used here, so the loop almost never iterates.
    """
    leftover = (np.uint64(0) - bounds) % bounds
    raws, counters = raw_many(keys, counters)
    rejected = raws < leftover
    while rejected.any():
        idx = np.nonzero(rejected)[0]
        counters[idx] += np.uint64(1)
        raws[idx] = _mix64_array(keys[idx] + counters[idx] * np.uint64(_GAMMA))
        rejected[idx] = raws[idx] < leftover[idx]
    return raws % bounds, counters
