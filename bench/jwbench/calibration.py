"""A fixed piece of work of the benchmark's own that gauges the host's speed.

The measured worker runs one slice between its queries after every
EVERY_S seconds of query time, outside the queries' timed region.  A slice
does the same work on every run and at every commit of the package, which
it does not call, so the median time of a run's slices follows only how
fast the shared host is during that run.  A slice does the kinds of work
its workload's queries do: interpreted integer loops, ``Fraction``
arithmetic and small numpy products, and for the urn ensembles passes over
arrays as large as theirs.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

EVERY_S = 0.5
# Slices whose median gives the host factor at a query: about 2.5 s of
# query time around it.
WINDOW = 5
# Rounds of each part of a slice: interpreted integer loop, 64x64 numpy
# products, and counter-hash passes over 2^17 lanes, the urn ensembles'
# array size.  A quiet or a busy host speeds or slows such array passes
# more than interpreted code, so only the urn ensembles' slice has them.
ROUNDS = {
    "float-sweep": (120000, 180, 0),
    "exact-oracle": (120000, 180, 0),
    "urn-ensemble": (60000, 60, 24),
}
# The slice time of a host factor of 1: times divided by host_factor read as
# on a host where a slice takes this long.  On the reference machine (2
# vCPUs, Intel Xeon, Python 3.11, numpy 2.4) the median slice took about
# 20 ms for float-sweep and exact-oracle and 16 ms for urn-ensemble.
REFERENCE_S = 0.018


def run_slice(workload: str) -> float:
    """Seconds one slice of ``workload`` takes now."""
    loop, products, passes = ROUNDS[workload]
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 600):
        total += Fraction(k, k * k + 1)
    acc = 0
    for k in range(loop):
        acc += k * k % 7
    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    for _ in range(products):
        a = a @ a
        a /= a.max()
    if passes:
        source, lanes, shifted = _lane_buffers()
        np.copyto(lanes, source)
        for _ in range(passes):
            np.right_shift(lanes, np.uint64(31), out=shifted)
            lanes ^= shifted
            lanes *= np.uint64(0xBF58476D1CE4E5B9)
    return time.perf_counter() - start


_buffers: list[np.ndarray] = []


def _lane_buffers() -> list[np.ndarray]:
    """Arrays of 2^17 lanes, made once.  With fresh arrays and out-of-place
    operations the passes' time jittered more than the host's speed: its
    interquartile spread over 300 slices was 0.18 to 0.38, against 0.08."""
    if not _buffers:
        _buffers.extend(np.arange(1 << 17, dtype=np.uint64) for _ in range(3))
    return _buffers


def host_factor(slices: list[float]) -> float:
    """How slow the host ran: the median slice time over REFERENCE_S."""
    return statistics.median(slices) / REFERENCE_S


def local_factors(slices: list[float], before: list[int]) -> list[float]:
    """The host factor at each query, from the WINDOW slices nearest to it.

    ``before[k]`` is the number of slices run before query k.  The host's
    speed changes within a run, in spells of seconds, so each query is
    scaled by the slices around it rather than by the run's median.
    """
    half = WINDOW // 2
    factors = []
    for j in before:
        j = min(j, len(slices) - 1)
        factors.append(host_factor(slices[max(0, j - half) : j + half + 1]))
    return factors
