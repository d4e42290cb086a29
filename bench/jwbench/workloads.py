"""Seeded query lists for the benchmark workloads.

A query is one call a user would make: a ``jacobi-walk`` command line, or,
for the ``coefficients`` sampler that the CLI cannot select, one call of
``terminal_state_counts``.  Each workload repeats a shuffled cycle of
query slots.  Over a whole run, each numeric parameter of a slot takes one
value from each of equal-width strata of its range, dealt out in random
order.  Every seed therefore asks for nearly the same work, in another
order and on other (alpha, beta), which keeps the run-to-run spread small
while the inputs still change with the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

PAIRS = tuple((a, b) for a in range(7) for b in range(7))

# Worker threads of every urn-ensemble query (the reference machine has two vCPUs).
URN_THREADS = 2
# Lanes per chunk in terminal_state_counts: more lanes than this use the pool.
CHUNK = 1 << 18

# Queries per second of --seconds.  A run sends a fixed count of queries,
# RATE times seconds, so that every run fills the same caches: with a time
# limit, a faster spell of a shared host would also run more cache hits and
# amplify the spread.  At the seed commit on the reference machine (2 vCPUs,
# Xeon, Python 3.11, numpy 2.4) a run of 25 seconds spends about 26, 28 and
# 22 s in its queries.  float-sweep and urn-ensemble send fewer than their
# seed rates so that their checks, which for urn-ensemble recompute every
# histogram, and the 70 runs of the full benchmark fit its time budget.
RATE = {"float-sweep": 10, "exact-oracle": 30, "urn-ensemble": 4.5}


@dataclass(frozen=True)
class Query:
    """One query; ``options`` are CLI flags (or keyword arguments) in order."""

    command: str
    alpha: int
    beta: int
    engine: str
    options: tuple

    def option(self, name: str):
        return dict(self.options)[name]

    @property
    def is_cli(self) -> bool:
        return self.command != "coefficients"

    def argv(self) -> list[str]:
        """Command line for ``jacobi_walk.cli.main``, without ``--output``."""
        argv = [self.command, "--alpha", str(self.alpha), "--beta", str(self.beta)]
        argv += ["--engine", self.engine]
        for name, value in self.options:
            argv += ["--" + name.replace("_", "-"), str(value)]
        return argv

    @property
    def label(self) -> str:
        return " ".join(self.argv())


def _strata(rng: random.Random, lo: float, hi: float, k: int, log: bool = False) -> list[int]:
    """k integers, one uniform in each of k equal-width strata of [lo, hi], in stratum order."""
    values = []
    for s in range(k):
        u = (s + rng.random()) / k
        x = lo * (hi / lo) ** u if log else lo + (hi - lo) * u
        values.append(round(x))
    return values


class _Draws:
    """Parameter values of a run of ``cycles`` cycles, stratified over the run."""

    def __init__(self, rng: random.Random, cycles: int):
        self.rng = rng
        self.cycles = cycles
        self.pools: dict[str, list] = {}

    def _take(self, key: str, k: int, make) -> list:
        if key not in self.pools:
            self.pools[key] = make(k * self.cycles)
            self.rng.shuffle(self.pools[key])
        pool = self.pools[key]
        return [pool.pop() for _ in range(k)]

    def __call__(self, key: str, lo: float, hi: float, k: int, log: bool = False) -> list[int]:
        """The next k values of parameter ``key``, k per cycle."""
        return self._take(key, k, lambda n: _strata(self.rng, lo, hi, n, log))

    def paired(self, key: str, first: tuple, second: tuple, k: int) -> list[tuple[int, int]]:
        """The next k pairs of two parameters whose product sets a query's work.

        ``first`` and ``second`` are (lo, hi, log).  Stratum s of the first
        meets stratum s * step mod n of the second, with step near n / phi
        and prime to n, so every run holds the same spread of products; the
        seed moves only the values within their strata and the order.
        """
        (lo1, hi1, log1), (lo2, hi2, log2) = first, second

        def make(n: int) -> list[tuple[int, int]]:
            xs = _strata(self.rng, lo1, hi1, n, log1)
            ys = _strata(self.rng, lo2, hi2, n, log2)
            step = max(1, round(n / 1.618))
            while math.gcd(step, n) != 1:
                step += 1
            return [(xs[s], ys[s * step % n]) for s in range(n)]

        return self._take(key, k, make)


def _float_sweep_cycle(draw: _Draws) -> list[tuple]:
    slots = []
    for method, t_max, count in (("km", 120, 3), ("matrix", 400, 3)):
        steps = draw(method + ".t", 10, t_max, count)
        for t, i in zip(steps, draw(method + ".i", 0, 20, count)):
            slots.append(("transition", "float", (("t", t), ("i", i), ("j_max", i + t), ("method", method))))
    slots += [("quadrule", "float", (("points", p),)) for p in draw("points", 50, 600, 2)]
    slots += [("orthocheck", "float", (("i_max", n),)) for n in draw("i_max", 20, 120, 2)]
    slots += [("stationary", "float", (("n_max", n),)) for n in draw("n_max", 200, 3000, 2)]
    return slots


def _exact_oracle_cycle(draw: _Draws) -> list[tuple]:
    slots = [("orthocheck", "exact", (("i_max", n),)) for n in draw("i_max", 2, 20, 2)]
    for method, t_max in (("km", 40), ("matrix", 60)):
        steps = draw(method + ".t", 4, t_max, 2)
        for t, i in zip(steps, draw(method + ".i", 0, 8, 2)):
            slots.append(("transition", "exact", (("t", t), ("i", i), ("j_max", i + t), ("method", method))))
    slots += [("stationary", "exact", (("n_max", n),)) for n in draw("stationary", 20, 400, 2)]
    slots += [("coeffs", "exact", (("n_max", n),)) for n in draw("coeffs", 20, 400, 2)]
    return slots


def _urn_ensemble_cycle(draw: _Draws) -> list[tuple]:
    # Six single-chunk and one two-chunk literal-urn ensembles, and three
    # coefficients-sampler ensembles of either kind.  Each group pairs its
    # trajectory counts with step counts of its own, so that every group
    # spans the range of t, and the same spread of lane-steps, in every run.
    lanes, steps, samplers = [], [], []
    for group, sampler, lo, hi, k in (
        ("urn", "simulate", 1 << 13, 1 << 17, 6),
        ("pooled", "simulate", 5 * CHUNK // 4, 2 * CHUNK, 1),
        ("coefficients", "coefficients", 1 << 14, 2 * CHUNK, 3),
    ):
        for n, t in draw.paired(group, (lo, hi, group != "pooled"), (10, 60, False), k):
            lanes.append(n)
            steps.append(t)
        samplers += [sampler] * k
    starts = draw("n0", 0, 20, 10)
    rng = draw.rng
    return [
        (
            sampler,
            "float",
            (
                ("n0", n0),
                ("t", t),
                ("trajectories", n),
                ("seed", rng.randrange(1 << 32)),
                ("threads", URN_THREADS),
            ),
        )
        for sampler, n, t, n0 in zip(samplers, lanes, steps, starts)
    ]


def _float_sweep_pairs(rng: random.Random):
    pairs = rng.sample(PAIRS, 3)
    return lambda k: pairs[k % len(pairs)]


def _exact_oracle_pairs(rng: random.Random):
    pairs = list(PAIRS)
    rng.shuffle(pairs)
    return lambda k: pairs[k % len(pairs)]


def _urn_ensemble_pairs(rng: random.Random):
    return lambda k: rng.choice(PAIRS)


# name: (cycle, queries per cycle, pair chooser)
WORKLOADS = {
    "float-sweep": (_float_sweep_cycle, 12, _float_sweep_pairs),
    "exact-oracle": (_exact_oracle_cycle, 10, _exact_oracle_pairs),
    "urn-ensemble": (_urn_ensemble_cycle, 10, _urn_ensemble_pairs),
}


def query_count(workload: str, seconds: float) -> int:
    """Queries in a run of ``seconds``: at least 100, so p90 has ten beyond it."""
    return max(100, round(RATE[workload] * seconds))


def generate(workload: str, seed: int, count: int) -> list[Query]:
    """The ``count`` queries of a run of ``workload`` under ``seed``.

    The stratification spans the whole run, so a shorter run is not a
    prefix of a longer one.
    """
    cycle, size, pairs = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    pair_of = pairs(rng)
    draw = _Draws(rng, math.ceil(count / size))
    queries: list[Query] = []
    while len(queries) < count:
        slots = cycle(draw)
        rng.shuffle(slots)
        for command, engine, options in slots:
            alpha, beta = pair_of(len(queries))
            queries.append(Query(command, alpha, beta, engine, options))
    return queries[:count]
