"""A long-lived process keeps its memory bounded: the Gauss rule cache.

One process runs ``cli.main`` over every subcommand on both engines, then
builds quadrule rules of many distinct orders, largest first.  The rule
cache keeps the 128 most recently used rules, so at the end it holds orders
128 down to 1: 16 bytes a node (a float64 node and weight) and a fixed
overhead per entry.  After ``gc.collect()``, tracemalloc's count of the
bytes still held from the traced run stays under that.  The same run with
an unbounded cache keeps every rule and must exceed the cap, so the test
can tell the two apart.
"""

import functools
import gc
import io
import shlex
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

from jacobi_walk import cli, integrate

# (command line, exit code) for every subcommand on both engines; the
# exact engine refuses quadrule and the urn's Monte Carlo with exit 2
QUERIES = [
    (f"{command} --alpha 3 --beta 5 --engine {engine}", code)
    for engine, refused in (("float", 0), ("exact", 2))
    for command, code in (
        ("coeffs --n-max 40", 0),
        ("eval --n-max 40 --x 3/7", 0),
        ("transition --t 20 --i 3 --j-max 30", 0),
        ("transition --t 20 --i 3 --j-max 30 --method km", 0),
        ("transition --t 10 --i 2 --j-max 12 --method mc --trajectories 5000 --seed 7", refused),
        ("stationary --n-max 40", 0),
        ("orthocheck --i-max 8 --format json", 0),
        ("simulate --n0 2 --t 10 --trajectories 5000 --seed 7", refused),
        ("quadrule --points 30", refused),
    )
]
RULE_CACHE = 128
ORDERS = range(160, 0, -1)
# bytes a cache entry holds besides its nodes and weights: the rule object,
# its two array headers, the cache key with its ModelParams and the cache's
# link (about 600 measured)
ENTRY = 768
# bytes retained from the run outside the rule cache
SLACK = 16 * 1024
CAP = sum(16 * order + ENTRY for order in ORDERS[-RULE_CACHE:]) + SLACK


def run(argv: str) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(shlex.split(argv))


def retained() -> int:
    """Bytes still held, after ``gc.collect()``, from a traced pass of the queries
    and one quadrule per order; a first pass, untraced, warms every other cache."""
    for argv, code in QUERIES:
        assert run(argv) == code, argv
    gc.collect()
    tracemalloc.start()
    try:
        for argv, code in QUERIES:
            assert run(argv) == code, argv
        for order in ORDERS:
            assert run(f"quadrule --points {order} --alpha 3 --beta 5") == 0
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_rule_cache_keeps_memory_under_its_cap():
    assert integrate.gauss_jacobi_rule.cache_info().maxsize == RULE_CACHE
    assert retained() < CAP


def test_unbounded_rule_cache_exceeds_the_cap(monkeypatch):
    unbounded = functools.cache(integrate.gauss_jacobi_rule.__wrapped__)
    monkeypatch.setattr(integrate, "gauss_jacobi_rule", unbounded)
    monkeypatch.setattr(cli, "gauss_jacobi_rule", unbounded)
    assert retained() > CAP
