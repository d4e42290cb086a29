"""Layer-by-layer tracing of the package, done from outside it.

``Tracer.instrument`` replaces each traced function, in every package
module that looks it up as a global, with a wrapper that records a span:
its name, start, end, parent span, thread and query.  Spans stay in memory
until the run ends.  Spans that start on a pool thread attach to the
``terminal_state_counts`` span that started the pool.  A span's self time
is its duration minus the part of it that its children's spans cover;
children from threads may overlap, so the covered part is the length of
the union of their intervals.

``step_coefficients`` and ``moment`` are too hot to wrap; the moment cache
is read through its public ``cache_info()`` instead.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

MODULES = ("cli", "chain", "integrate", "polynomials", "rng", "urn")


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    query: int
    info: int  # terminal_state_counts: its threads argument; else 0


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# Count hooks: (tracer, original function, args, kwargs, result, built) -> None,
# where built says whether a cached function missed its cache on this call.
def _count_rule(tr, fn, args, kwargs, result, built):
    if built:
        tr.add("integrate.gauss_jacobi_rule.builds", 1)
        tr.add("integrate.gauss_jacobi_rule.nodes_built", result.order)


def _count_row(tr, fn, args, kwargs, result, built):
    tr.add("chain.spectral_transition_row.cells", len(result))


def _count_matrix(tr, fn, args, kwargs, result, built):
    a = _bound(fn, args, kwargs)
    size = max(a["i"], a["j_max"]) + a["t"] + 1
    tr.add("chain.matrix_power_row.state_steps", a["t"] * size)


def _count_poly_table(tr, fn, args, kwargs, result, built):
    tr.add("polynomials.poly_table.cells", result.size)


def _count_draws(tr, fn, args, kwargs, result, built):
    # Runs on every bounded draw, inside the enclosing chunk's span, so it
    # only notes the lanes and the last counters; the counters are summed
    # once per chunk, here at its first draw and in _count_chunk at its end.
    local = tr._local
    if getattr(local, "first_sum", None) is None:
        local.first_sum = int(args[1].sum(dtype="uint64"))
        local.lanes = 0
    local.lanes += args[0].size
    local.last_counters = result[1]


def _count_raw(tr, fn, args, kwargs, result, built):
    tr.add("rng.raw_many.lanes", args[0].size)


def _count_chunk(sampler):
    def count(tr, fn, args, kwargs, result, built):
        a = _bound(fn, args, kwargs)
        tr.add(f"urn.lane_steps.{sampler}", a["t"] * a["size"])
        local = tr._local
        if getattr(local, "first_sum", None) is not None:
            # a redraw is a counter advance beyond one per lane and draw
            advanced = int(local.last_counters.sum(dtype="uint64")) - local.first_sum
            tr.add("rng.draw_below_many.lanes", local.lanes)
            tr.add("rng.draw_below_many.redraws", advanced - local.lanes)
            local.first_sum = None

    return count


# (module, attribute, count hook).  Every package module whose global of
# that name is the same function gets the wrapper, except that raw_many is
# left alone inside rng, so that only the coefficients sampler's direct
# calls are traced as raw draws.
TRACED = (
    ("cli", "main", None),
    ("chain", "spectral_transition_row", _count_row),
    ("chain", "spectral_transition", None),
    ("chain", "matrix_power_row", _count_matrix),
    ("integrate", "gauss_jacobi_rule", _count_rule),
    ("integrate", "orthonormality_table", None),
    ("integrate", "integrate_poly_exact", None),
    ("polynomials", "poly_table", _count_poly_table),
    ("polynomials", "poly_product", None),
    ("polynomials", "monomial_coefficients", None),
    ("polynomials", "invariant_measure", None),
    ("polynomials", "norm_squared", None),
    ("rng", "draw_below_many", _count_draws),
    ("rng", "raw_many", _count_raw),
    ("rng", "stream_keys", None),
    ("urn", "terminal_state_counts", None),
    ("urn", "_mechanism_chunk", _count_chunk("urn")),
    ("urn", "_coefficient_chunk", _count_chunk("coefficients")),
)
_SKIP = {("rng", "raw_many"): {"jacobi_walk.rng"}}


class Tracer:
    """Spans and counters of one run; ``instrument`` installs it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.query = -1
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_parent: int | None = None
        self._main = threading.get_ident()
        self.originals: dict[str, object] = {}
        self._installed: list[tuple] = []

    def add(self, name: str, value: int) -> None:
        with self._lock:
            self.counts[name] += value

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, hook=None, info: int = 0):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        kwargs = kwargs or {}
        stack = self._stack()
        thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif thread != self._main:
            parent = self._pool_parent
        else:
            parent = None
        sid = next(self._ids)
        pool = name == "urn.terminal_state_counts"
        if pool:
            saved, self._pool_parent = self._pool_parent, sid
        cached = hasattr(fn, "cache_info")
        misses = fn.cache_info().misses if cached else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            if pool:
                self._pool_parent = saved
            self.spans.append(Span(sid, parent, name, start, end, thread, self.query, info))
        if hook is not None:
            built = cached and fn.cache_info().misses > misses
            hook(self, fn, args, kwargs, result, built)
        return result

    def _wrap(self, name: str, fn, hook):
        if name == "urn.terminal_state_counts":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                threads = _bound(fn, args, kwargs).get("threads", 1)
                return self.call(name, fn, args, kwargs, hook, info=threads)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.call(name, fn, args, kwargs, hook)

        return wrapper

    def instrument(self) -> None:
        """Install the wrappers into the imported package's modules."""
        package = importlib.import_module("jacobi_walk")
        modules = [package] + [importlib.import_module(f"jacobi_walk.{m}") for m in MODULES]
        for module_name, attr, hook in TRACED:
            original = getattr(importlib.import_module(f"jacobi_walk.{module_name}"), attr)
            name = f"{module_name}.{attr.lstrip('_')}"
            self.originals[name] = original
            wrapper = self._wrap(name, original, hook)
            skip = _SKIP.get((module_name, attr), set())
            for module in modules:
                if module.__name__ not in skip and getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def restore(self) -> None:
        """Put the original functions back."""
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, one object per span."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def span_cost(repeats: int = 20000) -> float:
    """Seconds one span adds around a call that does nothing."""
    tracer = Tracer()
    noop = lambda: None  # noqa: E731
    start = time.perf_counter()
    for _ in range(repeats):
        tracer.call("noop", noop)
    return (time.perf_counter() - start) / repeats


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Self time of every span: duration minus the time children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        s.id: (s.end - s.start) - covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _hit_ratio(cached) -> float:
    info = cached.cache_info()
    return _ratio(info.hits, info.hits + info.misses)


def layer_metrics(tracer: Tracer, moment_cache, bytes_out: int) -> dict[str, float]:
    """The per-layer metrics of a traced run, keyed by metric name."""
    spans = tracer.spans
    own = self_times(spans)
    self_by_name: defaultdict = defaultdict(float)
    busy_by_name: defaultdict = defaultdict(float)
    calls_by_name: Counter = Counter()
    for s in spans:
        self_by_name[s.name] += own[s.id]
        busy_by_name[s.name] += s.end - s.start
        calls_by_name[s.name] += 1

    def layer_self(layer: str) -> float:
        return sum((v for k, v in self_by_name.items() if k.startswith(layer + ".")), 0.0)

    # Pool use: every terminal_state_counts call with threads > 1 and more
    # than one chunk keeps min(threads, chunks) workers for its duration.
    chunks = defaultdict(list)
    for s in spans:
        if s.name in ("urn.mechanism_chunk", "urn.coefficient_chunk"):
            chunks[s.parent].append(s.end - s.start)
    busy = capacity = 0.0
    for s in spans:
        if s.name == "urn.terminal_state_counts" and s.info > 1 and len(chunks[s.id]) > 1:
            busy += sum(chunks[s.id])
            capacity += (s.end - s.start) * min(s.info, len(chunks[s.id]))

    c = tracer.counts
    urn_steps = c["urn.lane_steps.urn"]
    coef_steps = c["urn.lane_steps.coefficients"]
    return {
        "cli.calls": calls_by_name["cli.main"],
        "cli.self_s": layer_self("cli"),
        "cli.bytes_out": bytes_out,
        "chain.self_s": layer_self("chain"),
        "chain.spectral_transition_row.cells": c["chain.spectral_transition_row.cells"],
        "chain.spectral_transition_row.self_s": self_by_name["chain.spectral_transition_row"]
        + self_by_name["chain.spectral_transition"],
        "chain.spectral_transition.calls": calls_by_name["chain.spectral_transition"],
        "chain.matrix_power_row.state_steps": c["chain.matrix_power_row.state_steps"],
        "chain.matrix_power_row.self_s": self_by_name["chain.matrix_power_row"],
        "integrate.self_s": layer_self("integrate"),
        "integrate.gauss_jacobi_rule.calls": calls_by_name["integrate.gauss_jacobi_rule"],
        "integrate.gauss_jacobi_rule.builds": c["integrate.gauss_jacobi_rule.builds"],
        "integrate.gauss_jacobi_rule.nodes_built": c["integrate.gauss_jacobi_rule.nodes_built"],
        "integrate.gauss_jacobi_rule.self_s": self_by_name["integrate.gauss_jacobi_rule"],
        "integrate.orthonormality_table.self_s": self_by_name["integrate.orthonormality_table"],
        "integrate.moment.hit_ratio": _hit_ratio(moment_cache),
        "integrate.integrate_poly_exact.self_s": self_by_name["integrate.integrate_poly_exact"],
        "polynomials.self_s": layer_self("polynomials"),
        "polynomials.poly_table.calls": calls_by_name["polynomials.poly_table"],
        "polynomials.poly_table.cells": c["polynomials.poly_table.cells"],
        "polynomials.poly_table.self_s": self_by_name["polynomials.poly_table"],
        "polynomials.monomial_coefficients.hit_ratio": _hit_ratio(
            tracer.originals["polynomials.monomial_coefficients"]
        ),
        "polynomials.monomial_coefficients.self_s": self_by_name["polynomials.monomial_coefficients"],
        "polynomials.invariant_measure.calls": calls_by_name["polynomials.invariant_measure"],
        "polynomials.invariant_measure.self_s": self_by_name["polynomials.invariant_measure"],
        "polynomials.norm_squared.calls": calls_by_name["polynomials.norm_squared"],
        "polynomials.norm_squared.self_s": self_by_name["polynomials.norm_squared"],
        "rng.self_s": layer_self("rng"),
        "rng.draw_below_many.calls": calls_by_name["rng.draw_below_many"],
        "rng.draw_below_many.lanes": c["rng.draw_below_many.lanes"],
        "rng.draw_below_many.redraws": c["rng.draw_below_many.redraws"],
        "rng.draw_below_many.busy_s": busy_by_name["rng.draw_below_many"],
        "rng.stream_keys.busy_s": busy_by_name["rng.stream_keys"],
        "rng.raw_many.lanes": c["rng.raw_many.lanes"],
        "rng.raw_many.busy_s": busy_by_name["rng.raw_many"],
        "urn.self_s": layer_self("urn"),
        "urn.lane_steps": urn_steps + coef_steps,
        "urn.ns_per_lane_step.urn": _ratio(busy_by_name["urn.mechanism_chunk"] * 1e9, urn_steps),
        "urn.ns_per_lane_step.coefficients": _ratio(
            busy_by_name["urn.coefficient_chunk"] * 1e9, coef_steps
        ),
        "urn.thread_busy_frac": _ratio(busy, capacity),
    }
