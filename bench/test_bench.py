"""Tests of the benchmark itself: seeded inputs, checks and span arithmetic."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from jacobi_walk import ModelParams, cli, integrate, urn
from jacobi_walk.urn import terminal_state_counts
from jwbench import calibration, checks, tracing, workloads
from jwbench.workloads import CHUNK, Query


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_queries_other_seed_other_queries(workload):
    first = workloads.generate(workload, 5, count=200)
    assert first == workloads.generate(workload, 5, count=200)
    assert first != workloads.generate(workload, 6, count=200)


def test_urn_ensemble_mixes_samplers_and_chunk_counts():
    queries = workloads.generate("urn-ensemble", 1, count=100)
    for command in ("simulate", "coefficients"):
        lanes = [q.option("trajectories") for q in queries if q.command == command]
        assert min(lanes) <= CHUNK < max(lanes)


def _query(command, engine, **options):
    return Query(command, 1, 2, engine, tuple(options.items()))


def _output(query, tmp_path):
    if not query.is_cli:
        return terminal_state_counts(
            *(query.option(k) for k in ("n0", "t")),
            ModelParams(query.alpha, query.beta),
            *(query.option(k) for k in ("trajectories", "seed")),
            sampler="coefficients",
        )
    path = tmp_path / "out.csv"
    assert cli.main(query.argv() + ["--output", str(path)]) == 0
    return checks.read_table(path)


# (query, column to corrupt, row to corrupt)
PLANTS = [
    (_query("transition", "float", t=6, i=2, j_max=8, method="km"), "probability", 2),
    (_query("transition", "float", t=6, i=2, j_max=8, method="matrix"), "probability", 2),
    (_query("quadrule", "float", points=12), "weight", 1),
    (_query("orthocheck", "float", i_max=6), "value", 1),
    (_query("stationary", "float", n_max=30), "pi", 3),
    (_query("transition", "exact", t=6, i=2, j_max=8, method="km"), "probability", 2),
    (_query("transition", "exact", t=6, i=2, j_max=8, method="matrix"), "probability", 5),
    (_query("orthocheck", "exact", i_max=4), "value", 1),
    (_query("stationary", "exact", n_max=30), "pi", 3),
    (_query("coeffs", "exact", n_max=10), "up", 2),
]


@pytest.mark.parametrize("query, column, row", PLANTS, ids=lambda p: getattr(p, "label", None))
def test_check_accepts_output_and_rejects_planted_error(query, column, row, tmp_path):
    columns, rows = _output(query, tmp_path)
    assert checks.check(query, (columns, rows)) is None
    k = columns.index(column)
    if query.engine == "exact":
        rows[row][k] = str(Fraction(rows[row][k]) + Fraction(1, 10**9))
    else:
        rows[row][k] = repr(float(rows[row][k]) + 1e-9)
    assert checks.check(query, (columns, rows)) is not None


@pytest.mark.parametrize("lanes", [4096, CHUNK + 4096])
@pytest.mark.parametrize("command", ["simulate", "coefficients"])
def test_ensemble_check_rejects_a_moved_or_lost_count(command, lanes, tmp_path):
    query = _query(command, "float", n0=3, t=10, trajectories=lanes, seed=7, threads=2)
    output = _output(query, tmp_path)
    assert checks.check(query, output) is None
    counts = np.array(
        checks._column(output, "count", int) if query.is_cli else output, dtype=np.int64
    )
    params = ModelParams(1, 2)
    sampler = "urn" if command == "simulate" else "coefficients"
    reference = terminal_state_counts(3, 10, params, lanes, 7, sampler=sampler)
    replay = checks.replay_urn if command == "simulate" else checks.replay_coefficients
    replayed = replay(3, 10, params, checks.REPLAY_LANES, 7)
    vectorized = terminal_state_counts(3, 10, params, checks.REPLAY_LANES, 7, sampler=sampler)
    assert checks.check_ensemble(query, counts, reference, replayed, vectorized) is None
    moved = counts.copy()
    j = int(np.argmax(moved))
    moved[j] -= 1
    moved[(j + 1) % moved.size] += 1
    assert checks.check_ensemble(query, moved, reference, replayed, vectorized) is not None
    lost = counts.copy()
    lost[j] -= 1
    assert checks.check_ensemble(query, lost, reference, replayed, vectorized) is not None
    wrong_replay = replayed.copy()
    k = int(np.argmax(wrong_replay))
    wrong_replay[k] -= 1
    wrong_replay[(k + 1) % wrong_replay.size] += 1
    assert checks.check_ensemble(query, counts, reference, wrong_replay, vectorized) is not None


def test_z_check_rejects_a_biased_histogram():
    law = checks.banded_row(10, 3, 13, ModelParams(1, 2))
    fair = np.round(law * 40000).astype(np.int64)
    fair[int(np.argmax(fair))] += 40000 - int(fair.sum())
    assert checks.grouped_z(fair, law, 40000) < 1.0
    biased = fair.copy()
    biased[0] += 400
    biased[int(np.argmax(biased))] -= 400
    assert checks.grouped_z(biased, law, 40000) > checks.Z_LIMIT


def _plant_gram_error(table, i, j, error):
    columns, rows = table
    for row in rows:
        if (int(row[0]), int(row[1])) == (i, j):
            row[2] = repr(float(row[2]) + error)
    return columns, rows


def test_known_defect_is_only_a_small_float_gram_miss_outside_the_grid(tmp_path):
    outside = Query("orthocheck", 0, 6, "float", (("i_max", 40),))
    table = _output(outside, tmp_path)
    assert checks.known_defect(checks.check(outside, table))  # the seed's 4e-9 miss
    reason = checks.check(outside, _plant_gram_error(table, 0, 6, 1e-3))
    assert reason is not None and not checks.known_defect(reason)
    inside = Query("orthocheck", 4, 4, "float", (("i_max", 20),))
    table = _output(inside, tmp_path)
    assert checks.check(inside, table) is None
    reason = checks.check(inside, _plant_gram_error(table, 0, 6, 4e-9))
    assert reason is not None and not checks.known_defect(reason)


def test_local_host_factor_follows_the_slices_around_each_query():
    ref = calibration.REFERENCE_S
    slices = [ref] * 6 + [2 * ref] * 6
    before = [0, 3, 9, 12]  # the last query ran after every slice
    assert calibration.local_factors(slices, before) == pytest.approx([1.0, 1.0, 2.0, 2.0])


def _span(sid, parent, start, end, thread=1):
    return tracing.Span(sid, parent, f"s{sid}", start, end, thread, 0, 0)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 4.0),
        _span(3, 1, 5.0, 9.0),  # a pool: its chunks overlap on two threads
        _span(4, 3, 5.0, 8.0, thread=2),
        _span(5, 3, 6.0, 9.0, thread=3),
        _span(6, 4, 6.0, 7.0, thread=2),
        _span(7, 1, 9.5, 11.0),  # runs past its parent: only 0.5 s counts
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({1: 2.5, 2: 3.0, 3: 0.0, 4: 2.0, 5: 3.0, 6: 1.0, 7: 1.5})


def test_tracer_links_pool_threads_and_counts_lanes():
    tracer = tracing.Tracer()
    tracer.instrument()
    lanes = CHUNK + CHUNK // 8
    try:
        counts = urn.terminal_state_counts(2, 3, ModelParams(1, 1), lanes, 11, threads=2)
    finally:
        tracer.restore()
    assert urn.terminal_state_counts is tracer.originals["urn.terminal_state_counts"]
    assert int(counts.sum()) == lanes
    (top,) = [s for s in tracer.spans if s.name == "urn.terminal_state_counts"]
    chunks = [s for s in tracer.spans if s.name == "urn.mechanism_chunk"]
    assert len(chunks) == 2 and all(s.parent == top.id for s in chunks)
    draws = [s for s in tracer.spans if s.name == "rng.draw_below_many"]
    assert len(draws) == 2 * 3 * 2 and {s.parent for s in draws} == {s.id for s in chunks}
    metrics = tracing.layer_metrics(tracer, integrate.moment, 0)
    assert metrics["urn.lane_steps"] == 3 * lanes
    assert metrics["rng.draw_below_many.lanes"] == 2 * 3 * lanes
    assert metrics["rng.draw_below_many.redraws"] >= 0
    assert 0.0 < metrics["urn.thread_busy_frac"] <= 1.0
