"""Benchmark of jacobi-walk: one workload, one seed, one run.

Run from the root of a checkout:

    python3 bench/run.py --workload float-sweep --seed 1 --seconds 25 --trace 0

Workloads: float-sweep, exact-oracle, urn-ensemble (see bench/README.md).
The run starts fresh worker processes (bench/worker.py), so caches start
cold as they do for a command-line user:

* set-up-only workers, five before and four after the measured worker,
  whose set-up times, with the measured worker's, give the median
  ``setup_s``; spreading them over the run evens out slow spells of a
  shared machine;
* the measured worker, untraced, which sends seeded queries in a closed
  loop and then checks every output.  ``--seconds`` sets how many: the
  count that takes about that long on the reference machine (see
  jwbench/workloads.py); a worker still running DEADLINE_S after the run
  began is stopped and the run fails.  Between queries it runs the fixed
  calibration slices of jwbench/calibration.py; each query's time is
  divided by the host factor at that time, the median time of the slices
  around it over a fixed slice time, so that a slow spell of the shared
  host does not read as a slower program;
* with ``--trace 1``, a traced worker that sends the same queries again
  and reports the per-layer metrics; the difference of the two workers'
  query times, both divided by their host factors, is the tracing
  overhead.

BLAS and OpenMP thread counts are pinned to 1 in the workers.  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  The full result,
with the environment, the failures and the latency samples, is also
written under ``.bench_out/``, with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jwbench.calibration import host_factor
from jwbench.workloads import URN_THREADS, WORKLOADS, query_count

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORK = OUT / f"work-{os.getpid()}"  # query outputs of this run's workers
SETUP_BEFORE, SETUP_AFTER = 5, 4  # set-up-only workers around the measured one
DEADLINE_S = 170.0
PINNED = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}


class BenchError(Exception):
    """The run cannot produce a result."""


def _worker(args, deadline: float, queries: int, *extra: str) -> dict:
    """Start one worker process and return its JSON result."""
    env = dict(os.environ, **PINNED)
    command = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--queries",
        str(queries),
        "--out",
        str(WORK),
        *extra,
        "--spawned-at",
    ]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        command + [repr(spawned_at)], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
    )
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("a worker overran the time limit") from None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"a worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _definitions() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def end_to_end(latencies: list[float], setups: list[float], peak_rss_mb: float) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "queries_per_s": len(latencies) / sum(latencies),
        "query_p50_ms": statistics.median(latencies) * 1e3,
        "query_p90_ms": statistics.quantiles(latencies, n=10)[8] * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }


def scaled(worker: dict) -> list[float]:
    """A worker's query times, each divided by the host factor around it."""
    return [x / f for x, f in zip(worker["latencies_s"], worker["host_factors"])]


def run(args, definitions: dict) -> dict:
    if not (ROOT / "src" / "jacobi_walk" / "__init__.py").is_file():
        raise BenchError(f"no package source under {ROOT / 'src'}")
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    count = query_count(args.workload, args.seconds)

    def setup() -> float:
        return _worker(args, deadline, count, "--setup-only")["setup_s"]

    setups = [setup() for _ in range(SETUP_BEFORE)]
    main = _worker(args, deadline, count)
    setups.append(main["setup_s"])
    setups += [setup() for _ in range(SETUP_AFTER)]
    latencies = main["latencies_s"]
    failures = main["failures"]
    factor = host_factor(main["calibration_s"])
    values = end_to_end(scaled(main), setups, main["peak_rss_mb"])
    measured = end_to_end(latencies, setups, main["peak_rss_mb"])
    values["failed_frac"] = len(failures) / len(latencies)
    result = {
        "environment": {
            "python": main["python"],
            "numpy": main["numpy"],
            "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(),
            "git_commit": _git_commit(),
            "workload": args.workload,
            "seed": args.seed,
            "run_seconds": args.seconds,
            "pinned_threads": PINNED,
            "urn_threads": URN_THREADS if args.workload == "urn-ensemble" else None,
            "host_factor": factor,
        },
        "queries": len(latencies),
        "setup_samples_s": setups,
        "measured_values": measured,
        "calibration_s": main["calibration_s"],
        "latencies_s": latencies,
        "failures": failures,
        "values": values,
    }
    kind = "end_to_end"
    if args.trace:
        spans = OUT / _name(args, "spans", ".jsonl.gz")
        traced = _worker(
            args, deadline, count, "--limit", str(len(latencies)), "--spans", str(spans)
        )
        values.update(traced["layers"])
        # both workers' query times scaled, as for the end-to-end metrics
        values["trace.overhead_s"] = sum(scaled(traced)) - sum(scaled(main))
        result["traced_latencies_s"] = traced["latencies_s"]
        result["environment"]["tracing_overhead_s"] = values["trace.overhead_s"]
        kind = "per_layer"
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in definitions[kind]
    }
    return result


def _name(args, what: str, suffix: str) -> str:
    return f"{what}-{args.workload}-seed{args.seed}-trace{args.trace}{suffix}"


def report(result: dict, definitions: dict) -> None:
    """Print every end-to-end metric with its unit, the failures and the environment."""
    env = result["environment"]
    values = result["values"]
    measured = result["measured_values"]
    failures = result["failures"]
    n = result["queries"]
    notes = {
        "setup_s": f"median of {len(result['setup_samples_s'])} set-ups",
        "queries_per_s": f"{n} queries; measured {measured['queries_per_s']:.6g}",
        "query_p50_ms": f"n={n}; measured {measured['query_p50_ms']:.6g}",
        "query_p90_ms": f"n={n}; measured {measured['query_p90_ms']:.6g}",
    }
    print(f"jacobi-walk benchmark: workload {env['workload']}, seed {env['seed']}")
    print(
        "  query times scaled to a fixed host speed: each divided by the host factor"
        f" around it (run median {env['host_factor']:.4f})"
    )
    for m in definitions["end_to_end"]:
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']:<16}{values[m['name']]:.6g} {m['unit']}{note}")
    known = sum(f["known_defect"] for f in failures)
    print(f"  {'failed_frac':<16}{values['failed_frac']:.6g}  ({len(failures)} of {n}, {known} known defect)")
    if "trace.overhead_s" in values:
        estimate = values["trace.span_cost_s"] * values["trace.spans"]
        print(
            f"  tracing overhead {values['trace.overhead_s']:.4f} s measured, {estimate:.4f} s"
            f" estimated from {values['trace.spans']} spans"
        )
    for f in failures:
        print(f"  failed q{f['query']}: {f['label']}: {f['reason']}")
    print("environment: " + json.dumps(env))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    definitions = _definitions()
    try:
        result = run(args, definitions)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    with open(OUT / _name(args, "result", ".json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    report(result, definitions)
    failures = result["failures"]
    print(
        json.dumps(
            {
                # the known float orthocheck defect counts as failed, yet
                # leaves the run correct; any other failure does not
                "correct": all(f["known_defect"] for f in failures),
                "attempted": result["queries"],
                "failed": len(failures),
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
