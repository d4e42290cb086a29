"""One workload process of the benchmark; bench/run.py starts it.

The process imports the package from the checkout's ``src``, builds the
seeded list of ``--queries`` queries, and from then on is ready.  It sends
the queries one after another (a closed loop with one caller) and times
each, all of them or the first ``--limit``; between queries, outside their
timed region, it runs the calibration slices of jwbench/calibration.py.
Then it checks every output, unless it is traced.  Its last stdout line is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECK_THREADS = 2


def _import_package():
    """Import jacobi_walk from this checkout's src, and nowhere else."""
    src = ROOT / "src"
    if not (src / "jacobi_walk" / "__init__.py").is_file():
        raise SystemExit(f"worker: no package source under {src}")
    sys.path.insert(0, str(src))
    import jacobi_walk

    if Path(jacobi_walk.__file__).resolve().parent != (src / "jacobi_walk").resolve():
        raise SystemExit(f"worker: imported jacobi_walk from {jacobi_walk.__file__}")
    return jacobi_walk


def _execute(package, query, path):
    """Run one query; returns what its check needs."""
    if not query.is_cli:
        return package.urn.terminal_state_counts(
            query.option("n0"),
            query.option("t"),
            package.ModelParams(query.alpha, query.beta),
            query.option("trajectories"),
            query.option("seed"),
            threads=query.option("threads"),
            sampler="coefficients",
        )
    code = package.cli.main(query.argv() + ["--output", str(path)])
    if code != 0:
        raise RuntimeError(f"exit code {code}")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True, help="scratch directory for query outputs")
    parser.add_argument("--queries", type=int, required=True)
    parser.add_argument("--limit", type=int, help="send only the first LIMIT queries")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace the run and write its spans here")
    args = parser.parse_args(argv)

    package = _import_package()
    import jacobi_walk.cli  # noqa: F401  (the entry point a user calls)
    import numpy
    from jwbench import calibration, workloads

    queries = workloads.generate(args.workload, args.seed, args.queries)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.spans:
        from jwbench.tracing import Tracer

        tracer = Tracer()
        tracer.instrument()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    latencies, outputs, errors, slices, before = [], [], {}, [], []
    since_slice = 0.0
    for k, query in enumerate(queries[: args.limit]):
        before.append(len(slices))
        path = out / f"q{k}.csv"
        start = time.perf_counter()
        try:
            if tracer is None:
                output = _execute(package, query, path)
            else:
                tracer.query = k
                output = tracer.call("bench.query", _execute, (package, query, path))
        except Exception as exc:  # a failed query is counted, not fatal
            output = None
            errors[k] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
        outputs.append(output)
        since_slice += latencies[-1]
        if since_slice >= calibration.EVERY_S:
            slices.append(calibration.run_slice(args.workload))
            since_slice = 0.0
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["latencies_s"] = latencies
    slices = slices or [calibration.run_slice(args.workload)]
    result["calibration_s"] = slices
    result["host_factors"] = calibration.local_factors(slices, before)

    if tracer is not None:
        from jwbench.tracing import layer_metrics, span_cost

        tracer.write(args.spans)
        bytes_out = sum(os.path.getsize(o) for o in outputs if isinstance(o, Path) and o.exists())
        result["layers"] = layer_metrics(tracer, package.integrate.moment, bytes_out)
        result["layers"]["trace.spans"] = len(tracer.spans)
        result["layers"]["trace.span_cost_s"] = span_cost()
    else:
        from jwbench import checks

        def reason_of(k: int) -> str | None:
            if k in errors:
                return errors[k]
            query, output = queries[k], outputs[k]
            try:
                table = checks.read_table(output) if query.is_cli else output
                return checks.check(query, table)
            except Exception as exc:  # an unreadable output fails its query
                return f"check raised {type(exc).__name__}: {exc}"

        # The ensemble checks recompute each histogram on one thread, in
        # numpy, which releases the GIL; two checks at a time use both vCPUs.
        with ThreadPoolExecutor(max_workers=CHECK_THREADS) as pool:
            reasons = list(pool.map(reason_of, range(len(outputs))))
        failures = [
            {
                "query": k,
                "label": queries[k].label,
                "reason": reason,
                "known_defect": checks.known_defect(reason),
            }
            for k, reason in enumerate(reasons)
            if reason is not None
        ]
        result["failures"] = failures
    shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
