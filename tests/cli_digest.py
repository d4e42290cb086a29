"""Digests of every benchmark query's output, to compare two trees byte for byte.

Run from the repository root with the package importable, for example

    PYTHONPATH=src python3 tests/cli_digest.py 971 972 > digest.txt

and compare the output of two trees with ``diff``.  For each seed given and
each workload of ``bench/jwbench/workloads.py``, the script runs the
``query_count(workload, 25)`` queries that ``generate`` deals, the count of
a 25-second benchmark run.  A CLI query goes through ``cli.main`` once with
``--format csv`` and once with ``--format json``, and each run adds its
argv, exit code, stdout and stderr to the digest; a ``coefficients`` query
goes through ``terminal_state_counts`` and adds its counts.  It prints one
line per workload and seed:

    <workload> <seed> <queries> <sha256>

``--workload NAME``, repeatable, hashes only the workloads named, in the
order of ``WORKLOADS``; without it every workload is hashed.

pytest does not collect this file.  Two seeds take about 45 s on two x86-64
cores, most of it urn-ensemble's ensembles.
"""

import argparse
import hashlib
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from jwbench.workloads import WORKLOADS, generate, query_count  # noqa: E402

from jacobi_walk import ModelParams, terminal_state_counts  # noqa: E402
from jacobi_walk.cli import main as cli_main  # noqa: E402


def query_record(query) -> list[tuple]:
    """What one query leaves: (argv, exit code, stdout, stderr) per format,
    or the counts of a coefficients-sampler ensemble."""
    if not query.is_cli:
        counts = terminal_state_counts(
            query.option("n0"),
            query.option("t"),
            ModelParams(query.alpha, query.beta),
            query.option("trajectories"),
            query.option("seed"),
            threads=query.option("threads"),
            sampler="coefficients",
        )
        return [(query.label, counts.tolist())]
    records = []
    for fmt in ("csv", "json"):
        argv = query.argv() + ["--format", fmt]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(argv)
        records.append((argv, code, out.getvalue(), err.getvalue()))
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sha256 of every benchmark query's output")
    parser.add_argument("seeds", nargs="+", type=int, metavar="SEED")
    parser.add_argument(
        "--workload", action="append", choices=list(WORKLOADS), help="hash only this workload"
    )
    args = parser.parse_args(argv)
    chosen = [workload for workload in WORKLOADS if workload in (args.workload or WORKLOADS)]
    for seed in args.seeds:
        for workload in chosen:
            queries = generate(workload, seed, query_count(workload, 25))
            digest = hashlib.sha256()
            for query in queries:
                for record in query_record(query):
                    digest.update(repr(record).encode())
            print(f"{workload} {seed} {len(queries)} {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
