"""The benchmark's exact-oracle queries print the bytes pinned in ``tests/cli_digest.txt``.

CI compares every line of ``tests/cli_digest.py 971`` with that file.  This
test recomputes only the exact-oracle line: its cells are rational text, so
it depends neither on libm nor on np.longdouble.  A change that moves an
output byte updates the file in the same commit.
"""

import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_exact_oracle_digest_matches_the_pinned_line(monkeypatch, capsys):
    # the script puts bench/ on sys.path when it loads; the monkeypatched
    # copy of the path is restored after the test
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("cli_digest", HERE / "cli_digest.py")
    cli_digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_digest)
    assert cli_digest.main(["971", "--workload", "exact-oracle"]) == 0
    pinned = (HERE / "cli_digest.txt").read_text().splitlines()
    assert capsys.readouterr().out.splitlines() == [
        line for line in pinned if line.startswith("exact-oracle ")
    ]
