"""The pytest settings in pyproject.toml, run on a test file of their own."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_leaves_the_session_running(tmp_path):
    # hypothesis imports a module that warns while it reports the failure;
    # with filterwarnings = error that warning ended the session with an
    # INTERNALERROR, and the tests after it never ran
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider"]
        + ["-q", "test_two.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout, result.stdout
