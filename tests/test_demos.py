"""Every demo script runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # -W error: a warning leaking from a demo fails it, as pytest's own
    # filterwarnings does in-process
    result = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
