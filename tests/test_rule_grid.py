"""``tests/rule_grid.py`` refuses a host whose np.longdouble is not x87."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent / "rule_grid.py"


def test_rule_grid_names_a_longdouble_without_64_mantissa_bits(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("rule_grid", SCRIPT)
    rule_grid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(rule_grid)
    # binary64 long double, as MSVC and macOS arm64 builds of numpy have
    monkeypatch.setattr(np, "finfo", lambda dtype: SimpleNamespace(nmant=52))
    monkeypatch.setattr(rule_grid, "rule_line", lambda order, params: pytest.fail("built a rule"))
    with pytest.raises(SystemExit) as exit_info:
        rule_grid.main()
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "rule_grid.py: np.finfo(np.longdouble).nmant + 1 is 53, not the x87 type's 64 "
        "that rule_grid.txt assumes\n"
    )
