"""Exact CLI cells: printed from integer numerators, equal to the library's Fractions.

The CLI formats each exact table cell from the integers of the library's
integer cores; these tests pin that text to str() of the Fractions that the
public functions return, and check that no Fraction is formed on the way.
"""

import csv
import io
import json
import operator
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jacobi_walk import (
    ModelParams,
    matrix_power_row,
    orthonormality_table,
    spectral_transition_row,
    stationarity_residuals,
    step_coefficients,
)
from jacobi_walk.cli import _ratio_text, main

# small integers and integers of 1000 to 1200 digits, of either sign
MAGNITUDES = st.one_of(st.integers(0, 10**6), st.integers(10**999, 10**1200))
SIGNED = st.builds(operator.mul, st.sampled_from([1, -1]), MAGNITUDES)
NONZERO = SIGNED.filter(bool)


class TestRatioText:
    @given(SIGNED, NONZERO, NONZERO, st.integers(-(10**6), 10**6))
    def test_equals_str_of_fraction(self, num, den, common, k):
        cases = [
            (num, den),
            (num * common, den * common),  # a common factor to cancel
            (k * den, den),  # reduces to the integer k
            (num, 1),
            (num, -1),
            (0, den),
            (num, -abs(den)),
        ]
        for n, d in cases:
            assert _ratio_text(n, d) == str(Fraction(n, d)), (n, d)

    def test_hand_values(self):
        assert _ratio_text(6, -4) == "-3/2"
        assert _ratio_text(-6, -4) == "3/2"
        assert _ratio_text(0, -7) == "0"
        assert _ratio_text(-8, 4) == "-2"

    @pytest.mark.parametrize("num", [0, 1, -3])
    def test_zero_denominator_raises_as_fraction_does(self, num):
        with pytest.raises(ZeroDivisionError):
            Fraction(num, 0)
        with pytest.raises(ZeroDivisionError):
            _ratio_text(num, 0)


def run(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main([*argv, "--engine", "exact"])
    assert code == 0
    return buffer.getvalue()


def public_columns(command, params):
    """Each exact column of ``command`` from the public functions, as Fractions."""
    if command == "coeffs":
        steps = [step_coefficients(n, params, "exact") for n in range(7)]
        return {name: [getattr(s, name) for s in steps] for name in ("up", "stay", "down", "total")}
    if command == "matrix":
        return {"probability": matrix_power_row(5, 2, 8, params, "exact")}
    if command == "km":
        return {"probability": spectral_transition_row(5, 2, params, 8, "exact")}
    if command == "stationary":
        pi, residuals = stationarity_residuals(9, params, "exact")
        return {"pi": pi, "residual": residuals}
    return {"value": list(chain.from_iterable(orthonormality_table(4, params, "exact")))}


EXACT_TABLES = {
    "coeffs": ("coeffs", "--n-max", "6"),
    "matrix": ("transition", "--t", "5", "--i", "2", "--j-max", "8"),
    "km": ("transition", "--method", "km", "--t", "5", "--i", "2", "--j-max", "8"),
    "stationary": ("stationary", "--n-max", "8"),
    "orthocheck": ("orthocheck", "--i-max", "4"),
}


@pytest.mark.parametrize("command", list(EXACT_TABLES))
def test_cells_are_str_of_public_fractions(command):
    # the integer cores against their public wrappers, beyond the golden pairs
    for a in range(7):
        for b in range(7):
            argv = (*EXACT_TABLES[command], "--alpha", str(a), "--beta", str(b))
            rows = list(csv.DictReader(io.StringIO(run(*argv))))
            records = json.loads(run(*argv, "--format", "json"))
            for name, fractions in public_columns(command, ModelParams(a, b)).items():
                column = "sum" if name == "total" else name
                assert all(type(f) is Fraction for f in fractions)
                # the residual column is one row shorter: CSV leaves its last
                # cell empty, JSON null
                expected = [str(f) for f in fractions] + [None] * (len(rows) - len(fractions))
                assert [row[column] or None for row in rows] == expected, (a, b, column)
                assert [record[column] for record in records] == expected, (a, b, column)


def fraction_count(monkeypatch, argv) -> int:
    """Fraction.__new__ calls made by one ``main`` call, through a counting wrapper."""
    calls = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return original(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", staticmethod(counting))
        run(*argv)
    return len(calls)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", list(EXACT_TABLES))
def test_exact_tables_form_no_fraction(monkeypatch, command, fmt):
    argv = (*EXACT_TABLES[command], "--alpha", "3", "--beta", "5", "--format", fmt)
    assert fraction_count(monkeypatch, argv) == 0


def test_the_count_sees_fractions(monkeypatch):
    # eval's exact sweep runs on Fractions, so the wrapper must count them
    assert fraction_count(monkeypatch, ("eval", "--n-max", "3", "--x", "1/3")) > 0
