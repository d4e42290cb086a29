"""Command-line surface: golden outputs, format parity, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from jacobi_walk import ModelParams, stationarity_residuals
import jacobi_walk.cli as cli_module
from jacobi_walk.cli import build_parser, main


def run_cli(*argv):
    """Invoke main() in-process, capturing stdout; returns (exit, text)."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def run_module(*argv):
    """Run ``python -m jacobi_walk`` in a subprocess that imports the
    package from this checkout's src, whatever PYTHONPATH pytest had."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "jacobi_walk", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


# float tables that overflow, and the first non-finite cell each reports
OVERFLOWS = [
    (("eval", "--n-max", "3000", "--alpha", "300", "--x", "0"), "value is inf at n=1044"),
    (
        ("stationary", "--n-max", "3000", "--alpha", "300", "--beta", "300"),
        "residual is inf at i=444",
    ),
]


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestGoldenOutputs:
    def test_coeffs_exact_golden(self):
        code, text = run_cli(
            "coeffs", "--alpha", "0", "--beta", "0", "--n-max", "1", "--engine", "exact"
        )
        assert code == 0
        assert text == "n,up,stay,down,sum\n0,1/2,1/2,0,1\n1,1/3,1/2,1/6,1\n"

    def test_coeffs_sums_exact_one(self):
        code, text = run_cli(
            "coeffs", "--alpha", "2", "--beta", "1", "--n-max", "5", "--engine", "exact"
        )
        assert code == 0
        header, rows = parse_csv(text)
        assert header == ["n", "up", "stay", "down", "sum"]
        assert [r[4] for r in rows] == ["1"] * 6

    def test_coeffs_smallest_table(self):
        code, text = run_cli("coeffs", "--n-max", "0")
        assert code == 0
        header, rows = parse_csv(text)
        assert len(rows) == 1 and rows[0][0] == "0"

    def test_transition_exact_matrix_golden(self):
        code, text = run_cli(
            "transition", "--t", "2", "--i", "0", "--j-max", "2",
            "--method", "matrix", "--engine", "exact",
        )
        assert code == 0
        header, rows = parse_csv(text)
        # two-step row from the origin: enumeration over the two paths into
        # each state gives (1/3, 1/2, 1/6), summing to 1
        assert [tuple(r) for r in rows] == [("0", "1/3"), ("1", "1/2"), ("2", "1/6")]

    def test_transition_km_identity(self):
        code, text = run_cli("transition", "--t", "0", "--i", "4", "--j-max", "5")
        assert code == 0
        _, rows = parse_csv(text)
        values = [float(r[1]) for r in rows]
        assert values[4] == pytest.approx(1.0, abs=1e-12)
        assert all(v == 0.0 for k, v in enumerate(values) if k != 4)

    def test_transition_methods_agree(self):
        _, km = run_cli(
            "transition", "--t", "3", "--i", "1", "--j-max", "4",
            "--alpha", "1", "--beta", "2", "--engine", "exact",
        )
        _, matrix = run_cli(
            "transition", "--t", "3", "--i", "1", "--j-max", "4",
            "--alpha", "1", "--beta", "2", "--method", "matrix", "--engine", "exact",
        )
        assert km == matrix

    def test_stationary_exact_golden(self):
        code, text = run_cli("stationary", "--n-max", "3", "--engine", "exact")
        assert code == 0
        assert text == "i,pi,residual\n0,1,0\n1,3,0\n2,5,0\n3,7,\n"

    def test_stationary_float_residuals_small(self):
        code, text = run_cli(
            "stationary", "--alpha", "1", "--beta", "2", "--n-max", "20"
        )
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 21
        residuals = [float(r[2]) for r in rows[:-1]]
        assert max(residuals) <= 1e-12
        assert rows[-1][2] == ""

    def test_stationary_prints_the_chain_residuals(self):
        code, text = run_cli("stationary", "--alpha", "2", "--beta", "5", "--n-max", "200")
        assert code == 0
        _, rows = parse_csv(text)
        pi, residuals = stationarity_residuals(201, ModelParams(2, 5), "float")
        assert [r[0] for r in rows] == [str(n) for n in range(201)]
        assert [float(r[1]) for r in rows] == pi
        assert [float(r[2]) for r in rows[:-1]] == residuals
        assert rows[-1][2] == ""

    def test_orthocheck_exact_identity(self):
        code, text = run_cli("orthocheck", "--i-max", "3", "--engine", "exact")
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 16
        for i, j, value in rows:
            assert value == ("1" if i == j else "0")

    def test_orthocheck_float_tolerance(self):
        code, text = run_cli("orthocheck", "--alpha", "3", "--beta", "2", "--i-max", "10")
        assert code == 0
        _, rows = parse_csv(text)
        for i, j, value in rows:
            target = 1.0 if i == j else 0.0
            assert abs(float(value) - target) <= 1e-11

    def test_eval_exact(self):
        code, text = run_cli("eval", "--n-max", "1", "--x", "0", "--engine", "exact")
        assert code == 0
        assert text == "n,value\n0,1\n1,-1\n"

    def test_eval_fraction_point(self):
        code, text = run_cli("eval", "--n-max", "2", "--x", "1/2", "--engine", "exact")
        assert code == 0
        _, rows = parse_csv(text)
        assert rows[2][1] == "-1/2"

    def test_quadrule_two_points(self):
        code, text = run_cli("quadrule", "--points", "2")
        assert code == 0
        _, rows = parse_csv(text)
        assert len(rows) == 2
        assert float(rows[0][1]) == pytest.approx(0.21132486540518713, abs=1e-15)
        assert float(rows[0][2]) == pytest.approx(0.5, abs=1e-14)


class TestFormatParity:
    INVOCATIONS = [
        ("coeffs", "--alpha", "1", "--beta", "2", "--n-max", "4", "--engine", "exact"),
        ("coeffs", "--alpha", "1", "--beta", "2", "--n-max", "4"),
        ("transition", "--t", "4", "--i", "1", "--j-max", "5", "--alpha", "2"),
        ("stationary", "--n-max", "6", "--beta", "1", "--engine", "exact"),
        ("orthocheck", "--i-max", "4", "--alpha", "1"),
        ("simulate", "--n0", "0", "--t", "2", "--trajectories", "20000", "--seed", "11"),
        ("quadrule", "--points", "5", "--alpha", "2", "--beta", "2"),
        ("eval", "--n-max", "3", "--x", "0.375"),
    ]

    @pytest.mark.parametrize("argv", INVOCATIONS, ids=lambda a: a[0])
    def test_csv_and_json_carry_identical_values(self, argv):
        code_c, text_c = run_cli(*argv, "--format", "csv")
        code_j, text_j = run_cli(*argv, "--format", "json")
        assert code_c == 0 and code_j == 0
        header, rows = parse_csv(text_c)
        records = json.loads(text_j)
        assert len(records) == len(rows)
        for row, record in zip(rows, records):
            assert list(record.keys()) == header
            for cell, value in zip(row, record.values()):
                if value is None:
                    assert cell == ""
                elif isinstance(value, float):
                    assert cell == repr(value)
                else:
                    assert cell == str(value)

    def test_float_cells_round_trip(self):
        _, text = run_cli("quadrule", "--points", "3", "--format", "json")
        for record in json.loads(text):
            assert float(repr(record["node"])) == record["node"]


class TestExitCodes:
    def test_missing_mc_arguments(self, capsys):
        code, _ = run_cli("transition", "--t", "1", "--i", "0", "--j-max", "1", "--method", "mc")
        assert code == 2
        err = capsys.readouterr().err
        assert "--trajectories" in err and "--seed" in err

    def test_exact_engine_rejected_for_simulation(self, capsys):
        code, _ = run_cli(
            "simulate", "--n0", "0", "--t", "1", "--trajectories", "10",
            "--seed", "1", "--engine", "exact",
        )
        assert code == 2
        assert "--engine exact" in capsys.readouterr().err

    def test_exact_engine_rejected_for_quadrule(self):
        code, _ = run_cli("quadrule", "--points", "3", "--engine", "exact")
        assert code == 2

    def test_exact_engine_rejected_for_mc(self):
        code, _ = run_cli(
            "transition", "--t", "1", "--i", "0", "--j-max", "1", "--method", "mc",
            "--trajectories", "100", "--seed", "1", "--engine", "exact",
        )
        assert code == 2

    def test_negative_flag_value(self, capsys):
        code, _ = run_cli("coeffs", "--n-max", "-3")
        assert code == 2
        assert "--n-max" in capsys.readouterr().err

    def test_bad_x(self, capsys):
        code, _ = run_cli("eval", "--n-max", "1", "--x", "nope")
        assert code == 2
        assert "--x" in capsys.readouterr().err

    def test_x_outside_domain(self):
        code, _ = run_cli("eval", "--n-max", "1", "--x", "1.5")
        assert code == 2

    def test_unknown_subcommand(self):
        code, _ = run_cli("frobnicate")
        assert code == 2

    def test_stationary_requires_positive_n_max(self, capsys):
        code, _ = run_cli("stationary", "--n-max", "0")
        assert code == 2
        assert "--n-max" in capsys.readouterr().err

    def test_non_integer_flag_value(self, capsys):
        code, _ = run_cli("coeffs", "--n-max", "2.5")
        assert code == 2
        assert "--n-max" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing-dir/x.csv", "."])
    def test_unwritable_output(self, tmp_path, capsys, where):
        # a path under a missing directory, and a path that is a directory
        target = tmp_path / where
        code, text = run_cli("coeffs", "--n-max", "2", "--output", str(target))
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("jacobi-walk: error: --output ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv, cell", OVERFLOWS)
    def test_non_finite_float_is_numerical_failure(self, tmp_path, capsys, argv, cell, fmt):
        # float overflow must not print inf/nan (nor invalid JSON Infinity)
        target = tmp_path / "table.out"
        for output in ("-", str(target)):
            code, text = run_cli(*argv, "--format", fmt, "--output", output)
            assert code == 3 and text == ""
            assert f"jacobi-walk: numerical failure: {cell}" in capsys.readouterr().err
        assert not target.exists()

    @pytest.mark.parametrize("argv, cell", OVERFLOWS)
    def test_overflow_stderr_is_one_line(self, argv, cell):
        # no numpy RuntimeWarning ahead of the package's own message
        result = run_module(*argv)
        assert result.returncode == 3 and result.stdout == ""
        assert result.stderr == f"jacobi-walk: numerical failure: {cell}\n"

    @pytest.mark.parametrize(
        "argv, order",
        [
            (("quadrule", "--points", "200"), 200),
            (("orthocheck", "--i-max", "20"), 41),
            (("transition", "--t", "10", "--i", "2", "--j-max", "12"), 13),
        ],
    )
    def test_underflowed_mass_is_one_line(self, argv, order):
        # B(1001, 1001) is below the smallest double; the nodes need no mass,
        # the weights do
        result = run_module(*argv, "--alpha", "1000", "--beta", "1000")
        assert result.returncode == 3 and result.stdout == ""
        assert result.stderr == (
            f"jacobi-walk: numerical failure: Gauss rule of order {order}: "
            "the weight's total mass underflows to 0.0\n"
        )

    def test_parser_built_once(self, monkeypatch, capsys):
        # a failing parse and then a good one behave as with a fresh parser
        # each, and share one parser
        with pytest.raises(SystemExit) as fresh:
            build_parser().parse_args(["quadrule", "--points", "0"])
        fresh_err = capsys.readouterr().err
        builds = []

        def counting_build():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli_module, "build_parser", counting_build)
        cli_module._parser.cache_clear()
        try:
            code, text = run_cli("quadrule", "--points", "0")
            assert (code, text) == (fresh.value.code, "") == (2, "")
            err = capsys.readouterr().err
            assert err == fresh_err and "--points" in err
            code, text = run_cli("quadrule", "--points", "1")
            assert code == 0 and text == "index,node,weight\n0,0.5,1.0\n"
            assert len(builds) == 1
        finally:
            cli_module._parser.cache_clear()

    def test_success_is_zero(self):
        code, _ = run_cli("coeffs", "--n-max", "2")
        assert code == 0


class TestOutputsAndDeterminism:
    def test_output_file_written_with_lf(self, tmp_path):
        target = tmp_path / "table.csv"
        code, text = run_cli("coeffs", "--n-max", "1", "--output", str(target))
        assert code == 0 and text == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode("utf-8").startswith("n,up,stay,down,sum\n")

    def test_simulate_byte_identical_runs(self):
        argv = ("simulate", "--n0", "0", "--t", "3", "--trajectories", "50000", "--seed", "99")
        _, first = run_cli(*argv)
        _, second = run_cli(*argv)
        assert first == second

    def test_simulate_thread_invariance(self):
        base = ("simulate", "--n0", "1", "--t", "4", "--trajectories", "300000", "--seed", "5")
        _, one = run_cli(*base, "--threads", "1")
        _, four = run_cli(*base, "--threads", "4")
        assert one == four

    def test_simulate_all_mass_at_origin_for_zero_steps(self):
        _, text = run_cli("simulate", "--n0", "0", "--t", "0", "--trajectories", "100", "--seed", "1")
        header, rows = parse_csv(text)
        assert rows == [["0", "100", "1.0", "0.0"]]

    def test_console_entry_point(self):
        result = run_module("coeffs", "--n-max", "0", "--engine", "exact")
        assert result.returncode == 0
        assert result.stdout == "n,up,stay,down,sum\n0,1/2,1/2,0,1\n"


class TestMonteCarloCommands:
    def test_mc_transition_close_to_closed_form(self):
        code, text = run_cli(
            "transition", "--t", "1", "--i", "0", "--j-max", "1",
            "--method", "mc", "--trajectories", "1000000", "--seed", "42",
        )
        assert code == 0
        _, rows = parse_csv(text)
        j1 = [r for r in rows if r[0] == "1"][0]
        estimate, stderr = float(j1[1]), float(j1[2])
        assert abs(estimate - 0.5) < 4 * stderr

    def test_simulate_two_steps_bin_zero(self):
        code, text = run_cli(
            "simulate", "--n0", "0", "--t", "2", "--trajectories", "1000000", "--seed", "7"
        )
        assert code == 0
        _, rows = parse_csv(text)
        estimate, stderr = float(rows[0][2]), float(rows[0][3])
        assert abs(estimate - 1.0 / 3.0) < 4 * stderr
