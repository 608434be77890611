"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qsphere.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestNormalize:
    def test_exchange(self):
        code, out, _ = run_cli(["normalize", "--algebra", "sigma", "--n", "2", "y2 y1"])
        assert code == 0
        assert out == "(q^-1)*y1y2\n"

    def test_sphere_reduction_applies(self):
        code, out, _ = run_cli(["normalize", "--n", "1", "y1 y1'"])
        assert code == 0
        assert out == "(1 - q^4)*1 + (q^4)*y1'y1\n"

    def test_sphere_off(self):
        code, out, _ = run_cli(["normalize", "--n", "1", "--sphere", "off", "y1 y1'"])
        assert code == 0
        assert out == "(1)*y1'y1 + (1 - q^4)*y2'y2\n"

    def test_s_algebra(self):
        code, out, _ = run_cli(["normalize", "--algebra", "s", "--n", "1", "y1 x1"])
        assert code == 0
        assert out == "(q^2)*x1y1\n"

    def test_syntax_error_exit_2(self):
        code, out, err = run_cli(["normalize", "y1 +"])
        assert code == 2
        assert "error:" in err

    def test_unknown_generator_exit_2(self):
        code, _, err = run_cli(["normalize", "--n", "1", "y9"])
        assert code == 2
        assert "unknown generator" in err


class TestVerify:
    def test_full_suite_passes(self):
        code, out, _ = run_cli(["verify", "--algebra", "sigma", "--n", "1",
                                "--q", "1/2", "--lambda", "1", "--K", "4"])
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 5

    def test_json_format(self):
        code, out, _ = run_cli(["verify", "--n", "1", "--K", "3", "--suite",
                                "kernel", "--format", "json"])
        assert code == 0
        reports = json.loads(out)
        assert reports[0]["check"] == "kernel_structure"
        assert reports[0]["passed"] is True

    def test_probe_option(self):
        code, out, _ = run_cli(["verify", "--n", "1", "--suite", "relations",
                                "--probe-trials", "50", "--seed", "3"])
        assert code == 0
        assert "confluence_probe" in out

    def test_s_algebra_relations(self):
        code, out, _ = run_cli(["verify", "--algebra", "s", "--n", "2",
                                "--suite", "relations"])
        assert code == 0

    def test_s_algebra_rep_suite_fails_cleanly(self):
        code, _, err = run_cli(["verify", "--algebra", "s", "--n", "2",
                                "--suite", "kernel"])
        assert code == 2

    def test_bad_q_rejected(self):
        code, _, err = run_cli(["verify", "--q", "0.5"])
        assert code == 2
        assert "exact rational" in err

    def test_zero_denominator_q_rejected(self):
        code, out, err = run_cli(["verify", "--q", "1/0"])
        assert code == 2
        assert out == ""
        assert "zero denominator" in err

    def test_deep_nesting_exits_2(self):
        code, out, err = run_cli(["normalize", "(" * 5000 + "y1" + ")" * 5000])
        assert code == 2
        assert "nested deeper" in err

    def test_oversized_truncation_exits_2(self):
        code, out, err = run_cli(["verify", "--n", "10", "--K", "30", "--suite", "kernel"])
        assert code == 2
        assert "exceed" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--lambda", "nan,0", "--n", "2", "--K", "3", "--suite", "kernel"],
        ["rep", "matrix", "--lambda", "nan,0", "--n", "1", "--K", "2", "--", "y2"],
    ])
    def test_nan_lambda_exits_2(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "not finite" in err


class TestRep:
    def test_matrix_diagonal(self):
        code, out, _ = run_cli(["rep", "matrix", "--n", "1", "--q", "1/2",
                                "--lambda", "1", "--K", "2", "y2"])
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 3
        assert data["entries"] == [[0, 0, 1, 0], [1, 1, 0.25, 0], [2, 2, 0.0625, 0]]

    def test_matrix_rejects_s_algebra(self):
        code, _, err = run_cli(["rep", "matrix", "--algebra", "s", "x1"])
        assert code == 2

    def test_apply(self):
        code, out, _ = run_cli(["rep", "apply", "--n", "1", "--q", "1/2",
                                "--K", "3", "y1'", "--state", "0"])
        assert code == 0
        k, re, im = out.split()
        assert k == "1"
        assert abs(float(re) - (1 - 0.5**4) ** 0.5) < 1e-15
        assert float(im) == 0.0

    def test_apply_out_of_range_state(self):
        code, _, err = run_cli(["rep", "apply", "--n", "1", "--K", "3", "y1",
                                "--state", "7"])
        assert code == 2

    def test_apply_json(self):
        code, out, _ = run_cli(["rep", "apply", "--n", "2", "--K", "2", "y3",
                                "--state", "1,1", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["state"][0][0] == [1, 1]


class TestSpectrum:
    def test_n1(self):
        code, out, _ = run_cli(["spectrum", "--n", "1", "--q", "1/2", "--K", "2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["0", "1", "0"]
        assert lines[1].split() == ["1", "0.25", "0"]
        assert lines[2].split() == ["2", "0.0625", "0"]

    def test_json(self):
        code, out, _ = run_cli(["spectrum", "--n", "2", "--K", "1", "--format", "json"])
        assert code == 0
        values = json.loads(out)["spectrum"]
        assert sorted(v[0] for v in values) == sorted([1.0, 0.5, 0.25, 0.125])


class TestNumericOnlyCommands:
    @pytest.mark.parametrize("argv", [
        ["rep", "matrix", "--K", "2", "y2"],
        ["rep", "apply", "--K", "2", "y1'", "--state", "0"],
        ["spectrum", "--K", "2"],
    ])
    def test_exact_mode_exits_2(self, argv):
        code, out, err = run_cli(argv + ["--mode", "exact"])
        assert code == 2
        assert out == ""
        assert "--mode exact" in err


class TestExitCodes:
    def test_failed_verification_exits_1(self, monkeypatch):
        from qsphere import cli as cli_mod
        from qsphere.verify import CheckReport

        def fake_run_suite(suite, p, c, m_max=5):
            return [CheckReport("stub", {}, tolerance=0.0, max_residual=1.0,
                                witnesses=[{"bad": True}])]

        monkeypatch.setattr(cli_mod, "run_suite", fake_run_suite)
        code, out, _ = run_cli(["verify", "--n", "1"])
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("fuel", ["abc", "1.5", ""])
    def test_bad_fuel_variable_exits_2(self, monkeypatch, fuel):
        monkeypatch.setenv("QSPHERE_FUEL", fuel)
        code, out, err = run_cli(["normalize", "--n", "1", "y1 y1'"])
        assert code == 2
        assert out == ""
        assert "QSPHERE_FUEL" in err


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["normalize", "--algebra", "s", "--n", "2", "y2 y1 x2 x1"],
        ["verify", "--n", "1", "--K", "4", "--suite", "all", "--format", "json"],
        ["rep", "matrix", "--n", "2", "--K", "2", "--lambda", "i", "y1' y2"],
        ["spectrum", "--n", "2", "--K", "3", "--q", "3/5"],
    ])
    def test_byte_identical_across_runs(self, argv):
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second
