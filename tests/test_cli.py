"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from qsphere.cli import main


ROOT = Path(__file__).resolve().parent.parent

# The README's examples, byte for byte
NORMALIZE_ARGV = ["normalize", "--algebra", "sigma", "--n", "2", "y2 y1"]
NORMALIZE_OUT = "(q^-1)*y1y2"
MATRIX_ARGV = ["rep", "matrix", "--n", "1", "--q", "1/2", "--lambda", "1", "--K", "2", "y2"]
MATRIX_OUT = ('{"algebra":"Sigma","n":1,"K":2,"q":"1/2","lambda":[1,0],"dim":3,'
              '"basis_order":"lex_k1_major","entries":[[0,0,1,0],[1,1,0.25,0],[2,2,0.0625,0]]}')


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

    @pytest.mark.parametrize("flag,value", [("--q", "7/2"), ("--lambda", "i"), ("--K", "3"),
                                            ("--mode", "exact"), ("--format", "json")])
    def test_representation_flags_exit_2(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["normalize", "--n", "1", flag, value, "y1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


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

    def test_confluence_suite(self):
        code, out, _ = run_cli(["verify", "--suite", "confluence", "--algebra", "s", "--n", "2",
                                "--format", "json"])
        assert code == 0
        [report] = json.loads(out)
        assert report["check"] == "confluence" and report["passed"] is True
        assert report["params"]["status"] == "checked"

    @pytest.mark.parametrize("flag", ["--seed", "--probe-trials", "--probe-len"])
    def test_removed_flags_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "1", flag, "3"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

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

    def test_oversized_truncation_is_refused_before_the_presentation(self, monkeypatch):
        from qsphere import cli as cli_mod

        def no_build(*args):
            raise AssertionError("the presentation was built for a refused size")

        monkeypatch.setattr(cli_mod, "presentation_Sigma", no_build)
        code, out, err = run_cli(["verify", "--n", "120", "--K", "6"])
        assert code == 2 and out == ""
        assert "(K+1)^n = 7^120 basis vectors exceed" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--mode", "exact", "--suite", "relations", "--n", "6", "--K", "10"],
        ["verify", "--mode", "exact", "--suite", "lemma-aux", "--n", "6", "--K", "10"],
        ["verify", "--mode", "exact", "--suite", "confluence", "--n", "3", "--K", "200"],
    ])
    def test_exact_suites_without_tables_take_any_cutoff(self, argv):
        code, out, err = run_cli([*argv, "--format", "json"])
        assert code == 0 and err == ""
        assert all(report["passed"] for report in json.loads(out))

    @pytest.mark.parametrize("suite,checks", [
        ("kernel", ["kernel_structure"]),
        ("basis", ["lowest_weight_basis"]),
        ("lemma-main", ["lemma_main"] * 6),
        ("all", ["symbolic_relations", "relations_in_rep", "lemma_aux", *["lemma_main"] * 6,
                 "kernel_structure", "lowest_weight_basis", "confluence"]),
    ], ids=["kernel", "basis", "lemma-main", "all"])
    def test_exact_kernel_and_basis_build_no_table(self, suite, checks, monkeypatch):
        from qsphere import rep as rep_mod
        from qsphere import verify as verify_mod

        def refuse(*args):
            raise AssertionError("a table was built")

        for module in (rep_mod, verify_mod):
            monkeypatch.setattr(module, "fock_array", refuse)
        monkeypatch.setattr(rep_mod, "shift_table", refuse)
        code, out, err = run_cli(["verify", "--mode", "exact", "--suite", suite, "--n", "6", "--K", "10",
                                  "--format", "json"])
        assert code == 0 and err == ""
        reports = json.loads(out)
        assert [r["check"] for r in reports] == checks
        assert all(r["passed"] for r in reports)
        assert all(r["params"]["K"] == 10 for r in reports if "K" in r["params"])

    @pytest.mark.parametrize("argv", [
        ["normalize", "--n", "100000", "y1"],
        ["verify", "--n", "100000", "--K", "0", "--suite", "kernel"],
        ["normalize", "--algebra", "s", "--n", "33", "y1"],
    ])
    def test_oversized_presentation_exits_2(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2 and out == ""
        assert "rewrite rules, over the limit of 8192" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--lambda", "nan,0", "--n", "2", "--K", "3", "--suite", "kernel"],
        ["rep", "matrix", "--lambda", "nan,0", "--n", "1", "--K", "2", "--", "y2"],
    ])
    def test_nan_lambda_exits_2(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert "not finite" in err

    @pytest.mark.parametrize("lam", ["1/0,0", "abc", "1,2,3"])
    def test_unreadable_lambda_exits_2(self, lam):
        code, out, err = run_cli(["spectrum", "--lambda", lam, "--n", "1", "--K", "2"])
        assert code == 2
        assert out == ""
        assert "lambda" in err

    def test_negative_zero_lambda_part_reads_as_zero(self):
        code, out, _ = run_cli(["rep", "matrix", "--lambda=-0,-1", "--n", "1", "--K", "2", "y2"])
        assert code == 0
        assert '"lambda":[0,-1]' in out


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


class TestUnreadFlags:
    @pytest.mark.parametrize("argv,flag", [
        (["spectrum", "--sphere", "off"], "--sphere"),
        (["rep", "matrix", "--format", "text", "--", "y2"], "--format"),
    ], ids=["spectrum --sphere", "rep matrix --format"])
    def test_exit_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


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


LAZY_NUMPY_SCRIPT = """
import contextlib, io, json, sys
import qsphere
from qsphere import algebra, cli, expr, rep, verify

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    loaded = sorted(m for m in sys.modules if m.startswith("numpy."))
    return [code, out.getvalue(), "numpy._core" in sys.modules, loaded]

print(json.dumps([run(json.loads(argv)) for argv in sys.argv[1:]]))
"""


def run_fresh(*argvs):
    """[exit code, stdout, numpy._core loaded, numpy.* modules loaded] after each
    argv, run one after another in a fresh interpreter: the test process has
    numpy loaded already."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LAZY_NUMPY_SCRIPT, *map(json.dumps, argvs)],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


class TestLazyNumpy:
    def test_normalize_and_spectrum_never_run_numpy(self):
        normalized, spectrum, matrix = run_fresh(NORMALIZE_ARGV, ["spectrum", "--n", "3", "--K", "4"],
                                                 MATRIX_ARGV)
        assert normalized == [0, NORMALIZE_OUT + "\n", False, []]
        assert spectrum[0] == 0 and spectrum[1].count("\n") == 125 and spectrum[2:] == [False, []]
        code, out, _, loaded = matrix
        assert (code, out) == (0, MATRIX_OUT + "\n")
        assert loaded  # numpy ran, in the same process
        readme = (ROOT / "README.md").read_text()
        assert f"# {NORMALIZE_OUT}\n" in readme
        assert f"# {MATRIX_OUT}\n" in readme

    def test_kernel_basis_and_exact_relations_never_run_numpy(self):
        argvs = [["verify", "--n", "3", "--K", "7", "--mode", mode, "--suite", suite, "--format", "json"]
                 for suite in ("kernel", "basis", "lemma-main") for mode in ("numeric", "exact")]
        argvs += [["verify", "--n", "3", "--K", "7", "--mode", "exact", "--suite", suite]
                  for suite in ("relations", "all")]
        for argv, (code, out, _, loaded) in zip(argvs, run_fresh(*argvs)):
            assert code == 0 and "FAIL" not in out and out, argv
            assert loaded == [], argv
