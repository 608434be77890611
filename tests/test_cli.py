"""Tests for the command-line interface."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from qsphere.cli import main
from qsphere.verify import SUITES


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

    @pytest.mark.parametrize("expr,span", [("1/0 y1", "0..3"), ("0/0 y1", "0..3"), ("y1 + 2/00", "5..9")])
    def test_zero_denominator_exits_2_without_a_traceback(self, expr, span):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "qsphere.cli", "normalize", expr], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: zero denominator") and f"(at {span})" in proc.stderr

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
        assert report["params"]["status"] == "proved" and "middle_max" not in report["params"]

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

    @pytest.mark.parametrize("suite", ["kernel", "basis", "lemma-aux", "lemma-main"])
    def test_s_algebra_suite_needs_only_sigma(self, suite):
        # none of the four reads a representation parameter
        code, out, err = run_cli(["verify", "--algebra", "s", "--n", "2", "--suite", suite])
        assert (code, out, err) == (2, "", f"error: suite '{suite}' needs the Sigma algebra\n")

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
        code, out, err = run_cli(["verify", "--n", "10", "--K", "30", "--suite", "relations"])
        assert code == 2
        assert "exceed" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "relations", "--n", "12"],
        ["verify", "--suite", "all", "--n", "12"],
        ["rep", "matrix", "--n", "12", "y1"],
    ], ids=["relations", "all", "rep matrix"])
    def test_numeric_sampler_and_matrix_refuse_the_size(self, argv):
        # the numeric relations sampler and rep matrix build the 7^12 truncation
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err == "error: (K+1)^n = 7^12 basis vectors exceed the limit of 1048576\n"

    @pytest.mark.parametrize("K", ["0", "1"])
    @pytest.mark.parametrize("suite", ["relations", "all"])
    def test_numeric_sampler_needs_an_interior(self, suite, K):
        code, out, err = run_cli(["verify", "--suite", suite, "--n", "2", "--K", K])
        assert (code, out, err) == (2, "", "error: interior checks need K >= 2\n")

    @pytest.mark.parametrize("K", ["0", "1"])
    @pytest.mark.parametrize("suite", ["relations", "all"])
    def test_exact_relations_proof_takes_any_cutoff(self, suite, K):
        # the proof reads no K, and its report carries the K that was asked for
        code, out, err = run_cli(["verify", "--mode", "exact", "--suite", suite, "--n", "2", "--K", K,
                                  "--format", "json"])
        assert (code, err) == (0, "")
        reports = json.loads(out)
        [proof] = [r for r in reports if r["check"] == "relations_in_rep"]
        assert proof["params"] == {"n": 2, "K": int(K), "q0": "1/2", "lambda": [1.0, 0.0], "mode": "exact"}
        assert all(r["passed"] for r in reports)

    def test_oversized_truncation_is_refused_before_the_presentation(self, monkeypatch):
        from qsphere import verify as verify_mod

        def no_build(*args):
            raise AssertionError("the presentation was built for a refused size")

        monkeypatch.setattr(verify_mod, "presentation_Sigma", no_build)
        code, out, err = run_cli(["verify", "--n", "120", "--K", "6"])
        assert code == 2 and out == ""
        assert "(K+1)^n = 7^120 basis vectors exceed" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--mode", "exact", "--suite", "relations", "--n", "6", "--K", "10"],
        ["verify", "--mode", "exact", "--suite", "lemma-aux", "--n", "6", "--K", "10"],
        ["verify", "--mode", "exact", "--suite", "confluence", "--n", "3", "--K", "200"],
        # the numeric suites that read no representation build no configuration:
        # 7^12 basis vectors exceed the limit of a numeric truncation
        ["verify", "--suite", "confluence", "--n", "12"],
        ["verify", "--suite", "lemma-aux", "--n", "12"],
        ["verify", "--suite", "lemma-aux", "--n", "4", "--K", "40"],
        # lemma-main is proved in the algebra: no table limit, and no K >= 2
        ["verify", "--suite", "lemma-main", "--n", "12"],
        ["verify", "--suite", "lemma-main", "--n", "3", "--K", "0"],
        # the kernel and basis proofs read only n, in the default mode too
        ["verify", "--suite", "kernel", "--n", "12"],
        ["verify", "--suite", "basis", "--n", "12"],
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

    @pytest.mark.parametrize("mode", ["numeric", "exact"])
    @pytest.mark.parametrize("suite", ["kernel", "basis", "lemma-main"])
    def test_proofs_build_no_configuration(self, suite, mode, monkeypatch):
        from qsphere import cli as cli_mod
        from qsphere import verify as verify_mod

        def refuse(*args):
            raise AssertionError("a configuration was built")

        for module in (cli_mod, verify_mod):
            monkeypatch.setattr(module, "RepConfig", refuse)
        code, out, err = run_cli(["verify", "--mode", mode, "--suite", suite, "--n", "3", "--format", "json"])
        assert code == 0 and err == ""
        assert all(r["passed"] for r in json.loads(out))

    @pytest.mark.parametrize("suite", ["kernel", "basis"])
    def test_kernel_and_basis_build_no_presentation(self, suite, monkeypatch):
        from qsphere import cli as cli_mod
        from qsphere import verify as verify_mod
        from qsphere.verify import rep_params, run_suite

        argv = ["verify", "--suite", suite, "--n", "3", "--K", "4", "--format", "json"]
        expected = json.dumps([r.to_json() for r in run_suite(suite, "Sigma", 3,
                                                              params=rep_params(3, Fraction(1, 2), 1, 4, "numeric"))],
                              sort_keys=True) + "\n"

        def refuse(*args):
            raise AssertionError("a presentation was built")

        for module in (cli_mod, verify_mod):
            monkeypatch.setattr(module, "presentation_S", refuse)
            monkeypatch.setattr(module, "presentation_Sigma", refuse)
        assert run_cli(argv) == (0, expected, "")
        code, out, err = run_cli(["verify", "--suite", suite, "--n", "63", "--format", "json"])
        assert code == 0 and err == "" and json.loads(out)[0]["passed"]
        assert run_cli(["verify", "--algebra", "s", "--suite", suite, "--n", "2"]) == \
            (2, "", f"error: suite '{suite}' needs the Sigma algebra\n")
        assert run_cli(["verify", "--suite", suite, "--n", "64"]) == \
            (2, "", "error: the Sigma presentation at n = 64 has 8386 rewrite rules, over the limit of 8192\n")
        assert run_cli(["verify", "--algebra", "s", "--suite", suite, "--n", "33"]) == \
            (2, "", "error: the S presentation at n = 33 has 8647 rewrite rules, over the limit of 8192\n")

    @pytest.mark.parametrize("suite", ["lemma-aux", "lemma-main"])
    def test_lemma_suites_build_no_sphere_off_presentation(self, suite, monkeypatch):
        from qsphere import algebra as algebra_mod
        from qsphere import verify as verify_mod

        expected = run_cli(["verify", "--suite", suite, "--n", "3", "--format", "json"])
        assert expected[0] == 0

        def build(n, sphere_reduction=True):
            if not sphere_reduction:
                raise AssertionError("a sphere-off presentation was built")
            return algebra_mod.presentation_Sigma(n)

        monkeypatch.setattr(verify_mod, "presentation_Sigma", build)
        assert run_cli(["verify", "--suite", suite, "--sphere", "off", "--n", "3", "--format", "json"]) == expected

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


class TestVerifyChecksEveryFlag:
    """verify checks --q, --lambda and --K for every suite and both algebras,
    before anything is built, also where the suite reads no representation."""

    @pytest.mark.parametrize("flags,message", [
        (["--q", "2/1"], "q0 = 2 is outside (0, 1)"),
        (["--q", "abc"], "q must be an exact rational like 1/2, got 'abc'"),
        (["--lambda", "2"], "lambda must be 1, -1, i, -i or re,im; got '2'"),
        (["--lambda", "3,4"], "|lambda| = 5.0 is not 1 within 1e-12"),
        (["--K", "-1"], "cutoff K must be >= 0"),
    ], ids=["q 2/1", "q abc", "lambda 2", "lambda 3,4", "K -1"])
    @pytest.mark.parametrize("suite", [*SUITES, "s relations", "s confluence"])
    def test_bad_flag_exits_2_before_anything_is_built(self, suite, flags, message, monkeypatch):
        from qsphere import cli as cli_mod
        from qsphere import verify as verify_mod

        def no_build(*args):
            raise AssertionError("a presentation was built")

        for module in (cli_mod, verify_mod):
            monkeypatch.setattr(module, "presentation_Sigma", no_build)
            monkeypatch.setattr(module, "presentation_S", no_build)
        algebra = ["--algebra", "s"] if suite.startswith("s ") else []
        code, out, err = run_cli(["verify", "--n", "2", *algebra, "--suite", suite.split()[-1], *flags])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("flags", [
        ["--q", "2/1", "--lambda", "abc"],
        ["--K", "-1", "--lambda", "3,4"],
        ["--q", "0/1", "--K", "-1"],
        ["--n", "0", "--q", "abc"],
        ["--n", "0", "--K", "-1"],
    ])
    def test_messages_and_order_match_a_suite_that_builds_a_configuration(self, flags):
        want = run_cli(["verify", "--suite", "relations", *flags])
        assert want[0] == 2
        for suite in ("lemma-aux", "lemma-main", "kernel", "basis", "confluence"):
            assert run_cli(["verify", "--suite", suite, *flags]) == want


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

        def fake_run_suite(*args, **kwargs):
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

    @pytest.mark.parametrize("suite", ["confluence", "lemma-aux"])
    def test_bad_fuel_variable_fails_a_proof(self, monkeypatch, suite):
        # the presentations are built first, so the check itself reads the variable
        from qsphere import presentation_Sigma
        presentation_Sigma(2), presentation_Sigma(2, False)
        monkeypatch.setenv("QSPHERE_FUEL", "x")
        code, out, err = run_cli(["verify", "--n", "2", "--suite", suite, "--format", "json"])
        assert (code, out, err) == (2, "", "error: QSPHERE_FUEL must be an integer, got 'x'\n")


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
        argvs += [["verify", "--n", "12", "--suite", suite] for suite in ("kernel", "basis")]
        for argv, (code, out, _, loaded) in zip(argvs, run_fresh(*argvs)):
            assert code == 0 and "FAIL" not in out and out, argv
            assert loaded == [], argv
