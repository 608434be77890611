"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that operation streams follow the seed, that the printed metric
names are the ones BENCHMARK.json declares, and that the reference checker
rejects a corrupted normal form, matrix entry and verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracing import layer_metrics  # noqa: E402


def program_output(op: ops.Op) -> str:
    """The program's real output for one operation."""
    from qsphere import cli
    if op.kind == "normalize":
        build = cli.presentation_S if op.algebra == "s" else cli.presentation_Sigma
        p = build(op.n, op.sphere)
        return cli.print_canonical(cli.normalize(cli.parse(op.expr, p), p))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(op.argv()) == 0
    return buf.getvalue()


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


class SeedTest(unittest.TestCase):
    def test_same_seed_same_operations(self):
        for workload in ops.WORKLOADS:
            self.assertEqual(ops.first_ops(workload, 7, 3), ops.first_ops(workload, 7, 3))

    def test_other_seed_other_operations(self):
        for workload in ops.WORKLOADS:
            self.assertNotEqual(ops.first_ops(workload, 7, 3), ops.first_ops(workload, 8, 3))


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        self.declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_declared_names_and_units(self):
        for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
            declared = {m["name"]: m["unit"] for m in self.declared[key]}
            self.assertEqual(declared, table)
        self.assertEqual([w["name"] for w in self.declared["workloads"]], list(ops.WORKLOADS))
        computed = set(layer_metrics([], {})) | {"trace.overhead_ratio"}
        self.assertEqual(computed, set(run.PER_LAYER))

    def test_printed_names(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            done = bench("--workload", "normalize", "--seed", "1", "--seconds", "1", "--trace", trace)
            self.assertEqual(done.returncode, 0, done.stderr)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]), [m["name"] for m in self.declared[key]])

    def test_refuses_without_sources(self):
        (ROOT / ".bench_out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "normalize", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout, "")


class ReferenceTest(unittest.TestCase):
    def test_normal_forms(self):
        for op in ops.first_ops("normalize", 3, 1):
            output = program_output(op)
            self.assertIsNone(reference.check(op, output, None), (op.expr, output))
        op = ops.Op("normalize", "sigma", 1, True, terms=((Fraction(1), 0, ("y1", "y1'")),))
        self.assertIsNone(reference.check(op, "(1 - q^4)*1 + (q^4)*y1'y1", None))
        for corrupt in ("(1 - q^4)*1 + (q^3)*y1'y1", "(1 - q^4)*1", "(1 - q^4)*1 + (q^4)*y1y1'",
                        "(1 - q^4)*1 + (q^4)*y1'y1 + (2)*y2'y2", "1 - q^4 + q^4*y1'y1",
                        "(1 - q^4)*1 + (q^4)*y1'y3", "(1 - q^4)*1 + (q^4)*x1'x1"):
            self.assertIsNotNone(reference.check(op, corrupt, None), corrupt)

    def test_corrupted_normal_form_coefficients(self):
        for op in ops.first_ops("normalize", 4, 1):
            if op.algebra != "sigma":
                continue
            terms = reference.parse_normal_form(program_output(op))
            if not terms:
                continue
            coeff, letters = terms[0]
            word = "".join(letters) or "1"
            bad = f"({coeff} + q^9)*{word}"
            output = program_output(op).replace(f"({coeff})*{word}", bad, 1)
            self.assertIsNotNone(reference.check(op, output, None), output)

    def test_matrix_entries(self):
        op = ops.Op("matrix", "sigma", 2, K=3, q=Fraction(3, 7), lam="i",
                    terms=((Fraction(2), 0, ("y1", "y2'")), (Fraction(-3, 4), 2, ("y3",))))
        output = program_output(op)
        self.assertIsNone(reference.check(op, output, None))
        data = json.loads(output)
        data["entries"][3][2] += 1e-6
        self.assertIsNotNone(reference.check(op, json.dumps(data), None))
        data = json.loads(output)
        del data["entries"][-1]
        self.assertIsNotNone(reference.check(op, json.dumps(data), None))

    def test_verdicts(self):
        op = ops.Op("verify", "sigma", 2, K=3, q=Fraction(1, 2), suite="relations")
        output = program_output(op)
        self.assertIsNone(reference.check(op, output, None))
        reports = json.loads(output)
        reports[1]["passed"] = False
        self.assertIsNotNone(reference.check(op, json.dumps(reports), None))
        self.assertIsNotNone(reference.check(op, json.dumps(reports[:1]), None))
        self.assertIsNotNone(reference.check(op, output, "OpFailed: exit code 1"))


if __name__ == "__main__":
    unittest.main()
