"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.
"""

from __future__ import annotations

import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

from qsphere.algebra import (
    Element,
    Word,
    presentation_S,
    presentation_Sigma,
    y,
)
from qsphere.cli import main as cli_main
from qsphere.expr import parse, print_canonical
from qsphere.rep import RepConfig, matrix, yn1_spectrum
from qsphere.scalar import LaurentPoly
from qsphere.verify import (
    check_confluence,
    check_kernel_structure,
    check_lemma_aux,
    check_lemma_main,
    check_lowest_weight_basis,
    check_relations_in_rep,
    check_symbolic_relations,
    sample_relations_in_rep,
)

Q_GRID = (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5))
LAMBDA_GRID = (1, 1j)


def _diagonal(m):
    """The diagonal of a sparse matrix in rank order, or None if it has an
    entry off the diagonal."""
    if m.rows.tolist() != m.cols.tolist():
        return None
    diag = [0j] * m.dim
    for row, value in zip(m.rows.tolist(), m.values.tolist()):
        diag[row] = value
    return diag


def _criterion(name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert passed, f"{name} failed {suffix}"


def test_01_symbolic_relation_closure():
    start = time.perf_counter()
    ok = True
    for build in (presentation_S, presentation_Sigma):
        for n in (1, 2, 3):
            for sphere in (True, False):
                report = check_symbolic_relations(build(n, sphere))
                ok = ok and report.passed and report.max_residual == 0.0
    elapsed = time.perf_counter() - start
    _criterion("1 symbolic relation closure", ok and elapsed < 5.0,
               f"{elapsed:.2f}s < 5s")


def test_02_power_identities():
    start = time.perf_counter()
    ok = True
    for n in (1, 2, 3):
        report = check_lemma_aux(presentation_Sigma(n), m_max=5)
        ok = ok and report.passed and report.max_residual == 0.0
    elapsed = time.perf_counter() - start
    _criterion("2 power identities, every m", ok and elapsed < 30.0,
               f"{elapsed:.2f}s < 30s")


def test_03_relations_in_representation():
    start = time.perf_counter()
    ok = True
    worst_numeric = 0.0
    for n in (1, 2):
        for q0 in Q_GRID:
            for lam in LAMBDA_GRID:
                numeric = sample_relations_in_rep(RepConfig(n, q0, lam, 6))
                ok = ok and numeric.passed
                worst_numeric = max(worst_numeric, numeric.max_residual)
        exact = check_relations_in_rep(n)  # reads no K, q0 or lambda
        ok = ok and exact.passed and exact.max_residual == 0.0
    elapsed = time.perf_counter() - start
    _criterion("3 relations hold in the representation",
               ok and worst_numeric <= 1e-12 and elapsed < 60.0,
               f"numeric residual {worst_numeric:.1e}, exact 0, {elapsed:.2f}s < 60s")


def test_04_operator_identities():
    ok = True
    for n in (1, 2, 3, 4):
        p = presentation_Sigma(n)
        for k in range(1, n + 1):
            report = check_lemma_main(p, k)
            ok = ok and report.passed and report.max_residual == 0.0
            assert not report.witnesses, report.witnesses
    _criterion("4 operator identities", ok,
               "proved in the algebra: every identity normalizes to 0, in every *-representation")


def test_05_kernel_structure():
    ok = True
    for n in (1, 2, 3):
        report = check_kernel_structure(n)  # reads no K, q0 or lambda
        ok = ok and report.passed and report.witnesses == []
    _criterion("5 kernel structure", ok, "proved: dim H_k = (K+1)^(n-k), dim H_n = 1")


def test_06_lowest_weight_orthonormality():
    ok = True
    worst = 0.0
    for n in (1, 2):
        report = check_lowest_weight_basis(n)
        ok = ok and report.passed
        worst = max(worst, report.max_residual)
    _criterion("6 lowest-weight basis orthonormal", ok and worst <= 1e-12,
               f"worst defect {worst:.1e} <= 1e-12")


def test_07_spectrum():
    ok = True
    for n in (1, 2):
        for K in (0, 3, 6):
            for q0 in (Fraction(1, 2), Fraction(3, 5)):
                for lam in LAMBDA_GRID:
                    c = RepConfig(n, q0, lam, K)
                    m = matrix(Element.of(y(n + 1)), c)
                    diag = _diagonal(m)
                    ok = ok and diag is not None
                    got = sorted(diag or [], key=lambda v: (v.real, v.imag))
                    want = sorted(yn1_spectrum(c), key=lambda v: (v.real, v.imag))
                    ok = ok and got == want
    _criterion("7 diagonal spectrum multiset", ok, "exact multiset equality")


def test_08_confluence():
    ok = True
    overlaps = 0
    for build in (presentation_S, presentation_Sigma):
        for n in (1, 2, 3):
            for sphere in (True, False):
                report = check_confluence(build(n, sphere))
                ok = ok and report.passed
                ok = ok and report.params["status"] == "proved" and "middle_max" not in report.params
                overlaps += report.params["overlaps"]
    _criterion("8 confluence", ok,
               f"{overlaps} overlaps resolved; proved with sphere reduction on and off")


def _random_element(rng, p):
    e = Element.zero()
    for _ in range(rng.randint(1, 4)):
        w = Word(tuple(rng.choice(p.generators) for _ in range(rng.randint(0, 4))))
        coeff = LaurentPoly.zero()
        for _ in range(rng.randint(1, 3)):
            coeff = coeff + LaurentPoly.q(rng.randint(-3, 3),
                                          Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        e = e + Element.from_word(w, coeff)
    return e


def test_09_round_trip_and_cli_determinism():
    rng = random.Random(2024)
    presentations = [presentation_Sigma(1), presentation_Sigma(2), presentation_S(2)]
    ok = True
    for i in range(500):
        p = presentations[i % len(presentations)]
        e = _random_element(rng, p)
        ok = ok and parse(print_canonical(e), p) == e

    def run(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    for argv in (
        ["normalize", "--algebra", "s", "--n", "2", "y2 y1 x2 x1"],
        ["verify", "--n", "1", "--K", "4", "--format", "json"],
        ["rep", "matrix", "--n", "2", "--K", "3", "--lambda", "i", "--q", "3/5", "y1' y2"],
        ["spectrum", "--n", "2", "--K", "4", "--q", "1/3"],
    ):
        ok = ok and run(argv) == run(argv)
    _criterion("9 round-trip and CLI determinism", ok,
               "500 elements, byte-identical CLI reruns")
