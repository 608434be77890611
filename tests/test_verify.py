"""Tests for the identity-check layer."""

from __future__ import annotations

import copy
import json
import math
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import qsphere.rep as rep_mod
import qsphere.verify as verify_mod
from qsphere.algebra import (
    Element,
    Presentation,
    normalize,
    presentation_S,
    presentation_Sigma,
    relations_S,
    relations_Sigma,
    y,
)
from qsphere.rep import (
    RepConfig,
    SparseMatrix,
    apply_element,
    basis_state,
    fock_array,
    fock_indices,
    matrix,
    shift_table,
    yn1_spectrum,
)
from qsphere.scalar import DomainError, LaurentPoly, qpochhammer
from qsphere.verify import (
    GUARD_POINTS,
    SCATTER_MIDDLE_MAX,
    CheckReport,
    check_confluence,
    check_kernel_structure,
    check_lemma_aux,
    check_lemma_main,
    check_lowest_weight_basis,
    check_relations_in_rep,
    check_symbolic_relations,
    lemma_aux_identity,
    prove_relations_in_rep,
    run_suite,
)

HALF = Fraction(1, 2)
UNIT_LAMBDAS = (1, 1j, complex(0.6, 0.8), complex(math.cos(0.3), math.sin(0.3)))


def cfg(n=1, q0=HALF, lam=1, K=6, mode="numeric"):
    return RepConfig(n, q0, lam, K, mode)


def _with_rule(p, lhs, edit):
    """A new presentation with p's rules, the rule for lhs replaced by edit(rhs)."""
    rules = {**p.rules, lhs: edit(p.rules[lhs])}
    return Presentation(p.kind, p.n, p.sphere_reduction, p.generators, rules, p.eliminated)


class TestSymbolicRelations:
    @pytest.mark.parametrize("kind,n,sphere", [
        ("Sigma", 1, True), ("Sigma", 3, True),
        ("S", 2, True), ("S", 2, False),
    ])
    def test_all_relations_close(self, kind, n, sphere):
        p = presentation_S(n, sphere) if kind == "S" else presentation_Sigma(n, sphere)
        report = check_symbolic_relations(p)
        assert report.passed, report.witnesses[:2]
        assert report.max_residual == 0.0

    def test_report_json_shape(self):
        report = check_symbolic_relations(presentation_Sigma(1))
        data = report.to_json()
        assert set(data) == {"check", "params", "max_residual", "passed", "witnesses"}
        assert data["passed"] is True


class TestConfluence:
    @pytest.mark.parametrize("build", [presentation_S, presentation_Sigma])
    @pytest.mark.parametrize("sphere", [True, False])
    def test_clean(self, build, sphere):
        report = check_confluence(build(2, sphere))
        assert report.passed, report.witnesses[:2]
        assert report.params["overlaps"] > 0
        if sphere:
            assert report.params["status"] == "checked"
            assert report.params["middle_max"] == SCATTER_MIDDLE_MAX
        else:
            assert report.params["status"] == "proved"
            assert "middle_max" not in report.params

    def test_perturbed_rule_fails_with_witness(self):
        lhs = (y(3), y(2))
        p = _with_rule(presentation_Sigma(2, sphere_reduction=False), lhs,
                       lambda rhs: rhs + Element.of(y(2), y(3), coeff=LaurentPoly.q(1)))
        report = check_confluence(p)
        assert not report.passed
        assert report.params["status"] == "refuted"
        assert report.max_residual > 0
        witness = report.witnesses[0]
        assert set(witness) == {"overlap", "left", "right", "residual"}
        assert witness["left"] != witness["right"]
        assert "y3y2y2'" in [w["overlap"] for w in report.witnesses]

    def test_scattered_step_with_a_long_middle_is_checked(self):
        # A scattered step that is wrong only when two letters sit between
        # the eliminated pair escapes the length-3 overlaps and the
        # relations check; the scattered overlaps catch it.
        p = presentation_Sigma(1)
        estar, e = (p.rank[g] for g in p.eliminated)
        bad = copy.copy(p)

        def step(ranks):
            out = type(p)._step(bad, ranks)
            letters = p.word(ranks).letters  # a two-letter redex means no scattered step
            if out is None or any(pair in p.rules for pair in zip(letters, letters[1:])):
                return out
            start = max(i for i, r in enumerate(ranks) if r == estar)
            if ranks.index(e, start) - start > 2:
                out = [(w, c * LaurentPoly.q(1)) for w, c in out]
            return out

        bad._step = step
        assert check_symbolic_relations(bad).passed
        report = check_confluence(bad)
        assert report.params["status"] == "refuted"
        assert report.witnesses[0]["overlap"] == "y2'y1y2y1"

    def test_run_suite_includes_confluence(self):
        reports = run_suite("confluence", presentation_S(1), None)
        assert [r.name for r in reports] == ["confluence"]
        assert "confluence" in [r.name for r in run_suite("all", presentation_S(1), None)]


class TestLemmaAux:
    def test_m1_reduces_to_commutation(self):
        p = presentation_Sigma(2)
        report = check_lemma_aux(p, m_max=1)
        assert report.passed

    def test_q4_variant_n1(self):
        p = presentation_Sigma(1)
        report = check_lemma_aux(p, m_max=3)
        assert report.passed

    def test_n3_all_powers(self):
        p = presentation_Sigma(3)
        report = check_lemma_aux(p, m_max=5)
        assert report.passed

    def test_identity_is_nonzero_before_normalizing(self):
        e = lemma_aux_identity(2, 1, 2)
        assert not e.is_zero()

    def test_requires_sphere_on(self):
        with pytest.raises(DomainError):
            check_lemma_aux(presentation_Sigma(1, sphere_reduction=False), 2)
        with pytest.raises(DomainError):
            check_lemma_aux(presentation_S(1), 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_power_recursion_holds_in_the_free_algebra(self, n):
        # I_m = I_(m-1) Y + c_(m-1) Y^(m-1) I_1 + (1 - c_(m-1)) Y^(m-2) [T, Y],
        # compared as elements with no rewriting
        for i in range(1, n + 1):
            big_y, step = Element.of(y(i, True)), 4 if i == n else 2
            bracket = _tail(i) * big_y - big_y * _tail(i)
            for m in range(2, 9):
                c = LaurentPoly.q(step * (m - 1))
                rhs = (lemma_aux_identity(n, i, m - 1) * big_y
                       + big_y ** (m - 1) * lemma_aux_identity(n, i, 1) * c
                       + big_y ** (m - 2) * bracket * (LaurentPoly.one() - c))
                assert rhs == lemma_aux_identity(n, i, m)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_normalizes_only_the_first_two_powers(self, n, monkeypatch):
        calls = []

        def counted(e, p):
            calls.append(e)
            return normalize(e, p)

        monkeypatch.setattr(verify_mod, "normalize", counted)
        p = presentation_Sigma(n)
        for m_max, expected in ((1, n), (2, 2 * n), (12, 2 * n), (10**6, 2 * n)):
            calls.clear()
            report = check_lemma_aux(p, m_max)
            assert report.passed and report.params["m_max"] == m_max
            assert len(calls) == expected


def _tail(i):
    return Element.one() - sum((Element.of(y(k, True), y(k)) for k in range(1, i)), Element.zero())


def _power_identity(n, i, m, step=None, tail=True, tail_m=None):
    """lemma_aux_identity restated with three knobs a mutation can turn: the
    step s, whether the tail keeps its sum, and the m of its 1 - q^(sm)."""
    step = step or (4 if i == n else 2)
    ys, q = Element.of(y(i, True)), LaurentPoly.q
    t = _tail(i) if tail else Element.one()
    return (Element.of(y(i)) * ys**m - ys**m * Element.of(y(i)) * q(step * m)
            - ys ** (m - 1) * t * (LaurentPoly.one() - q(step * (m if tail_m is None else tail_m))))


class TestLemmaAuxMutations:
    def test_restatement_matches(self):
        # the closed form against the restatement through Element products
        assert all(_power_identity(n, i, m) == lemma_aux_identity(n, i, m)
                   for n in range(1, 7) for i in range(1, n + 1) for m in range(1, 13))

    @staticmethod
    def failing(monkeypatch, n, m_max, **knobs):
        monkeypatch.setattr(verify_mod, "lemma_aux_identity",
                            lambda n, i, m: _power_identity(n, i, m, **knobs))
        report = check_lemma_aux(presentation_Sigma(n), m_max)
        assert all(w["residual"] > 0 for w in report.witnesses)
        return [(w["i"], w["m"]) for w in report.witnesses]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dropped_tail(self, n, monkeypatch):
        assert self.failing(monkeypatch, n, 5, tail=False) == \
               [(i, m) for i in range(2, n + 1) for m in (1, 2)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_step_2_in_the_last_slot(self, n, monkeypatch):
        assert self.failing(monkeypatch, n, 5, step=2) == [(n, 1), (n, 2)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tail_coefficient_of_the_first_power_needs_the_second(self, n, monkeypatch):
        assert self.failing(monkeypatch, n, 1, tail_m=1) == []
        assert self.failing(monkeypatch, n, 5, tail_m=1) == [(i, 2) for i in range(1, n + 1)]


class TestKernels:
    def test_dims_n2_k3(self):
        c = cfg(n=2, K=3)
        assert _svd_kernel_dims(c) == [4, 1]
        assert check_kernel_structure(c).passed

    def test_lowest_weight_space_always_one_dim(self):
        for n in (1, 2):
            for K in (3, 4):
                c = cfg(n=n, K=K, q0=Fraction(1, 3))
                assert _svd_kernel_dims(c)[-1] == 1
                assert check_kernel_structure(c).passed

    def test_n1_k5(self):
        assert _svd_kernel_dims(cfg(n=1, K=5)) == [1]
        assert check_kernel_structure(cfg(n=1, K=5)).passed

    def test_structure_report(self):
        report = check_kernel_structure(cfg(n=3, K=3))
        assert report.passed


class TestLemmaMain:
    def test_n1(self):
        report = check_lemma_main(cfg(n=1, K=6), k=1)
        assert report.passed, report.witnesses

    def test_n2_k1_complex_lambda(self):
        report = check_lemma_main(cfg(n=2, q0=Fraction(3, 5), lam=1j, K=5), k=1)
        assert report.passed, report.witnesses

    def test_n2_k2_uses_q4(self):
        report = check_lemma_main(cfg(n=2, q0=Fraction(3, 5), lam=1j, K=5), k=2)
        assert report.passed, report.witnesses
        assert report.params["mu"] == pytest.approx(float(Fraction(3, 5) ** 4))

    def test_rejects_small_k(self):
        with pytest.raises(DomainError):
            check_lemma_main(cfg(K=1), k=1)
        with pytest.raises(DomainError):
            check_lemma_main(cfg(n=1, K=6), k=2)


class TestLowestWeightBasis:
    def test_n1_single_step(self):
        # y_1* |0> = sqrt(1-q^4) |1> and (q^4;q^4)_1 = 1-q^4
        report = check_lowest_weight_basis(cfg(n=1, K=2))
        assert report.passed

    def test_n2_gram_identity(self):
        report = check_lowest_weight_basis(cfg(n=2, K=4))
        assert report.passed, report.witnesses[:2]

    def test_empty_grid_at_cutoff_zero(self):
        report = check_lowest_weight_basis(cfg(n=2, K=0))
        assert report.passed and report.max_residual == 0.0

    def test_large_cutoff_does_no_symbolic_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the basis check expanded a q-shifted factorial")

        monkeypatch.setattr(verify_mod, "qpochhammer", refuse)
        start = time.perf_counter()
        report = check_lowest_weight_basis(cfg(n=1, K=100, q0=Fraction(3, 5)))
        assert report.passed
        assert time.perf_counter() - start < 5.0


class TestRelationsInRep:
    def test_numeric_grid_point(self):
        report = check_relations_in_rep(cfg(n=2, q0=Fraction(3, 5), lam=1j, K=4))
        assert report.passed, report.witnesses[:2]

    def test_exact_mode_is_a_proof_for_every_cutoff(self):
        # The report does not depend on K, q0 or lambda; n = 10 fits only K <= 3.
        start = time.perf_counter()
        assert all(prove_relations_in_rep(n) == [] for n in range(1, 11))
        assert time.perf_counter() - start < 1.0
        for n in range(1, 11):
            report = check_relations_in_rep(cfg(n=n, K=2, lam=1j, mode="exact"))
            assert report.passed and report.max_residual == 0.0 and report.witnesses == []

    def test_exact_mode_gives_literal_zero(self):
        report = check_relations_in_rep(cfg(n=1, K=5, mode="exact"))
        assert report.passed
        assert report.max_residual == 0.0


class TestSuite:
    def test_all_suite_sigma(self):
        reports = run_suite("all", presentation_Sigma(1), cfg(n=1, K=4), m_max=2)
        assert len(reports) >= 5
        assert all(r.passed for r in reports), [str(r) for r in reports if not r.passed]

    def test_relations_only_for_s(self):
        reports = run_suite("relations", presentation_S(2), None)
        assert len(reports) == 1 and reports[0].passed

    def test_unknown_suite(self):
        with pytest.raises(DomainError):
            run_suite("bogus", presentation_Sigma(1), None)

    def test_named_suite_needs_rep_for_s(self):
        with pytest.raises(DomainError):
            run_suite("kernel", presentation_S(1), None)


# -- the singular-value paths, kept as references for the counting checks -------


def _dense(e, c):
    m = matrix(e, c)
    out = np.zeros((m.dim, m.dim), dtype=complex)
    out[m.rows, m.cols] = m.values
    return out


def _svd_kernel_basis(c, k):
    """Orthonormal basis (columns) of the joint kernel of y_1..y_k by SVD."""
    if k == 0:
        return np.eye(c.dim, dtype=complex)
    stacked = np.vstack([_dense(Element.of(y(i)), c) for i in range(1, k + 1)])
    _, sv, vh = np.linalg.svd(stacked)
    null = np.ones(c.dim, dtype=bool)
    null[: len(sv)] = sv < 1e-10
    return vh.conj().T[:, null]


def _svd_lemma_main_residual(c, k):
    """The lemma_main residual computed in an SVD basis of the joint kernel
    and lifted back to the full space."""
    mu = float(c.q0 ** (2 if k < c.n else 4))
    a_elem = Element.zero()
    for i in range(k + 1, c.n + 2):
        a_elem = a_elem + Element.of(y(i, True), y(i))
    basis = _svd_kernel_basis(c, k - 1)
    a_h = basis.conj().T @ _dense(a_elem, c) @ basis
    b_h = basis.conj().T @ _dense(Element.of(y(k)), c) @ basis
    bs_h = b_h.conj().T
    eye = np.eye(basis.shape[1])
    interior = np.array([max(idx) <= c.K - 2 for idx in fock_indices(c)])

    def masked_max(r):
        block = (basis @ r @ basis.conj().T)[np.ix_(interior, interior)]
        return float(np.max(np.abs(block))) if block.size else 0.0

    evals, evecs = np.linalg.eigh(eye - mu * a_h)
    u_op = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T @ b_h
    return max(masked_max(b_h @ bs_h - bs_h @ b_h - (1.0 - mu) * a_h),
               masked_max(a_h + bs_h @ b_h - eye),
               masked_max(mu * a_h - u_op @ a_h @ u_op.conj().T))


def _svd_kernel_dims(c):
    """Nullities of the stacked matrices of y_1..y_k, k = 1..n, by SVD."""
    dims = []
    for k in range(1, c.n + 1):
        stacked = np.vstack([_dense(Element.of(y(i)), c) for i in range(1, k + 1)])
        sv = np.linalg.svd(stacked, compute_uv=False)
        dims.append(int(np.sum(sv < 1e-10)) + max(0, c.dim - len(sv)))
    return dims


def _kernel_dims(c):
    return [(c.K + 1) ** (c.n - k) for k in range(1, c.n + 1)]


class TestAgainstSingularValues:
    def test_kernel_count_equals_svd_nullity(self):
        for n in (1, 2, 3):
            for K in range(6):
                c = cfg(n=n, K=K, q0=Fraction(1, 3) if K % 2 else Fraction(3, 5))
                assert _svd_kernel_dims(c) == _kernel_dims(c), (n, K)
                assert check_kernel_structure(c).passed

    def test_lemma_main_residuals_match_svd_basis(self):
        for n in (1, 2, 3):
            for K in (2, 3, 5) if n < 3 else (2, 3):
                for q0, lam in ((HALF, 1), (Fraction(3, 5), 1j), (Fraction(1, 3), -1)):
                    c = cfg(n=n, K=K, q0=q0, lam=lam)
                    for k in range(1, n + 1):
                        report = _numeric_lemma_main(c, k)
                        assert report.passed
                        assert abs(report.max_residual - _svd_lemma_main_residual(c, k)) < 1e-12


# -- the dense basis check, kept as the oracle for the basis proof -----------------


def _dense_lowest_weight_basis(c, table=shift_table):
    """Worst basis or Gram defect and the witness count, from the dense vectors
    of the raised grid and their full Gram matrix; the raising generators
    act through `table`."""
    n, K = c.n, c.K
    indices = fock_array(c)
    grid = np.flatnonzero(np.all(indices <= K - 1, axis=1))
    rank, amp = np.zeros(len(grid), dtype=np.int64), np.ones(len(grid), dtype=complex)
    for i in range(n, 0, -1):
        target, factor = table(c, y(i, True))
        for power in range(K - 1):
            more = indices[grid, i - 1] > power
            amp[more] *= factor[rank[more]]
            rank[more] = target[rank[more]]
    q = LaurentPoly.q
    norms = [math.prod(float(qpochhammer(q(step), q(step), ki).evaluate(c.q0))
                       for step, ki in zip([2] * (n - 1) + [4], k))
             for k in indices[grid].tolist()]
    vectors = np.zeros((len(grid), c.dim), dtype=complex)
    vectors[np.arange(len(grid)), rank] = amp / np.sqrt(norms)
    units = np.arange(c.dim) == grid[:, None]
    defects = np.max(np.abs(vectors - units), axis=1, initial=0.0)
    gram = vectors.conj() @ vectors.T
    gram_defect = float(np.max(np.abs(gram - np.eye(len(grid))), initial=0.0))
    witnesses = int(np.sum(defects > 1e-12)) + (gram_defect > 1e-12)
    return max(float(np.max(defects, initial=0.0)), gram_defect), witnesses


class TestReductionAgainstDense:
    @pytest.mark.parametrize("lam", [1, 1j])
    def test_basis_residuals_match_dense(self, lam):
        for n in (1, 2, 3):
            for K in range(6):
                for q0 in (HALF, Fraction(3, 5), Fraction(1, 3)):
                    c = cfg(n=n, K=K, q0=q0, lam=lam)
                    report = check_lowest_weight_basis(c)
                    residual, witnesses = _dense_lowest_weight_basis(c)
                    assert abs(report.max_residual - residual) < 1e-12, (n, K, q0)
                    assert len(report.witnesses) == witnesses

    def test_memory_stays_linear_in_dim(self):
        c = cfg(n=3, K=7)
        tracemalloc.start()
        try:
            for k in range(1, c.n + 1):
                _numeric_lemma_main(c, k)
            check_lowest_weight_basis(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


# -- the numeric operator check, kept as the oracle for the lemma-main proof --------

DEFINING_TOL = 1e-12
UNITARY_TOL = 1e-8


def _numeric_lemma_main(c, k, table=shift_table):
    """The lemma-main identities sampled on one truncation, y_k read through
    `table`: A's diagonal from `matrix`, B = y_k as a weighted shift, and
    BB*, B*B and U A U* compared elementwise on the interior of the leading
    (K+1)^(n-k+1) block.  A witness names the first rank that breaks the
    reduction (an off-diagonal entry of A, a live source of B mapped out of
    the block, a target B hits twice), a non-positive BB* or 1 - mu A, or
    an identity off by more than DEFINING_TOL."""
    mu = float(c.q0 ** (2 if k < c.n else 4))
    size = (c.K + 1) ** (c.n - k + 1)
    report = CheckReport("lemma_main", {"k": k, "mu": mu}, tolerance=UNITARY_TOL)

    a_elem = sum((Element.of(y(i, True), y(i)) for i in range(k + 1, c.n + 2)), Element.zero())
    a_mat = matrix(a_elem, c)
    in_block = (a_mat.rows < size) & (a_mat.cols < size)
    target, amp = table(c, y(k))
    src = np.flatnonzero(amp[:size] != 0)
    tgt = target[src]
    broken = {"A_diagonal": a_mat.cols[in_block & (a_mat.rows != a_mat.cols)],
              "B_in_block": src[tgt >= size],
              "B_injective": np.flatnonzero(np.bincount(tgt) > 1)}
    report.witnesses = [{"reduction": name, "rank": int(ranks[0])}
                        for name, ranks in broken.items() if ranks.size]
    if report.witnesses:
        return report

    a = np.zeros(size, dtype=complex)
    a[a_mat.rows[in_block]] = a_mat.values[in_block]
    b2 = np.abs(amp[src]) ** 2
    bsb, bbs, uau = np.zeros(size), np.zeros(size), np.zeros(size, dtype=complex)
    bsb[src], bbs[tgt] = b2, b2
    inside = np.all(fock_array(c)[:size] <= c.K - 2, axis=1)
    s_op = 1.0 - mu * a.real
    for name, values in (("BB*", bbs[inside]), ("1 - mu A", s_op)):
        if float(np.min(values, initial=np.inf)) <= 0.0:
            report.witnesses.append({"positive": name})
    if report.witnesses:
        return report
    uau[tgt] = b2 * a[src] / s_op[tgt]
    r1, r2, r3 = (float(np.max(np.abs(residual[inside]), initial=0.0))
                  for residual in (bbs - bsb - (1.0 - mu) * a, a + bsb - 1.0, mu * a - uau))
    for name, residual in (("commutator", r1), ("sphere", r2)):
        if residual > DEFINING_TOL:
            report.witnesses.append({"identity": name, "residual": residual})
    report.max_residual = max(r1, r2, r3)
    return report


def _edited_y_table(k, edit):
    """shift_table, with edit(c, starred, target copy, amp copy) applied for y_k and y_k*."""
    def edited(c, g):
        target, amp = shift_table(c, g)
        if g.index != k:
            return target, amp
        target, amp = target.copy(), amp.copy()
        edit(c, g.starred, target, amp)
        return target, amp

    return edited


class TestMutations:
    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    def test_scaled_amplitude_fails_both_checks(self, n, k):
        def scale(c, starred, target, amp):
            # y_k e_k -> |0> and y_k* |0> -> e_k, both scaled: still an adjoint pair
            amp[0 if starred else (c.K + 1) ** (c.n - k)] *= 1 + 1e-6

        # the lemma-main and basis proofs read no table, so the oracles stand in for them
        c = cfg(n=n, K=4, q0=Fraction(3, 5), lam=1j)
        assert _numeric_lemma_main(c, k).passed and _dense_lowest_weight_basis(c)[1] == 0
        table = _edited_y_table(k, scale)
        assert not _numeric_lemma_main(c, k, table).passed
        assert _dense_lowest_weight_basis(c, table)[1] > 0

    def test_non_diagonal_a_is_a_witness(self, monkeypatch):
        real = rep_mod.matrix

        def with_off_diagonal(e, c):
            m = real(e, c)
            return SparseMatrix(m.dim, np.append(m.rows, 1), np.append(m.cols, 0),
                                np.append(m.values, 1e-3))

        monkeypatch.setitem(globals(), "matrix", with_off_diagonal)  # as the oracle reads it
        report = _numeric_lemma_main(cfg(n=2, K=4), k=1)
        assert not report.passed
        assert report.witnesses == [{"reduction": "A_diagonal", "rank": 0}]

    def test_non_injective_b_is_a_witness(self):
        def merge(c, starred, target, amp):
            if not starred:
                target[2] = target[1]

        report = _numeric_lemma_main(cfg(n=2, K=4), k=2, table=_edited_y_table(2, merge))
        assert not report.passed
        assert report.witnesses == [{"reduction": "B_injective", "rank": 0}]

    def test_image_outside_block_is_a_witness(self):
        def leave(c, starred, target, amp):
            if not starred:
                target[1] = c.K + 1

        report = _numeric_lemma_main(cfg(n=2, K=4), k=2, table=_edited_y_table(2, leave))
        assert not report.passed
        assert report.witnesses == [{"reduction": "B_in_block", "rank": 1}]


# -- from-scratch normalization of every power, kept as an oracle for the proof --


def _scratch_lemma_aux(p, m_max):
    """(i, m, normal form) for every power identity that does not normalize to 0,
    each normalized from scratch."""
    found = []
    for i in range(1, p.n + 1):
        for m in range(1, m_max + 1):
            nf = normalize(lemma_aux_identity(p.n, i, m), p)
            if not nf.is_zero():
                found.append((i, m, str(nf)))
    return found


def _with_perturbed_rule(p, i, c):
    """p with c q added to the first term of the y_i y_i* rule."""
    return _with_rule(p, (y(i), y(i, True)),
                      lambda rhs: rhs + Element.from_word(rhs.items()[0][0], LaurentPoly.q(1, c)))


class TestLemmaAuxAgainstScratch:
    M_MAX = 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_normal_forms_equal(self, n):
        p = presentation_Sigma(n)
        report = check_lemma_aux(p, self.M_MAX)
        assert report.passed
        assert _scratch_lemma_aux(p, self.M_MAX) == []

    @pytest.mark.parametrize("n,i,c", [(1, 1, 1), (2, 1, 1), (2, 2, Fraction(-1, 2)),
                                       (3, 1, 2), (3, 3, 1), (4, 1, Fraction(1, 3)), (4, 4, -1)])
    def test_perturbed_rule_fails_with_the_same_witnesses(self, n, i, c):
        p = _with_perturbed_rule(presentation_Sigma(n), i, c)
        report = check_lemma_aux(p, self.M_MAX)
        scratch = _scratch_lemma_aux(p, self.M_MAX)
        assert not report.passed and scratch
        assert [(w["i"], w["m"], w["normal_form"]) for w in report.witnesses] == \
               [found for found in scratch if found[1] <= 2]


# -- mutations of the shared generator description ------------------------------


MUTATIONS = {
    "step 2 in the last slot": lambda n, s: replace(s, step=2) if s.step and s.slot == n - 1 else s,
    "lambda for conj(lambda)": lambda n, s: replace(s, power=1) if s.power else s,
    "prefix one index too long":
        lambda n, s: replace(s, prefix=(1,) * (s.slot + 1) + (0,) * (n - 1 - s.slot)) if s.step else s,
    "lowering root with offset 1": lambda n, s: replace(s, offset=1) if s.move < 0 else s,
    "lowering by two": lambda n, s: replace(s, move=-2) if s.move < 0 else s,
}


@pytest.fixture
def mutate(monkeypatch):
    """mutate(name) makes both modes read a mutated `rep.generator_shift`."""
    real = rep_mod.generator_shift

    def apply(name):
        edit = MUTATIONS[name]
        monkeypatch.setattr(rep_mod, "generator_shift", lambda n, g: edit(n, real(n, g)))
        rep_mod.shift_table.cache_clear()

    yield apply
    rep_mod.shift_table.cache_clear()


class TestGenericProof:
    @pytest.mark.parametrize("name", MUTATIONS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mutation_fails_both_checks(self, mutate, name, n):
        mutate(name)
        lam = UNIT_LAMBDAS[2]
        exact = check_relations_in_rep(cfg(n=n, K=4, lam=lam, mode="exact"))
        numeric = check_relations_in_rep(cfg(n=n, K=4, lam=lam))
        assert not exact.passed and exact.witnesses and exact.max_residual > 0
        assert not numeric.passed and numeric.witnesses
        for w in exact.witnesses:
            assert set(w) == {"relation", "shift", "root", "coefficient", "residual"}
            assert len(w["shift"]) == n and w["coefficient"] not in ("", "0")
        json.dumps(exact.to_json())

    def test_failing_lemma_main_names_the_coefficient(self, mutate):
        # n = k = 1, s = 2 in place of 4 on y1: with A = y2* y2 = t1^4 on |k>,
        # B B* - B* B - (1 - q^4) A is (1 - q^2 t1^2) - (1 - t1^2) - (1 - q^4) t1^4
        # and A + B* B - 1 is t1^4 + (1 - t1^2) - 1.
        mutate("step 2 in the last slot")
        report = check_lemma_main(cfg(n=1, K=4, mode="exact"), 1)
        assert report.witnesses == [
            {"identity": "commutator", "shift": [0], "root": [],
             "coefficient": "t1^2 - t1^4 - q^2*t1^2 + q^4*t1^4", "residual": 1.0},
            {"identity": "sphere", "shift": [0], "root": [],
             "coefficient": "-t1^2 + t1^4", "residual": 1.0}]
        assert report.max_residual == 1.0 and not report.passed

    def test_failing_report_names_the_coefficient(self, mutate):
        # n = 1, s = 2: y1 y1* - y1* y1 - (1 - q^4) y2* y2 on |k> is
        # (1 - q^2 t1^2) - (1 - t1^2) - (1 - q^4) t1^4, and the sphere
        # relation (1 - t1^2) + t1^4 - 1.
        mutate("step 2 in the last slot")
        assert prove_relations_in_rep(1) == [
            {"relation": "diag[1]", "shift": [0], "root": [],
             "coefficient": "t1^2 - t1^4 - q^2*t1^2 + q^4*t1^4", "residual": 1.0},
            {"relation": "sphere", "shift": [0], "root": [],
             "coefficient": "-t1^2 + t1^4", "residual": 1.0}]

    @pytest.mark.parametrize("name", [None, *MUTATIONS])
    @pytest.mark.parametrize("n,K", [(n, K) for n in (1, 2, 3) for K in (2, 3, 4, 5)])
    def test_verdicts_agree_with_numeric(self, mutate, name, n, K):
        # conj(lambda) = lambda for real lambda, so a mutated description is
        # compared at lambdas off the real line only.
        if name is not None:
            mutate(name)
        for lam in UNIT_LAMBDAS if name is None else UNIT_LAMBDAS[1:]:
            numeric = check_relations_in_rep(cfg(n=n, K=K, lam=lam))
            exact = check_relations_in_rep(cfg(n=n, K=K, lam=lam, mode="exact"))
            assert exact.passed == numeric.passed == (name is None), lam


ORACLE_GRID = [(n, K, q0, lam) for n in (1, 2, 3) for K in range(6) for q0 in GUARD_POINTS
               for lam in (1, 1j, complex(0.6, 0.8))]


class TestProofsAgainstOracles:
    """Each proof is at least as strong as the sampler it replaced: wherever
    a dense oracle fails on the grid, plain or under a mutation of the
    generator description, the proof fails too."""

    @staticmethod
    def verdicts(check, oracle_fails):
        """(proof passed, oracle failed) for each grid point."""
        return [(check(c).passed, oracle_fails(c))
                for c in (cfg(n, q0, lam, K) for n, K, q0, lam in ORACLE_GRID)]

    @pytest.mark.parametrize("name", [None, *MUTATIONS])
    def test_kernel_proof_fails_where_svd_nullity_does(self, mutate, name):
        if name is not None:
            mutate(name)
        verdicts = self.verdicts(check_kernel_structure,
                                 lambda c: _svd_kernel_dims(c) != _kernel_dims(c))
        assert not any(passed and failed for passed, failed in verdicts)
        # the oracle sees the shift by two only; the proof also refutes the root with offset 1
        refuted = ("lowering root with offset 1", "lowering by two")
        assert any(failed for _, failed in verdicts) == (name == "lowering by two")
        assert all(passed for passed, _ in verdicts) == (name not in refuted)

    @pytest.mark.parametrize("name", [None, *MUTATIONS])
    def test_basis_proof_fails_where_the_dense_basis_does(self, mutate, name):
        if name is not None:
            mutate(name)
        verdicts = self.verdicts(check_lowest_weight_basis,
                                 lambda c: _dense_lowest_weight_basis(c)[1] > 0)
        assert not any(passed and failed for passed, failed in verdicts)
        refuted = ("step 2 in the last slot", "prefix one index too long")
        assert any(failed for _, failed in verdicts) == (name in refuted)
        assert all(passed for passed, _ in verdicts) == (name not in refuted)

    @pytest.mark.parametrize("name", [None, *MUTATIONS])
    def test_lemma_main_proof_fails_where_the_numeric_check_does(self, mutate, name):
        if name is not None:
            mutate(name)
        verdicts = [(check_lemma_main(c, k).passed, not _numeric_lemma_main(c, k).passed)
                    for n, K, q0, lam in ORACLE_GRID if K >= 2
                    for c in [cfg(n, q0, lam, K)] for k in range(1, n + 1)]
        assert len(verdicts) == 216
        if name is None:
            assert all(passed and not failed for passed, failed in verdicts)
        else:  # the proof refutes every point, the oracle only some
            assert not any(passed for passed, _ in verdicts)
            assert any(failed for _, failed in verdicts)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kernel_proof_refutes_a_root_the_tables_mask(self, mutate, n):
        # a table kills k_i = 0 by its bounds, whatever the root says there
        mutate("lowering root with offset 1")
        c = cfg(n=n, K=4, lam=1j)
        assert _svd_kernel_dims(c) == _kernel_dims(c)
        assert check_kernel_structure(c).witnesses == [
            {"generator": f"y{i}", "premise": "root sqrt(1 - t_i^s), s > 0"} for i in range(1, n + 1)]


class TestStatementsTakeNoElementProducts:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_power_identities_and_images(self, n, monkeypatch):
        def refuse(*args):
            raise AssertionError("an Element product was taken")

        # the presentation and the relation set are built before the patch
        p = presentation_Sigma(n)
        relations_Sigma(n)
        monkeypatch.setattr(Element, "__mul__", refuse)
        monkeypatch.setattr(Element, "__pow__", refuse)
        assert check_lemma_aux(p, 12).passed
        assert prove_relations_in_rep(n) == []
        assert all(check_lemma_main(cfg(n=n, K=2, mode="exact"), k).passed for k in range(1, n + 1))


class TestImagesIgnoreTermOrder:
    @pytest.mark.parametrize("name", [None, *MUTATIONS])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reversed_terms_give_the_same_image(self, mutate, name, n):
        if name is not None:
            mutate(name)
        nonzero = 0
        for _, rel in relations_Sigma(n):
            # a relation, and its words with unit coefficients, whose image does not cancel
            for e in (rel, Element({w: LaurentPoly.one() for w in rel.words()})):
                terms = list(e.terms())
                backwards = Element(dict(reversed(terms)))
                assert list(backwards.terms()) == terms[::-1]
                image = rep_mod.generic_image(e, n)
                assert rep_mod.generic_image(backwards, n) == image
                nonzero += bool(image)
        assert nonzero


class TestTableLimit:
    """(K+1)^n > 2^20 is refused when a numeric configuration is built; an
    exact one builds no numeric object, so the exact relations proof and the
    lemma-main, kernel and basis proofs take any cutoff."""

    REFUSED = r"\(K\+1\)\^n = 11\^6 basis vectors exceed the limit of 1048576"
    GATE = "refuse exact mode: it is only honoured by the relations check"

    def test_exact_relations_take_any_cutoff(self):
        for K in (10, 12, 1000):
            report = check_relations_in_rep(cfg(n=6, K=K, lam=1j, mode="exact"))
            assert report.passed and report.witnesses == []

    def test_numeric_configuration_is_refused(self):
        with pytest.raises(DomainError, match=self.REFUSED):
            cfg(n=6, K=10)

    @pytest.mark.parametrize("suite", ["kernel", "basis", "lemma-main"])
    def test_exact_kernel_and_basis_take_any_cutoff(self, suite, monkeypatch):
        def refuse(*args):
            raise AssertionError("a table was built")

        for module in (rep_mod, verify_mod):
            monkeypatch.setattr(module, "fock_array", refuse)
        monkeypatch.setattr(rep_mod, "shift_table", refuse)
        for K in (10, 1000):
            reports = run_suite(suite, presentation_Sigma(6), cfg(n=6, K=K, lam=1j, mode="exact"))
            assert len(reports) == (6 if suite == "lemma-main" else 1)
            assert all(r.passed and r.witnesses == [] and r.params["K"] == K for r in reports)

    @pytest.mark.parametrize("build", [
        fock_array,
        lambda c: shift_table(c, y(1)),
        lambda c: matrix(Element.of(y(1)), c),
        lambda c: basis_state(c, (0,) * 6),
        lambda c: apply_element(Element.of(y(1)), {(0,) * 6: 1.0}, c),
        yn1_spectrum,
    ], ids=["fock_array", "shift_table", "matrix", "basis_state", "apply_element", "yn1_spectrum"])
    def test_exact_tables_are_refused_before_allocation(self, build):
        c = cfg(n=6, K=10, mode="exact")
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=self.GATE):
                build(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # a table of 11^6 vectors takes at least 1.7 MB


# -- caches hold statements, never verdicts ---------------------------------------

STATEMENT_CACHES = (relations_S, relations_Sigma, rep_mod.generator_shift,
                    rep_mod.shift_table)


def _cold():
    """Empty every cache of statements, as in a fresh process."""
    for cached in STATEMENT_CACHES:
        cached.cache_clear()


class TestStatementCaches:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_relation_sets_are_shared_tuples_equal_to_a_fresh_build(self, n):
        for build in (relations_S, relations_Sigma):
            rels = build(n)
            assert isinstance(rels, tuple) and build(n) is rels
            fresh = build.__wrapped__(n)
            assert fresh is not rels and fresh == rels

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_a_second_call_repeats_the_work(self, n, monkeypatch):
        normalized, imaged = [], []

        def counted_normalize(e, p):
            normalized.append(e)
            return normalize(e, p)

        def counted_image(e, n):
            imaged.append(e)
            return rep_mod.generic_image(e, n)

        monkeypatch.setattr(verify_mod, "normalize", counted_normalize)
        monkeypatch.setattr(verify_mod, "generic_image", counted_image)
        raw = [rel for name, rel in relations_S(n) if not name.startswith("sphere")]
        checks = [
            (lambda: check_symbolic_relations(presentation_Sigma(n)), normalized,
             [rel for _, rel in relations_Sigma(n)]),
            (lambda: check_symbolic_relations(presentation_S(n, False)), normalized, raw),
            (lambda: prove_relations_in_rep(n), imaged, [rel for _, rel in relations_Sigma(n)]),
            (lambda: check_lemma_aux(presentation_Sigma(n), 5), normalized,
             [lemma_aux_identity(n, i, m) for i in range(1, n + 1) for m in (1, 2)]),
        ]
        for check, calls, work in checks:
            results = []
            for _ in range(2):
                calls.clear()
                results.append(check())
                assert calls == work
            first, second = results
            assert first is not second
            assert first == second


class TestWarmCachesCannotMaskMutations:
    LAMBDA = UNIT_LAMBDAS[2]

    def relations_reports(self, n):
        return [check_relations_in_rep(cfg(n=n, K=4, lam=self.LAMBDA, mode=mode)).to_json()
                for mode in ("exact", "numeric")]

    def warm(self, n):
        """Fill every statement cache with passing checks."""
        assert all(r["passed"] for r in self.relations_reports(n))
        assert check_lemma_aux(presentation_Sigma(n), 5).passed

    @pytest.mark.parametrize("name", MUTATIONS)
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generator_shift_mutation(self, mutate, name, n):
        self.warm(n)
        mutate(name)
        warm = self.relations_reports(n)
        _cold()
        assert warm == self.relations_reports(n)
        assert all(not r["passed"] and r["witnesses"] for r in warm)

    @pytest.mark.parametrize("knobs,expected", [
        ({"tail": False}, lambda n: [(i, m) for i in range(2, n + 1) for m in (1, 2)]),
        ({"step": 2}, lambda n: [(n, 1), (n, 2)]),
        ({"tail_m": 1}, lambda n: [(i, 2) for i in range(1, n + 1)]),
    ])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lemma_aux_knob(self, monkeypatch, knobs, expected, n):
        self.warm(n)
        monkeypatch.setattr(verify_mod, "lemma_aux_identity",
                            lambda n, i, m: _power_identity(n, i, m, **knobs))
        warm = check_lemma_aux(presentation_Sigma(n), 5).witnesses
        _cold()
        assert warm == check_lemma_aux(presentation_Sigma(n), 5).witnesses
        assert [(w["i"], w["m"]) for w in warm] == expected(n)
