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
    fock_array,
    fock_indices,
    is_interior,
    matrix,
    shift_table,
)
from qsphere.scalar import DomainError, LaurentPoly, qpochhammer
from qsphere.verify import (
    SCATTER_MIDDLE_MAX,
    check_confluence,
    check_kernel_structure,
    check_lemma_aux,
    check_lemma_main,
    check_lowest_weight_basis,
    check_relations_in_rep,
    check_symbolic_relations,
    joint_kernel_dims,
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
        assert all(_power_identity(n, i, m) == lemma_aux_identity(n, i, m)
                   for n in range(1, 4) for i in range(1, n + 1) for m in range(1, 5))

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
        dims = joint_kernel_dims(cfg(n=2, K=3))
        assert dims == [4, 1]

    def test_lowest_weight_space_always_one_dim(self):
        for n in (1, 2):
            for K in (3, 4):
                dims = joint_kernel_dims(cfg(n=n, K=K, q0=Fraction(1, 3)))
                assert dims[-1] == 1

    def test_n1_k5(self):
        assert joint_kernel_dims(cfg(n=1, K=5)) == [1]

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
        p = presentation_Sigma(2, sphere_reduction=False)
        report = check_relations_in_rep(cfg(n=2, q0=Fraction(3, 5), lam=1j, K=4), p)
        assert report.passed, report.witnesses[:2]

    def test_exact_mode_is_a_proof_for_every_cutoff(self):
        # The report does not depend on K, q0 or lambda; n = 10 fits only K <= 3.
        start = time.perf_counter()
        assert all(prove_relations_in_rep(n) == [] for n in range(1, 11))
        assert time.perf_counter() - start < 1.0
        for n in range(1, 11):
            p = presentation_Sigma(n, sphere_reduction=False)
            report = check_relations_in_rep(cfg(n=n, K=2, lam=1j, mode="exact"), p)
            assert report.passed and report.max_residual == 0.0 and report.witnesses == []

    def test_exact_mode_gives_literal_zero(self):
        p = presentation_Sigma(1, sphere_reduction=False)
        report = check_relations_in_rep(cfg(n=1, K=5, mode="exact"), p)
        assert report.passed
        assert report.max_residual == 0.0

    def test_requires_raw_presentation(self):
        with pytest.raises(DomainError):
            check_relations_in_rep(cfg(n=1), presentation_Sigma(1))

    def test_requires_matching_n(self):
        with pytest.raises(DomainError):
            check_relations_in_rep(cfg(n=2), presentation_Sigma(1, sphere_reduction=False))


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
    interior = np.array([is_interior(idx, c) for idx in fock_indices(c)])

    def masked_max(r):
        block = (basis @ r @ basis.conj().T)[np.ix_(interior, interior)]
        return float(np.max(np.abs(block))) if block.size else 0.0

    evals, evecs = np.linalg.eigh(eye - mu * a_h)
    u_op = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T @ b_h
    return max(masked_max(b_h @ bs_h - bs_h @ b_h - (1.0 - mu) * a_h),
               masked_max(a_h + bs_h @ b_h - eye),
               masked_max(mu * a_h - u_op @ a_h @ u_op.conj().T))


class TestAgainstSingularValues:
    def test_kernel_count_equals_svd_nullity(self):
        for n in (1, 2, 3):
            for K in range(6):
                c = cfg(n=n, K=K, q0=Fraction(1, 3) if K % 2 else Fraction(3, 5))
                want = []
                for k in range(1, n + 1):
                    stacked = np.vstack([_dense(Element.of(y(i)), c) for i in range(1, k + 1)])
                    sv = np.linalg.svd(stacked, compute_uv=False)
                    want.append(int(np.sum(sv < 1e-10)) + max(0, c.dim - len(sv)))
                assert joint_kernel_dims(c) == want, (n, K)

    def test_lemma_main_residuals_match_svd_basis(self):
        for n in (1, 2, 3):
            for K in (2, 3, 5) if n < 3 else (2, 3):
                for q0, lam in ((HALF, 1), (Fraction(3, 5), 1j), (Fraction(1, 3), -1)):
                    c = cfg(n=n, K=K, q0=q0, lam=lam)
                    for k in range(1, n + 1):
                        report = check_lemma_main(c, k)
                        assert report.passed
                        assert abs(report.max_residual - _svd_lemma_main_residual(c, k)) < 1e-12


# -- the dense basis check, kept as the reference for the one-entry reduction ----


def _dense_lowest_weight_basis(c):
    """Worst basis or Gram defect and the witness count, from the dense vectors
    of the raised grid and their full Gram matrix."""
    n, K = c.n, c.K
    indices = fock_array(c)
    grid = np.flatnonzero(np.all(indices <= K - 1, axis=1))
    rank, amp = np.zeros(len(grid), dtype=np.int64), np.ones(len(grid), dtype=complex)
    for i in range(n, 0, -1):
        target, factor = shift_table(c, y(i, True))
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
                check_lemma_main(c, k)
            check_lowest_weight_basis(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


def _patch_y_table(monkeypatch, k, edit):
    """Make the checks read edit(starred, target copy, amp copy) for y_k and y_k*."""
    real = verify_mod.shift_table

    def edited(c, g):
        target, amp = real(c, g)
        if g.index != k:
            return target, amp
        target, amp = target.copy(), amp.copy()
        edit(c, g.starred, target, amp)
        return target, amp

    monkeypatch.setattr(verify_mod, "shift_table", edited)


class TestMutations:
    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
    def test_scaled_amplitude_fails_both_checks(self, monkeypatch, n, k):
        def scale(c, starred, target, amp):
            # y_k e_k -> |0> and y_k* |0> -> e_k, both scaled: still an adjoint pair
            amp[0 if starred else (c.K + 1) ** (c.n - k)] *= 1 + 1e-6

        c = cfg(n=n, K=4, q0=Fraction(3, 5), lam=1j)
        assert check_lemma_main(c, k).passed and check_lowest_weight_basis(c).passed
        _patch_y_table(monkeypatch, k, scale)
        assert not check_lemma_main(c, k).passed
        assert not check_lowest_weight_basis(c).passed

    def test_non_diagonal_a_is_a_witness(self, monkeypatch):
        def with_off_diagonal(e, c):
            m = matrix(e, c)
            return SparseMatrix(m.dim, np.append(m.rows, 1), np.append(m.cols, 0),
                                np.append(m.values, 1e-3))

        monkeypatch.setattr(verify_mod, "matrix", with_off_diagonal)
        report = check_lemma_main(cfg(n=2, K=4), k=1)
        assert not report.passed
        assert report.witnesses == [{"reduction": "A_diagonal", "rank": 0}]

    def test_non_injective_b_is_a_witness(self, monkeypatch):
        def merge(c, starred, target, amp):
            if not starred:
                target[2] = target[1]

        _patch_y_table(monkeypatch, 2, merge)
        report = check_lemma_main(cfg(n=2, K=4), k=2)
        assert not report.passed
        assert report.witnesses == [{"reduction": "B_injective", "rank": 0}]

    def test_image_outside_block_is_a_witness(self, monkeypatch):
        def leave(c, starred, target, amp):
            if not starred:
                target[1] = c.K + 1

        _patch_y_table(monkeypatch, 2, leave)
        report = check_lemma_main(cfg(n=2, K=4), k=2)
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
        p = presentation_Sigma(n, sphere_reduction=False)
        lam = UNIT_LAMBDAS[2]
        exact = check_relations_in_rep(cfg(n=n, K=4, lam=lam, mode="exact"), p)
        numeric = check_relations_in_rep(cfg(n=n, K=4, lam=lam), p)
        assert not exact.passed and exact.witnesses and exact.max_residual > 0
        assert not numeric.passed and numeric.witnesses
        for w in exact.witnesses:
            assert set(w) == {"relation", "shift", "root", "coefficient", "residual"}
            assert len(w["shift"]) == n and w["coefficient"] not in ("", "0")
        json.dumps(exact.to_json())

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
        p = presentation_Sigma(n, sphere_reduction=False)
        for lam in UNIT_LAMBDAS if name is None else UNIT_LAMBDAS[1:]:
            numeric = check_relations_in_rep(cfg(n=n, K=K, lam=lam), p)
            exact = check_relations_in_rep(cfg(n=n, K=K, lam=lam, mode="exact"), p)
            assert exact.passed == numeric.passed == (name is None), lam


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
        p = presentation_Sigma(n, sphere_reduction=False)
        return [check_relations_in_rep(cfg(n=n, K=4, lam=self.LAMBDA, mode=mode), p).to_json()
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
