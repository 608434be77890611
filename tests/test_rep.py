"""Tests for the truncated representation layer."""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qsphere.algebra import Element, Word, normalize, presentation_Sigma, relations_Sigma, y
from qsphere.expr import parse
import qsphere.rep as rep_mod
from qsphere.rep import (
    ExactAmp,
    RepConfig,
    SparseMatrix,
    StateVector,
    apply_element,
    apply_generator,
    basis_state,
    fock_indices,
    index_of,
    is_interior,
    matrix,
    matrix_json,
    rank_of,
    yn1_spectrum,
)
from qsphere.scalar import DomainError, LaurentPoly, RadicalScalar, RadicalSum
from qsphere.verify import GUARD_POINTS, check_relations_in_rep

ONE = LaurentPoly.one()
Q = LaurentPoly.q
HALF = Fraction(1, 2)


def cfg(n=1, q0=HALF, lam=1, K=6, mode="numeric", lam_exact=None):
    return RepConfig(n, q0, lam, K, mode, lam_exact)


def dense(m):
    out = np.zeros((m.dim, m.dim), dtype=complex)
    out[m.rows, m.cols] = m.values
    return out


def sphere_element(n):
    e = Element.zero()
    for i in range(1, n + 2):
        e = e + Element.of(y(i, True), y(i))
    return e


class TestConfig:
    def test_rejects_bad_q0(self):
        with pytest.raises(DomainError):
            cfg(q0=Fraction(3, 2))
        with pytest.raises(DomainError):
            cfg(q0=Fraction(0))

    def test_rejects_non_unit_lambda(self):
        with pytest.raises(DomainError):
            cfg(lam=2.0)
        with pytest.raises(DomainError):
            cfg(lam_exact=(Fraction(1), Fraction(1)))

    @pytest.mark.parametrize("lam", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(DomainError, match="not finite"):
            cfg(lam=lam)

    def test_exact_mode_needs_exact_lambda(self):
        with pytest.raises(DomainError):
            cfg(lam=complex(math.cos(0.3), math.sin(0.3)), mode="exact")
        cfg(lam=1j, mode="exact")

    def test_pythagorean_lambda(self):
        c = cfg(lam=complex(0.6, 0.8), lam_exact=(Fraction(3, 5), Fraction(4, 5)), mode="exact")
        assert c.lam == complex(0.6, 0.8)

    def test_refuses_size_before_allocating(self, monkeypatch):
        def no_fock_array(c):
            raise AssertionError("fock_array ran for a refused size")

        monkeypatch.setattr(rep_mod, "fock_array", no_fock_array)
        with pytest.raises(DomainError, match="31\\^10"):
            cfg(n=10, K=30)

    def test_rank_round_trip(self):
        c = cfg(n=3, K=2)
        for k in fock_indices(c):
            assert index_of(rank_of(k, c), c) == k


class TestApplyGenerator:
    def test_lowering_kills_vacuum(self):
        c = cfg()
        assert apply_generator(y(1), basis_state(c, (0,)), c).is_zero()

    def test_diagonal_action(self):
        # n=1, lambda=1: y_2 |3> = q^6 |3>
        c = cfg(K=5)
        v = apply_generator(y(2), basis_state(c, (3,)), c)
        assert set(v.amplitudes) == {(3,)}
        assert abs(v.amplitudes[(3,)] - float(HALF ** 6)) < 1e-15

    def test_raising_factor_n1(self):
        # n=1: y_1* |k> = sqrt(1 - q^(4k+4)) |k+1>
        c = cfg(K=5)
        for k in range(4):
            v = apply_generator(y(1, True), basis_state(c, (k,)), c)
            assert set(v.amplitudes) == {(k + 1,)}
            want = math.sqrt(1 - float(HALF ** (4 * k + 4)))
            assert abs(v.amplitudes[(k + 1,)] - want) < 1e-15

    def test_truncation_annihilates(self):
        c = cfg(K=3)
        assert apply_generator(y(1, True), basis_state(c, (3,)), c).is_zero()

    def test_prefix_exponent(self):
        # n=2: y_2 |k> carries q^(k_1)
        c = cfg(n=2, K=4)
        v = apply_generator(y(2), basis_state(c, (3, 2)), c)
        want = float(HALF ** 3) * math.sqrt(1 - float(HALF ** 8))
        assert abs(v.amplitudes[(3, 1)] - want) < 1e-15

    def test_rejects_foreign_generator(self):
        c = cfg(n=1)
        with pytest.raises(DomainError):
            apply_generator(y(3), basis_state(c, (0,)), c)

    def test_exact_matches_numeric(self):
        ce = cfg(n=2, K=3, lam=1j, mode="exact")
        cn = cfg(n=2, K=3, lam=1j, mode="numeric")
        rng = random.Random(3)
        for _ in range(20):
            k = tuple(rng.randint(0, 3) for _ in range(2))
            g = y(rng.randint(1, 3), rng.random() < 0.5)
            ve = apply_generator(g, basis_state(ce, k), ce)
            vn = apply_generator(g, basis_state(cn, k), cn)
            assert set(ve.amplitudes) == set(vn.amplitudes)
            for kk, amp in ve.amplitudes.items():
                assert abs(amp.evaluate(HALF) - vn.amplitudes[kk]) < 1e-13


class TestApplyElement:
    def test_unit_acts_trivially(self):
        c = cfg(n=2, K=3)
        v = basis_state(c, (1, 2))
        assert apply_element(Element.one(), v, c).amplitudes == v.amplitudes

    def test_sphere_sum_is_identity_everywhere(self):
        for n in (1, 2):
            c = cfg(n=n, K=3, q0=Fraction(2, 5))
            e = sphere_element(n)
            for k in fock_indices(c):
                out = apply_element(e, basis_state(c, k), c)
                assert set(out.amplitudes) == {k}
                assert abs(out.amplitudes[k] - 1.0) < 1e-14

    def test_lowering_raising_product(self):
        # n=1, q0=1/2: y_1 y_1* |0> = (1 - q^4)|0> = 15/16 |0>
        c = cfg()
        out = apply_element(Element.of(y(1), y(1, True)), basis_state(c, (0,)), c)
        assert set(out.amplitudes) == {(0,)}
        assert abs(out.amplitudes[(0,)] - 15 / 16) < 1e-15

    def test_exact_sphere_sum(self):
        c = cfg(n=1, K=4, mode="exact")
        e = sphere_element(1)
        for k in fock_indices(c):
            out = apply_element(e, basis_state(c, k), c)
            assert set(out.amplitudes) == {k}
            amp = out.amplitudes[k]
            assert amp.im.is_zero()
            assert amp.re == __import__("qsphere.scalar", fromlist=["RadicalSum"]).RadicalSum.one()

    def test_representation_property(self):
        rng = random.Random(55)
        p = presentation_Sigma(2)
        c = cfg(n=2, K=5, q0=Fraction(3, 5), lam=1j)
        gens = p.generators
        for _ in range(15):
            a = Element.from_word(Word(tuple(rng.choice(gens) for _ in range(rng.randint(1, 3)))))
            b = Element.from_word(Word(tuple(rng.choice(gens) for _ in range(rng.randint(1, 3)))))
            for k in fock_indices(c):
                if not is_interior(k, c):
                    continue
                v = basis_state(c, k)
                lhs = apply_element(a * b, v, c)
                rhs = apply_element(a, apply_element(b, v, c), c)
                keys = set(lhs.amplitudes) | set(rhs.amplitudes)
                for kk in keys:
                    diff = lhs.amplitudes.get(kk, 0) - rhs.amplitudes.get(kk, 0)
                    assert abs(diff) < 1e-12

    def test_representation_property_exact(self):
        rng = random.Random(58)
        p = presentation_Sigma(1)
        c = cfg(n=1, K=4, lam=1j, mode="exact")
        gens = p.generators
        for _ in range(10):
            a = Element.from_word(Word(tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))))
            b = Element.from_word(Word(tuple(rng.choice(gens) for _ in range(rng.randint(1, 2)))))
            for k in fock_indices(c):
                if not is_interior(k, c):
                    continue
                v = basis_state(c, k)
                lhs = apply_element(a * b, v, c)
                rhs = apply_element(a, apply_element(b, v, c), c)
                assert set(lhs.amplitudes) == set(rhs.amplitudes)
                for kk in lhs.amplitudes:
                    assert lhs.amplitudes[kk] == rhs.amplitudes[kk]

    def test_normal_form_compatibility(self):
        rng = random.Random(77)
        p = presentation_Sigma(2, sphere_reduction=False)
        c = cfg(n=2, K=5)
        for _ in range(25):
            w = Word(tuple(rng.choice(p.generators) for _ in range(2)))
            e = Element.from_word(w)
            nf = normalize(e, p)
            for k in fock_indices(c):
                if not is_interior(k, c):
                    continue
                v = basis_state(c, k)
                lhs = apply_element(e, v, c)
                rhs = apply_element(nf, v, c)
                keys = set(lhs.amplitudes) | set(rhs.amplitudes)
                for kk in keys:
                    assert abs(lhs.amplitudes.get(kk, 0) - rhs.amplitudes.get(kk, 0)) < 1e-12


class TestMatrix:
    def test_unit_matrix(self):
        c = cfg(n=2, K=2)
        m = matrix(Element.one(), c)
        assert np.allclose(dense(m), np.eye(c.dim))

    def test_diagonal_generator(self):
        c = cfg(K=2)
        m = matrix(Element.of(y(2)), c)
        assert m.is_diagonal()
        assert np.allclose(m.diagonal(), [1.0, 0.25, 0.0625])

    def test_linearity(self):
        rng = random.Random(12)
        p = presentation_Sigma(1)
        c = cfg(K=4)
        for _ in range(10):
            a = Element.from_word(Word(tuple(rng.choice(p.generators) for _ in range(2))))
            b = Element.from_word(Word(tuple(rng.choice(p.generators) for _ in range(2))))
            lhs = dense(matrix(a + b, c))
            rhs = dense(matrix(a, c)) + dense(matrix(b, c))
            assert np.allclose(lhs, rhs, atol=1e-14)

    def test_adjoint_consistency_on_interior(self):
        rng = random.Random(19)
        p = presentation_Sigma(2)
        c = cfg(n=2, K=4, lam=1j)
        interior = [rank_of(k, c) for k in fock_indices(c) if is_interior(k, c)]
        for _ in range(10):
            w = Word(tuple(rng.choice(p.generators) for _ in range(rng.randint(1, 2))))
            e = Element.from_word(w)
            a = dense(matrix(e, c))
            b = dense(matrix(e.star(), c))
            sub = np.ix_(interior, interior)
            assert np.allclose(b[sub], a.conj().T[sub], atol=1e-13)

    def test_kernel_of_diagonal_is_trivial(self):
        c = cfg(n=2, K=3)
        m = dense(matrix(Element.of(y(3)), c))
        assert np.linalg.matrix_rank(m) == c.dim


class TestSpectrum:
    def test_n1_k2(self):
        c = cfg(K=2)
        assert yn1_spectrum(c) == [1.0, 0.25, 0.0625]

    def test_n2_k1_enumerated(self):
        c = cfg(n=2, K=1, q0=Fraction(1, 2))
        got = sorted(v.real for v in yn1_spectrum(c))
        want = sorted(float(HALF ** p) for p in (0, 1, 2, 3))
        assert got == want

    def test_multiset_size(self):
        for n, K in ((1, 4), (2, 3), (3, 2)):
            c = cfg(n=n, K=K)
            assert len(yn1_spectrum(c)) == (K + 1) ** n

    def test_matches_matrix_diagonal_exactly(self):
        for lam in (1, 1j):
            c = cfg(n=2, K=3, q0=Fraction(3, 5), lam=lam)
            m = matrix(Element.of(y(3)), c)
            assert m.is_diagonal()
            assert m.diagonal() == yn1_spectrum(c)


class TestJson:
    def test_schema_and_determinism(self):
        c = cfg(K=2)
        m = matrix(Element.of(y(2)), c)
        text = matrix_json(m, c)
        again = matrix_json(matrix(Element.of(y(2)), c), c)
        assert text == again
        data = json.loads(text)
        assert data["algebra"] == "Sigma"
        assert data["n"] == 1 and data["K"] == 2
        assert data["q"] == "1/2"
        assert data["lambda"] == [1, 0]
        assert data["dim"] == 3
        assert data["basis_order"] == "lex_k1_major"
        assert data["entries"] == [[0, 0, 1, 0], [1, 1, 0.25, 0], [2, 2, 0.0625, 0]]

    def test_entries_sorted_by_col_then_row(self):
        c = cfg(n=2, K=2)
        m = matrix(parse("y1' + y2", presentation_Sigma(2)), c)
        order = [(col, row) for row, col, _ in m.entries]
        assert order == sorted(order)


# -- the per-vector scalar path, kept as the reference for the shift tables ----


def _reference_apply(e, k, c):
    """e|k> by one dict per basis vector and scalar complex arithmetic."""
    total = {}
    for word, coeff in e.items():
        current = {k: complex(1.0)}
        for g in reversed(word.letters):
            out = {}
            for kk, amp in current.items():
                i = g.index
                if i == c.n + 1:
                    lam = c.lam.conjugate() if g.starred else c.lam
                    new, target = amp * (lam * float(c.q0 ** (sum(kk) + kk[-1]))), kk
                else:
                    step, ki = (4 if i == c.n else 2), kk[i - 1]
                    if (ki == c.K) if g.starred else (ki == 0):
                        continue
                    radicand = step * (ki + 1) if g.starred else step * ki
                    target = kk[: i - 1] + (ki + 1 if g.starred else ki - 1,) + kk[i:]
                    new = amp * (float(c.q0 ** sum(kk[: i - 1]))
                                 * math.sqrt(float(1 - c.q0 ** radicand)))
                if new != 0:
                    out[target] = new
            current = out
        scale = float(coeff.evaluate(c.q0))
        for kk, amp in current.items():
            old = total.get(kk)
            new = amp * scale if old is None else old + amp * scale
            if new == 0:
                total.pop(kk, None)
            else:
                total[kk] = new
    return total


def _reference_matrix(e, c):
    entries = [(rank_of(kk, c), col, amp)
               for col, k in enumerate(fock_indices(c))
               for kk, amp in sorted(_reference_apply(e, k, c).items())]
    rows, cols, values = zip(*entries) if entries else ((), (), ())
    return SparseMatrix(c.dim, np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                        np.array(values, dtype=complex))


def _random_element(rng, n):
    gens = [y(i, s) for i in range(1, n + 2) for s in (False, True)]
    coeffs = (ONE, -ONE, ONE - Q(1) * 2, Q(2), Q(-1) + Q(1), Q(0) * Fraction(1, 3))
    words = [Word(tuple(rng.choice(gens) for _ in range(rng.randint(0, 3))))
             for _ in range(rng.randint(1, 4))]
    e = Element.zero()
    for _ in range(rng.randint(1, 6)):
        e = e + Element({rng.choice(words): rng.choice(coeffs)})
    return e


class TestAgainstReference:
    """The table-driven numeric action must reproduce the per-vector scalar
    path bit for bit, signed zeros included."""

    LAMBDAS = (1, -1, 1j, -1j, complex(math.cos(0.3), math.sin(0.3)))

    def test_matrix_and_json_bit_identical(self):
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.randint(1, 3)
            c = cfg(n=n, K=rng.randint(0, 4 if n < 3 else 3), lam=rng.choice(self.LAMBDAS),
                    q0=rng.choice((HALF, Fraction(1, 3), Fraction(3, 5), Fraction(2, 7))))
            e = _random_element(rng, n)
            got, want = matrix(e, c), _reference_matrix(e, c)
            assert [(r, col, repr(v)) for r, col, v in got.entries] == \
                   [(r, col, repr(v)) for r, col, v in want.entries]
            assert matrix_json(got, c) == matrix_json(want, c)

    def test_apply_element_bit_identical(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 3)
            c = cfg(n=n, K=3, lam=rng.choice(self.LAMBDAS))
            e = _random_element(rng, n)
            for k in fock_indices(c):
                got = apply_element(e, basis_state(c, k), c).amplitudes
                assert {kk: repr(v) for kk, v in got.items()} == \
                       {kk: repr(v) for kk, v in _reference_apply(e, k, c).items()}

    def test_cancelling_sum(self):
        c = cfg(n=2, K=3, lam=1j)
        e = parse("y1 y2 - y1 y2 + y3'", presentation_Sigma(2))
        assert matrix(e, c).entries == _reference_matrix(e, c).entries
        assert matrix(e, c).is_diagonal()

    def test_dropped_entry_restarts_its_sum(self):
        # At |0> with lambda = -1, y2' and y2'y2 cancel exactly; the sum is
        # dropped, so -y2 starts a new entry and keeps its -0 imaginary part.
        c = cfg(n=1, K=1, lam=-1)
        e = parse("y2' + y2' y2 - y2", presentation_Sigma(1))
        text = matrix_json(matrix(e, c), c)
        assert text == matrix_json(_reference_matrix(e, c), c)
        assert '"entries":[[0,0,1,-0]' in text


# -- the per-generator ExactAmp product, kept as the reference for exact mode ----


def _reference_times(a, factor):
    """a times one table factor (root, re, im), on RadicalSum pairs."""
    root, re, im = factor
    fre, fim = RadicalScalar(re, root), RadicalScalar(im, root)
    return ExactAmp(a.re.mul_scalar(fre) - a.im.mul_scalar(fim),
                    a.re.mul_scalar(fim) + a.im.mul_scalar(fre))


def _reference_apply_exact(e, v, c):
    """e v one generator at a time, each image an ExactAmp, summed per target."""
    total = {}
    for word, coeff in e.items():
        items = [(rank_of(k, c), amp) for k, amp in v.amplitudes.items()]
        for g in reversed(word.letters):
            target, amp = rep_mod.shift_table(c, g)
            items = [(target[r], _reference_times(a, amp[r])) for r, a in items if amp[r] is not None]
        for r, a in items:
            a = ExactAmp(a.re.mul_poly(coeff), a.im.mul_poly(coeff))
            total[r] = ExactAmp(total[r].re + a.re, total[r].im + a.im) if r in total else a
            if total[r].is_zero():
                del total[r]
    return StateVector(c.mode, {index_of(r, c): amp for r, amp in total.items()})


def _reference_relations(c):
    """(max_residual, witnesses) of the exact relations check, from
    _reference_apply_exact on each interior basis vector (each vector for
    the sphere relation)."""
    worst, witnesses = 0.0, []
    for name, rel in relations_Sigma(c.n):
        for k in fock_indices(c):
            if not (name.startswith("sphere") or is_interior(k, c)):
                continue
            out = _reference_apply_exact(rel, basis_state(c, k), c)
            if not out.is_zero():
                residual = max(abs(a.evaluate(q0)) for q0 in GUARD_POINTS
                               for a in out.amplitudes.values())
                worst = max(worst, residual)
                witnesses.append({"relation": name, "k": list(k), "residual": residual})
    return worst, witnesses


def _random_exact_state(rng, c):
    """A few basis vectors with amplitudes spread over several radical roots."""
    roots = [frozenset(), frozenset({1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 2, 4})]
    polys = (ONE, -ONE, Q(1), ONE - Q(2), Q(-1) * Fraction(3, 2))

    def radical_sum():
        return RadicalSum({rng.choice(roots): rng.choice(polys) for _ in range(rng.randint(0, 3))})

    ks = list(fock_indices(c))
    return StateVector("exact", {rng.choice(ks): ExactAmp(radical_sum(), radical_sum())
                                 for _ in range(rng.randint(1, 3))})


class TestExactAgainstReference:
    LAMBDAS = ((1, None), (1j, None), (complex(0.6, 0.8), (Fraction(3, 5), Fraction(4, 5))))

    @pytest.mark.parametrize("lam,lam_exact", LAMBDAS)
    def test_canonical_amplitudes_equal(self, lam, lam_exact):
        rng = random.Random(404)
        for _ in range(25):
            n = rng.randint(1, 3)
            c = cfg(n=n, K=3 if n < 3 else 2, lam=lam, lam_exact=lam_exact, mode="exact")
            e = _random_element(rng, n)
            for v in (basis_state(c, rng.choice(list(fock_indices(c)))), _random_exact_state(rng, c)):
                got = apply_element(e, v, c).amplitudes
                want = _reference_apply_exact(e, v, c).amplitudes
                assert {k: str(a) for k, a in got.items()} == {k: str(a) for k, a in want.items()}

    def test_scaled_factor_fails_relations_at_the_same_points(self, monkeypatch):
        real = rep_mod.shift_table

        def scaled(c, g):
            target, amp = real(c, g)
            if g != y(1, True):
                return target, amp
            amp = list(amp)
            root, re, im = amp[0]  # y_1* |0,0>, inside every interior check
            amp[0] = (root, re * Fraction(3, 2), im * Fraction(3, 2))
            return target, amp

        c, p = cfg(n=2, K=4, lam=1j, mode="exact"), presentation_Sigma(2, sphere_reduction=False)
        monkeypatch.setattr(rep_mod, "shift_table", scaled)
        report = check_relations_in_rep(c, p)
        assert not report.passed and report.witnesses
        assert (report.max_residual, report.witnesses) == _reference_relations(c)

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("lam,lam_exact", LAMBDAS)
    @pytest.mark.parametrize("n,K", [(n, K) for n in (1, 2, 3) for K in (2, 3, 4)])
    def test_relations_report_matches_per_vector_reference(self, monkeypatch, n, K, lam, lam_exact,
                                                           perturbed):
        if perturbed:
            # Every live factor of y_1* times 1 + q^4: the relations fail on
            # many vectors, the last one included, and most at large q0.
            real, scaled = rep_mod.shift_table, {}

            def perturbed_table(c, g):
                target, amp = real(c, g)
                if g != y(1, True):
                    return target, amp
                if (c, g) not in scaled:
                    scaled[c, g] = target, [None if f is None else (f[0], f[1] * (ONE + Q(4)), f[2])
                                            for f in amp]
                return scaled[c, g]

            monkeypatch.setattr(rep_mod, "shift_table", perturbed_table)
        c = cfg(n=n, K=K, lam=lam, lam_exact=lam_exact, mode="exact")
        report = check_relations_in_rep(c, presentation_Sigma(n, sphere_reduction=False))
        assert report.passed != perturbed
        assert (report.max_residual, report.witnesses) == _reference_relations(c)

    def test_exact_relations_memory(self):
        c, p = cfg(n=3, K=4, mode="exact"), presentation_Sigma(3, sphere_reduction=False)
        check_relations_in_rep(c, p)  # fills the shift-table cache
        tracemalloc.start()
        try:
            report = check_relations_in_rep(c, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 100_000, peak
