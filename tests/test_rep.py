"""Tests for the truncated representation layer."""

from __future__ import annotations

import json
import math
import random
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
import sympy

from qsphere.algebra import Element, Word, normalize, presentation_Sigma, relations_Sigma, y
from qsphere.expr import parse
import qsphere.rep as rep_mod
from qsphere.rep import (
    RepConfig,
    generic_image,
    SparseMatrix,
    apply_element,
    basis_state,
    fock_array,
    fock_indices,
    matrix,
    matrix_json,
    rank_of,
    yn1_spectrum,
)
from qsphere.scalar import DomainError, LaurentPoly
from qsphere.verify import check_relations_in_rep

ONE = LaurentPoly.one()
Q = LaurentPoly.q
HALF = Fraction(1, 2)


def cfg(n=1, q0=HALF, lam=1, K=6):
    return RepConfig(n, q0, lam, K)


def dense(m):
    out = np.zeros((m.dim, m.dim), dtype=complex)
    out[m.rows, m.cols] = m.values
    return out


def diagonal(m):
    """The diagonal of a sparse matrix in rank order, or None if it has an
    entry off the diagonal."""
    if m.rows.tolist() != m.cols.tolist():
        return None
    diag = [0j] * m.dim
    for row, value in zip(m.rows.tolist(), m.values.tolist()):
        diag[row] = value
    return diag


def is_interior(k, c):
    """Every component at least 2 below the cutoff."""
    return max(k) <= c.K - 2


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

    def test_rejects_bad_q0_before_the_size(self):
        with pytest.raises(DomainError, match=r"q0 = 2 is outside \(0, 1\)"):
            RepConfig(6, Fraction(2), 1, 10)

    def test_has_no_mode(self):
        # one numeric representation type: the proofs read generic images instead
        assert [f.name for f in fields(RepConfig)] == ["n", "q0", "lam", "K"]
        with pytest.raises(TypeError):
            RepConfig(2, HALF, 1, 3, "exact")

    def test_rejects_non_unit_lambda(self):
        with pytest.raises(DomainError):
            cfg(lam=2.0)

    @pytest.mark.parametrize("lam", [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0)])
    def test_rejects_non_finite_lambda(self, lam):
        with pytest.raises(DomainError, match="not finite"):
            cfg(lam=lam)

    def test_pythagorean_lambda(self):
        c = cfg(lam=complex(0.6, 0.8))
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
            assert tuple(fock_array(c)[rank_of(k, c)].tolist()) == k


class TestApplyGenerator:
    def test_lowering_kills_vacuum(self):
        c = cfg()
        assert apply_element(Element.of(y(1)), basis_state(c, (0,)), c) == {}

    def test_diagonal_action(self):
        # n=1, lambda=1: y_2 |3> = q^6 |3>
        c = cfg(K=5)
        v = apply_element(Element.of(y(2)), basis_state(c, (3,)), c)
        assert set(v) == {(3,)}
        assert abs(v[(3,)] - float(HALF ** 6)) < 1e-15

    def test_raising_factor_n1(self):
        # n=1: y_1* |k> = sqrt(1 - q^(4k+4)) |k+1>
        c = cfg(K=5)
        for k in range(4):
            v = apply_element(Element.of(y(1, True)), basis_state(c, (k,)), c)
            assert set(v) == {(k + 1,)}
            want = math.sqrt(1 - float(HALF ** (4 * k + 4)))
            assert abs(v[(k + 1,)] - want) < 1e-15

    def test_truncation_annihilates(self):
        c = cfg(K=3)
        assert apply_element(Element.of(y(1, True)), basis_state(c, (3,)), c) == {}

    def test_prefix_exponent(self):
        # n=2: y_2 |k> carries q^(k_1)
        c = cfg(n=2, K=4)
        v = apply_element(Element.of(y(2)), basis_state(c, (3, 2)), c)
        want = float(HALF ** 3) * math.sqrt(1 - float(HALF ** 8))
        assert abs(v[(3, 1)] - want) < 1e-15

    def test_rejects_foreign_generator(self):
        c = cfg(n=1)
        with pytest.raises(DomainError):
            apply_element(Element.of(y(3)), basis_state(c, (0,)), c)

    @pytest.mark.parametrize("state", [{(7,): 1.0}, {(-1,): 1.0}, {(1, 2): 1.0}],
                             ids=["past the cutoff", "negative", "wrong length"])
    def test_state_outside_the_basis_is_refused(self, state):
        # the index check basis_state makes, before numpy sees the index
        with pytest.raises(DomainError, match="outside the truncated basis"):
            apply_element(Element.of(y(1)), state, cfg(n=1, K=3))


class TestApplyElement:
    def test_unit_acts_trivially(self):
        c = cfg(n=2, K=3)
        v = basis_state(c, (1, 2))
        assert apply_element(Element.one(), v, c) == v

    def test_sphere_sum_is_identity_everywhere(self):
        for n in (1, 2):
            c = cfg(n=n, K=3, q0=Fraction(2, 5))
            e = sphere_element(n)
            for k in fock_indices(c):
                out = apply_element(e, basis_state(c, k), c)
                assert set(out) == {k}
                assert abs(out[k] - 1.0) < 1e-14

    def test_lowering_raising_product(self):
        # n=1, q0=1/2: y_1 y_1* |0> = (1 - q^4)|0> = 15/16 |0>
        c = cfg()
        out = apply_element(Element.of(y(1), y(1, True)), basis_state(c, (0,)), c)
        assert set(out) == {(0,)}
        assert abs(out[(0,)] - 15 / 16) < 1e-15

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
                keys = set(lhs) | set(rhs)
                for kk in keys:
                    diff = lhs.get(kk, 0) - rhs.get(kk, 0)
                    assert abs(diff) < 1e-12

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
                keys = set(lhs) | set(rhs)
                for kk in keys:
                    assert abs(lhs.get(kk, 0) - rhs.get(kk, 0)) < 1e-12


class TestMatrix:
    def test_unit_matrix(self):
        c = cfg(n=2, K=2)
        m = matrix(Element.one(), c)
        assert np.allclose(dense(m), np.eye(c.dim))

    def test_diagonal_generator(self):
        c = cfg(K=2)
        m = matrix(Element.of(y(2)), c)
        assert diagonal(m) is not None
        assert np.allclose(diagonal(m), [1.0, 0.25, 0.0625])

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

    @pytest.mark.parametrize("lam", [1, 1j, complex(-0.6, 0.8), -1j])
    def test_power_table_matches_one_power_per_vector(self, lam):
        # the table holds float(q0^e) for each exponent, as the per-vector powers did
        for n, K, q0 in ((1, 5, HALF), (2, 4, Fraction(3, 5)), (3, 3, Fraction(1, 3))):
            c = cfg(n=n, K=K, q0=q0, lam=lam)
            prefix = rep_mod.generator_shift(n, y(n + 1)).prefix
            want = [c.lam * float(q0 ** sum(w * ki for w, ki in zip(prefix, k))) for k in fock_indices(c)]
            assert repr(yn1_spectrum(c)) == repr(want)

    @pytest.mark.parametrize("q0", [HALF, Fraction(3, 5), Fraction(99, 100)])
    def test_power_tables_match_the_per_exponent_formula(self, q0):
        # the tables that yn1_spectrum and shift_table read: the powers of q0 and the
        # roots at steps 2 and 4, each cut where an entry first reaches its limit (0.0,
        # or 1.0 for the roots); at 99/100 the powers reach 0.0 only at e = 74 141
        count = 3000
        for q, root in ((q0, False), (q0 ** 2, True), (q0 ** 4, True)):
            def formula(e):
                return math.sqrt(float(1 - q ** e)) if root else float(q ** e)

            table = rep_mod._power_table(q, count, root)
            limit = 1.0 if root else 0.0
            cut = table.index(limit, 1) if limit in table[1:] else count
            exponents = {*range(200), *range(0, count, 20), cut - 1, *range(cut, min(cut + 50, count))}
            assert len(table) == count
            assert [table[e] for e in sorted(exponents)] == [formula(e) for e in sorted(exponents)], (q, root)
            assert formula(cut - 1) != limit and all(v == limit for v in table[cut:])

    def test_spectrum_at_the_size_limit(self):
        values = yn1_spectrum(cfg(n=1, K=rep_mod.MAX_DIM - 1))
        assert len(values) == rep_mod.MAX_DIM and values[:3] == [1.0, 0.25, 0.0625] and values[-1] == 0.0

    @pytest.mark.parametrize("power", [1, -1])
    def test_matches_matrix_diagonal_exactly(self, power, monkeypatch):
        # with power -1, y_{n+1} carries conj(lambda): the spectrum reads generator_shift
        shift = rep_mod.generator_shift
        monkeypatch.setattr(rep_mod, "generator_shift", lambda n, g: replace(
            shift(n, g), power=power) if g == y(n + 1) else shift(n, g))
        rep_mod.shift_table.cache_clear()
        try:
            for lam in (1, 1j):
                c = cfg(n=2, K=3, q0=Fraction(3, 5), lam=lam)
                m = matrix(Element.of(y(3)), c)
                assert diagonal(m) == yn1_spectrum(c)
        finally:
            rep_mod.shift_table.cache_clear()  # the tables were built from the patched shift


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

    def test_negative_zero_lambda_part_prints_as_zero(self):
        c = RepConfig(1, Fraction(1, 2), -1j, 2)
        assert '"lambda":[0,-1]' in matrix_json(matrix(Element.of(y(2)), c), c)

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
                got = apply_element(e, basis_state(c, k), c)
                assert {kk: repr(v) for kk, v in got.items()} == \
                       {kk: repr(v) for kk, v in _reference_apply(e, k, c).items()}

    def test_cancelling_sum(self):
        c = cfg(n=2, K=3, lam=1j)
        e = parse("y1 y2 - y1 y2 + y3'", presentation_Sigma(2))
        assert matrix(e, c).entries == _reference_matrix(e, c).entries
        assert diagonal(matrix(e, c)) is not None

    def test_dropped_entry_restarts_its_sum(self):
        # At |0> with lambda = -1, y2' and y2'y2 cancel exactly; the sum is
        # dropped, so -y2 starts a new entry and keeps its -0 imaginary part.
        c = cfg(n=1, K=1, lam=-1)
        e = parse("y2' + y2' y2 - y2", presentation_Sigma(1))
        text = matrix_json(matrix(e, c), c)
        assert text == matrix_json(_reference_matrix(e, c), c)
        assert '"entries":[[0,0,1,-0]' in text


# -- the module docstring's formulas in sympy, the reference for generic_image ----


def _sympy_image(e, n, q, t, lam):
    """e|k> with t_i = q^(k_i), letter by letter from the closed-form
    weights of the module docstring: {shift d: amplitude of |k + d>}."""
    out = {}
    for word, coeff in e.items():
        d, amp = [0] * n, sum(c * q**x for x, c in coeff.items())
        for g in reversed(word.letters):
            tk = [q**dj * tj for dj, tj in zip(d, t)]  # q^(k_j + d_j)
            i = g.index
            if i == n + 1:
                amp *= (1 / lam if g.starred else lam) * sympy.Mul(*tk) * tk[-1]
            else:
                step, ki = (4 if i == n else 2), (q * tk[i - 1] if g.starred else tk[i - 1])
                amp *= sympy.Mul(*tk[: i - 1]) * sympy.sqrt(1 - ki**step)
                d[i - 1] += 1 if g.starred else -1
        out[tuple(d)] = out.get(tuple(d), 0) + amp
    return out


class TestExactRelations:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generic_image_matches_sympy(self, n):
        q, lam = sympy.symbols("q lambda", positive=True)
        t = sympy.symbols(f"t1:{n + 1}", positive=True)
        variables = (q, *t, lam)
        rng = random.Random(500 + n)
        elements = [rel for _, rel in relations_Sigma(n)] + [_random_element(rng, n) for _ in range(15)]
        for e in elements:
            ours = {}
            for (d, root), coeff in generic_image(e, n).items():
                value = sum(c * sympy.Mul(*(v**x for v, x in zip(variables, exps)))
                            for exps, c in coeff.items())
                for i, a, s in root:
                    value *= sympy.sqrt(1 - q**a * t[i - 1] ** s)
                ours[d] = ours.get(d, 0) + value
            want = _sympy_image(e, n, q, t, lam)
            for d in set(ours) | set(want):
                assert sympy.expand(ours.get(d, 0) - want.get(d, 0)) == 0, (e, d)

    def test_exact_relations_memory(self):
        check_relations_in_rep(3)  # a first run, so that one-off allocations are not counted
        tracemalloc.start()
        try:
            report = check_relations_in_rep(3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 100_000, peak
