"""Tests for the exact scalar layer."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsphere.scalar import (
    DomainError,
    LaurentPoly,
    cyclotomic,
    qpochhammer,
    radical_canonicalize,
    radical_from_cyclotomic,
)

ONE = LaurentPoly.one()
Q = LaurentPoly.q


def rand_poly(rng, max_terms=4, exp_range=(-3, 4), coeff_range=(-4, 4)):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        c = rng.randint(*coeff_range)
        if c:
            terms[rng.randint(*exp_range)] = terms.get(rng.randint(*exp_range), 0) + c
    return LaurentPoly({e: c for e, c in terms.items() if c})


class TestLaurentPoly:
    def test_mul_difference_of_squares(self):
        a = ONE - Q(2)
        b = ONE + Q(2)
        assert a * b == ONE - Q(4)

    def test_mul_monomials(self):
        assert Q(-1) * Q(2) == Q(1)

    def test_mul_mixed_exchange_coefficient(self):
        # (q^2 - 1) * q^(2n+2-i-j) at n=2, i=1, j=2
        c = (Q(2) - ONE) * Q(2 * 2 + 2 - 1 - 2)
        assert c == Q(5) - Q(3)

    def test_eval_examples(self):
        assert (ONE - Q(2)).evaluate(Fraction(1, 2)) == Fraction(3, 4)
        assert Q(-1).evaluate(Fraction(1, 2)) == 2
        assert (ONE - Q(4)).evaluate(Fraction(1, 2)) == Fraction(15, 16)

    def test_eval_domain(self):
        with pytest.raises(DomainError):
            (ONE - Q(2)).evaluate(Fraction(3, 2))
        with pytest.raises(DomainError):
            (ONE - Q(2)).evaluate(0)

    def test_ring_axioms_randomized(self):
        rng = random.Random(7)
        for _ in range(100):
            a, b, c = (rand_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + LaurentPoly.zero() == a
            assert a * ONE == a
            assert a * LaurentPoly.zero() == LaurentPoly.zero()

    def test_eval_is_ring_hom(self):
        rng = random.Random(11)
        q0 = Fraction(2, 5)
        for _ in range(50):
            a, b = rand_poly(rng), rand_poly(rng)
            assert (a * b).evaluate(q0) == a.evaluate(q0) * b.evaluate(q0)
            assert (a + b).evaluate(q0) == a.evaluate(q0) + b.evaluate(q0)

    def test_monomial_inverse(self):
        m = Q(3, Fraction(2, 5))
        assert m * m.monomial_inverse() == ONE
        with pytest.raises(DomainError):
            (ONE + Q(1)).monomial_inverse()

    def test_str_canonical(self):
        p = Q(-1, -1) + ONE + Q(2, Fraction(3, 2))
        assert str(p) == "-q^-1 + 1 + 3/2*q^2"
        assert str(LaurentPoly.zero()) == "0"
        assert str(ONE - Q(4)) == "1 - q^4"
        assert str(Q(1)) == "q"

    def test_parse_round_trip(self):
        rng = random.Random(3)
        for _ in range(200):
            p = rand_poly(rng)
            assert LaurentPoly.parse(str(p)) == p

    def test_parse_examples(self):
        assert LaurentPoly.parse("-q^-1 + 1 + 3/2*q^2") == Q(-1, -1) + ONE + Q(2, Fraction(3, 2))
        assert LaurentPoly.parse("1 - q^4") == ONE - Q(4)


class TestQPochhammer:
    def test_empty_product(self):
        assert qpochhammer(Q(2), Q(2), 0) == ONE

    def test_length_one(self):
        assert qpochhammer(Q(2), Q(2), 1) == ONE - Q(2)

    def test_length_two(self):
        expected = ONE - Q(2) - Q(4) + Q(6)
        assert qpochhammer(Q(2), Q(2), 2) == expected
        assert qpochhammer(Q(2), Q(2), 2) == (ONE - Q(2)) * (ONE - Q(4))

    def test_recurrence(self):
        a, b = Q(2), Q(2)
        for ell in range(9):
            step = ONE - a * b**ell
            assert qpochhammer(a, b, ell + 1) == qpochhammer(a, b, ell) * step

    def test_domain(self):
        with pytest.raises(DomainError):
            qpochhammer(Q(2), Q(2), -1)


class TestCyclotomic:
    def test_small_indices(self):
        assert cyclotomic(1) == Q(1) - ONE
        assert cyclotomic(2) == Q(1) + ONE
        assert cyclotomic(4) == Q(2) + ONE
        assert cyclotomic(6) == Q(2) - Q(1) + ONE

    def test_product_over_divisors(self):
        for s in range(1, 13):
            prod = ONE
            for d in range(1, s + 1):
                if s % d == 0:
                    prod = prod * cyclotomic(d)
            assert prod == Q(s) - ONE


class TestRadical:
    def test_square_folds(self):
        r = radical_canonicalize([2, 2])
        assert r.poly == ONE - Q(2)
        assert r.root == frozenset()

    def test_shared_factor(self):
        # sqrt(1-q^2)*sqrt(1-q^4); oracle: square the claimed output and
        # compare Laurent polynomials against (1-q^2)*(1-q^4).
        r = radical_canonicalize([2, 4])
        assert r.poly == ONE - Q(2)
        assert r.root == frozenset({4})
        assert r.square() == (ONE - Q(2)) * (ONE - Q(4))

    def test_single_atom_numeric_oracle(self):
        r = radical_canonicalize([4])
        assert r.root == frozenset({1, 2, 4})
        assert r.poly in (ONE, LaurentPoly.const(-1))
        for q0 in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)):
            expected = math.sqrt(1 - float(q0) ** 4)
            assert abs(r.evaluate(q0) - expected) < 1e-14

    def test_canonicalize_idempotent(self):
        rng = random.Random(5)
        for _ in range(50):
            factors = [rng.randint(1, 10) for _ in range(rng.randint(1, 5))]
            r = radical_canonicalize(factors)
            again = radical_from_cyclotomic(r.root)
            assert again.root == r.root
            assert again.poly == ONE

    def test_eval_squared_consistency(self):
        rng = random.Random(13)
        points = [Fraction(k, 17) for k in rng.sample(range(1, 17), 10)]
        for _ in range(30):
            factors = [rng.randint(1, 8) for _ in range(rng.randint(1, 4))]
            r = radical_canonicalize(factors)
            for q0 in points:
                lhs = r.square().evaluate(q0)
                rhs = r.poly.evaluate(q0) ** 2 * r.root_poly().evaluate(q0)
                assert lhs == rhs

    def test_mul_folds_shared_atoms(self):
        a = radical_canonicalize([2])
        b = radical_canonicalize([4])
        prod = a * b
        expected = radical_canonicalize([2, 4])
        assert prod == expected

    def test_numeric_value_of_atoms(self):
        for s in range(1, 9):
            r = radical_canonicalize([s])
            for q0 in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5)):
                assert abs(r.evaluate(q0) - math.sqrt(1 - float(q0) ** s)) < 1e-13


# -- coefficient types, against polynomials stored with Fraction coefficients only --

RATIONALS = st.one_of(st.integers(-6, 6), st.fractions(-3, 3, max_denominator=6))
TERMS = st.dictionaries(st.integers(-4, 4), RATIONALS, max_size=4)
POINTS = st.fractions(Fraction(1, 50), Fraction(49, 50), max_denominator=50)


def _oracle(terms) -> dict:
    return {e: Fraction(c) for e, c in terms.items() if c}


def _oracle_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + c
    return {e: c for e, c in out.items() if c}


def _oracle_neg(a):
    return {e: -c for e, c in a.items()}


def _oracle_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _fraction_poly(terms) -> LaurentPoly:
    """A LaurentPoly whose coefficients are all Fractions, integral ones included."""
    poly = LaurentPoly.__new__(LaurentPoly)
    poly._terms = dict(terms)
    return poly


def _assert_matches(got: LaurentPoly, want: dict):
    for _, c in got.items():
        assert type(c) is (int if c.denominator == 1 else Fraction), (got, c)
    oracle = _fraction_poly(want)
    assert str(got) == str(oracle)
    assert got == oracle and oracle == got
    assert hash(got) == hash(oracle)


class TestCoefficientTypes:
    """Integral coefficients are ints, the rest Fractions, never floats; text,
    equality and hashes agree with storing every coefficient as a Fraction."""

    @given(TERMS, TERMS, st.integers(0, 3), POINTS)
    def test_operations_match_fraction_oracle(self, ta, tb, k, q0):
        a, b, oa, ob = LaurentPoly(ta), LaurentPoly(tb), _oracle(ta), _oracle(tb)
        _assert_matches(a, oa)
        _assert_matches(a + b, _oracle_add(oa, ob))
        _assert_matches(a - b, _oracle_add(oa, _oracle_neg(ob)))
        _assert_matches(-b, _oracle_neg(ob))
        _assert_matches(a * b, _oracle_mul(oa, ob))
        power = {0: Fraction(1)}
        for _ in range(k):
            power = _oracle_mul(power, oa)
        _assert_matches(a**k, power)
        _assert_matches(LaurentPoly.parse(str(a)), oa)

        poch, b_power = {0: Fraction(1)}, {0: Fraction(1)}
        for _ in range(k):  # (a; b)_k = prod_{i<k} (1 - a b^i)
            poch = _oracle_mul(poch, _oracle_add({0: Fraction(1)}, _oracle_neg(_oracle_mul(oa, b_power))))
            b_power = _oracle_mul(b_power, ob)
        _assert_matches(qpochhammer(a, b, k), poch)

        value = a.evaluate(q0)
        assert type(value) in (int, Fraction)
        assert value == sum((c * q0**e for e, c in oa.items()), Fraction(0))

    @given(st.integers(-4, 4), RATIONALS.filter(bool))
    def test_monomial_inverse_matches_fraction_oracle(self, exp, coeff):
        _assert_matches(Q(exp, coeff).monomial_inverse(), {-exp: 1 / Fraction(coeff)})

    def test_integral_fraction_input_is_stored_as_int(self):
        p = LaurentPoly({0: Fraction(4, 2), 1: Fraction(1, 2)}) * 2
        assert [(e, type(c)) for e, c in p.items()] == [(0, int), (1, int)]
        with pytest.raises(DomainError):
            LaurentPoly.const(0.5)

    def test_cyclotomic_int_coefficients_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        for d in range(1, 65):
            got = cyclotomic(d).items()
            assert all(type(c) is int for _, c in got), d
            want = sympy.Poly(sympy.cyclotomic_poly(d, x), x).as_dict()
            assert dict(got) == {e: int(c) for (e,), c in want.items()}, d
