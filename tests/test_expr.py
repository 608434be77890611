"""Tests for the expression grammar: parse, print, round-trip."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qsphere.algebra import Element, Word, presentation_S, presentation_Sigma, x, y
from qsphere.expr import MAX_NESTING, ExprSyntaxError, SourceSpan, parse, print_canonical
from qsphere.scalar import LaurentPoly

ONE = LaurentPoly.one()
Q = LaurentPoly.q

SIGMA2 = presentation_Sigma(2)
S2 = presentation_S(2)


class TestParse:
    def test_scalar_times_word(self):
        e = parse("q^-1 y1 y2", SIGMA2)
        assert e == Element.of(y(1), y(2), coeff=Q(-1))

    def test_parenthesized_scalar_and_adjoint(self):
        e = parse("(1 - q^2) x1'", S2)
        assert e == Element.of(x(1, True), coeff=ONE - Q(2))

    def test_unknown_generator_message(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("y4", SIGMA2)
        assert "unknown generator y4 (valid: y1..y3)" in str(err.value)
        assert err.value.span == SourceSpan(0, 2)

    def test_unknown_generator_s(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x3", S2)
        assert "valid: x1..x2, y1..y2" in str(err.value)

    def test_x_rejected_in_sigma(self):
        with pytest.raises(ExprSyntaxError):
            parse("x1", SIGMA2)

    def test_adjoint_binds_tighter_than_product(self):
        assert parse("y1'y1", SIGMA2) == Element.of(y(1, True), y(1))
        assert parse("(y1 y2)'", SIGMA2) == Element.of(y(2, True), y(1, True))

    def test_explicit_star_product(self):
        assert parse("q * y1 * y2", SIGMA2) == parse("q y1 y2", SIGMA2)

    def test_sums_and_signs(self):
        e = parse("y1 - q^2 y2 + 3/2", SIGMA2)
        expected = (Element.of(y(1)) - Element.of(y(2), coeff=Q(2))
                    + Element.one() * Fraction(3, 2))
        assert e == expected

    def test_leading_minus(self):
        assert parse("-q^-1 + 1", SIGMA2) == Element.one() * (ONE - Q(-1))

    def test_nesting_limit(self):
        deepest = "(" * MAX_NESTING + "y1" + ")" * MAX_NESTING
        assert parse(deepest, SIGMA2) == Element.of(y(1))
        with pytest.raises(ExprSyntaxError) as err:
            parse("(" * 5000 + "y1" + ")" * 5000, SIGMA2)
        assert "nested deeper" in str(err.value)
        assert err.value.span == SourceSpan(MAX_NESTING, MAX_NESTING + 1)

    def test_rational_scalars(self):
        assert parse("3/2 y1", SIGMA2) == Element.of(y(1), coeff=LaurentPoly.const(Fraction(3, 2)))

    @pytest.mark.parametrize("text,span", [("1/0 y1", (0, 3)), ("0/0 y1", (0, 3)), ("y1 - 7/000 y2", (5, 10))])
    def test_zero_denominator_span(self, text, span):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text, SIGMA2)
        assert err.value.message == f"zero denominator in {text[slice(*span)]}"
        assert err.value.span == SourceSpan(*span)
        assert str(err.value).endswith(f"(at {span[0]}..{span[1]})")

    def test_syntax_error_span(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("y1 + @", SIGMA2)
        assert err.value.span == SourceSpan(5, 6)

    def test_trailing_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(y1", SIGMA2)
        with pytest.raises(ExprSyntaxError):
            parse("y1)", SIGMA2)

    def test_empty_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("", SIGMA2)

    def test_nested_expression(self):
        e = parse("(y1 + y2)(y1 - y2)", SIGMA2)
        expected = (Element.of(y(1)) + Element.of(y(2))) * (Element.of(y(1)) - Element.of(y(2)))
        assert e == expected


class TestPrint:
    def test_zero(self):
        assert print_canonical(Element.zero()) == "0"

    def test_unit(self):
        assert print_canonical(Element.one()) == "(1)*1"

    def test_normal_form_example(self):
        e = Element.one() * (ONE - Q(4)) + Element.of(y(1, True), y(1), coeff=Q(4))
        assert print_canonical(e) == "(1 - q^4)*1 + (q^4)*y1'y1"

    def test_single_scaled_word(self):
        e = Element.of(y(1), y(2), coeff=Q(-1))
        assert print_canonical(e) == "(q^-1)*y1y2"


def rand_element(rng, p, max_words=4, max_len=4):
    e = Element.zero()
    for _ in range(rng.randint(1, max_words)):
        length = rng.randint(0, max_len)
        w = Word(tuple(rng.choice(p.generators) for _ in range(length)))
        coeff = LaurentPoly.zero()
        for _ in range(rng.randint(1, 3)):
            coeff = coeff + LaurentPoly.q(rng.randint(-3, 3),
                                          Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        e = e + Element.from_word(w, coeff)
    return e


class TestRoundTrip:
    @pytest.mark.parametrize("p", [SIGMA2, S2, presentation_Sigma(1)])
    def test_parse_print_identity(self, p):
        rng = random.Random(97)
        for _ in range(200):
            e = rand_element(rng, p)
            assert parse(print_canonical(e), p) == e

    def test_print_parse_canonicalizes(self):
        text = "y2y1 + y1 y2 + 0 * y1"
        e = parse(text, SIGMA2)
        assert parse(print_canonical(e), SIGMA2) == e
