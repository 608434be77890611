"""Property tests for the text format, the star and normalization.

Elements are small sums of short words over S and Sigma with n <= 3, with
sphere reduction on and off.  The last two properties, nf(a b) == nf(nf(a) b)
and nf(a b) == nf(a nf(b)), say that normal forms are compatible with
products, as unique normal forms require.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from qsphere.algebra import Element, Word, normalize, presentation_S, presentation_Sigma
from qsphere.expr import parse, print_canonical
from qsphere.scalar import LaurentPoly

COEFFS = (LaurentPoly.one(), LaurentPoly.const(-2), LaurentPoly.q(1), LaurentPoly.q(-1, Fraction(1, 2)),
          LaurentPoly.one() - LaurentPoly.q(2))
PRESENTATIONS = st.sampled_from([(kind, n, sphere) for kind in ("S", "Sigma")
                                 for n in (1, 2, 3) for sphere in (True, False)])


def presentation(key):
    kind, n, sphere = key
    return (presentation_S if kind == "S" else presentation_Sigma)(n, sphere)


def elements(p, max_len=3):
    """Sums of at most two words of length <= max_len with small coefficients."""
    words = st.lists(st.sampled_from(p.generators), max_size=max_len).map(lambda gs: Word(tuple(gs)))
    terms = st.tuples(words, st.sampled_from(COEFFS))
    return st.lists(terms, min_size=1, max_size=2).map(
        lambda ts: sum((Element.from_word(w, c) for w, c in ts), Element.zero()))


@st.composite
def one_element(draw):
    p = presentation(draw(PRESENTATIONS))
    return p, draw(elements(p))


@st.composite
def two_elements(draw):
    p = presentation(draw(PRESENTATIONS))
    return p, draw(elements(p)), draw(elements(p))


@given(one_element())
def test_print_parse_round_trip(case):
    p, e = case
    assert parse(print_canonical(e), p) == e


@given(one_element())
def test_star_is_an_involution(case):
    _, e = case
    assert e.star().star() == e


@given(one_element())
def test_normalize_is_idempotent(case):
    p, e = case
    nf = normalize(e, p)
    assert normalize(nf, p) == nf


@given(one_element())
def test_normalize_commutes_with_star(case):
    p, e = case
    assert normalize(e.star(), p) == normalize(normalize(e, p).star(), p)


@given(two_elements())
def test_normal_form_of_product_from_normal_factors(case):
    p, a, b = case
    assert normalize(a * b, p) == normalize(normalize(a, p) * normalize(b, p), p)


@given(two_elements())
def test_normal_form_of_product_from_normal_left_factor(case):
    p, a, b = case
    assert normalize(a * b, p) == normalize(normalize(a, p) * b, p)


@given(two_elements())
def test_normal_form_of_product_from_normal_right_factor(case):
    p, a, b = case
    assert normalize(a * b, p) == normalize(a * normalize(b, p), p)
