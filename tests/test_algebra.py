"""Tests for the word model, presentations, and the rewrite engine."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import qsphere.algebra as algebra_mod
from qsphere.algebra import (
    MAX_RULES,
    Element,
    Presentation,
    PresentationError,
    RewriteFuelError,
    Word,
    normalize,
    normalize_steps,
    presentation_S,
    presentation_Sigma,
    quotient_map,
    relations_S,
    relations_Sigma,
    star,
    x,
    y,
)
from qsphere.scalar import DomainError, LaurentPoly

ONE = LaurentPoly.one()
Q = LaurentPoly.q


def rand_element(rng, p, max_words=3, max_len=4):
    e = Element.zero()
    for _ in range(rng.randint(1, max_words)):
        length = rng.randint(0, max_len)
        w = Word(tuple(rng.choice(p.generators) for _ in range(length)))
        c = LaurentPoly.q(rng.randint(-2, 2), rng.randint(-3, 3))
        e = e + Element.from_word(w, c)
    return e


def normalize_by_max(e, p):
    """The loop the heap replaced, kept as the oracle for normalize_steps:
    rescan the pending terms for the word_key maximum at every step."""
    pending = {p.ranks(w): c for w, c in e._terms.items()}
    done = {}
    steps = 0
    while pending:
        ranks = max(pending, key=p.word_key)
        coeff = pending.pop(ranks)
        replacement = p._step(ranks)
        if replacement is None:
            new = done.get(ranks, LaurentPoly.zero()) + coeff
            if new:
                done[ranks] = new
            else:
                done.pop(ranks, None)
            continue
        steps += 1
        for rw, rc in replacement:
            new = pending.get(rw, LaurentPoly.zero()) + coeff * rc
            if new:
                pending[rw] = new
            else:
                pending.pop(rw, None)
    return Element({p.word(ranks): c for ranks, c in done.items()}), steps


def with_rules(p, changes):
    """A new presentation with p's rules, `changes` replacing some of them."""
    return Presentation(p.kind, p.n, p.sphere_reduction, p.generators, {**p.rules, **changes}, p.eliminated)


PRESENTATION_KEYS = [(build, n, sphere) for build in (presentation_S, presentation_Sigma)
                     for n in (1, 2, 3) for sphere in (True, False)]


class TestElementTerms:
    def test_unsorted_view_of_the_sorted_items(self):
        later, earlier = Word((y(2),)), Word((y(1),))
        e = Element({later: Q(1), earlier: ONE})
        assert list(e.terms()) == [(later, Q(1)), (earlier, ONE)]
        assert e.items() == [(earlier, ONE), (later, Q(1))]
        with pytest.raises(TypeError):
            e.terms()[later] = ONE


class TestStar:
    def test_single_generator(self):
        assert star(Element.of(x(1))) == Element.of(x(1, True))

    def test_reverses_products(self):
        e = Element.of(x(1), y(2), coeff=Q(1))
        assert star(e) == Element.of(y(2, True), x(1, True), coeff=Q(1))

    def test_involution(self):
        rng = random.Random(17)
        p = presentation_S(2)
        for _ in range(50):
            e = rand_element(rng, p)
            assert star(star(e)) == e


class TestPresentations:
    def test_build_all(self):
        for n in (1, 2, 3):
            for sphere in (True, False):
                presentation_S(n, sphere)
                presentation_Sigma(n, sphere)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            presentation_S(0)
        with pytest.raises(DomainError):
            presentation_Sigma(0)

    def test_s_diagonal_rule_n1(self):
        p = presentation_S(1)
        assert p.rules[(y(1), x(1))] == Element.of(x(1), y(1), coeff=Q(2))

    def test_s_mixed_rule_small_index(self):
        p = presentation_S(2)
        assert p.rules[(x(1), y(2, True))] == Element.of(y(2, True), x(1), coeff=Q(1))

    def test_s_mixed_rule_with_correction(self):
        p = presentation_S(2)
        expected = (Element.of(y(1, True), x(2), coeff=Q(1))
                    + Element.of(y(2, True), x(1), coeff=Q(3) - Q(1)))
        assert p.rules[(x(2), y(1, True))] == expected

    def test_sigma_exchange_rules(self):
        p = presentation_Sigma(2)
        assert p.rules[(y(2), y(1))] == Element.of(y(1), y(2), coeff=Q(-1))
        assert p.rules[(y(3), y(2))] == Element.of(y(2), y(3), coeff=Q(-2))

    def test_sigma_diagonal_rule_n1_raw(self):
        p = presentation_Sigma(1, sphere_reduction=False)
        expected = (Element.of(y(1, True), y(1))
                    + Element.of(y(2, True), y(2), coeff=ONE - Q(4)))
        assert p.rules[(y(1), y(1, True))] == expected

    def test_rules_decrease_measure(self):
        for n in (1, 2, 3):
            for build in (presentation_S, presentation_Sigma):
                for sphere in (True, False):
                    p = build(n, sphere)
                    for (a, b), rhs in p.rules.items():
                        lhs_key = p.word_key(p.ranks(Word((a, b))))
                        for w in rhs.words():
                            assert p.word_key(p.ranks(w)) < lhs_key, (p, a, b, w)

    @pytest.mark.parametrize("build", [presentation_S, presentation_Sigma])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sphere_rule_is_lighter_than_the_eliminated_pair(self, build, n):
        p = build(n)
        pair_weight = p.word_key(p.ranks(Word(p.eliminated)))[0]
        for w in p.rules[p.eliminated].words():
            assert p.word_key(p.ranks(w))[0] < pair_weight, w

    def test_weights(self):
        s = presentation_S(3)
        assert [s.weight(g) for g in (x(1), x(3, True), y(2), y(3, True))] == [1, 2, 2, 3]
        sigma = presentation_Sigma(3)
        assert [sigma.weight(g) for g in (y(3), y(4), y(4, True))] == [1, 2, 2]
        for p in (presentation_S(3, False), presentation_Sigma(3, False)):
            assert {p.weight(g) for g in p.generators} == {1}

    @pytest.mark.parametrize("build", [presentation_S, presentation_Sigma])
    @pytest.mark.parametrize("sphere", [True, False])
    def test_rules_descend_in_any_context(self, build, sphere):
        rng = random.Random(53)
        p = build(2, sphere)
        rules = list(p.rules.items())
        for _ in range(300):
            (a, b), rhs = rng.choice(rules)
            u = tuple(rng.choice(p.generators) for _ in range(rng.randint(0, 3)))
            v = tuple(rng.choice(p.generators) for _ in range(rng.randint(0, 3)))
            lhs_key = p.word_key(p.ranks(Word(u + (a, b) + v)))
            for w in rhs.words():
                assert p.word_key(p.ranks(Word(u + w.letters + v))) < lhs_key, (u, a, b, w, v)

    def test_validate_rejects_a_rule_that_does_not_descend(self):
        p = with_rules(presentation_Sigma(2, sphere_reduction=False), {(y(2), y(1)): Element.of(y(2), y(2))})
        with pytest.raises(PresentationError, match="does not descend"):
            p.validate()

    def test_validate_rejects_a_heavy_sphere_rule(self):
        p = presentation_S(2)
        # y2'y2' sits below y2'y2 in the order but is just as heavy.
        p = with_rules(p, {p.eliminated: p.rules[p.eliminated] + Element.of(y(2, True), y(2, True))})
        with pytest.raises(PresentationError, match="y2'y2 -> ... does not descend at y2'y2'"):
            p.validate()

    def test_rule_rhs_are_normal(self):
        for build in (presentation_S, presentation_Sigma):
            p = build(2)
            for rhs in p.rules.values():
                for w in rhs.words():
                    assert p._step(p.ranks(w)) is None


class TestNormalize:
    def test_sigma_exchange(self):
        p = presentation_Sigma(2)
        nf = normalize(Element.of(y(2), y(1)), p)
        assert nf == Element.of(y(1), y(2), coeff=Q(-1))

    def test_sigma_commutator_sphere_off(self):
        p = presentation_Sigma(1, sphere_reduction=False)
        e = Element.of(y(1), y(1, True)) - Element.of(y(1, True), y(1))
        assert normalize(e, p) == Element.of(y(2, True), y(2), coeff=ONE - Q(4))

    def test_sigma_diagonal_sphere_on(self):
        p = presentation_Sigma(1)
        nf = normalize(Element.of(y(1), y(1, True)), p)
        expected = Element.one() * (ONE - Q(4)) + Element.of(y(1, True), y(1), coeff=Q(4))
        assert nf == expected

    def test_scattered_pair_is_eliminated(self):
        # y2' y1 y2 is block-ordered but contains both eliminated letters;
        # it must reduce like q^2 * y2'y2 * y1.
        p = presentation_Sigma(1)
        nf = normalize(Element.of(y(2, True), y(1), y(2)), p)
        also = normalize(Element.of(y(2, True), y(2), y(1)), p) * Q(2)
        assert nf == also
        assert not nf.is_zero()

    def test_idempotent(self):
        rng = random.Random(29)
        for p in (presentation_Sigma(2), presentation_S(2)):
            for _ in range(25):
                e = rand_element(rng, p)
                nf = normalize(e, p)
                assert normalize(nf, p) == nf

    def test_multiplicative_mod_relations(self):
        rng = random.Random(31)
        for p in (presentation_Sigma(2), presentation_S(1), presentation_Sigma(1, False)):
            for _ in range(20):
                a = rand_element(rng, p, max_words=2, max_len=3)
                b = rand_element(rng, p, max_words=2, max_len=3)
                lhs = normalize(a * b, p)
                rhs = normalize(normalize(a, p) * normalize(b, p), p)
                assert lhs == rhs

    def test_star_compatibility(self):
        rng = random.Random(37)
        for p in (presentation_Sigma(2), presentation_S(2, False)):
            for _ in range(20):
                e = rand_element(rng, p, max_words=2, max_len=3)
                assert normalize(star(e), p) == normalize(star(normalize(e, p)), p)

    def test_fuel_error(self):
        p = presentation_S(2)
        e = Element.of(y(2), y(1), x(2), x(1))
        with pytest.raises(RewriteFuelError):
            normalize(e, p, fuel=1)

    def test_fuel_env_override(self, monkeypatch):
        p = presentation_S(2)
        e = Element.of(y(2), y(1), x(2), x(1))
        monkeypatch.setenv("QSPHERE_FUEL", "1")
        with pytest.raises(RewriteFuelError):
            normalize(e, p)
        monkeypatch.setenv("QSPHERE_FUEL", "100000")
        normalize(e, p)

    def test_wrong_generator_rejected(self):
        p = presentation_Sigma(1)
        with pytest.raises(DomainError):
            normalize(Element.of(x(1)), p)


class TestHeapAgainstMax:
    """The heap pops words in the order of max(pending, key=word_key)."""

    @pytest.mark.parametrize("build,n,sphere", PRESENTATION_KEYS)
    def test_seeded_corpus(self, build, n, sphere):
        # 40 elements per presentation, 480 over the 12 of them
        rng = random.Random(f"heap/{build.__name__}/{n}/{sphere}")
        p = build(n, sphere)
        for _ in range(40):
            e = rand_element(rng, p, max_len=5 if build is presentation_S else 6)
            assert normalize_steps(e, p) == normalize_by_max(e, p), e

    @given(st.sampled_from(PRESENTATION_KEYS).flatmap(lambda key: st.tuples(
        st.just(key[0](*key[1:])),
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-3, 3), st.lists(st.integers(0, 99), max_size=5)),
                 min_size=1, max_size=3))))
    def test_property(self, case):
        p, terms = case
        e = Element.zero()
        for exp, c, picks in terms:
            word = Word(tuple(p.generators[i % len(p.generators)] for i in picks))
            e = e + Element.from_word(word, Q(exp, c))
        e = e * e.star()  # products cancel and repeat words more than random sums
        assert normalize_steps(e, p) == normalize_by_max(e, p)

    def test_rules_are_fixed_at_construction(self):
        p = presentation_Sigma(2, sphere_reduction=False)
        lhs, e = (y(2), y(1)), Element.of(y(2), y(1))
        with pytest.raises(TypeError):
            p.rules[lhs] = Element.of(y(1), y(2), coeff=Q(5))
        changed = with_rules(p, {lhs: Element.of(y(1), y(2), coeff=Q(5))})
        assert normalize(e, changed) == Element.of(y(1), y(2), coeff=Q(5))
        assert changed._step(changed.ranks(Word(lhs))) == [(changed.ranks(Word((y(1), y(2)))), Q(5))]
        assert normalize(e, p) == Element.of(y(1), y(2), coeff=Q(-1))
        dropped = Presentation(p.kind, p.n, p.sphere_reduction, p.generators,
                               {k: v for k, v in p.rules.items() if k != lhs}, p.eliminated)
        assert normalize(e, dropped) == e
        assert dropped._step(dropped.ranks(Word(lhs))) is None
        # the scattered step reads the sphere rule of its own presentation
        sphere = presentation_Sigma(1)
        scattered = sphere.ranks(Word((y(2, True), y(1), y(2))))
        doubled = with_rules(sphere, {sphere.eliminated: sphere.rules[sphere.eliminated] * 2})
        assert doubled._step(scattered) == [(w, c * 2) for w, c in sphere._step(scattered)]


class TestRelationsClose:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("sphere", [True, False])
    def test_sigma_relations_normalize_to_zero(self, n, sphere):
        p = presentation_Sigma(n, sphere)
        for name, rel in relations_Sigma(n):
            if name.startswith("sphere") and not sphere:
                continue
            assert normalize(rel, p).is_zero(), name

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("sphere", [True, False])
    def test_s_relations_normalize_to_zero(self, n, sphere):
        p = presentation_S(n, sphere)
        for name, rel in relations_S(n):
            if name.startswith("sphere") and not sphere:
                continue
            assert normalize(rel, p).is_zero(), name


class TestSizeLimit:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rule_count(self, n):
        for kind, build in (("S", presentation_S), ("Sigma", presentation_Sigma)):
            assert len(build(n).rules) == algebra_mod._rule_count(kind, n)
            assert len(build(n, False).rules) == algebra_mod._rule_count(kind, n) - 1

    def test_limit_admits_s_at_24(self):
        rules = algebra_mod._rule_count
        assert rules("S", 24) == 4561
        assert rules("S", 32) <= MAX_RULES < rules("S", 33)
        assert rules("Sigma", 63) <= MAX_RULES < rules("Sigma", 64)

    @pytest.mark.parametrize("kind,n", [("S", 33), ("Sigma", 64), ("S", 100000), ("Sigma", 100000)])
    def test_oversized_presentation_is_refused_before_building(self, kind, n, monkeypatch):
        def no_build(*args):
            raise AssertionError("a refused presentation was built")

        for name in ("x", "y", "_generators_S", "_generators_Sigma"):
            monkeypatch.setattr(algebra_mod, name, no_build)
        build = presentation_S if kind == "S" else presentation_Sigma
        relations = relations_S if kind == "S" else relations_Sigma
        for call in (lambda: build(n), lambda: build(n, False), lambda: relations(n)):
            with pytest.raises(DomainError, match=f"over the limit of {MAX_RULES}"):
                call()


def _monomial_multiple(e, f):
    """Whether e = c f for a monomial c = a q^k, a != 0."""
    if f.is_zero() or set(e.words()) != set(f.words()):
        return False
    word = next(iter(f.words()))
    a, b = e.coeff(word), f.coeff(word)
    return a.as_monomial() is not None and b.as_monomial() is not None and f * (a * b.monomial_inverse()) == e


class TestQuotient:
    def test_small_x_dies(self):
        assert quotient_map(Element.of(x(1)), 2).is_zero()

    def test_top_x_becomes_extra_y(self):
        assert quotient_map(Element.of(x(2)), 2) == Element.of(y(3))

    def test_exchange_relation_pushes_through(self):
        # y_2 x_2 maps to y_2 y_3; its normal form must match the image of
        # the S-side normal form, both computed in the Sigma presentation.
        p_s = presentation_S(2, sphere_reduction=False)
        p_sig = presentation_Sigma(2, sphere_reduction=False)
        e = Element.of(y(2), x(2))
        lhs = normalize(quotient_map(e, 2), p_sig)
        rhs = normalize(quotient_map(normalize(e, p_s), 2), p_sig)
        assert quotient_map(e, 2) == Element.of(y(2), y(3))
        assert lhs == rhs
        # y2y3 equals q^2 * y3y2 via the index-exchange relation
        assert lhs == normalize(Element.of(y(3), y(2), coeff=Q(2)), p_sig)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("sphere", [True, False])
    def test_relations_of_s_vanish_in_sigma(self, n, sphere):
        p = presentation_Sigma(n, sphere)
        for name, rel in relations_S(n):
            if name.startswith("sphere") and not sphere:
                continue
            nf = normalize(quotient_map(rel, n), p)
            assert nf.is_zero(), f"{name} maps to {nf}"

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_relations_of_sigma_are_images_of_s_relations(self, n):
        # with the test above: the ideal of the Sigma relations is the image of
        # the ideal of the S relations, so Sigma is the quotient of S by x_1..x_(n-1)
        images = [quotient_map(rel, n) for _, rel in relations_S(n)]
        for name, rel in relations_Sigma(n):
            assert any(_monomial_multiple(rel, image) for image in images), name

    def test_star_commutes_with_quotient(self):
        rng = random.Random(41)
        p = presentation_S(2)
        for _ in range(30):
            e = rand_element(rng, p)
            assert quotient_map(star(e), 2) == star(quotient_map(e, 2))
