"""Word/element model of the two sphere *-algebras and their rewrite systems.

Two presentations are provided:

* kind ``S``  -- generators x_1..x_n, y_1..y_n and adjoints, the full
  quadratic relation set plus the unit-sphere relation;
* kind ``Sigma`` -- generators y_1..y_{n+1} and adjoints (the quotient in
  which x_1..x_{n-1} vanish and y_{n+1} stands for x_n, a normal element).

Normal order puts the starred block before the unstarred block, the x
family before the y family inside each block, and ascending indices inside
each family.  Every relation is oriented so that its left-hand side is the
out-of-order adjacent pair, which makes orientation uniform.  The relation
set is star-closed (`_with_stars`), the rule set is not: in Sigma at n = 2,
y2y1 is a rule and its star y1'y2' a normal word.

When sphere reduction is enabled the largest diagonal quadratic (y_n* y_n
for kind S, y_{n+1}* y_{n+1} for kind Sigma) is eliminated through the
sphere relation.  A normal word then contains at most one of the two
eliminated letters: if both occur, the scattered step on e' m e moves e'
right past the longest prefix of m whose letters exchange with it by a
pure scalar, moves e left past the rest, each letter of which must
exchange with e by a pure scalar, and applies the sphere rule to the pair.
That is one reduction for each middle m, an infinite family;
verify.check_confluence proves it confluent for every m from the
sphere-off system and five finite premises, with no middle enumerated.
Rule right-hand sides are interreduced at build time.

One word order, `Presentation.word_key`, orients the relations, picks the
next term and proves termination (`validate`); see verify.check_confluence.
Normalization runs on rank-coded words, in one core, `normalize_ranks`,
from a {ranks: coefficient} dict to another: rules are looked up by rank
pair, and the next term is popped from a heap in word_key order.  `Word`
and `Generator` appear only at the edges: `normalize_steps`,
`RewriteFuelError`, and the witnesses of the rank-coded `verify` proofs.

A `Presentation` is immutable: its rules are fixed at construction, as
Bergman's diamond lemma assumes, `rules` is a read-only mapping, and the
rank-coded tables are derived from it once.  Other rules make another
`Presentation`; interreduction builds one per pass.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from operator import neg
from types import MappingProxyType

from .scalar import DomainError, LaurentPoly

ONE = LaurentPoly.one()
Q = LaurentPoly.q

DEFAULT_FUEL = 1_000_000

# Largest presentation accepted, in rewrite rules (`_rule_count`): S up to
# n = 32, Sigma up to n = 63, so presentation_S(24) with 4 561 rules fits.
# Relation sets and presentations are kept for the life of the process, at
# about 1.9 KB and 1.1 KB per rule for S (tracemalloc), so larger n are
# refused before anything is built.
MAX_RULES = 2**13


class PresentationError(ValueError):
    """The rule set violates a structural invariant."""


class RewriteFuelError(RuntimeError):
    """Normalization did not reach a fixed point within the fuel bound."""

    def __init__(self, word, fuel):
        super().__init__(f"rewrite fuel {fuel} exhausted while reducing {word}")
        self.word = word
        self.fuel = fuel


@dataclass(frozen=True)
class Generator:
    """A single algebra generator: family 'x' or 'y', index >= 1, adjoint flag."""

    family: str
    index: int
    starred: bool = False

    def star(self) -> Generator:
        return Generator(self.family, self.index, not self.starred)

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (0 if self.starred else 1, 0 if self.family == "x" else 1, self.index)

    def __str__(self):
        return f"{self.family}{self.index}" + ("'" if self.starred else "")

    __repr__ = __str__


def x(i: int, starred: bool = False) -> Generator:
    return Generator("x", i, starred)


def y(i: int, starred: bool = False) -> Generator:
    return Generator("y", i, starred)


@dataclass(frozen=True)
class Word:
    """A finite product of generators; the empty word is the unit."""

    letters: tuple[Generator, ...] = ()

    def star(self) -> Word:
        return Word(tuple(g.star() for g in reversed(self.letters)))

    def __mul__(self, other: Word) -> Word:
        return Word(self.letters + other.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    @property
    def sort_key(self):
        return tuple(g.sort_key for g in self.letters)

    def __str__(self):
        return "".join(str(g) for g in self.letters) if self.letters else "1"

    __repr__ = __str__


EMPTY_WORD = Word()


class Element:
    """A finite formal sum of words with Laurent-polynomial coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[Word, LaurentPoly] = {}
        if terms:
            for word, coeff in terms.items():
                if not isinstance(coeff, LaurentPoly):
                    coeff = LaurentPoly.const(coeff)
                if coeff:
                    data[word] = coeff
        self._terms = data

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> Element:
        return cls()

    @classmethod
    def one(cls) -> Element:
        return cls({EMPTY_WORD: ONE})

    @classmethod
    def from_word(cls, word: Word, coeff=ONE) -> Element:
        return cls({word: coeff})

    @classmethod
    def of(cls, *gens: Generator, coeff=ONE) -> Element:
        return cls({Word(tuple(gens)): coeff})

    # -- inspection ------------------------------------------------------

    def items(self):
        return sorted(self._terms.items(), key=lambda kv: kv[0].sort_key)

    def terms(self):
        """The (word, coefficient) pairs unsorted, as a read-only view."""
        return self._terms.items()

    def coeff(self, word: Word) -> LaurentPoly:
        return self._terms.get(word, LaurentPoly.zero())

    def is_zero(self) -> bool:
        return not self._terms

    def words(self):
        return self._terms.keys()

    # -- algebra ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        terms = dict(self._terms)
        for word, coeff in other._terms.items():
            new = terms.get(word, LaurentPoly.zero()) + coeff
            if new:
                terms[word] = new
            else:
                terms.pop(word, None)
        out = Element.__new__(Element)
        out._terms = terms
        return out

    def __neg__(self):
        out = Element.__new__(Element)
        out._terms = {w: -c for w, c in self._terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (LaurentPoly, int, Fraction)):
            if not isinstance(other, LaurentPoly):
                other = LaurentPoly.const(other)
            return Element({w: c * other for w, c in self._terms.items()})
        if not isinstance(other, Element):
            return NotImplemented
        terms: dict[Word, LaurentPoly] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 * w2
                new = terms.get(w, LaurentPoly.zero()) + c1 * c2
                if new:
                    terms[w] = new
                else:
                    terms.pop(w, None)
        out = Element.__new__(Element)
        out._terms = terms
        return out

    def __rmul__(self, other):
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers of elements are undefined")
        out = Element.one()
        for _ in range(n):
            out = out * self
        return out

    def star(self) -> Element:
        """The adjoint: reverse each word, toggle stars, keep coefficients."""
        return Element({w.star(): c for w, c in self._terms.items()})

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self):
        if not self._terms:
            return "0"
        return " + ".join(f"({c})*{w}" for w, c in self.items())

    __repr__ = __str__


def star(e: Element) -> Element:
    return e.star()


class Presentation:
    """Generator order plus oriented rewrite rules for one of the algebras.

    The rules are fixed at construction; `rules` is a read-only mapping."""

    def __init__(self, kind, n, sphere_reduction, generators, rules, eliminated):
        self.kind = kind
        self.n = n
        self.sphere_reduction = sphere_reduction
        self.generators = tuple(generators)
        self.rank = rank = {g: i for i, g in enumerate(self.generators)}
        self._weights = tuple(self.weight(g) for g in self.generators)
        self.rules = MappingProxyType(dict(rules))
        self.eliminated = eliminated
        # The tables that _step reads: the rules by rank pair and, with
        # sphere reduction on, the scattered step's data by rank.
        self._rank_rules = {(rank[a], rank[b]): tuple((self.ranks(w), c) for w, c in rhs._terms.items())
                            for (a, b), rhs in self.rules.items()}
        self._sphere = None
        if eliminated is not None:
            if eliminated not in self.rules:
                raise PresentationError("no rule for the eliminated pair")
            estar, e = eliminated
            left, right = {}, {}
            for g in self.generators:
                if g.starred or g == e:
                    continue
                scalar = _scalar_exchange(self.rules, e, g)
                if scalar is not None:
                    left[rank[g]] = scalar.monomial_inverse()
                scalar = _scalar_exchange(self.rules, g, estar)
                if scalar is not None:
                    right[rank[g]] = scalar.monomial_inverse()
            self._sphere = (rank[estar], rank[e], left, right, self._rank_rules[rank[estar], rank[e]])

    # -- word order ------------------------------------------------------

    def contains(self, g: Generator) -> bool:
        return g in self.rank

    def weight(self, g: Generator) -> int:
        """Generator weight in word_key; with sphere reduction on, the
        eliminated pair outweighs every word of the sphere rule."""
        if not self.sphere_reduction:
            return 1
        if self.kind == "S":
            return 1 + (g.family == "y") + (g.index == self.n)
        return 2 if g.index == self.n + 1 else 1

    def ranks(self, word: Word) -> tuple[int, ...]:
        """The word coded as generator ranks; KeyError on a foreign generator."""
        return tuple(map(self.rank.__getitem__, word.letters))

    def word(self, ranks: tuple[int, ...]) -> Word:
        return Word(tuple(map(self.generators.__getitem__, ranks)))

    def element(self, terms) -> Element:  # of a rank-coded {ranks: coefficient} dict
        return Element({self.word(ranks): c for ranks, c in terms.items()})

    def word_key(self, ranks: tuple[int, ...]) -> tuple[int, int, tuple[int, ...]]:
        """(total weight, length, ranks) of a rank-coded word: weighted degree-lex."""
        return (sum(map(self._weights.__getitem__, ranks)), len(ranks), ranks)

    # -- single rewrite step ----------------------------------------------

    def _step(self, ranks: tuple[int, ...]):
        """One rewrite step on a rank-coded word: the rule at the leftmost
        redex or, with none, the scattered sphere step.  Returns (ranks,
        coefficient) pairs, or None if the word is normal."""
        rules, sphere = self._rank_rules, self._sphere
        for i in range(len(ranks) - 1):
            rhs = rules.get(ranks[i:i + 2])
            if rhs is not None:
                head, tail = ranks[:i], ranks[i + 2:]
                return [(head + w + tail, c) for w, c in rhs]
        if sphere is None:
            return None
        # Pulling the pair together creates out-of-order boundary pairs that
        # the exchange rules would immediately undo, so the sphere rule is
        # applied in the same composite step.
        estar, e, left, right, sphere_rhs = sphere
        if estar not in ranks:
            return None
        pos_star = len(ranks) - 1 - ranks[::-1].index(estar)
        if e not in ranks[pos_star + 1:]:
            return None
        pos_e = ranks.index(e, pos_star + 1)
        mid = ranks[pos_star + 1:pos_e]
        coeff = ONE
        split = 0
        while split < len(mid) and mid[split] in right:
            coeff = coeff * right[mid[split]]
            split += 1
        for g in mid[split:]:
            if g not in left:
                raise PresentationError(f"no scalar exchange past {self.generators[g]} "
                                        "for the eliminated pair")
            coeff = coeff * left[g]
        head = ranks[:pos_star] + mid[:split]
        tail = mid[split:] + ranks[pos_e + 1:]
        return [(head + w + tail, coeff * c) for w, c in sphere_rhs]

    # -- build-time validation ---------------------------------------------

    def validate(self):
        """Check star stability of the generator set and termination.

        word_key is weighted degree-lex with positive integer weights, so it
        is well-founded and compatible with concatenation.  Every rule's
        right-hand-side words must sit strictly below its left-hand side,
        and the sphere rule's must also be strictly lighter: the scattered
        step keeps the letters between the pair, so it then sheds weight.
        Every step thus lowers the order, and normalization terminates."""
        for g in self.generators:
            if not self.contains(g.star()):
                raise PresentationError(f"generator set not star-closed at {g}")
        for (a, b), rhs in self.rules.items():
            lhs_key = self.word_key((self.rank[a], self.rank[b]))
            # (w,) bounds exactly the keys of weight below w
            bound = lhs_key[:1] if (a, b) == self.eliminated else lhs_key
            for word in rhs.words():
                if not self.word_key(self.ranks(word)) < bound:
                    raise PresentationError(
                        f"rule {a}{b} -> ... does not descend at {word}")

    def __repr__(self):
        return (f"Presentation(kind={self.kind}, n={self.n}, "
                f"sphere={'on' if self.sphere_reduction else 'off'}, "
                f"{len(self.rules)} rules)")


# -- relation sets ---------------------------------------------------------


def _rule_count(kind: str, n: int) -> int:
    """Rules of the sphere-on presentation of a kind at rank n: one for each
    pair of distinct generators among g, plus the sphere rule."""
    g = 4 * n if kind == "S" else 2 * n + 2
    return g * (g - 1) // 2 + 1


def _require_size(kind: str, n: int):
    """Refuse a rank below 1 or a presentation over MAX_RULES, before building."""
    if n < 1:
        raise DomainError("n must be >= 1")
    rules = _rule_count(kind, n)
    if rules > MAX_RULES:
        raise DomainError(f"the {kind} presentation at n = {n} has {rules} "
                          f"rewrite rules, over the limit of {MAX_RULES}")


@lru_cache(maxsize=8)
def relations_S(n: int) -> tuple[tuple[str, Element], ...]:
    """Defining relations of the 4n-1 sphere algebra as LHS - RHS elements,
    including all star conjugates and the sphere relation.

    The result is cached for the last 8 ranks and shared by every caller:
    a tuple of (name, element) pairs, and no operation mutates an Element."""
    _require_size("S", n)
    rels: list[tuple[str, Element]] = []

    def add(name, element):
        rels.append((name, element))

    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j:
                add(f"xx[{i},{j}]", Element.of(x(i), x(j)) - Element.of(x(j), x(i), coeff=Q(-1)))
            if i > j:
                add(f"yy[{i},{j}]", Element.of(y(i), y(j)) - Element.of(y(j), y(i), coeff=Q(-1)))
            if i != j:
                add(f"xy[{i},{j}]", Element.of(x(i), y(j)) - Element.of(y(j), x(i), coeff=Q(-1)))
                add(f"xxs[{i},{j}]", Element.of(x(i), x(j, True)) - Element.of(x(j, True), x(i), coeff=Q(1)))
                corr = Element.of(x(i, True), x(j), coeff=(Q(2) - ONE) * Q(2 * n + 2 - i - j))
                add(f"yys[{i},{j}]", Element.of(y(i), y(j, True)) - Element.of(y(j, True), y(i), coeff=Q(1)) + corr)
            if i < j:
                add(f"xys[{i},{j}]", Element.of(x(i), y(j, True)) - Element.of(y(j, True), x(i), coeff=Q(1)))
            if i > j:
                corr = Element.of(y(i, True), x(j), coeff=(Q(2) - ONE) * Q(i - j))
                add(f"xys[{i},{j}]", Element.of(x(i), y(j, True)) - Element.of(y(j, True), x(i), coeff=Q(1)) - corr)

    for i in range(1, n + 1):
        tail = Element.zero()
        for k in range(1, i):
            tail = tail + Element.of(x(k), y(k), coeff=(Q(2) - ONE) * Q(i - k))
        add(f"yx[{i}]", Element.of(y(i), x(i)) - Element.of(x(i), y(i), coeff=Q(2)) - tail)

        tail = Element.zero()
        for k in range(1, i):
            tail = tail + Element.of(x(k, True), x(k))
        add(f"xxs[{i}]", Element.of(x(i), x(i, True)) - Element.of(x(i, True), x(i))
            - (ONE - Q(2)) * tail)

        inner = Element.of(x(i, True), x(i), coeff=Q(2 * (n + 1 - i)))
        for k in range(1, n + 1):
            inner = inner + Element.of(x(k, True), x(k))
        for k in range(i + 1, n + 1):
            inner = inner + Element.of(y(k, True), y(k))
        add(f"yys[{i}]", Element.of(y(i), y(i, True)) - Element.of(y(i, True), y(i))
            - (ONE - Q(2)) * inner)

        add(f"xys[{i}]", Element.of(x(i), y(i, True)) - Element.of(y(i, True), x(i), coeff=Q(2)))

    sphere = -Element.one()
    for i in range(1, n + 1):
        sphere = sphere + Element.of(x(i, True), x(i)) + Element.of(y(i, True), y(i))
    add("sphere", sphere)

    return _with_stars(rels)


@lru_cache(maxsize=8)
def relations_Sigma(n: int) -> tuple[tuple[str, Element], ...]:
    """Defining relations of the 2n+1 quotient algebra on y_1..y_{n+1},
    including all star conjugates and the sphere relation.

    Cached and shared as relations_S is: a tuple of (name, element) pairs."""
    _require_size("Sigma", n)
    rels: list[tuple[str, Element]] = []

    def add(name, element):
        rels.append((name, element))

    for i in range(1, n + 2):
        for j in range(1, i):
            if (i, j) == (n + 1, n):
                continue
            add(f"yy[{i},{j}]", Element.of(y(i), y(j)) - Element.of(y(j), y(i), coeff=Q(-1)))
            add(f"ysy[{i},{j}]", Element.of(y(i, True), y(j)) - Element.of(y(j), y(i, True), coeff=Q(-1)))
    add(f"yy[{n + 1},{n}]", Element.of(y(n + 1), y(n)) - Element.of(y(n), y(n + 1), coeff=Q(-2)))
    add(f"ysy[{n + 1},{n}]", Element.of(y(n + 1, True), y(n)) - Element.of(y(n), y(n + 1, True), coeff=Q(-2)))

    for i in range(1, n + 2):
        if i == n:
            continue
        tail = Element.zero()
        for k in range(i + 1, n + 2):
            tail = tail + Element.of(y(k, True), y(k))
        add(f"diag[{i}]", Element.of(y(i), y(i, True)) - Element.of(y(i, True), y(i))
            - (ONE - Q(2)) * tail)
    add(f"diag[{n}]", Element.of(y(n), y(n, True)) - Element.of(y(n, True), y(n))
        - Element.of(y(n + 1, True), y(n + 1), coeff=ONE - Q(4)))

    sphere = -Element.one()
    for i in range(1, n + 2):
        sphere = sphere + Element.of(y(i, True), y(i))
    add("sphere", sphere)

    return _with_stars(rels)


def _with_stars(rels):
    out = list(rels)
    for name, element in rels:
        conj = element.star()
        if conj != element:
            out.append((name + "*", conj))
    return tuple(out)


# -- presentation construction ----------------------------------------------


def _generators_S(n):
    return ([x(i, True) for i in range(1, n + 1)] + [y(i, True) for i in range(1, n + 1)]
            + [x(i) for i in range(1, n + 1)] + [y(i) for i in range(1, n + 1)])


def _generators_Sigma(n):
    return [y(i, True) for i in range(1, n + 2)] + [y(i) for i in range(1, n + 2)]


def _orient(p: Presentation, element: Element) -> tuple[tuple[Generator, Generator], Element]:
    """Solve a relation for its largest word, which becomes the rule LHS.

    p is the sphere-off presentation of the kind, whose order is plain
    degree-lex.  The sphere-on weights would not do: the raw diagonal
    relations contain the eliminated pair, which they would make the
    largest word; interreduction removes it from the right-hand sides.
    """
    lead = max(element.words(), key=lambda w: p.word_key(p.ranks(w)))
    coeff = element.coeff(lead)
    if coeff.as_monomial() is None:
        raise PresentationError(f"cannot orient relation: leading coefficient {coeff} "
                                "is not an invertible monomial")
    if len(lead) != 2:
        raise PresentationError(f"rule left-hand side {lead} is not a length-2 word")
    rest = element - Element.from_word(lead, coeff)
    rhs = rest * (-1 * coeff.monomial_inverse())
    return (lead.letters[0], lead.letters[1]), rhs


def _scalar_exchange(rules, mover_left: Generator, other: Generator):
    """If the rule for (mover_left, other) is a pure scalar exchange
    mover_left*other -> c * other*mover_left, c a monomial, return c."""
    rhs = rules.get((mover_left, other))
    if rhs is None or len(rhs._terms) != 1:
        return None
    [(word, coeff)] = rhs._terms.items()
    if word.letters != (other, mover_left) or coeff.as_monomial() is None:
        return None
    return coeff


def _build_presentation(kind: str, n: int, sphere_reduction: bool) -> Presentation:
    # the relation sets refuse a bad n before anything else is built
    if kind == "S":
        rels = relations_S(n)
        gens = _generators_S(n)
        eliminated = (y(n, True), y(n))
    else:
        rels = relations_Sigma(n)
        gens = _generators_Sigma(n)
        eliminated = (y(n + 1, True), y(n + 1))

    proto = Presentation(kind, n, False, gens, {}, None)

    rules: dict[tuple[Generator, Generator], Element] = {}
    for name, element in rels:
        if name.startswith("sphere") and not sphere_reduction:
            continue
        lhs, rhs = _orient(proto, element)
        if lhs in rules:
            if rules[lhs] != rhs:
                raise PresentationError(f"conflicting rules for {lhs[0]}{lhs[1]} ({name})")
            continue
        rules[lhs] = rhs
    if not sphere_reduction:
        eliminated = None
    p = Presentation(kind, n, sphere_reduction, gens, rules, eliminated)

    # Interreduce: rewrite every right-hand side to normal form so that no
    # rule ever reintroduces a reducible word (with sphere reduction on,
    # the raw diagonal relations mention the eliminated pair).  Each pass
    # rewrites against the rules of the pass before.
    fuel = _fuel()
    for _ in range(20):
        changed = {lhs: nf for lhs, rhs in rules.items() if (nf := normalize(rhs, p, fuel)) != rhs}
        if not changed:
            break
        rules = {**rules, **changed}
        p = Presentation(kind, n, sphere_reduction, gens, rules, eliminated)
    else:
        raise PresentationError("rule interreduction did not converge")

    p.validate()
    return p


_PRESENTATIONS: dict[tuple[str, int, bool], Presentation] = {}


def presentation_S(n: int, sphere_reduction: bool = True) -> Presentation:
    """Presentation of the 4n-1 sphere algebra on x_1..x_n, y_1..y_n."""
    key = ("S", n, sphere_reduction)
    if key not in _PRESENTATIONS:
        _PRESENTATIONS[key] = _build_presentation(*key)
    return _PRESENTATIONS[key]


def presentation_Sigma(n: int, sphere_reduction: bool = True) -> Presentation:
    """Presentation of the 2n+1 quotient algebra on y_1..y_{n+1}."""
    key = ("Sigma", n, sphere_reduction)
    if key not in _PRESENTATIONS:
        _PRESENTATIONS[key] = _build_presentation(*key)
    return _PRESENTATIONS[key]


# -- normalization -----------------------------------------------------------


def _fuel(fuel: int | None = None) -> int:
    """fuel, or QSPHERE_FUEL (default DEFAULT_FUEL) if it is None, checked positive."""
    if fuel is None:
        text = os.environ.get("QSPHERE_FUEL", str(DEFAULT_FUEL))
        try:
            fuel = int(text)
        except ValueError:
            raise DomainError(f"QSPHERE_FUEL must be an integer, got {text!r}") from None
    if fuel <= 0:
        raise DomainError("fuel must be positive")
    return fuel


def normalize_ranks(terms, p: Presentation, fuel: int) -> tuple[dict[tuple[int, ...], LaurentPoly], int]:
    """The normal form of rank-coded terms, left unchanged, as {ranks: nonzero
    coefficient}, and the number of rewrite steps used; fuel is a positive int.

    The term rewritten next is always the largest pending word in word_key
    order, popped from a heap that holds one entry per pending word, keyed
    once when the word first appears.  A popped word never returns:
    `validate` proves that every step yields words strictly below the word
    it rewrites, and every pending word lies below the popped one.  A word
    whose coefficient has since cancelled keeps its entry and is skipped
    when popped.  So the pops, normal forms and step counts are those of
    taking max(pending, key=word_key) at every step."""
    pending = dict(terms)
    step, key = p._step, p.word_key

    def entry(ranks):  # heapq pops its least entry; this reverses word_key
        weight, length, _ = key(ranks)
        return -weight, -length, tuple(map(neg, ranks)), ranks

    heap = [entry(ranks) for ranks in pending]
    heapify(heap)
    done: dict[tuple[int, ...], LaurentPoly] = {}
    steps = 0
    while heap:
        ranks = heappop(heap)[3]
        coeff = pending.pop(ranks)
        if not coeff:
            continue
        replacement = step(ranks)
        if replacement is None:
            done[ranks] = coeff
            continue
        steps += 1
        if steps > fuel:
            raise RewriteFuelError(p.word(ranks), fuel)
        for rw, rc in replacement:
            old = pending.get(rw)
            if old is None:
                pending[rw] = coeff * rc
                heappush(heap, entry(rw))
            else:
                pending[rw] = old + coeff * rc
    return done, steps


def normalize_steps(e: Element, p: Presentation, fuel: int | None = None) -> tuple[Element, int]:
    """Normalize and report the rewrite steps used: the Element edge of `normalize_ranks`."""
    fuel = _fuel(fuel)
    try:
        terms = {p.ranks(word): coeff for word, coeff in e._terms.items()}
    except KeyError as err:
        raise DomainError(f"generator {err.args[0]} does not belong to the "
                          f"{p.kind} presentation") from None
    done, steps = normalize_ranks(terms, p, fuel)
    return p.element(done), steps


def normalize(e: Element, p: Presentation, fuel: int | None = None) -> Element:
    """Rewrite an element to its normal form under the presentation's rules."""
    return normalize_steps(e, p, fuel)[0]


# -- quotient map ------------------------------------------------------------


def quotient_map(e: Element, n: int) -> Element:
    """Project an element of the S presentation into the Sigma presentation.

    Words containing x_i or x_i* with i < n map to zero; x_n becomes
    y_{n+1}; the y generators are unchanged.
    """
    out = Element.zero()
    for word, coeff in e._terms.items():
        letters = []
        dead = False
        for g in word:
            if g.family == "x":
                if g.index < n:
                    dead = True
                    break
                letters.append(y(n + 1, g.starred))
            else:
                letters.append(g)
        if not dead:
            out = out + Element.from_word(Word(tuple(letters)), coeff)
    return out

