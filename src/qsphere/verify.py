"""Machine checks for every identity the toolkit is built around.

Symbolic checks normalize a relation (or a derived identity: the power
identities and the operator identities of the main lemma) and demand the
zero element.  Representation checks prove the relations, the kernel
dimensions and the lowest-weight basis from generic images (below).  Each
check returns a CheckReport with the worst residual and the failing
witnesses, serializable as JSON.

The kernel, basis and relations proofs read only n: each demands of the
generic image of single generators, or of each relation, what its
argument rests on.  `lemma_main`, like `lemma_aux`, is a proof in the
algebra: it reads no representation, so it holds in every
*-representation.  `run_suite` alone decides what each suite reads, and
the mode: exact mode proves the relations, and numeric mode samples them on
the truncation (`sample_relations_in_rep`), the one `rep.RepConfig` built
here and the only check that builds a table or runs numpy.

The relations proof reads generic images.  On a generic basis vector
|k> of the untruncated space, with t_i = q^(k_i), each generator maps |k>
to one vector |k + d> with amplitude lambda^p times a monomial in q and t
times at most one atom sqrt(1 - q^a t_i^s), s = 2, or 4 in slot n
(`rep.generator_shift`).  So a
relation maps |k> to a finite sum, over shifts d and sets of atoms left
under the root once repeated atoms are squared, of a Laurent polynomial in
(q, t_1..t_n, lambda) times the square roots of those atoms
(`rep.generic_image`), with conj(lambda) = 1/lambda.  When every such
coefficient is the zero polynomial, the relation holds on every |k> for
every q0 in (0, 1) and every unit lambda.  Conversely a nonzero coefficient
is a genuine failure, by this independence theorem: square roots of
distinct products of squarefree, pairwise coprime polynomials are linearly
independent over Q(q, t_1..t_n, lambda).  Up to a power of q, the atoms
are such polynomials.  Neither t_i nor a nonconstant polynomial in q alone
divides 1 - q^a t_i^s.  It is squarefree: its t_i-derivative
-s q^a t_i^(s-1) shares no factor with it.  Two atoms of one slot are coprime, since their difference
is t_i^s times a polynomial in q alone, and atoms of different slots share
no variable t_i.  A nonzero combination of independent roots cannot vanish
on the Zariski-dense points q in (0, 1), t_i = q^(k_i), |lambda| = 1.

The boundary and the cutoff are covered.  At k_i = 0 the lowering atom
sqrt(1 - t_i^s) vanishes, as the representation kills the vector, and the
factors after it stay finite, so the generic formula holds on every k in
N^n.  The relations have words of
length at most 2, so on an interior vector (every k_i <= K - 2) the
truncation at K acts as the untruncated representation does; so it does
on every vector for the sphere relation, whose words lower before they
raise.  The proof therefore holds for every K at once.  A failure names
the relation, the shift d, the root atoms and the nonzero coefficient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from ._lazy import lazy_import
from .algebra import (
    EMPTY_WORD,
    Element,
    Presentation,
    Word,
    _fuel,
    _require_size,
    _scalar_exchange,
    normalize,
    normalize_ranks,
    presentation_S,
    presentation_Sigma,
    relations_S,
    relations_Sigma,
    y,
)
from .rep import (  # apply_element is kept importable here: perfbench/tracing.py wraps it
    RepConfig,
    apply_element,
    checked_fields,
    fock_array,
    generic_image,
    matrix,
)
from .scalar import DomainError, LaurentPoly, qpochhammer  # qpochhammer: perfbench/tracing.py wraps it

np = lazy_import("numpy")

ONE = LaurentPoly.one()
Q = LaurentPoly.q

GUARD_POINTS = (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5))
NUMERIC_TOL = 1e-12


@dataclass
class CheckReport:
    """Outcome of one check: worst residual, witnesses, pass flag."""

    name: str
    params: dict
    tolerance: float
    max_residual: float = 0.0
    witnesses: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance and not self.witnesses

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "params": self.params,
            "max_residual": self.max_residual,
            "passed": self.passed,
            "witnesses": list(self.witnesses),
        }

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} {self.name} {self.params} "
                f"max_residual={self.max_residual:.3e} tol={self.tolerance:.0e}")


def _element_guard_residual(e: Element) -> float:
    """Largest numeric magnitude of an element's coefficients on the guard grid."""
    worst = 0.0
    for _, coeff in e.items():
        for q0 in GUARD_POINTS:
            worst = max(worst, abs(float(coeff.evaluate(q0))))
    return worst


def _sym_params(p: Presentation) -> dict:
    return {"kind": p.kind, "n": p.n, "sphere": p.sphere_reduction}


def rep_params(n: int, q0, lam, K: int, mode: str) -> dict:
    """The params of a representation report, {n, K, q0, lambda, mode}, once
    `rep.checked_fields` and the mode are checked.  They label every such
    report, but only the numeric sampler reads K, q0 and lambda."""
    q0, lam = checked_fields(n, q0, lam, K)
    if mode not in ("numeric", "exact"):
        raise DomainError(f"unknown mode {mode!r}")
    return {"n": n, "K": K, "q0": f"{q0.numerator}/{q0.denominator}",
            "lambda": [lam.real, lam.imag], "mode": mode}


# -- symbolic checks ---------------------------------------------------------


def check_symbolic_relations(p: Presentation) -> CheckReport:
    """Every defining relation (and star conjugate) realized by the
    presentation must normalize to the zero element."""
    relations = relations_S(p.n) if p.kind == "S" else relations_Sigma(p.n)
    report, fuel = CheckReport("symbolic_relations", _sym_params(p), tolerance=0.0), _fuel()
    for name, rel in relations:
        if name.startswith("sphere") and not p.sphere_reduction:
            continue
        nf = normalize(rel, p, fuel)
        if not nf.is_zero():
            residual = _element_guard_residual(nf)
            report.max_residual = max(report.max_residual, residual)
            report.witnesses.append({"relation": name, "normal_form": str(nf),
                                     "residual": residual})
    return report


def _lemma_aux_terms(p: Presentation, i: int, m: int) -> dict[tuple, LaurentPoly]:
    """LHS - RHS of the lowering/raising power identity

        y_i (y_i*)^m - q^(2m) (y_i*)^m y_i
                     - (1 - q^(2m)) (y_i*)^(m-1) (1 - sum_{k<i} y_k* y_k)

    with exponents 4m in place of 2m when i = n, written out in closed
    form as {ranks: coefficient}, each letter coded by its rank in p.  With
    Y = y_i*, s the step and c = q^(sm), its terms are

        y_i Y^m                      coefficient 1
        Y^m y_i                      coefficient -c
        Y^(m-1)                      coefficient c - 1
        Y^(m-1) y_k* y_k, each k < i coefficient 1 - c

    and these words are pairwise distinct, so no two terms combine."""
    if not 1 <= i <= p.n:
        raise DomainError("i must lie in 1..n")
    if m < 1:
        raise DomainError("m must be >= 1")
    ys, yi, c = p.rank[y(i, True)], p.rank[y(i)], Q((4 if i == p.n else 2) * m)
    low = (ys,) * (m - 1)  # the letters of Y^(m-1)
    terms = {(yi, *low, ys): ONE, (*low, ys, yi): -c, low: c - ONE}
    for k in range(1, i):
        terms[(*low, p.rank[y(k, True)], p.rank[y(k)])] = ONE - c
    return terms


def _refute(report: CheckReport, p: Presentation, terms, fuel: int, **names):
    """A witness (names, normal form, guard residual) if the rank-coded terms are not 0 in p."""
    nf = p.element(normalize_ranks(terms, p, fuel)[0])
    if not nf.is_zero():
        residual = _element_guard_residual(nf)
        report.max_residual = max(report.max_residual, residual)
        report.witnesses.append({**names, "normal_form": str(nf), "residual": residual})


def check_lemma_aux(p: Presentation, m_max: int) -> CheckReport:
    """The power identities I_m of `_lemma_aux_terms` must hold for
    all i and every m >= 1, or for m = 1 alone when m_max = 1; they are
    stated against the unit sphere, so reduction must be on.

    Write Y = y_i*, c_m = q^(sm) and T = 1 - sum_{k<i} y_k* y_k.  In the
    free algebra

        I_2 = I_1 Y + c_1 Y I_1 + (1 - c_1) [T, Y]
        I_m = I_(m-1) Y + c_(m-1) Y^(m-1) I_1 + (1 - c_(m-1)) Y^(m-2) [T, Y]

    and 1 - c_(m-1) = (1 - c_1)(1 + c_1 + .. + c_1^(m-2)).  So when I_1 and
    I_2 lie in the ideal of the relations, so does (1 - c_1) [T, Y], and by
    induction every I_m.  Rewriting is a congruence (Bergman 1978), so a
    zero normal form puts an element in that ideal, with no appeal to
    confluence: only I_1 and I_2 are normalized.  A witness names i, m and
    the nonzero normal form."""
    if p.kind != "Sigma":
        raise DomainError("the power identities live in the Sigma presentation")
    if not p.sphere_reduction:
        raise DomainError("the power identities require sphere reduction on")
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    report = CheckReport("lemma_aux", dict(_sym_params(p), m_max=m_max), tolerance=0.0)
    fuel = _fuel()
    for i in range(1, p.n + 1):
        for m in range(1, min(m_max, 2) + 1):
            _refute(report, p, _lemma_aux_terms(p, i, m), fuel, i=i, m=m)
    return report


def _lemma_main_terms(p: Presentation, k: int) -> dict[str, dict[tuple, LaurentPoly]]:
    """The identities of the main lemma at k, each 0 in the algebra, as
    {ranks: coefficient}, each letter coded by its rank in p.  With A = sum_{i>k}
    y_i* y_i, B = y_k and mu = q^s, s = 4 if k = n and 2 otherwise:

        commutator  BB* - B*B - (1 - mu) A            relation diag[k]
        sphere      A + B*B - 1 + sum_{j<k} y_j* y_j  the sphere relation
        exchange    mu A B - B A

    They are written term by term: the words of each are pairwise distinct,
    so no two terms combine."""
    if not 1 <= k <= p.n:
        raise DomainError("k must lie in 1..n")
    pairs = [(p.rank[y(i, True)], p.rank[y(i)]) for i in range(1, p.n + 2)]  # the words y_i* y_i
    (bs, b), a, mu = pairs[k - 1], pairs[k:], Q(4 if k == p.n else 2)
    return {
        "commutator": {(b, bs): ONE, (bs, b): -ONE, **dict.fromkeys(a, mu - ONE)},
        "sphere": {**dict.fromkeys(pairs, ONE), (): -ONE},
        "exchange": {**dict.fromkeys([(*w, b) for w in a], mu), **dict.fromkeys([(b, *w) for w in a], -ONE)},
    }


def check_lemma_main(p: Presentation, k: int) -> CheckReport:
    """The main lemma at k, proved in the algebra, so that it holds in every
    *-representation.  Each identity of `_lemma_main_terms(p, k)` must
    normalize to 0 against p, with sphere reduction on; rewriting is a
    congruence (Bergman 1978), so each then lies in the ideal of the
    relations.  As a premise, y_(k-1) must exchange by a monomial scalar
    with y_i and y_i* for every k <= i <= n + 1: the rule for the pair,
    whose left letter has the higher rank, must be that exchange.  The
    lemma at k needs this of every y_j, j < k, and report j + 1 checks it
    for y_j, so each pair is read once per suite, and the suite proves the
    lemma only if every report passes.

    The argument.  Let H be the joint kernel of y_1..y_(k-1) in a bounded
    *-representation, and mu = q0^s with q0 in (0, 1).  For j < k, y_j x =
    c x y_j for each letter x of A, B and B*, so H is invariant under A, B
    and B*.  On H each y_j* y_j is 0, so `sphere` gives A + B*B = 1, and
    `commutator` then BB* = B*B + (1 - mu) A = 1 - mu A.  As 0 <= A = 1 -
    B*B <= 1 on H, BB* >= 1 - mu > 0 is invertible and commutes with A.
    Right-multiplying `exchange` by B* gives B A B* = mu A BB*, so with
    U = (BB*)^(-1/2) B,

        U A U* = (BB*)^(-1/2) mu A BB* (BB*)^(-1/2) = mu A.

    A witness names the identity with its normal form and guard residual,
    or the premise with the generator and the letter."""
    if p.kind != "Sigma" or not p.sphere_reduction:
        raise DomainError("the main lemma is stated in the Sigma presentation with sphere reduction on")
    report = CheckReport("lemma_main", dict(_sym_params(p), k=k), tolerance=0.0)
    fuel = _fuel()
    for name, terms in _lemma_main_terms(p, k).items():
        _refute(report, p, terms, fuel, identity=name)
    if k > 1:
        g, rank = y(k - 1), p.rank
        report.witnesses += [{"premise": "scalar exchange", "generator": str(g), "letter": str(x)}
                             for i in range(k, p.n + 2) for x in (y(i), y(i, True))
                             if _scalar_exchange(p.rules, *((x, g) if rank[x] > rank[g] else (g, x))) is None]
    return report


def check_confluence(p: Presentation) -> CheckReport:
    """Prove the rewrite system confluent (Bergman's diamond lemma, Adv.
    Math. 29, 1978), with coefficients in Q(q).  `Presentation.validate`
    proves termination.

    With sphere reduction off every ambiguity is an overlap a b c of rules
    for (a, b) and (b, c): both reducts must have one normal form.  A
    witness holds the overlap word, both normal forms and the guard
    residual of their difference.

    With it on, the scattered step on e' m e is one reduction for each
    middle m, an infinite family, so no list of overlaps is finite.  The
    check instead resolves the a b c overlaps of the sphere-off sibling
    `off`, whose algebra is A, and demands five finite premises; a failing
    one is a witness {"premise": name, ...}:

    1. "rule pairs": `off` has exactly one rule per pair a b with rank a >
       rank b, and p has those pairs and the eliminated pair e' e;
    2. "graded": every right-hand word of `off` has length 2;
    3. "C central": C = (sphere relation) + 1 commutes with every
       generator in A;
    4. "rule modulo C - 1": each rule a b -> f of p holds modulo C - 1:
       r = normalize(a b - f, off) equals sigma (C - 1), sigma = -(the
       constant term of r).  The scattered step's exchange scalars and
       sphere rule are read from these rules, so it holds modulo C - 1 too;
    5. "greedy split": among the ranks strictly between e' and e, every
       letter with no scalar exchange with e ranks below every letter with
       no scalar exchange with e'.  `Presentation._step` moves e' right
       past the longest prefix of m with such exchanges and e left past the
       rest, so it fails only if a letter with none past e' comes at or
       before one with none past e.  A middle has no two-letter redex, so
       it is nondecreasing and the premise excludes that.  A witness names
       a middle of one or two letters that the split fails on.

    The proof.  `off` is confluent, so A, graded by premise 2, has the
    nondecreasing words B_off as a basis (premise 1).  Let B_on be the
    words of B_off that do not contain both e' and e: by premises 1 and 5
    they are the normal words of p.  p's rules without their constants hold
    in A/CA (premise 4) and lower word_key (checked by `validate`), so they
    span each (A/CA)_d by B_on; C is central (premise 3), so CA is an
    ideal.  Deleting one e' and one e gives #B_off,d = #B_on,d +
    #B_off,d-2.  So dim A_d = dim C A_(d-2) + dim (A/CA)_d <= #B_off,d-2 +
    #B_on,d = dim A_d: C is injective and A_d = C A_(d-2) (+) span B_on,d.
    If a nonzero combination of B_on were (C - 1) g, its top degree would
    be C times the top degree of g, nonzero and in C A, which meets
    span B_on only in 0.  So B_on is independent in A/(C - 1)A, a quotient
    of the algebra that p's rules present (premise 4), and so in that
    algebra.  p terminates, so every element has a unique normal form, and
    by Bergman every ambiguity resolves, for every middle m.

    The status is "proved", or "refuted" with witnesses; `overlaps` counts
    the a b c overlaps resolved, with sphere reduction on those of `off`.
    They are taken in `off.rules` order of the rule for a b, then of the
    rule for b c, found by an index on left letters: the cost is the number
    of overlaps, not of rule pairs.  Both reducts are rank-coded."""
    off = p if p.eliminated is None else (presentation_S if p.kind == "S" else presentation_Sigma)(p.n, False)
    report = CheckReport("confluence", _sym_params(p), tolerance=0.0)
    fuel, rules, overlaps, by_left = _fuel(), off._rank_rules, 0, {}
    for (b, c), rhs in rules.items():  # the rules for b c by b, in the order of off.rules
        by_left.setdefault(b, []).append((c, rhs))
    for (a, b), rhs in rules.items():
        for c, rhs2 in by_left.get(b, ()):
            overlaps += 1
            left = normalize_ranks({(*w, c): k for w, k in rhs}, off, fuel)[0]
            right = normalize_ranks({(a, *w): k for w, k in rhs2}, off, fuel)[0]
            if left != right:
                nf_left, nf_right = off.element(left), off.element(right)
                residual = _element_guard_residual(nf_left - nf_right)
                report.max_residual = max(report.max_residual, residual)
                report.witnesses.append({"overlap": str(off.word((a, b, c))), "left": str(nf_left),
                                         "right": str(nf_right), "residual": residual})
    if off is not p:
        rank, witnesses = off.rank, report.witnesses
        pairs = {(a, b) for a, b in itertools.product(off.generators, repeat=2) if rank[a] > rank[b]}
        for sphere, rules, want in (("off", off.rules, pairs), ("on", p.rules, pairs | {p.eliminated})):
            witnesses += [{"premise": "rule pairs", "sphere": sphere, "pair": str(w),
                           "rule": "missing" if w.letters in want else "extra"}
                          for w in sorted(map(Word, want ^ rules.keys()), key=off.ranks)]
        witnesses += [{"premise": "graded", "rule": str(Word(lhs)), "word": str(w)}
                      for lhs, rhs in off.rules.items() for w in rhs.words() if len(w) != 2]
        big_c = dict(relations_S(p.n) if p.kind == "S" else relations_Sigma(p.n))["sphere"] + Element.one()
        commutators = {g: normalize(big_c * Element.of(g) - Element.of(g) * big_c, off, fuel) for g in off.generators}
        witnesses += [{"premise": "C central", "generator": str(g), "normal_form": str(nf)}
                      for g, nf in commutators.items() if not nf.is_zero()]
        c_minus_1 = normalize(big_c, off, fuel) - Element.one()
        residues = {lhs: normalize(Element.of(*lhs) - rhs, off, fuel) for lhs, rhs in p.rules.items()}
        witnesses += [{"premise": "rule modulo C - 1", "rule": str(Word(lhs)), "normal_form": str(r)}
                      for lhs, r in residues.items() if r != c_minus_1 * -r.coeff(EMPTY_WORD)]
        estar, e, left, right, _ = p._sphere
        no_left, no_right = ([g for g in range(estar + 1, e) if g not in side] for side in (left, right))
        if no_left and no_right and no_left[-1] >= no_right[0]:
            middle = p.word(tuple(sorted({no_right[0], no_left[-1]})))
            witnesses.append({"premise": "greedy split", "middle": str(middle)})
    report.params.update(status="refuted" if report.witnesses else "proved", overlaps=overlaps)
    return report


# -- representation checks ----------------------------------------------------


def _shift_witnesses(n: int, starred: bool, premises) -> list[dict]:
    """Witnesses against the generic image of each y_i, i <= n (y_i* if
    starred): it must be one vector |k -+ e_i>, and premises(i, root,
    coefficient) gives the further premises on its term, each a name and
    whether it holds.  A witness names the generator and the first premise
    that fails."""
    witnesses = []
    for i in range(1, n + 1):
        g, move = y(i, starred), 1 if starred else -1
        image = generic_image(Element.of(g), n)
        [((shift, root), coeff)] = image.items() if len(image) == 1 else [((None, frozenset()), {})]
        unit = tuple(move * (j == i) for j in range(1, n + 1))
        checks = [("one vector", len(image) == 1),
                  (f"shift {'+' if starred else '-'}e_i", shift == unit), *premises(i, root, coeff)]
        failed = [name for name, holds in checks if not holds]
        if failed:
            witnesses.append({"generator": str(g), "premise": failed[0]})
    return witnesses


def check_kernel_structure(n: int) -> CheckReport:
    """dim H_k must equal (K+1)^(n-k), H_k the joint kernel of y_1..y_k on
    the rank-n space truncated at K; so the joint kernel of all of them is
    the vacuum.

    A proof for every K, q0 in (0, 1) and unit lambda: the generic image of
    each y_i, i <= n, must be the shift -e_i under the single atom
    sqrt(1 - t_i^s), s > 0, times a monomial.  The atom vanishes exactly at
    k_i = 0 and the monomial nowhere, so y_i kills exactly the |k> with
    k_i = 0 and maps the others to distinct basis vectors, and H_k is
    spanned by the |k> with k_1 = .. = k_k = 0."""
    def premises(i, root, coeff):
        return (("root sqrt(1 - t_i^s), s > 0", {(j, a, s > 0) for j, a, s in root} == {(i, 0, True)}),
                ("monomial coefficient", len(coeff) == 1))

    return CheckReport("kernel_structure", {"n": n}, tolerance=0.0,
                       witnesses=_shift_witnesses(n, False, premises))


def check_lowest_weight_basis(n: int) -> CheckReport:
    """Rebuild |k> from the vacuum by raising and normalizing with q-shifted
    factorials: on the grid k <= K - 1, (y_1*)^(k_1) .. (y_n*)^(k_n) |0> must
    be prod_i sqrt((q^s;q^s)_(k_i)) |k>, s = 4 in slot n and 2 otherwise, so
    that the Gram matrix of the normalized vectors is the identity.

    A proof for every K, q0 in (0, 1) and unit lambda: the generic image of
    each y_i*, i <= n, must be the shift +e_i under the single atom
    sqrt(1 - q^s t_i^s), times 1 times a monomial in t_1..t_(i-1) alone.
    Slot i is raised while the slots before it are 0, where that monomial
    is 1, so each step multiplies the vector by sqrt(1 - q^(s(k_i+1))), and
    no step starts at the cutoff."""
    def premises(i, root, coeff):
        s = 4 if i == n else 2
        return (("root sqrt(1 - q^s t_i^s), s = 4 in slot n, else 2", root == {(i, s, s)}),
                ("coefficient 1 times t_j, j < i", list(coeff.values()) == [1]
                 and not any(e for exps in coeff for e in (exps[0], *exps[i:]))))

    return CheckReport("lowest_weight_basis", {"n": n}, tolerance=0.0,
                       witnesses=_shift_witnesses(n, True, premises))


def _monomial_text(exps, names) -> str:
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e) or "1"


def _laurent_text(poly: dict, names) -> str:
    """A Laurent polynomial in several variables, terms in exponent order."""
    terms = []
    for exps, c in sorted(poly.items()):
        mono = _monomial_text(exps, names)
        if mono == "1":
            terms.append(str(c))
        elif c in (1, -1):
            terms.append(mono if c == 1 else "-" + mono)
        else:
            terms.append(f"{c}*{mono}")
    return " + ".join(terms).replace("+ -", "- ")


def _atom_text(atom: tuple[int, int, int], names) -> str:
    i, a, s = atom
    exps = [0] * len(names)
    exps[0], exps[i] = a, s
    return f"sqrt(1 - {_monomial_text(exps, names)})"


def _image_witnesses(name: str, image: dict, n: int) -> list[dict]:
    """One witness per nonzero coefficient of a rank-n generic image, in shift
    order: the relation's name, the shift, the atoms under the root, the
    coefficient and its largest magnitude as the residual."""
    if not image:
        return []
    names = ("q", *(f"t{i}" for i in range(1, n + 1)), "lambda")
    return [{"relation": name, "shift": list(shift),
             "root": [_atom_text(atom, names) for atom in sorted(root)],
             "coefficient": _laurent_text(image[shift, root], names),
             "residual": float(max(abs(v) for v in image[shift, root].values()))}
            for shift, root in sorted(image, key=lambda key: (key[0], sorted(key[1])))]


def check_relations_in_rep(n: int) -> CheckReport:
    """Every raw defining relation (`algebra.relations_Sigma`) must vanish on
    a generic basis vector (see the module docstring), which proves it on
    every |k>, for every cutoff K, q0 in (0, 1) and unit lambda.  A witness
    names the relation, the shift, the atoms under the root and the nonzero
    coefficient; its residual is the largest coefficient magnitude."""
    report = CheckReport("relations_in_rep", {"n": n}, tolerance=0.0,
                         witnesses=[w for name, rel in relations_Sigma(n)
                                    for w in _image_witnesses(name, generic_image(rel, n), n)])
    report.max_residual = max((w["residual"] for w in report.witnesses), default=0.0)
    return report


def sample_relations_in_rep(c: RepConfig) -> CheckReport:
    """Every raw defining relation must vanish on every interior basis vector
    of the truncation (the sphere relation on every vector), read from all
    columns of each relation's matrix, with residuals within 1e-12."""
    if c.K < 2:
        raise DomainError("interior checks need K >= 2")
    report = CheckReport("relations_in_rep", rep_params(c.n, c.q0, c.lam, c.K, "numeric"),
                         tolerance=NUMERIC_TOL)
    indices = fock_array(c)
    interior = np.flatnonzero(np.all(indices <= c.K - 2, axis=1))
    for name, rel in relations_Sigma(c.n):
        ranks = (np.arange(c.dim) if name.startswith("sphere") else interior).tolist()
        m = matrix(rel, c)
        worst = np.zeros(c.dim)
        np.maximum.at(worst, m.cols, np.hypot(m.values.real, m.values.imag))
        for rank, residual in zip(ranks, worst[ranks].tolist()):
            report.max_residual = max(report.max_residual, residual)
            if residual > NUMERIC_TOL:
                report.witnesses.append({"relation": name, "k": indices[rank].tolist(),
                                         "residual": residual})
    return report


# -- suite orchestration -------------------------------------------------------

SUITES = ("all", "relations", "lemma-aux", "lemma-main", "kernel", "basis", "confluence")
_PROOFS = {"relations": check_relations_in_rep, "kernel": check_kernel_structure,
           "basis": check_lowest_weight_basis}  # the representation proofs, which read only n


def run_suite(suite: str, kind: str, n: int, sphere: bool = True,
              params: dict | None = None) -> list[CheckReport]:
    """The reports of one named suite (or all applicable ones) on kind "S" or
    "Sigma" (any other kind is refused) at rank n.  Only here is it decided what a suite reads: relations
    and confluence the presentation at sphere, the lemma suites the sphere-on
    Sigma one (lemma-aux at m_max = 5), kernel and basis n alone; all but
    relations and confluence need Sigma.  The representation reports carry
    params (`rep_params`): mode "numeric" samples the relations on the
    truncation, refused past rep.MAX_DIM before n past MAX_RULES is; "exact",
    or no params (the reports then carry n alone), proves them."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    if kind not in ("S", "Sigma"):
        raise DomainError(f"unknown algebra {kind!r}; choose from S, Sigma")
    wants = SUITES[1:] if suite == "all" else (suite,)
    numeric = kind == "Sigma" and "relations" in wants and params and params["mode"] == "numeric"
    sampled = RepConfig(n, Fraction(params["q0"]), complex(*params["lambda"]), params["K"]) if numeric else None
    _require_size(kind, n)
    reports: list[CheckReport] = []
    for name in wants:
        if name in ("relations", "confluence"):
            p = (presentation_S if kind == "S" else presentation_Sigma)(n, sphere)
            reports.append(check_confluence(p) if name == "confluence" else check_symbolic_relations(p))
            if name == "confluence" or kind != "Sigma":
                continue
        elif kind != "Sigma":
            if suite != "all":
                raise DomainError(f"suite {name!r} needs the Sigma algebra")
            continue
        if name in ("lemma-aux", "lemma-main"):  # these read no representation
            on = presentation_Sigma(n)
            reports += ([check_lemma_aux(on, 5)] if name == "lemma-aux"
                        else [check_lemma_main(on, k) for k in range(1, n + 1)])
        elif name == "relations" and sampled is not None:
            reports.append(sample_relations_in_rep(sampled))
        else:
            report = _PROOFS[name](n)
            report.params.update(params or {})
            reports.append(report)
    return reports
