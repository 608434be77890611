"""Machine checks for every identity the toolkit is built around.

Symbolic checks normalize a relation (or a derived power identity) and
demand the zero element.  Representation checks apply relations to
truncated basis vectors, compare operator blocks, count joint kernels,
and rebuild the orthonormal basis from the lowest-weight vector.  Each
check returns a CheckReport with the worst residual and the failing
witnesses, serializable as JSON.

Exact mode proves the relations in the representation instead of
sampling one truncation.  On a generic basis vector |k> of the untruncated
space, with t_i = q^(k_i), each generator maps |k> to one vector |k + d>
with amplitude lambda^p times a monomial in q and t times at most one atom
sqrt(1 - q^a t_i^s), s = 2, or 4 in slot n (`rep.generator_shift`).  So a
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
import math
from dataclasses import dataclass, field
from fractions import Fraction

from ._lazy import lazy_import
from .algebra import (
    Element,
    Presentation,
    Word,
    normalize,
    presentation_Sigma,
    relations_S,
    relations_Sigma,
    y,
)
from .rep import (  # apply_element is kept importable here: perfbench/tracing.py wraps it
    RepConfig,
    apply_element,
    fock_array,
    generic_image,
    matrix,
    shift_table,
)
from .scalar import DomainError, LaurentPoly, qpochhammer  # qpochhammer: perfbench/tracing.py wraps it

np = lazy_import("numpy")

ONE = LaurentPoly.one()
Q = LaurentPoly.q

GUARD_POINTS = (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5))
DEFINING_TOL = 1e-12
SCATTER_MIDDLE_MAX = 2
UNITARY_TOL = 1e-8
NUMERIC_TOL = 1e-12


class ConfigurationError(RuntimeError):
    """The truncation is too small for the requested operator check."""


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


def _rep_params(c: RepConfig) -> dict:
    return {"n": c.n, "K": c.K, "q0": f"{c.q0.numerator}/{c.q0.denominator}",
            "lambda": [c.lam.real, c.lam.imag], "mode": c.mode}


# -- symbolic checks ---------------------------------------------------------


def check_symbolic_relations(p: Presentation) -> CheckReport:
    """Every defining relation (and star conjugate) realized by the
    presentation must normalize to the zero element."""
    relations = relations_S(p.n) if p.kind == "S" else relations_Sigma(p.n)
    report = CheckReport("symbolic_relations", _sym_params(p), tolerance=0.0)
    for name, rel in relations:
        if name.startswith("sphere") and not p.sphere_reduction:
            continue
        nf = normalize(rel, p)
        if not nf.is_zero():
            residual = _element_guard_residual(nf)
            report.max_residual = max(report.max_residual, residual)
            report.witnesses.append({"relation": name, "normal_form": str(nf),
                                     "residual": residual})
    return report


def lemma_aux_identity(n: int, i: int, m: int) -> Element:
    """LHS - RHS of the lowering/raising power identity

        y_i (y_i*)^m - q^(2m) (y_i*)^m y_i
                     - (1 - q^(2m)) (y_i*)^(m-1) (1 - sum_{k<i} y_k* y_k)

    with exponents 4m in place of 2m when i = n."""
    if not 1 <= i <= n:
        raise DomainError("i must lie in 1..n")
    if m < 1:
        raise DomainError("m must be >= 1")
    step = 4 if i == n else 2
    ys = Element.of(y(i, True))
    lhs = Element.of(y(i)) * ys**m
    tail = Element.one()
    for k in range(1, i):
        tail = tail - Element.of(y(k, True), y(k))
    rhs = ys**m * Element.of(y(i)) * Q(step * m) + ys**(m - 1) * tail * (ONE - Q(step * m))
    return lhs - rhs


def check_lemma_aux(p: Presentation, m_max: int) -> CheckReport:
    """The power identities must normalize to zero for all i and m <= m_max;
    they are stated against the unit sphere, so reduction must be on.

    Powers are built incrementally, nf(y_i (y_i*)^m) as nf(nf(y_i (y_i*)^(m-1)) y_i*)
    and nf((y_i*)^(m-1) tail) as nf(y_i* nf((y_i*)^(m-2) tail)); the tail and
    (y_i*)^m y_i are normal.  Rewriting is a congruence (Bergman 1978), so the
    residual is reached from lemma_aux_identity by rewriting and its zero proves
    the identity; with unique normal forms (check_confluence) it equals the from-scratch one."""
    if p.kind != "Sigma":
        raise DomainError("the power identities live in the Sigma presentation")
    if not p.sphere_reduction:
        raise DomainError("the power identities require sphere reduction on")
    if m_max < 1:
        raise DomainError("m_max must be >= 1")
    params = dict(_sym_params(p), m_max=m_max)
    report = CheckReport("lemma_aux", params, tolerance=0.0)
    for i in range(1, p.n + 1):
        step, ys, yi = 4 if i == p.n else 2, Element.of(y(i, True)), Element.of(y(i))
        tail = Element.one() - sum((Element.of(y(k, True), y(k)) for k in range(1, i)), Element.zero())
        lowered, raised_tail, power = yi, tail, Element.one()
        for m in range(1, m_max + 1):
            lowered, power = normalize(lowered * ys, p), power * ys
            if m > 1:
                raised_tail = normalize(ys * raised_tail, p)
            nf = lowered - power * yi * Q(step * m) - raised_tail * (ONE - Q(step * m))
            if not nf.is_zero():
                residual = _element_guard_residual(nf)
                report.max_residual = max(report.max_residual, residual)
                report.witnesses.append({"i": i, "m": m, "normal_form": str(nf),
                                         "residual": residual})
    return report


def _ambiguities(p: Presentation):
    """Every ambiguity checked, as (overlap word, one reduct, the other).

    The reductions are the two-letter rules and, with sphere reduction on,
    the scattered step on e' m e: e' e is the eliminated pair, m holds
    neither letter and e' m e no two-letter redex, as when normalization
    takes the step.  No rule fits inside e' m e, and two scattered steps
    that share a letter act on the same word, so the ambiguities are
    a b c with rules for (a, b) and (b, c), and x e' m e and e' m e z
    with rules for (x, e') and (e, z)."""
    for (a, b), rhs in p.rules.items():
        for (b2, c), rhs2 in p.rules.items():
            if b2 == b:
                yield Word((a, b, c)), rhs * Element.of(c), Element.of(a) * rhs2
    if p.eliminated is None:
        return
    estar, e = p.eliminated
    middle_letters = [g for g in p.generators if g not in p.eliminated]
    for length in range(1, SCATTER_MIDDLE_MAX + 1):
        for mid in itertools.product(middle_letters, repeat=length):
            core = (estar, *mid, e)
            if any(pair in p.rules for pair in zip(core, core[1:])):
                continue
            step = p.reduce_word_once(Word(core))
            for (g, h), rhs in p.rules.items():
                if h == estar:
                    yield Word((g, *core)), rhs * Element.of(*mid, e), Element.of(g) * step
                if g == e:
                    yield Word((*core, h)), step * Element.of(h), Element.of(estar, *mid) * rhs


def check_confluence(p: Presentation) -> CheckReport:
    """Resolve every ambiguity of the rewrite system (Bergman's diamond
    lemma): both reducts of each overlap word must have one normal form.
    A witness holds the overlap word, both normal forms and the guard
    residual of their difference.

    `Presentation.validate` proves termination, so with sphere reduction
    off, where every ambiguity is a b c, the status is "proved".  With it
    on, the scattered family is infinite in m and is resolved for
    1 <= |m| <= SCATTER_MIDDLE_MAX only: "checked".  An unresolved overlap
    has two normal forms: "refuted"."""
    report = CheckReport("confluence", _sym_params(p), tolerance=0.0)
    overlaps = 0
    for overlaps, (word, left, right) in enumerate(_ambiguities(p), start=1):
        nf_left, nf_right = normalize(left, p), normalize(right, p)
        if nf_left != nf_right:
            residual = _element_guard_residual(nf_left - nf_right)
            report.max_residual = max(report.max_residual, residual)
            report.witnesses.append({"overlap": str(word), "left": str(nf_left),
                                     "right": str(nf_right), "residual": residual})
    status = "refuted" if report.witnesses else "checked" if p.eliminated else "proved"
    report.params.update(status=status, overlaps=overlaps)
    if p.eliminated is not None:
        report.params["middle_max"] = SCATTER_MIDDLE_MAX
    return report


# -- representation checks ----------------------------------------------------


def joint_kernel_dims(c: RepConfig) -> list[int]:
    """Dimensions of the nested joint kernels of y_1, .., y_k for k = 1..n.
    The stacked matrix of y_1..y_k has orthogonal columns (see qsphere.rep),
    so its nullity is the number of basis vectors every y_i, i <= k, kills."""
    cn = c.numeric()
    killed = np.ones(cn.dim, dtype=bool)
    dims = []
    for i in range(1, cn.n + 1):
        killed &= shift_table(cn, y(i))[1] == 0
        dims.append(int(np.count_nonzero(killed)))
    return dims


def check_kernel_structure(c: RepConfig) -> CheckReport:
    """dim H_k must equal (K+1)^(n-k); in particular the joint kernel of
    all lowering generators is one-dimensional."""
    dims = joint_kernel_dims(c)
    report = CheckReport("kernel_structure", _rep_params(c), tolerance=0.0)
    for k, got in enumerate(dims, start=1):
        want = (c.K + 1) ** (c.n - k)
        if got != want:
            report.witnesses.append({"k": k, "dim": got, "expected": want})
            report.max_residual = max(report.max_residual, float(abs(got - want)))
    return report


def check_lemma_main(c: RepConfig, k: int) -> CheckReport:
    """Operator identities for A = sum_{i>k} y_i* y_i and B = y_k restricted
    to the joint kernel of y_1..y_{k-1}:

        [B, B*] = (1 - mu) A        A + B*B = 1
        mu A = U A U*  with  U = (BB*)^(-1/2) B,  BB* = 1 - mu A

    with mu = q0^2 for k < n and q0^4 for k = n, compared on interior
    rows and columns.  The joint kernel is the coordinate subspace where
    k_1..k_{k-1} vanish, the first (K+1)^(n-k+1) ranks: A, B are leading blocks.
    There A is diagonal and B an injective weighted shift, so BB*, B*B and
    U A U* are diagonal and each identity compares two vectors.  A witness
    names the first rank that breaks this reduction: a column of A with an
    off-diagonal entry, a live source of B mapped out of the block, or a
    target that B hits twice."""
    if not 1 <= k <= c.n:
        raise DomainError("k must lie in 1..n")
    if c.K < 2:
        raise DomainError("the operator identities need K >= 2")
    cn = c.numeric()
    mu = float(cn.q0 ** (2 if k < cn.n else 4))
    size = (cn.K + 1) ** (cn.n - k + 1)
    report = CheckReport("lemma_main", dict(_rep_params(c), k=k, mu=mu), tolerance=UNITARY_TOL)

    a_elem = sum((Element.of(y(i, True), y(i)) for i in range(k + 1, cn.n + 2)), Element.zero())
    a_mat = matrix(a_elem, cn)
    in_block = (a_mat.rows < size) & (a_mat.cols < size)
    target, amp = shift_table(cn, y(k))
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
    inside = np.all(fock_array(cn)[:size] <= cn.K - 2, axis=1)

    # BB* equals 1 - mu A, which is positive definite wherever the
    # truncation is faithful; it is checked on the interior block.
    if float(np.min(bbs[inside], initial=np.inf)) <= 0.0:
        raise ConfigurationError("BB* is not positive definite on the restricted "
                                 "interior; increase the cutoff K")
    s_op = 1.0 - mu * a.real
    if float(s_op.min()) <= 0.0:
        raise ConfigurationError("1 - mu A is not positive definite; increase K")
    uau[tgt] = b2 * a[src] / s_op[tgt]
    r1, r2, r3 = (float(np.max(np.abs(residual[inside]), initial=0.0))
                  for residual in (bbs - bsb - (1.0 - mu) * a, a + bsb - 1.0, mu * a - uau))
    for name, residual in (("commutator", r1), ("sphere", r2)):
        if residual > DEFINING_TOL:
            report.witnesses.append({"identity": name, "residual": residual})
    report.max_residual = max(r1, r2, r3)
    return report


def check_lowest_weight_basis(c: RepConfig) -> CheckReport:
    """Rebuild |k> from the vacuum by raising and normalizing with
    q-shifted factorials; the Gram matrix must be the identity and every
    constructed vector must coincide with its basis vector.

    All grid indices are raised together: (y_i*)^(k_i) is applied one
    factor at a time, i = n down to 1, through the shift table of y_i*.
    Each result is a multiple v |r> of one basis vector, so the Gram matrix
    holds |v|^2 on its diagonal and conj(v) v' between vectors sharing r."""
    cn = c.numeric()
    n, K = cn.n, cn.K
    indices = fock_array(cn)
    grid = np.flatnonzero(np.all(indices <= K - 1, axis=1))
    report = CheckReport("lowest_weight_basis", _rep_params(c), tolerance=NUMERIC_TOL)

    rank, amp = np.zeros(len(grid), dtype=np.int64), np.ones(len(grid), dtype=complex)
    for i in range(n, 0, -1):
        target, factor = shift_table(cn, y(i, True))
        for power in range(K - 1):
            more = indices[grid, i - 1] > power
            amp[more] *= factor[rank[more]]
            rank[more] = target[rank[more]]

    pochhammer = {}  # (q^s;q^s)_k at q0, exactly, as a running product
    for step in (2, 4):
        value = Fraction(1)
        for ki in range(K):
            pochhammer[step, ki] = value
            value *= 1 - cn.q0 ** (step * (ki + 1))
    norms = [float(math.prod(pochhammer[4 if i == n else 2, ki] for i, ki in enumerate(k, 1)))
             for k in indices[grid].tolist()]
    values = amp / np.sqrt(norms)
    mags = np.abs(values)
    defects = np.where(rank == grid, np.abs(values - 1.0), np.maximum(mags, 1.0))
    report.max_residual = float(np.max(defects, initial=0.0))
    for j in np.flatnonzero(defects > NUMERIC_TOL).tolist():
        report.witnesses.append({"k": indices[grid[j]].tolist(), "basis_defect": float(defects[j])})

    order = np.lexsort((-mags, rank))  # largest magnitude first within each rank
    shared = mags[order[1:]] * mags[order[:-1]] * (rank[order[1:]] == rank[order[:-1]])
    gram_defect = float(max(np.max(np.abs(mags**2 - 1.0), initial=0.0), np.max(shared, initial=0.0)))
    report.max_residual = max(report.max_residual, gram_defect)
    if gram_defect > NUMERIC_TOL:
        report.witnesses.append({"gram_defect": gram_defect})
    return report


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


def prove_relations_in_rep(n: int) -> list[dict]:
    """Witnesses against the defining relations on a generic basis vector
    (see the module docstring): none proves every relation on every |k>,
    for every cutoff K, q0 in (0, 1) and unit lambda.  A witness names the
    relation, the shift, the atoms under the root and the nonzero
    coefficient; its residual is the largest coefficient magnitude."""
    names = ("q", *(f"t{i}" for i in range(1, n + 1)), "lambda")
    witnesses = []
    for name, rel in relations_Sigma(n):
        image = generic_image(rel, n)
        for shift, root in sorted(image, key=lambda key: (key[0], sorted(key[1]))):
            coeff = image[shift, root]
            witnesses.append({"relation": name, "shift": list(shift),
                              "root": [_atom_text(atom, names) for atom in sorted(root)],
                              "coefficient": _laurent_text(coeff, names),
                              "residual": float(max(abs(c) for c in coeff.values()))})
    return witnesses


def check_relations_in_rep(c: RepConfig, p: Presentation) -> CheckReport:
    """Every raw defining relation must vanish on every interior basis
    vector (the sphere relation on every vector).  Exact mode proves this
    for every K, q0 and unit lambda at once (`prove_relations_in_rep`);
    numeric mode reads all columns from each relation's matrix and demands
    residuals within 1e-12."""
    if p.kind != "Sigma" or p.n != c.n:
        raise DomainError("relations are checked in the matching Sigma presentation")
    if p.sphere_reduction:
        raise DomainError("relations are checked raw: use a sphere-off presentation")
    if c.K < 2:
        raise DomainError("interior checks need K >= 2")
    if c.mode == "exact":
        report = CheckReport("relations_in_rep", _rep_params(c), tolerance=0.0,
                             witnesses=prove_relations_in_rep(c.n))
        report.max_residual = max((w["residual"] for w in report.witnesses), default=0.0)
        return report
    report = CheckReport("relations_in_rep", _rep_params(c), tolerance=NUMERIC_TOL)
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


def run_suite(suite: str, p: Presentation, c: RepConfig | None, m_max: int = 5) -> list[CheckReport]:
    """Run one named suite (or all applicable ones) and return the reports."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    reports: list[CheckReport] = []
    wants = SUITES[1:] if suite == "all" else (suite,)
    for name in wants:
        if name == "relations":
            reports.append(check_symbolic_relations(p))
            if c is not None and p.kind == "Sigma":
                raw = presentation_Sigma(p.n, sphere_reduction=False)
                reports.append(check_relations_in_rep(c, raw))
            continue
        if name == "confluence":
            reports.append(check_confluence(p))
            continue
        if p.kind != "Sigma" or c is None:
            if suite != "all":
                raise DomainError(f"suite {name!r} needs the Sigma algebra and "
                                  "representation parameters")
            continue
        if name == "lemma-aux":
            sphere_on = p if p.sphere_reduction else presentation_Sigma(p.n)
            reports.append(check_lemma_aux(sphere_on, m_max))
        elif name == "lemma-main":
            for k in range(1, c.n + 1):
                reports.append(check_lemma_main(c, k))
        elif name == "kernel":
            reports.append(check_kernel_structure(c))
        elif name == "basis":
            reports.append(check_lowest_weight_basis(c))
    return reports
