"""Machine checks for every identity the toolkit is built around.

Symbolic checks normalize a relation (or a derived power identity) and
demand the zero element.  Representation checks apply relations to
truncated basis vectors, compare operator blocks, count joint kernels,
and rebuild the orthonormal basis from the lowest-weight vector.  Each
check returns a CheckReport with the worst residual and the failing
witnesses, serializable as JSON.

Exact-mode zeros are exact: square roots of distinct square-free products
of pairwise non-associate irreducibles, such as the radical atoms 1 - q
and Phi_d, are linearly independent over Q(q), so a radical sum is zero
exactly when each of its coefficients is.  A nonzero residual is sized
numerically at three rational points of (0, 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import (
    Element,
    Presentation,
    normalize,
    presentation_Sigma,
    relations_S,
    relations_Sigma,
    y,
)
from .rep import (  # apply_element is kept importable here: perfbench/tracing.py wraps it
    ExactAmp,
    RepConfig,
    apply_element,
    exact_action,
    fock_array,
    matrix,
    shift_table,
)
from .scalar import DomainError, LaurentPoly, qpochhammer

ONE = LaurentPoly.one()
Q = LaurentPoly.q

GUARD_POINTS = (Fraction(1, 3), Fraction(1, 2), Fraction(3, 5))
DEFINING_TOL = 1e-12
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
    the identity; with unique normal forms it equals the from-scratch one."""
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

    pochhammer = {(step, ki): qpochhammer(Q(step), Q(step), ki).evaluate(cn.q0)
                  for step in (2, 4) for ki in range(K)}
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


def check_relations_in_rep(c: RepConfig, p: Presentation) -> CheckReport:
    """Apply every raw defining relation to every interior basis vector
    (the sphere relation to every vector); residuals must vanish exactly
    in exact mode and within 1e-12 in numeric mode.  Numeric mode reads all
    columns from each relation's matrix; exact mode streams the columns of
    each relation through one `exact_action` call, one column in memory at a
    time, and evaluates the guard points only on nonzero columns."""
    if p.kind != "Sigma" or p.n != c.n:
        raise DomainError("relations are checked in the matching Sigma presentation")
    if p.sphere_reduction:
        raise DomainError("relations are checked raw: use a sphere-off presentation")
    if c.K < 2:
        raise DomainError("interior checks need K >= 2")
    tolerance = 0.0 if c.mode == "exact" else NUMERIC_TOL
    report = CheckReport("relations_in_rep", _rep_params(c), tolerance=tolerance)
    indices = fock_array(c)
    interior = np.flatnonzero(np.all(indices <= c.K - 2, axis=1))
    unit = ExactAmp.one().parts()
    for name, rel in relations_Sigma(c.n):
        ranks = (np.arange(c.dim) if name.startswith("sphere") else interior).tolist()
        if c.mode == "numeric":
            m = matrix(rel, c)
            worst = np.zeros(c.dim)
            np.maximum.at(worst, m.cols, np.hypot(m.values.real, m.values.imag))
            found = zip(ranks, worst[ranks].tolist())
        else:
            columns = exact_action(rel, ((r, unit) for r in ranks), c)
            found = [(r, max(abs(a.evaluate(q0)) for q0 in GUARD_POINTS for a in column.values()))
                     for r, column in zip(ranks, columns) if column]
        for rank, residual in found:
            report.max_residual = max(report.max_residual, residual)
            if residual > tolerance or c.mode == "exact":
                report.witnesses.append({"relation": name, "k": indices[rank].tolist(),
                                         "residual": residual})
    return report


# -- suite orchestration -------------------------------------------------------

SUITES = ("all", "relations", "lemma-aux", "lemma-main", "kernel", "basis")


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
