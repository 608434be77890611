"""Truncated irreducible representations of the 2n+1 quotient algebra.

The representation acts on the span of basis vectors |k>, k in N^n with
every component cut off at K.  The lowering generators y_1..y_n shift one
component down with a sqrt(1 - q^(2k)) style factor (the n-th component
carries q^4 powers), their adjoints shift up with the index advanced by
one, and y_{n+1} is diagonal with unitary parameter lambda:

    y_i  |k> = q^(k_1+..+k_{i-1}) sqrt(1 - q^(2 k_i))   |k - e_i>   (i < n)
    y_n  |k> = q^(k_1+..+k_{n-1}) sqrt(1 - q^(4 k_n))   |k - e_n>
    y_i* |k> = q^(k_1+..+k_{i-1}) sqrt(1 - q^(2 k_i+2)) |k + e_i>   (i < n)
    y_n* |k> = q^(k_1+..+k_{n-1}) sqrt(1 - q^(4 k_n+4)) |k + e_n>
    y_{n+1} |k> = lambda q^(|k| + k_n) |k>

Raising past the cutoff annihilates the vector, so defining relations are
only guaranteed on interior indices (all components <= K - 2).

Every generator is therefore a weighted shift: with basis vectors ranked
lexicographically (k_1 major), `shift_table` gives each source rank one
target rank, a stride (K+1)^(n-i) away for y_i and y_i*, and one
amplitude, zero where the image vanishes.  A word acts on many basis
vectors at once by composing its tables right to left.  Each y_i is
injective on its support, so the stacked matrices of y_1..y_k have
orthogonal columns and their rank counts the vectors some y_i does not kill.

Two amplitude modes are supported.  Numeric mode stores complex doubles,
computed term by term as scalar complex arithmetic would.  Exact-radical mode
keeps amplitudes symbolic in q as a Gaussian-rational pair of radical
sums, so identity checks yield exact zeros; it requires lambda to be an
exact rational point on the unit circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product

from ._lazy import lazy_import
from .algebra import Element, Generator
from .scalar import DomainError, LaurentPoly, RadicalScalar, RadicalSum, radical_canonicalize

np = lazy_import("numpy")

# Largest truncation (K+1)^n accepted.  Bytes per basis vector in numeric
# mode, from tracemalloc peaks:
#   fock_array                 8 n B, at most 160 B (n <= 20 once K >= 1)
#   16 cached shift tables     16 x (8 B target + 16 B amplitude) = 384 B
#   one matrix() call          350 B at n = 2, 510 B at n = 4, 1.0 KB at
#                              n = 10, 1.2 KB at n = 16 (sphere relation)
# so under 160 + 384 + 1500 B ~ 2 KiB per vector, and 2^20 vectors keep a
# run within 2 GiB.
MAX_DIM = 2**20

ONE, ZERO = LaurentPoly.one(), LaurentPoly.zero()

_EXACT_COMPLEX = {1 + 0j: (Fraction(1), Fraction(0)),
                  -1 + 0j: (Fraction(-1), Fraction(0)),
                  1j: (Fraction(0), Fraction(1)),
                  -1j: (Fraction(0), Fraction(-1))}


@dataclass(frozen=True)
class RepConfig:
    """Truncation parameters: rank n, rational q0 in (0,1), unitary lambda,
    per-component cutoff K, and amplitude mode."""

    n: int
    q0: Fraction
    lam: complex
    K: int
    mode: str = "numeric"
    lam_exact: tuple[Fraction, Fraction] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if self.K < 0:
            raise DomainError("cutoff K must be >= 0")
        if (self.K + 1) ** self.n > MAX_DIM:
            raise DomainError(f"(K+1)^n = {self.K + 1}^{self.n} basis vectors exceed "
                              f"the limit of {MAX_DIM}")
        q0 = Fraction(self.q0)
        if not 0 < q0 < 1:
            raise DomainError(f"q0 = {self.q0} is outside (0, 1)")
        object.__setattr__(self, "q0", q0)
        if self.mode not in ("numeric", "exact"):
            raise DomainError(f"unknown mode {self.mode!r}")
        lam = complex(self.lam)
        if not math.isfinite(abs(lam)):
            raise DomainError(f"lambda = {lam} is not finite")
        object.__setattr__(self, "lam", lam)
        exact = self.lam_exact
        if exact is None:
            exact = _EXACT_COMPLEX.get(lam)
        if exact is not None:
            re, im = Fraction(exact[0]), Fraction(exact[1])
            if re * re + im * im != 1:
                raise DomainError(f"exact lambda {exact} is not on the unit circle")
            object.__setattr__(self, "lam_exact", (re, im))
            object.__setattr__(self, "lam", complex(float(re), float(im)))
        else:
            if abs(abs(lam) - 1.0) > 1e-12:
                raise DomainError(f"|lambda| = {abs(lam)} is not 1 within 1e-12")
        if self.mode == "exact" and self.lam_exact is None:
            raise DomainError("exact mode needs an exact rational unit lambda")

    @property
    def dim(self) -> int:
        return (self.K + 1) ** self.n

    def numeric(self) -> RepConfig:
        """The same truncation with numeric amplitudes."""
        return self if self.mode == "numeric" else replace(self, mode="numeric")


def fock_indices(c: RepConfig):
    """All truncated indices in rank order (lexicographic, k_1 major)."""
    return product(range(c.K + 1), repeat=c.n)


def fock_array(c: RepConfig) -> np.ndarray:
    """All truncated indices as a (dim, n) array; row r is the index of rank r."""
    return np.indices((c.K + 1,) * c.n).reshape(c.n, -1).T


def rank_of(k: tuple[int, ...], c: RepConfig) -> int:
    return int(np.ravel_multi_index(k, (c.K + 1,) * c.n))


def index_of(rank: int, c: RepConfig) -> tuple[int, ...]:
    return tuple(int(ki) for ki in np.unravel_index(rank, (c.K + 1,) * c.n))


def is_interior(k: tuple[int, ...], c: RepConfig, margin: int = 2) -> bool:
    """True when every component sits at least `margin` below the cutoff."""
    return all(ki <= c.K - margin for ki in k)


class ExactAmp:
    """A Gaussian-rational amplitude: (re + i*im) with RadicalSum parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RadicalSum, im: RadicalSum):
        self.re = re
        self.im = im

    @classmethod
    def one(cls) -> ExactAmp:
        return cls(RadicalSum.one(), RadicalSum.zero())

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def parts(self) -> list[tuple]:
        """The amplitude as factors (root, re, im), one per root of each part."""
        return ([(root, p, ZERO) for root, p in self.re.items()]
                + [(root, ZERO, p) for root, p in self.im.items()])

    def evaluate(self, q0) -> complex:
        return complex(self.re.evaluate(q0), self.im.evaluate(q0))

    def __eq__(self, other):
        if not isinstance(other, ExactAmp):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __str__(self):
        return f"({self.re}) + i*({self.im})"

    __repr__ = __str__


@dataclass
class StateVector:
    """Sparse vector on the truncated basis; amplitudes are complex numbers
    in numeric mode and ExactAmp values in exact mode."""

    mode: str
    amplitudes: dict[tuple[int, ...], object] = field(default_factory=dict)

    def is_zero(self) -> bool:
        return not self.amplitudes

    def items(self):
        return sorted(self.amplitudes.items())


def basis_state(c: RepConfig, k: tuple[int, ...]) -> StateVector:
    k = tuple(k)
    if len(k) != c.n or any(ki < 0 or ki > c.K for ki in k):
        raise DomainError(f"index {k} outside the truncated basis")
    amp = ExactAmp.one() if c.mode == "exact" else complex(1.0)
    return StateVector(c.mode, {k: amp})


# -- shift tables ---------------------------------------------------------------


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) on split parts, term by term as CPython's
    complex product computes it (a float operand has imaginary part 0.0);
    numpy's complex product may fuse multiply-adds and round differently."""
    return ar * br - ai * bi, ar * bi + ai * br


@lru_cache(maxsize=16)
def shift_table(c: RepConfig, g: Generator):
    """(target, amp) for one generator, cached for the last few configurations:
    source rank r goes to target[r] with amplitude amp[r].  Numeric tables
    are arrays, amp complex and zero where the image vanishes; exact tables
    are lists, amp[r] a factor (root, re, im) standing for (re + i im)
    sqrt(root) with Laurent re and im, or None where the image vanishes."""
    if g.family != "y" or not 1 <= g.index <= c.n + 1:
        raise DomainError(f"generator {g} does not act in the rank-{c.n} representation")
    n, K, q0, i = c.n, c.K, c.q0, g.index
    ranks, k = np.arange(c.dim), fock_array(c)
    if i == n + 1:
        target, exps = ranks, k.sum(axis=1) + k[:, -1]
    else:
        step, ki, stride = (4 if i == n else 2), k[:, i - 1], (K + 1) ** (n - i)
        alive, radicand = (ki < K, ki + 1) if g.starred else (ki > 0, ki)
        target = np.where(alive, ranks + (stride if g.starred else -stride), ranks)
        prefix = k[:, : i - 1].sum(axis=1)

    if c.mode == "exact":
        shared = {}  # one factor object per distinct amplitude keeps the cache small
        if i == n + 1:
            re, im = c.lam_exact[0], -c.lam_exact[1] if g.starred else c.lam_exact[1]
            amp = [shared.setdefault(e, (frozenset(), LaurentPoly.q(e, re), LaurentPoly.q(e, im)))
                   for e in exps.tolist()]
        else:
            roots = [None] + [radical_canonicalize([step * s]) for s in range(1, K + 2)]
            amp = [shared.setdefault((s, p), (roots[s].root, roots[s].poly * LaurentPoly.q(p), ZERO))
                   if live else None for live, s, p in zip(alive.tolist(), radicand.tolist(), prefix.tolist())]
        return target.tolist(), amp

    powers = np.array([float(q0 ** e) for e in range((n + 1) * K + 1)])
    if i == n + 1:
        lam = c.lam.conjugate() if g.starred else c.lam
        re, im = _cmul(lam.real, lam.imag, powers[exps], 0.0)
    else:
        roots = np.array([math.sqrt(float(1 - q0 ** (step * s))) for s in range(K + 2)])
        re, im = np.where(alive, powers[prefix] * roots[radicand], 0.0), 0.0
    amp = np.empty(c.dim, dtype=complex)
    amp.real, amp.imag = re, im
    target.flags.writeable = amp.flags.writeable = False  # shared through the cache
    return target, amp


def _numeric_action(e: Element, src: np.ndarray, amps: np.ndarray, c: RepConfig, stride: int):
    """Each word of e, times its coefficient, acting right to left on every
    amps[j] |src[j]> at once.  Images are summed per key j * stride + target
    rank in word order; as in exact mode, a sum that reaches zero drops its
    key and the next term starts it afresh.  Returns sorted keys and sums."""
    parts = [(np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))]
    for word, coeff in e.items():
        pos, rows, re, im = np.arange(len(src)), src, amps.real, amps.imag
        for g in reversed(word.letters):
            target, amp = shift_table(c, g)
            re, im = _cmul(re, im, amp.real[rows], amp.imag[rows])
            keep = np.flatnonzero((re != 0) | (im != 0))
            pos, rows, re, im = pos[keep], target[rows[keep]], re[keep], im[keep]
        parts.append((pos * stride + rows, *_cmul(re, im, float(coeff.evaluate(c.q0)), 0.0)))
    keys, re, im = (np.concatenate(p) for p in zip(*parts))
    order = np.argsort(keys, kind="stable")
    keys, re, im = keys[order], re[order], im[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    size = np.diff(first, append=len(keys))
    acc_re, acc_im = re[first], im[first]
    for j in range(1, int(size.max(initial=0))):
        grp = np.flatnonzero(size > j)
        at, old = first[grp] + j, (acc_re[grp] != 0) | (acc_im[grp] != 0)
        acc_re[grp] = np.where(old, acc_re[grp] + re[at], re[at])
        acc_im[grp] = np.where(old, acc_im[grp] + im[at], im[at])
    live = (acc_re != 0) | (acc_im != 0)
    values = np.empty(np.count_nonzero(live), dtype=complex)
    values.real, values.imag = acc_re[live], acc_im[live]
    return keys[first[live]], values


def _gauss_mul(a: tuple, b: tuple) -> tuple:
    """The product of two factors (root, re, im); shared atoms fold into re and im."""
    (ra, xa, ya), (rb, xb, yb) = a, b
    re = xa * xb if xa and xb else ZERO
    im = xa * yb if xa and yb else ZERO
    if ya:
        re, im = (re - ya * yb if yb else re), (im + ya * xb if xb else im)
    if shared := ra & rb:
        g = max(shared)
        full = shared == {d for d in range(1, g + 1) if g % d == 0}  # atoms of 1 - q^g
        fold = ONE - LaurentPoly.q(g) if full else RadicalScalar(ONE, shared).root_poly()
        re, im = (re * fold if re else re), (im * fold if im else im)
    return ra ^ rb, re, im


def exact_action(e: Element, sources, c: RepConfig):
    """Exact images of e, one source at a time: for each (rank, parts), parts
    the factors (root, re, im) of a source amplitude a, yield e (a |rank>) as
    {target rank: ExactAmp}, zero amplitudes dropped.  Words act right to left
    with symbolic coefficients.  Each word's tables are fetched once per call;
    its factors times its coefficient have one root, so they are carried as
    one factor and each part multiplies in once."""
    words = [(coeff, [shift_table(c, g) for g in reversed(word.letters)]) for word, coeff in e.items()]
    for source, parts in sources:
        total: dict[int, tuple[dict, dict]] = {}  # target rank -> re and im parts by root
        for coeff, tables in words:
            rank, factor = source, (frozenset(), coeff, ZERO)
            for target, amp in tables:
                if amp[rank] is None:
                    break
                factor = _gauss_mul(factor, amp[rank])
                rank = target[rank]
            else:
                re_acc, im_acc = total.setdefault(rank, ({}, {}))
                for part in parts:
                    root, re, im = _gauss_mul(factor, part)
                    re_acc[root] = re_acc[root] + re if root in re_acc else re
                    im_acc[root] = im_acc[root] + im if root in im_acc else im
        amps = {r: ExactAmp(RadicalSum(re), RadicalSum(im)) for r, (re, im) in total.items()}
        yield {r: a for r, a in amps.items() if not a.is_zero()}


def apply_element(e: Element, v: StateVector, c: RepConfig) -> StateVector:
    """Act with an element: words act right to left, coefficients are kept
    symbolic in exact mode and evaluated at q0 in numeric mode.  Exact mode
    sums the images of the basis vectors of v from `exact_action`."""
    if c.mode == "numeric":
        src = np.array([rank_of(k, c) for k in v.amplitudes], dtype=np.int64)
        amps = np.array(list(v.amplitudes.values()), dtype=complex)
        rows, values = _numeric_action(e, src, amps, c, 0)
        indices = map(tuple, fock_array(c)[rows].tolist())
        return StateVector(c.mode, dict(zip(indices, values.tolist())))
    total: dict[int, ExactAmp] = {}
    for image in exact_action(e, [(rank_of(k, c), a.parts()) for k, a in v.amplitudes.items()], c):
        for r, a in image.items():
            total[r] = ExactAmp(total[r].re + a.re, total[r].im + a.im) if r in total else a
    return StateVector(c.mode, {index_of(r, c): a for r, a in total.items() if not a.is_zero()})


def apply_generator(g: Generator, v: StateVector, c: RepConfig) -> StateVector:
    """Act with one generator, extending the basis action linearly."""
    return apply_element(Element.of(g), v, c)


@dataclass
class SparseMatrix:
    """Sparse complex matrix as parallel arrays, sorted by (column, row)."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    @property
    def entries(self) -> list[tuple[int, int, complex]]:
        return list(zip(self.rows.tolist(), self.cols.tolist(), self.values.tolist()))

    def diagonal(self) -> list[complex]:
        on = self.rows == self.cols
        diag = np.zeros(self.dim, dtype=complex)
        diag[self.rows[on]] = self.values[on]
        return diag.tolist()

    def is_diagonal(self) -> bool:
        return bool(np.all(self.rows == self.cols))


def matrix(e: Element, c: RepConfig) -> SparseMatrix:
    """Assemble the numeric matrix of an element, every column at once."""
    cn = c.numeric()
    keys, values = _numeric_action(e, np.arange(cn.dim), np.ones(cn.dim, dtype=complex), cn, cn.dim)
    return SparseMatrix(cn.dim, keys % cn.dim, keys // cn.dim, values)


def yn1_spectrum(c: RepConfig) -> list[complex]:
    """The diagonal of y_{n+1} as a multiset: lambda * q0^(|k| + k_n)."""
    return [c.lam * float(c.q0 ** (sum(k) + k[-1])) for k in fock_indices(c)]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def matrix_json(m: SparseMatrix, c: RepConfig, algebra: str = "Sigma") -> str:
    """Serialize a sparse matrix with 17-significant-digit values."""
    lam = c.lam
    header = (f'{{"algebra":"{algebra}","n":{c.n},"K":{c.K},'
              f'"q":"{c.q0.numerator}/{c.q0.denominator}",'
              f'"lambda":[{_fmt(lam.real)},{_fmt(lam.imag)}],'
              f'"dim":{m.dim},"basis_order":"lex_k1_major","entries":[')
    body = ",".join(f"[{row},{col},{_fmt(val.real)},{_fmt(val.imag)}]"
                    for row, col, val in m.entries)
    return header + body + "]}"
