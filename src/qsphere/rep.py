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

Every generator is therefore a weighted shift, described once by
`generator_shift`: the slot it moves and in which direction, the weights of
its prefix exponent, the step (2, or 4 in slot n) and radicand offset (0
lowering, 1 raising) of its root, and its power of lambda, with
conj(lambda) = 1/lambda.  Two readers share that description.

`RepConfig` is the one representation type, and it is numeric: it
evaluates the description at q0 and lambda into `shift_table`.  With basis
vectors ranked lexicographically (k_1 major), each source rank gets one
target rank, a stride (K+1)^(n-i) away for y_i and y_i*, and one complex
amplitude, zero where the image vanishes, computed term by term as scalar
complex arithmetic would.  A word acts on many basis vectors at once by
composing its tables right to left.  A configuration past MAX_DIM basis
vectors is refused when it is built.  A state is a plain dict
{k: complex amplitude}.

The proofs read no configuration: `generic_image` applies an element to a
generic basis vector |k> of the untruncated rank-n space, with t_i = q^(k_i)
symbolic, so that `qsphere.verify` proves an identity for every cutoff, q0
and unit lambda at once.  It reads each generator's shift once per call,
keeping only the nonzero prefix weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from ._lazy import lazy_import
from .algebra import Element, Generator, y
from .scalar import DomainError, radical_canonicalize  # radical_canonicalize: perfbench/tracing.py wraps it

np = lazy_import("numpy")

# Largest truncation (K+1)^n of a configuration, refused in
# `RepConfig.__post_init__` once `checked_fields` passes.  Bytes per basis
# vector, from tracemalloc peaks:
#   fock_array                 8 n B, at most 160 B (n <= 20 once K >= 1)
#   16 cached shift tables     16 x (8 B target + 16 B amplitude) = 384 B
#   one matrix() call          350 B at n = 2, 510 B at n = 4, 1.0 KB at
#                              n = 10, 1.2 KB at n = 16 (sphere relation)
# so under 160 + 384 + 1500 B ~ 2 KiB per vector, and 2^20 vectors keep a
# run within 2 GiB.
MAX_DIM = 2**20


def checked_fields(n: int, q0, lam, K: int) -> tuple[Fraction, complex]:
    """Every check of a configuration's fields but the size gate, in order;
    returns q0 as a Fraction and lambda as a complex, a -0.0 part made 0.0
    (so -1j prints [0,-1])."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if K < 0:
        raise DomainError("cutoff K must be >= 0")
    if not 0 < Fraction(q0) < 1:
        raise DomainError(f"q0 = {q0} is outside (0, 1)")
    lam = complex(lam)
    if not math.isfinite(abs(lam)):
        raise DomainError(f"lambda = {lam} is not finite")
    if abs(abs(lam) - 1.0) > 1e-12:
        raise DomainError(f"|lambda| = {abs(lam)} is not 1 within 1e-12")
    return Fraction(q0), lam + 0j


@dataclass(frozen=True)
class RepConfig:
    """Truncation parameters: rank n, rational q0 in (0,1), unitary lambda
    and per-component cutoff K."""

    n: int
    q0: Fraction
    lam: complex
    K: int

    def __post_init__(self):
        q0, lam = checked_fields(self.n, self.q0, self.lam, self.K)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "lam", lam)
        if self.dim > MAX_DIM:
            raise DomainError(f"(K+1)^n = {self.K + 1}^{self.n} basis vectors exceed "
                              f"the limit of {MAX_DIM}")

    @property
    def dim(self) -> int:
        return (self.K + 1) ** self.n


def fock_indices(c: RepConfig):
    """All truncated indices in rank order (lexicographic, k_1 major)."""
    return product(range(c.K + 1), repeat=c.n)


def fock_array(c: RepConfig) -> np.ndarray:
    """All truncated indices as a (dim, n) array; row r is the index of rank r."""
    return np.indices((c.K + 1,) * c.n).reshape(c.n, -1).T


def rank_of(k: tuple[int, ...], c: RepConfig) -> int:
    return int(np.ravel_multi_index(k, (c.K + 1,) * c.n))


def _require_index(c: RepConfig, k: tuple[int, ...]):
    """Refuse an index that is not n components in 0..K."""
    if len(k) != c.n or any(ki < 0 or ki > c.K for ki in k):
        raise DomainError(f"index {k} outside the truncated basis")


def basis_state(c: RepConfig, k: tuple[int, ...]) -> dict[tuple[int, ...], complex]:
    """The state |k> as {k: 1}, checked to lie in the truncated basis."""
    k = tuple(k)
    _require_index(c, k)
    return {k: complex(1.0)}


# -- generators as weighted shifts ----------------------------------------------


@dataclass(frozen=True)
class WeightedShift:
    """One generator acting on |k>, with t_i = q^(k_i):

        g |k> = lambda^power q^(prefix . k) sqrt(1 - q^(step (k_slot + offset))) |k + move e_slot>

    slot counts from 0; there is no root when step is 0, and power -1
    stands for conj(lambda) = 1/lambda."""

    slot: int
    move: int
    prefix: tuple[int, ...]
    step: int
    offset: int
    power: int


@lru_cache(maxsize=256)
def generator_shift(n: int, g: Generator) -> WeightedShift:
    """The weighted shift of g in the rank-n representation (module docstring),
    cached for the last 256 (n, g): 2n + 2 generators act at rank n."""
    if g.family != "y" or not 1 <= g.index <= n + 1:
        raise DomainError(f"generator {g} does not act in the rank-{n} representation")
    i, up = g.index, int(g.starred)
    if i == n + 1:
        return WeightedShift(n - 1, 0, (1,) * (n - 1) + (2,), 0, 0, 1 - 2 * up)
    return WeightedShift(i - 1, 2 * up - 1, (1,) * (i - 1) + (0,) * (n - i + 1),
                         4 if i == n else 2, up, 0)


def _times_atom(poly: dict, atom: tuple[int, int, int]) -> dict:
    """poly * (1 - q^a t_i^s) for the atom (i, a, s)."""
    i, a, s = atom
    out = dict(poly)
    for exps, coeff in poly.items():
        moved = list(exps)
        moved[0] += a
        moved[i] += s
        moved = tuple(moved)
        out[moved] = out.get(moved, 0) - coeff
    return out


def generic_image(e: Element, n: int) -> dict:
    """e |k> for a generic index k of the untruncated rank-n space, read from
    `generator_shift`, as {(d, root): coefficient}: the image is the sum of
    coefficient * prod_{atom in root} sqrt(atom) |k + d>.  An atom (i, a, s)
    stands for 1 - q^a t_i^s, and one that a word meets twice is multiplied
    out.  A coefficient is a Laurent polynomial in (q, t_1..t_n, lambda),
    a dict from exponent tuple to nonzero rational; zero ones are dropped.
    Terms are taken in storage order: the sums are exact, so order does
    not change them."""
    shifts: dict[Generator, tuple] = {}  # per call, so a patched generator_shift is read
    total: dict[tuple, dict] = {}
    for word, coeff in e.terms():
        d, mono, root, squared = [0] * n, [0] * (n + 2), set(), []
        for g in reversed(word.letters):
            s = shifts.get(g)
            if s is None:
                s = generator_shift(n, g)
                s = shifts[g] = (s.slot, s.move, s.step, s.offset, s.power,
                                 [(j, w) for j, w in enumerate(s.prefix) if w])
            slot, move, step, offset, power, weights = s
            for j, w in weights:
                mono[0] += w * d[j]
                mono[j + 1] += w
            mono[n + 1] += power
            if step:
                atom = (slot + 1, step * (d[slot] + offset), step)
                if atom in root:
                    root.remove(atom)
                    squared.append(atom)
                else:
                    root.add(atom)
            d[slot] += move
        poly = {(exp + mono[0], *mono[1:]): c for exp, c in coeff.items()}
        for atom in squared:
            poly = _times_atom(poly, atom)
        key = (tuple(d), frozenset(root))
        acc = total.get(key)
        if acc is None:
            total[key] = poly
            continue
        for exps, c in poly.items():
            acc[exps] = acc.get(exps, 0) + c
    images = {key: {exps: c for exps, c in acc.items() if c} for key, acc in total.items()}
    return {key: coeff for key, coeff in images.items() if coeff}


def _cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) on split parts, term by term as CPython's
    complex product computes it (a float operand has imaginary part 0.0);
    numpy's complex product may fuse multiply-adds and round differently."""
    return ar * br - ai * bi, ar * bi + ai * br


def _lam_power(c: RepConfig, power: int) -> complex:
    """lambda^power for a generator's power of lambda: 1, lambda or conj(lambda)."""
    return complex(1) if not power else c.lam if power > 0 else c.lam.conjugate()


def _power_table(q: Fraction, count: int, root: bool = False) -> list[float]:
    """[float(q^e) for e in range(count)], or with root [sqrt(float(1 - q^e)) ..],
    from one running exact product that stops at the first entry equal to its
    limit, 0.0 (1.0 with root): entries are monotone in e, so the rest are too."""
    a, b, num, den, limit, table = q.numerator, q.denominator, 1, 1, 1.0 if root else 0.0, []
    while len(table) < count and (not table or table[-1] != limit):
        table.append(math.sqrt((den - num) / den) if root else num / den)
        num, den = num * a, den * b
    return table + [limit] * (count - len(table))


@lru_cache(maxsize=16)
def shift_table(c: RepConfig, g: Generator):
    """(target, amp) arrays for one generator, cached for the last few
    configurations: source rank r goes to target[r] with complex amplitude
    amp[r], zero where the image vanishes."""
    s = generator_shift(c.n, g)
    ranks, k = np.arange(c.dim), fock_array(c)
    ki = k[:, s.slot]
    alive = (ki + s.move >= 0) & (ki + s.move <= c.K)
    target = np.where(alive, ranks + s.move * (c.K + 1) ** (c.n - 1 - s.slot), ranks)
    exps = k @ np.array(s.prefix)
    scale = np.array(_power_table(c.q0, int(exps.max()) + 1))[exps]
    if s.step:
        roots = np.array(_power_table(c.q0 ** s.step, c.K + 2, root=True))
        scale = np.where(alive, scale * roots[ki + s.offset], 0.0)
    lam = _lam_power(c, s.power)
    amp = np.empty(c.dim, dtype=complex)
    amp.real, amp.imag = _cmul(lam.real, lam.imag, scale, 0.0)
    target.flags.writeable = amp.flags.writeable = False  # shared through the cache
    return target, amp


def _numeric_action(e: Element, src: np.ndarray, amps: np.ndarray, c: RepConfig, stride: int):
    """Each word of e, times its coefficient, acting right to left on every
    amps[j] |src[j]> at once.  Images are summed per key j * stride + target
    rank in word order; a sum that reaches zero drops its key and the next
    term starts it afresh.  Returns sorted keys and sums."""
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


def apply_element(e: Element, v: dict, c: RepConfig) -> dict:
    """Act with an element on a numeric state {k: amplitude}: words act right
    to left and coefficients are evaluated at q0.  Zero amplitudes are dropped.
    Every index of the state must lie in the truncated basis."""
    for k in v:
        _require_index(c, tuple(k))
    src = np.array([rank_of(k, c) for k in v], dtype=np.int64)
    amps = np.array(list(v.values()), dtype=complex)
    rows, values = _numeric_action(e, src, amps, c, 0)
    indices = map(tuple, fock_array(c)[rows].tolist())
    return dict(zip(indices, values.tolist()))


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


def matrix(e: Element, c: RepConfig) -> SparseMatrix:
    """Assemble the numeric matrix of an element, every column at once."""
    keys, values = _numeric_action(e, np.arange(c.dim), np.ones(c.dim, dtype=complex), c, c.dim)
    return SparseMatrix(c.dim, keys % c.dim, keys // c.dim, values)


def yn1_spectrum(c: RepConfig) -> list[complex]:
    """The diagonal of y_{n+1} in rank order, read from its `generator_shift`:
    lambda^power q0^(prefix . k) at each index k, from the table of powers
    of q0 that `shift_table` reads."""
    s = generator_shift(c.n, y(c.n + 1))
    lam = _lam_power(c, s.power)
    powers = _power_table(c.q0, sum(s.prefix) * c.K + 1)
    exps = map(sum, product(*([w * ki for ki in range(c.K + 1)] for w in s.prefix)))  # rank order
    return [lam * powers[e] for e in exps]


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
