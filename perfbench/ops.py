"""Seeded operation streams for the three benchmark workloads.

Each workload is an endless stream of blocks.  A block holds a fixed mix
of operation shapes (presentation, word length, suite, truncation) and the
seed only draws the free parts: the letters of each word, the
coefficients, q0 and lambda, and the order inside the block.  Runs stop at
a block boundary, so every run measures the same mix whatever the seed.

This module uses only the standard library: it builds the inputs the
program receives and the structured form the reference checker reads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

WORKLOADS = ("normalize", "verify_numeric", "verify_exact")

SUITES = ("relations", "lemma-aux", "lemma-main", "kernel", "basis")

# q0 values: every p/r with r <= 10 inside [1/3, 3/5].
Q_GRID = tuple(sorted({Fraction(p, r) for r in range(2, 11) for p in range(1, r)
                       if Fraction(1, 3) <= Fraction(p, r) <= Fraction(3, 5)}))
LAMBDAS = ("1", "i")

# Small Laurent coefficients for sums: (rational, power of q).
COEFFS = ((Fraction(2), 0), (Fraction(-1), 0), (Fraction(1, 2), 0), (Fraction(1), 1),
          (Fraction(1), -1), (Fraction(-3, 4), 2))

# normalize: (algebra, n, sphere reduction, single-word lengths, sum-term lengths).
# S words stop at length 6: random S words of length 7 and 8 took up to 1.6 s
# and 16 s each, so one draw would decide a whole run's throughput.
NORMALIZE_SHAPES = (
    ("s", 3, True, range(3, 7), range(3, 6)),
    ("s", 3, False, range(3, 7), range(3, 6)),
    ("sigma", 3, True, range(3, 9), range(3, 7)),
    ("sigma", 3, False, range(3, 9), range(3, 7)),
)

# verify_numeric: (n, K) points; every suite runs at each, plus one rep matrix.
NUMERIC_GRID = tuple((2, K) for K in range(2, 9)) + tuple((3, K) for K in range(2, 8))

# verify_exact: exact relations at these (n, K) for each lambda, and lemma_aux at m_max = 12.
EXACT_RELATIONS = ((2, 6), (3, 4))
LEMMA_AUX = tuple((n, 12) for n in (2, 3, 4))


@dataclass(frozen=True)
class Op:
    """One operation.  kind is "normalize", "verify", "matrix" or "lemma_aux";
    terms is a tuple of (rational coefficient, q exponent, letters) used for
    normalize inputs and rep matrix elements."""

    kind: str
    algebra: str = "sigma"
    n: int = 1
    sphere: bool = True
    K: int = 0
    q: Fraction = Fraction(1, 2)
    lam: str = "1"
    suite: str = ""
    mode: str = "numeric"
    m_max: int = 0
    terms: tuple = ()

    @property
    def expr(self) -> str:
        """The element in the qsphere expression grammar."""
        parts = []
        for i, (coeff, exp, letters) in enumerate(self.terms):
            sign = "-" if coeff < 0 else "+"
            factors = []
            if abs(coeff) != 1:
                factors.append(str(abs(coeff)))
            if exp:
                factors.append(f"q^{exp}")
            factors.extend(letters)
            body = " ".join(factors) if factors else "1"
            if i == 0:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def argv(self) -> list[str]:
        """Command-line arguments for the verify and matrix kinds."""
        common = ["--n", str(self.n), "--K", str(self.K), "--q", f"{self.q.numerator}/{self.q.denominator}",
                  "--lambda", self.lam, "--mode", self.mode]
        if self.kind == "verify":
            return ["verify", *common, "--suite", self.suite, "--format", "json"]
        if self.kind == "matrix":
            return ["rep", "matrix", *common, "--", self.expr]
        raise ValueError(f"{self.kind} operations have no command line")

    @property
    def dim(self) -> int:
        return (self.K + 1) ** self.n if self.K else 0


def letters_of(algebra: str, n: int) -> tuple[str, ...]:
    base = ([f"x{i}" for i in range(1, n + 1)] + [f"y{i}" for i in range(1, n + 1)]
            if algebra == "s" else [f"y{i}" for i in range(1, n + 2)])
    return tuple(base + [g + "'" for g in base])


def _word(rng: random.Random, alphabet, length: int) -> tuple[str, ...]:
    return tuple(rng.choice(alphabet) for _ in range(length))


def _normalize_block(rng: random.Random) -> list[Op]:
    block = []
    for algebra, n, sphere, lengths, sum_lengths in NORMALIZE_SHAPES:
        alphabet = letters_of(algebra, n)
        for length in lengths:
            block.append(Op("normalize", algebra, n, sphere,
                            terms=((Fraction(1), 0, _word(rng, alphabet, length)),)))
        terms = tuple(rng.choice(COEFFS) + (_word(rng, alphabet, rng.choice(sum_lengths)),)
                      for _ in range(2))
        block.append(Op("normalize", algebra, n, sphere, terms=terms))
    return block


def _matrix_terms(rng: random.Random, n: int) -> tuple:
    alphabet = letters_of("sigma", n)
    return tuple(rng.choice(COEFFS) + (_word(rng, alphabet, rng.randint(1, 3)),)
                 for _ in range(rng.randint(1, 3)))


def _verify_numeric_block(rng: random.Random) -> list[Op]:
    block = []
    for n, K in NUMERIC_GRID:
        for suite in SUITES:
            block.append(Op("verify", "sigma", n, K=K, q=rng.choice(Q_GRID),
                            lam=rng.choice(LAMBDAS), suite=suite))
        block.append(Op("matrix", "sigma", n, K=K, q=rng.choice(Q_GRID),
                        lam=rng.choice(LAMBDAS), terms=_matrix_terms(rng, n)))
    return block


def _verify_exact_block(rng: random.Random) -> list[Op]:
    # lambda = i makes every exact amplitude complex and costs more than
    # lambda = 1, so each block has one of each rather than a random pick.
    block = [Op("verify", "sigma", n, K=K, q=rng.choice(Q_GRID), lam=lam, suite="relations",
                mode="exact") for n, K in EXACT_RELATIONS for lam in LAMBDAS]
    block += [Op("lemma_aux", "sigma", n, m_max=m_max) for n, m_max in LEMMA_AUX]
    return block


_BLOCKS = {"normalize": _normalize_block, "verify_numeric": _verify_numeric_block,
           "verify_exact": _verify_exact_block}


def blocks(workload: str, seed: int):
    """The endless block stream of a workload; equal seeds give equal streams."""
    make = _BLOCKS[workload]
    rng = random.Random(f"{workload}/{seed}")
    while True:
        block = make(rng)
        rng.shuffle(block)
        yield block


def first_ops(workload: str, seed: int, nblocks: int) -> list[Op]:
    return [op for block in islice(blocks(workload, seed), nblocks) for op in block]


def warmup_ops(workload: str) -> list[Op]:
    """Fixed, unseeded operations run once before timing (one per kind)."""
    if workload == "normalize":
        return [Op("normalize", algebra, n, sphere, terms=((Fraction(1), 0, letters_of(algebra, n)[:3]),))
                for algebra, n, sphere, _, _ in NORMALIZE_SHAPES]
    if workload == "verify_numeric":
        ops = [Op("verify", "sigma", n, K=2, suite=suite) for n in (2, 3) for suite in SUITES]
        return ops + [Op("matrix", "sigma", 2, K=2, terms=((Fraction(1), 0, ("y1", "y2'")),))]
    return [Op("verify", "sigma", 2, K=2, suite="relations", mode="exact"),
            Op("lemma_aux", "sigma", 2, m_max=2)]


def presentations(workload: str) -> list[tuple[str, int, bool]]:
    """Every presentation a workload touches, built during set-up."""
    if workload == "normalize":
        return [(algebra, n, sphere) for algebra, n, sphere, _, _ in NORMALIZE_SHAPES]
    ns = {n for n, _ in NUMERIC_GRID} if workload == "verify_numeric" else \
        {n for n, _ in EXACT_RELATIONS} | {n for n, _ in LEMMA_AUX}
    return [("sigma", n, sphere) for n in sorted(ns) for sphere in (True, False)]
