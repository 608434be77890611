"""Exact coefficient arithmetic for the symbolic layer.

Two kinds of scalars live here:

* ``LaurentPoly`` -- Laurent polynomials in the deformation parameter q
  with rational coefficients.  Every relation coefficient of the two
  sphere algebras is of this form, so the rewrite engine never needs
  anything richer.
* ``RadicalScalar`` -- a Laurent polynomial times the square root of a
  square-free product of cyclotomic-type atoms.  Matrix entries of the
  truncated representations, such as sqrt(1 - q^(2k)), are of this form.
  Nothing in the library calls this layer; it stays only for the
  benchmark harness, until that harness is rebuilt without it.

Radical atoms are keyed by cyclotomic factorisation: 1 - q^s splits as
the product of (1 - q) and the cyclotomic polynomials Phi_d for the
divisors d >= 2 of s.  All atoms are positive on 0 < q < 1, so the
nonnegative square root is well defined there and products of radicals
reduce canonically (shared atoms fold into the polynomial part).

All values are immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


class DomainError(ValueError):
    """An argument lies outside its mathematical domain."""


def _as_rational(value) -> int | Fraction:
    """An exact rational: an int when it is integral, else a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, float):
        raise DomainError("floating-point scalars are not allowed in the exact layer")
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class LaurentPoly:
    """A Laurent polynomial in q over the rationals.

    Stored sparsely as a map from integer exponent to nonzero rational
    coefficient; the zero polynomial has an empty map.  An integral
    coefficient is an int and only a non-integral one a Fraction, so integer
    arithmetic, the common case, never builds a Fraction.  Text, equality and
    hashes do not see the difference: str(3), 3 == Fraction(3) and hash(3)
    agree with the Fraction forms.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data: dict[int, int | Fraction] = {}
        if terms:
            for exp, coeff in terms.items():
                coeff = _as_rational(coeff)
                if coeff:
                    data[int(exp)] = coeff
        self._terms = data

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def const(cls, value) -> LaurentPoly:
        return cls({0: _as_rational(value)})

    @classmethod
    def q(cls, exp: int = 1, coeff=1) -> LaurentPoly:
        """The monomial coeff * q^exp."""
        return cls({exp: _as_rational(coeff)})

    # -- inspection ------------------------------------------------------

    def items(self):
        """Term items sorted by ascending exponent."""
        return sorted(self._terms.items())

    def coeff(self, exp: int) -> int | Fraction:
        return self._terms.get(exp, 0)

    def as_monomial(self) -> tuple[int, int | Fraction] | None:
        """Return (exponent, coefficient) if this is a single term, else None."""
        if len(self._terms) != 1:
            return None
        [(exp, coeff)] = self._terms.items()
        return exp, coeff

    def min_exp(self) -> int:
        if not self._terms:
            raise DomainError("zero polynomial has no degree")
        return min(self._terms)

    def max_exp(self) -> int:
        if not self._terms:
            raise DomainError("zero polynomial has no degree")
        return max(self._terms)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self._terms)
        for exp, coeff in other._terms.items():
            new = terms.get(exp, 0) + coeff
            if new:
                if type(new) is not int and new.denominator == 1:
                    new = new.numerator
                terms[exp] = new
            else:
                terms.pop(exp, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e: -c for e, c in self._terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms: dict[int, int | Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                new = terms.get(e, 0) + c1 * c2
                if new:
                    if type(new) is not int and new.denominator == 1:
                        new = new.numerator
                    terms[e] = new
                else:
                    terms.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative powers are only defined for monomials")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def monomial_inverse(self) -> LaurentPoly:
        """Inverse of a single-term polynomial (the only invertible elements)."""
        mono = self.as_monomial()
        if mono is None:
            raise DomainError(f"{self} is not an invertible monomial")
        exp, coeff = mono
        return LaurentPoly({-exp: Fraction(1) / coeff})

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- evaluation ------------------------------------------------------

    def evaluate(self, q0) -> int | Fraction:
        """Exact value at a rational point q0 in (0, 1)."""
        q0 = _as_rational(q0)
        if not 0 < q0 < 1:
            raise DomainError(f"q0 = {q0} is outside (0, 1)")
        return sum((c * q0**e for e, c in self._terms.items()), 0)

    # -- canonical text form ----------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for i, (exp, coeff) in enumerate(self.items()):
            sign = "-" if coeff < 0 else "+"
            mag = -coeff if coeff < 0 else coeff
            if exp == 0:
                body = str(mag)
            else:
                power = "q" if exp == 1 else f"q^{exp}"
                body = power if mag == 1 else f"{mag}*{power}"
            if i == 0:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


def qpochhammer(a: LaurentPoly, b: LaurentPoly, ell: int) -> LaurentPoly:
    """The q-shifted factorial (a; b)_ell = prod_{i=0}^{ell-1} (1 - a*b^i)."""
    if ell < 0:
        raise DomainError("qpochhammer needs a nonnegative length")
    out = LaurentPoly.one()
    power = LaurentPoly.one()
    for _ in range(ell):
        out = out * (LaurentPoly.one() - a * power)
        power = power * b
    return out


# -- cyclotomic machinery -------------------------------------------------


def _divisors(s: int) -> list[int]:
    return [d for d in range(1, s + 1) if s % d == 0]


def _exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact polynomial division; the remainder must vanish."""
    if not den:
        raise DomainError("division by zero polynomial")
    if not num:
        return LaurentPoly.zero()
    den_terms = den._terms
    den_top = den.max_exp()
    den_lead = den_terms[den_top]
    min_qexp = num.min_exp() - den.min_exp()
    work = dict(num._terms)
    quot: dict[int, int | Fraction] = {}
    while work:
        top = max(work)
        qexp = top - den_top
        if qexp < min_qexp:
            raise DomainError("inexact polynomial division")
        qc = _as_rational(Fraction(work[top], den_lead))  # int / int would be a float
        quot[qexp] = qc
        for e, c in den_terms.items():
            tgt = e + qexp
            new = work.get(tgt, 0) - qc * c
            if new:
                work[tgt] = new
            else:
                work.pop(tgt, None)
    return LaurentPoly(quot)


@lru_cache(maxsize=None)
def cyclotomic(d: int) -> LaurentPoly:
    """The d-th cyclotomic polynomial Phi_d(q), by recursive exact division."""
    if d < 1:
        raise DomainError("cyclotomic index must be >= 1")
    if d == 1:
        return LaurentPoly({1: 1, 0: -1})
    num = LaurentPoly({d: 1, 0: -1})
    for e in _divisors(d)[:-1]:
        num = _exact_div(num, cyclotomic(e))
    return num


@lru_cache(maxsize=None)
def _radical_atom(d: int) -> LaurentPoly:
    """The positive atom for index d: (1 - q) for d = 1, Phi_d otherwise."""
    if d == 1:
        return LaurentPoly({0: 1, 1: -1})
    return cyclotomic(d)


class RadicalScalar:
    """poly(q) * sqrt(prod of distinct atoms), canonical and immutable.

    The root is a frozenset of atom indices; each atom appears at most
    once, so squaring always lands back in the Laurent ring.
    """

    __slots__ = ("poly", "root")

    def __init__(self, poly: LaurentPoly, root=frozenset()):
        self.poly = poly if poly else LaurentPoly.zero()
        self.root = frozenset() if not poly else frozenset(root)

    @classmethod
    def one(cls) -> RadicalScalar:
        return cls(LaurentPoly.one())

    def is_zero(self) -> bool:
        return not self.poly

    def __mul__(self, other):
        if isinstance(other, RadicalScalar):
            shared = self.root & other.root
            poly = self.poly * other.poly
            for d in sorted(shared):
                poly = poly * _radical_atom(d)
            return RadicalScalar(poly, self.root ^ other.root)
        if isinstance(other, (LaurentPoly, int, Fraction)):
            return RadicalScalar(self.poly * other, self.root)
        return NotImplemented

    __rmul__ = __mul__

    def square(self) -> LaurentPoly:
        out = self.poly * self.poly
        for d in sorted(self.root):
            out = out * _radical_atom(d)
        return out

    def root_poly(self) -> LaurentPoly:
        """The square-free polynomial under the root."""
        out = LaurentPoly.one()
        for d in sorted(self.root):
            out = out * _radical_atom(d)
        return out

    def evaluate(self, q0) -> float:
        """Numeric value at rational q0 in (0, 1), nonnegative branch."""
        radicand = self.root_poly().evaluate(q0)
        if radicand < 0:
            raise DomainError(f"negative radicand {radicand} at q0 = {q0}")
        return float(self.poly.evaluate(q0)) * math.sqrt(float(radicand))

    def __eq__(self, other):
        if not isinstance(other, RadicalScalar):
            return NotImplemented
        return self.poly == other.poly and self.root == other.root

    def __hash__(self):
        return hash((self.poly, self.root))

    def __str__(self):
        if not self.root:
            return str(self.poly)
        return f"({self.poly})*sqrt[{','.join(map(str, sorted(self.root)))}]"

    __repr__ = __str__


def radical_from_cyclotomic(indices) -> RadicalScalar:
    """Canonical form of a product of atoms sqrt(atom_d) over a multiset of indices."""
    counts: dict[int, int] = {}
    for d in indices:
        if d < 1:
            raise DomainError("atom index must be >= 1")
        counts[d] = counts.get(d, 0) + 1
    poly = LaurentPoly.one()
    root = set()
    for d in sorted(counts):
        m = counts[d]
        poly = poly * _radical_atom(d) ** (m // 2)
        if m % 2:
            root.add(d)
    return RadicalScalar(poly, frozenset(root))


def radical_canonicalize(factors) -> RadicalScalar:
    """Canonical form of prod_s sqrt(1 - q^s) over a list of exponents s >= 1.

    Uses 1 - q^s = (1 - q) * prod_{d | s, d >= 2} Phi_d(q), a product of
    atoms that are all positive on (0, 1).
    """
    atoms: list[int] = []
    for s in factors:
        if s < 1:
            raise DomainError("radical exponent must be >= 1")
        atoms.extend(_divisors(s))
    return radical_from_cyclotomic(atoms)
