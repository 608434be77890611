"""Parser and printer between the canonical text grammar and elements.

Grammar (whitespace insignificant between tokens):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*')? factor)*
    factor := scalar | gen | '(' expr ')' | factor "'"
    gen    := ('x'|'y') integer
    scalar := rational | 'q' ('^' signed-integer)?

Juxtaposition and '*' both denote the product; the postfix apostrophe is
the adjoint and binds tighter than the product.  The leading minus is
accepted so that every printed canonical form parses back.  Parentheses
nest at most MAX_NESTING deep, so the recursive descent stays far inside
Python's recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import Element, Generator, Presentation
from .scalar import LaurentPoly

MAX_NESTING = 100


@dataclass(frozen=True)
class SourceSpan:
    """Byte offsets [start, end) into the input text."""

    start: int
    end: int

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("source span start exceeds end")


class ExprSyntaxError(ValueError):
    """Syntax or generator error, carrying the offending span."""

    def __init__(self, message: str, span: SourceSpan):
        super().__init__(f"{message} (at {span.start}..{span.end})")
        self.message = message
        self.span = span


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<gen>[xy]\d+)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<q>q)
  | (?P<op>[-+*^()'])
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    span: SourceSpan


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}",
                                  SourceSpan(pos, pos + 1))
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), SourceSpan(pos, m.end())))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str, presentation: Presentation):
        self.text = text
        self.p = presentation
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            end = len(self.text)
            raise ExprSyntaxError("unexpected end of input", SourceSpan(end, end))
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}, got {tok.text!r}", tok.span)
        return tok

    def accept_op(self, ops: str) -> _Token | None:
        """Consume and return the next token if it is one of the operators in ops."""
        tok = self.peek()
        if tok is None or tok.kind != "op" or tok.text not in ops:
            return None
        self.i += 1
        return tok

    # -- grammar ----------------------------------------------------------

    def parse_expr(self) -> Element:
        sign = -1 if self.accept_op("-") else 1
        result = self.parse_term() * sign
        while tok := self.accept_op("+-"):
            term = self.parse_term()
            result = result + term if tok.text == "+" else result - term
        return result

    def _starts_factor(self, tok: _Token | None) -> bool:
        if tok is None:
            return False
        return tok.kind in ("gen", "num", "q") or (tok.kind == "op" and tok.text == "(")

    def parse_term(self) -> Element:
        result = self.parse_factor()
        while self.accept_op("*") or self._starts_factor(self.peek()):
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Element:
        result = self.parse_primary()
        while self.accept_op("'"):
            result = result.star()
        return result

    def parse_primary(self) -> Element:
        tok = self.next()
        if tok.kind == "num":
            try:
                value = Fraction(tok.text)
            except ZeroDivisionError:
                raise ExprSyntaxError(f"zero denominator in {tok.text}", tok.span) from None
            return Element.one() * LaurentPoly.const(value)
        if tok.kind == "q":
            exp = self._parse_signed_int() if self.accept_op("^") else 1
            return Element.one() * LaurentPoly.q(exp)
        if tok.kind == "gen":
            return Element.of(self._resolve_generator(tok))
        if tok.kind == "op" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", tok.span)
            self.depth += 1
            inner = self.parse_expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.span)

    def _parse_signed_int(self) -> int:
        sign = self.accept_op("+-")
        tok = self.next()
        if tok.kind != "num" or "/" in tok.text:
            raise ExprSyntaxError("expected integer exponent", tok.span)
        return (-1 if sign and sign.text == "-" else 1) * int(tok.text)

    def _resolve_generator(self, tok: _Token) -> Generator:
        family, index = tok.text[0], int(tok.text[1:])
        g = Generator(family, index)
        if not self.p.contains(g):
            if self.p.kind == "Sigma":
                valid = f"y1..y{self.p.n + 1}"
            else:
                valid = f"x1..x{self.p.n}, y1..y{self.p.n}"
            raise ExprSyntaxError(f"unknown generator {tok.text} (valid: {valid})", tok.span)
        return g


def parse(text: str, presentation: Presentation) -> Element:
    """Parse text into an element over the presentation's generators.

    The result is not normalized.  Raises ExprSyntaxError with a
    SourceSpan on bad syntax or an out-of-range generator.
    """
    parser = _Parser(text, presentation)
    result = parser.parse_expr()
    tok = parser.peek()
    if tok is not None:
        raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.span)
    return result


def print_canonical(e: Element) -> str:
    """Deterministic text form: terms sorted by word in generator order,
    each as (<laurent>)*<word>, as `Element.__str__` prints it;
    parse(print_canonical(e)) == e."""
    return str(e)
