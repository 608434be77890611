"""Reference checks that do not use the code under test.

* verify results: the paper's identities are the known answer, so every
  report must say ``passed: true`` and name the checks the suite runs.
* rep matrix: entries are recomputed from the closed-form weights of the
  Fock-space representation (the formulas in the ``qsphere.rep`` module
  docstring), with the same cutoff at K.
* normal forms: the input and the output must act identically on a
  numeric, untruncated Fock-space representation at a generic q0 and
  lambda, on every basis vector of the box {0..BOX}^n.  S elements go
  through the quotient x_i -> 0 (i < n), x_n -> y_{n+1} first, so an S
  term whose word contains x_1..x_{n-1} cannot be checked this way.

Every check returns None when the output is accepted and a short reason
when it is rejected.
"""

from __future__ import annotations

import cmath
import json
import re
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from ops import Op, letters_of

Q0 = 0.5377
LAM = cmath.exp(0.71j)
BOX = 5
REL_TOL = 1e-9
MATRIX_TOL = 1e-10

_CHECK_NAMES = {"relations": ("symbolic_relations", "relations_in_rep"),
                "lemma-aux": ("lemma_aux",), "kernel": ("kernel_structure",),
                "basis": ("lowest_weight_basis",)}
_LAMBDA = {"1": 1 + 0j, "i": 1j}

# -- text forms ------------------------------------------------------------------

_SIGNED_TERM = re.compile(r" ([+-]) ")
_CONST = re.compile(r"\d+(?:/\d+)?")
_MONOMIAL = re.compile(r"(?:(\d+(?:/\d+)?)\*)?q(?:\^(-?\d+))?")
_NF_TERM = re.compile(r"\(([^()]*)\)\*((?:[xy]\d+'?)+|1)")
_LETTER = re.compile(r"[xy]\d+'?")


@lru_cache(maxsize=None)
def laurent_terms(text: str) -> tuple[tuple[Fraction, int], ...]:
    """(coefficient, exponent) pairs of a printed Laurent polynomial."""
    pieces = _SIGNED_TERM.split(text.strip())
    signed = [("-", pieces[0][1:]) if pieces[0].startswith("-") else ("+", pieces[0])]
    signed += zip(pieces[1::2], pieces[2::2])
    terms = []
    for sign, body in signed:
        if _CONST.fullmatch(body):
            coeff, exp = Fraction(body), 0
        elif (m := _MONOMIAL.fullmatch(body)) is not None:
            coeff = Fraction(m.group(1)) if m.group(1) else Fraction(1)
            exp = int(m.group(2)) if m.group(2) else 1
        else:
            raise ValueError(f"bad Laurent polynomial {text!r}")
        terms.append((-coeff if sign == "-" else coeff, exp))
    return tuple(terms)


def laurent_value(text: str, q0: float) -> float:
    return sum(float(c) * q0 ** e for c, e in laurent_terms(text))


def parse_normal_form(text: str) -> list[tuple[str, tuple[str, ...]]]:
    """Split printed canonical output into (coefficient text, letters) terms."""
    text = text.strip()
    if text == "0":
        return []
    terms, pieces = [], []
    for m in _NF_TERM.finditer(text):
        word = m.group(2)
        terms.append((m.group(1), () if word == "1" else tuple(_LETTER.findall(word))))
        pieces.append(m.group(0))
    if " + ".join(pieces) != text:
        raise ValueError("output is not in canonical form")
    return terms


# -- Fock-space action --------------------------------------------------------------


def sigma_word(algebra: str, n: int, letters) -> tuple[tuple[int, bool], ...] | None:
    """Letters as (index, starred) of the Sigma algebra; None if the quotient
    map sends the word to zero.  Raises ValueError on a foreign letter."""
    if not set(letters) <= set(letters_of(algebra, n)):
        raise ValueError(f"{''.join(letters)} is not a word of the {algebra} algebra at n={n}")
    out = []
    for letter in letters:
        starred = letter.endswith("'")
        index = int(letter[1:-1] if starred else letter[1:])
        if letter[0] == "x":
            if index < n:
                return None
            index = n + 1
        out.append((index, starred))
    return tuple(out)


@lru_cache(maxsize=16)
def _box(n: int, size: int) -> np.ndarray:
    """Every k in {0..size}^n, k_1 major: row r is the basis vector of rank r."""
    return np.array(list(product(range(size + 1), repeat=n)), dtype=np.int64)


@lru_cache(maxsize=2048)
def word_action(word, n: int, q0: float, lam: complex, size: int, cutoff: int | None = None):
    """Act with a Sigma word on every |k> of the box {0..size}^n.

    Closed-form weights, with s = k_1 + .. + k_{i-1}:
        y_i |k>  = q^s sqrt(1 - q^(2 k_i))   |k - e_i>   (q^4 powers for i = n)
        y_i* |k> = q^s sqrt(1 - q^(2 k_i+2)) |k + e_i>
        y_{n+1} |k> = lambda q^(|k| + k_n) |k>
    Raising past the cutoff annihilates, as in the truncated representation;
    with no cutoff the space is untruncated.  Returns (start ranks, targets,
    amplitudes) of the vectors the word does not annihilate.
    """
    k = _box(n, size).copy()
    amp = np.ones(len(k), dtype=complex)
    alive = np.ones(len(k), dtype=bool)
    for index, starred in reversed(word):
        if index == n + 1:
            amp *= (lam.conjugate() if starred else lam) * q0 ** (k.sum(axis=1) + k[:, -1])
            continue
        step = 4 if index == n else 2
        ki = k[:, index - 1].copy()
        amp *= q0 ** k[:, :index - 1].sum(axis=1)
        if starred:
            if cutoff is not None:
                alive &= ki < cutoff
            amp *= np.sqrt(1 - q0 ** (step * (ki + 1)))
            k[:, index - 1] = ki + 1
        else:
            alive &= ki > 0
            amp *= np.sqrt(np.clip(1 - q0 ** (step * ki), 0.0, None))
            k[:, index - 1] = np.maximum(ki - 1, 0)
    starts = np.nonzero(alive)[0]
    return starts, k[starts], amp[starts]


def _encode(targets: np.ndarray, base: int) -> np.ndarray:
    codes = np.zeros(len(targets), dtype=np.int64)
    for col in range(targets.shape[1]):
        codes = codes * base + targets[:, col]
    return codes


def _element_terms(algebra: str, n: int, terms):
    """(coefficient, Sigma word) for each term whose word survives the quotient."""
    out = []
    for coeff, letters in terms:
        word = sigma_word(algebra, n, letters)
        if word is not None:
            out.append((coeff, word))
    return out


def check_normal_form(op: Op, output: str) -> str | None:
    """Input and output must act identically on every box vector."""
    source = [(float(c) * Q0 ** e, letters) for c, e, letters in op.terms]
    try:
        nf = [(laurent_value(c, Q0), letters) for c, letters in parse_normal_form(output)]
        signed = [(1.0, _element_terms(op.algebra, op.n, source)),
                  (-1.0, _element_terms(op.algebra, op.n, nf))]
    except ValueError as err:
        return str(err)
    keys, values = [], []
    for sign, terms in signed:
        for coeff, word in terms:
            starts, targets, amp = word_action(word, op.n, Q0, LAM, BOX)
            keys.append(starts * (1 << 40) + _encode(targets, BOX + 64))
            values.append(sign * coeff * amp)
    keys = np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)
    if not len(keys):
        return None
    values = np.concatenate(values)
    _, inverse = np.unique(keys, return_inverse=True)
    residual = (np.bincount(inverse, weights=values.real)
                + 1j * np.bincount(inverse, weights=values.imag))
    scale = np.bincount(inverse, weights=np.abs(values))
    worst = np.max(np.abs(residual) - REL_TOL * scale)
    if worst > 0:
        return f"normal form differs from the input on the Fock space (residual {worst:.3e})"
    return None


# -- rep matrix -------------------------------------------------------------------------


def reference_matrix(op: Op) -> dict[tuple[int, int], complex]:
    """Entries of the truncated matrix of op's element, from closed-form weights."""
    q0, lam = float(op.q), _LAMBDA[op.lam]
    out: dict[tuple[int, int], complex] = {}
    for coeff, exp, letters in op.terms:
        word = sigma_word("sigma", op.n, letters)
        cols, targets, amp = word_action(word, op.n, q0, lam, op.K, op.K)
        amp = amp * (float(coeff) * q0 ** exp)
        for row, col, value in zip(_encode(targets, op.K + 1).tolist(), cols.tolist(), amp.tolist()):
            out[(row, col)] = out.get((row, col), 0j) + value
    return out


def check_matrix(op: Op, output: str) -> str | None:
    try:
        data = json.loads(output)
        header = (data["n"], data["K"], data["q"], complex(*data["lambda"]), data["dim"],
                  data["basis_order"])
        got = {(row, col): complex(re_, im) for row, col, re_, im in data["entries"]}
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable matrix output: {err}"
    want_header = (op.n, op.K, f"{op.q.numerator}/{op.q.denominator}", _LAMBDA[op.lam], op.dim,
                   "lex_k1_major")
    if header != want_header:
        return f"matrix header {header} != {want_header}"
    want = reference_matrix(op)
    for key in got.keys() | want.keys():
        a, b = got.get(key, 0j), want.get(key, 0j)
        if abs(a - b) > MATRIX_TOL * max(1.0, abs(b)):
            return f"matrix entry {key} is {a}, reference {b}"
    return None


# -- verdicts ----------------------------------------------------------------------------


def _expected_checks(op: Op) -> tuple[str, ...]:
    if op.suite == "lemma-main":
        return ("lemma_main",) * op.n
    return _CHECK_NAMES[op.suite]


def _check_reports(reports, names, op: Op) -> str | None:
    got = tuple(r.get("check") for r in reports)
    if got != names:
        return f"checks {got} != {names}"
    for report in reports:
        if report.get("passed") is not True:
            return f"{report.get('check')} did not pass"
        params = report.get("params", {})
        if params.get("n") != op.n:
            return f"{report['check']} ran at n={params.get('n')}, asked for {op.n}"
    return None


def check_verify(op: Op, output: str) -> str | None:
    try:
        reports = json.loads(output)
    except ValueError as err:
        return f"unreadable verify output: {err}"
    if not isinstance(reports, list):
        return "verify output is not a list of reports"
    reason = _check_reports(reports, _expected_checks(op), op)
    if reason is not None:
        return reason
    want = (op.K, f"{op.q.numerator}/{op.q.denominator}", [_LAMBDA[op.lam].real, _LAMBDA[op.lam].imag],
            op.mode)
    for report in reports:
        params = report["params"]
        if "K" in params and (got := (params["K"], params["q0"], params["lambda"], params["mode"])) != want:
            return f"{report['check']} ran at (K, q0, lambda, mode) = {got}, asked for {want}"
    return None


def check_lemma_aux(op: Op, output: str) -> str | None:
    try:
        report = json.loads(output)
    except ValueError as err:
        return f"unreadable report: {err}"
    if not isinstance(report, dict):
        return "lemma_aux output is not a report"
    reason = _check_reports([report], ("lemma_aux",), op)
    if reason is None and report["params"].get("m_max") != op.m_max:
        return f"lemma_aux ran at m_max={report['params'].get('m_max')}"
    return reason


_CHECKS = {"normalize": check_normal_form, "matrix": check_matrix, "verify": check_verify,
           "lemma_aux": check_lemma_aux}


def check(op: Op, output: str | None, error: str | None) -> str | None:
    """None if the operation succeeded and its output is right, else why not."""
    if error is not None:
        return error
    if output is None:
        return "no output"
    return _CHECKS[op.kind](op, output)
