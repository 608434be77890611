"""Command-line front end: normalize, verify, represent, spectrum.

Output is deterministic for a fixed argv: orderings are canonical and
floats print with 17 significant digits.  Exit codes: 0 on success (all
requested checks passed), 1 on a failed verification, 2 on syntax or
domain errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .algebra import (
    RewriteFuelError,
    normalize,
    presentation_S,
    presentation_Sigma,
)
from .expr import ExprSyntaxError, parse, print_canonical
from .rep import RepConfig, _fmt, apply_element, basis_state, matrix, matrix_json, yn1_spectrum
from .scalar import DomainError
from .verify import SUITES, rep_params, run_suite


def _parse_q(text: str) -> Fraction:
    parts = text.split("/")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise DomainError(f"q must be an exact rational like 1/2, got {text!r}")
    if int(parts[1]) == 0:
        raise DomainError(f"q has a zero denominator: {text!r}")
    return Fraction(int(parts[0]), int(parts[1]))


def _parse_lambda(text: str) -> complex:
    """1, -1, i, -i, or re,im with each part a rational like 3/5 or a float."""
    named = {"1": 1, "-1": -1, "i": 1j, "-i": -1j}
    if text in named:
        return complex(named[text])
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"lambda must be 1, -1, i, -i or re,im; got {text!r}")
    try:  # as rationals such as 3/5; nan and inf, which RepConfig refuses, read as floats
        return complex(*(float(Fraction(part)) for part in parts))
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as err:
        raise DomainError(f"cannot parse lambda {text!r}") from err


def _presentation(args):
    build = presentation_S if args.algebra == "s" else presentation_Sigma
    return build(args.n, args.sphere == "on")


def _numeric_config(args, command: str) -> RepConfig:
    """The configuration of a command that prints doubles; it refuses exact mode."""
    if args.mode == "exact":
        raise DomainError(f"{command} prints floating-point values: --mode exact is "
                          "only honoured by verify")
    if args.algebra == "s":
        raise DomainError("representations are only constructed for the sigma algebra")
    return RepConfig(args.n, _parse_q(args.q), _parse_lambda(args.lam), args.K)


def cmd_normalize(args) -> int:
    p = _presentation(args)
    element = parse(args.expr, p)
    print(print_canonical(normalize(element, p)))
    return 0


def cmd_verify(args) -> int:
    # every representation flag is checked before run_suite builds anything
    params = rep_params(args.n, _parse_q(args.q), _parse_lambda(args.lam), args.K, args.mode)
    reports = run_suite(args.suite, "S" if args.algebra == "s" else "Sigma", args.n, args.sphere == "on", params)
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports], indent=None, sort_keys=True))
    else:
        for report in reports:
            print(report)
    return 0 if all(r.passed for r in reports) else 1


def cmd_rep_matrix(args) -> int:
    config = _numeric_config(args, "rep matrix")
    p = _presentation(args)
    element = parse(args.expr, p)
    print(matrix_json(matrix(element, config), config))
    return 0


def cmd_rep_apply(args) -> int:
    config = _numeric_config(args, "rep apply")
    p = _presentation(args)
    element = parse(args.expr, p)
    try:
        state = tuple(int(part) for part in args.state.split(","))
    except ValueError as err:
        raise DomainError(f"bad state {args.state!r}; expected k1,..,kn") from err
    out = sorted(apply_element(element, basis_state(config, state), config).items())
    if args.format == "json":
        payload = {"n": config.n, "K": config.K,
                   "state": [[list(k), amp.real, amp.imag] for k, amp in out]}
        print(json.dumps(payload))
    else:
        if not out:
            print("0")
        for k, amp in out:
            print(f"{','.join(map(str, k))} {_fmt(amp.real)} {_fmt(amp.imag)}")
    return 0


def cmd_spectrum(args) -> int:
    config = _numeric_config(args, "spectrum")
    values = yn1_spectrum(config)
    if args.format == "json":
        print(json.dumps({"spectrum": [[v.real, v.imag] for v in values]}))
    else:
        from .rep import fock_indices
        for k, v in zip(fock_indices(config), values):
            print(f"{','.join(map(str, k))} {_fmt(v.real)} {_fmt(v.imag)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="qsphere",
        description="Normalize, verify and represent elements of the two "
                    "q-deformed sphere *-algebras.")
    subs = parser.add_subparsers(dest="command", required=True)
    # flag groups; each command takes only the groups it reads, so an unread flag exits 2
    algebra, sphere, rep, fmt = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    algebra.add_argument("--algebra", choices=("s", "sigma"), default="sigma")
    algebra.add_argument("--n", type=int, default=1)
    sphere.add_argument("--sphere", choices=("on", "off"), default="on")
    rep.add_argument("--q", default="1/2", help="exact rational, e.g. 1/2")
    rep.add_argument("--lambda", dest="lam", default="1",
                     help="1, -1, i, -i, or re,im on the unit circle")
    rep.add_argument("--K", type=int, default=6)
    rep.add_argument("--mode", choices=("numeric", "exact"), default="numeric")
    fmt.add_argument("--format", choices=("text", "json"), default="text")

    p_norm = subs.add_parser("normalize", parents=[algebra, sphere],
                             help="print the canonical normal form")
    p_norm.add_argument("expr")
    p_norm.set_defaults(func=cmd_normalize)

    p_verify = subs.add_parser("verify", parents=[algebra, sphere, rep, fmt], help="run identity checks")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.set_defaults(func=cmd_verify)

    p_rep = subs.add_parser("rep", help="representation operations")
    rep_subs = p_rep.add_subparsers(dest="rep_command", required=True)

    p_mat = rep_subs.add_parser("matrix", parents=[algebra, sphere, rep],
                                help="emit the sparse matrix as JSON")
    p_mat.add_argument("expr")
    p_mat.set_defaults(func=cmd_rep_matrix)

    p_apply = rep_subs.add_parser("apply", parents=[algebra, sphere, rep, fmt],
                                  help="apply an element to a basis state")
    p_apply.add_argument("expr")
    p_apply.add_argument("--state", required=True, help="comma-separated index, e.g. 0,2")
    p_apply.set_defaults(func=cmd_rep_apply)

    p_spec = subs.add_parser("spectrum", parents=[algebra, rep, fmt],
                             help="print the diagonal of y_{n+1}")
    p_spec.set_defaults(func=cmd_spectrum)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExprSyntaxError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DomainError, RewriteFuelError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
