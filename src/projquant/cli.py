"""Command-line surface.

Subcommands: spectrum, critical, resonances, quantize, symbol, verify.
All numeric input and output is exact rational text (p/q or integer);
decimal input is rejected.  Exit codes: 0 success, 1 usage or parse error,
2 mathematical obstruction.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .casimir import casimir_eigenvalue, tableau_labels
from .densities import Context, SymbolPoly, BidiffOp
from .parsing import ParseError, format_poly, parse_poly
from .quantization import ObstructionError, quantize, symbol_map
from .resonance import classify_shift, critical_lower_bound, critical_values_in_interval
from .verify import run_suite

USAGE_EXIT = 1
OBSTRUCTION_EXIT = 2

_RATIONAL = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

# Highest degree that spectrum, critical and resonances may scan; a scan to
# degree k visits about k^4/32 label pairs.  critical and resonances scan to
# the critical bound index of their shift, which passes the limit exactly when
# the non-decreasing critical_lower_bound(n, SCAN_ORDER_LIMIT) <= shift: shifts
# below 65/2 pass at n=1, below 33/2 at n=2 and below 101/8 at n=3.
SCAN_ORDER_LIMIT = 64

# Highest fiber degree that quantize and symbol accept: a backstop on the
# degree only, since the cost also grows with n and the x-degree.  In
# process (Python 3.11, shared 2-vCPU host), at n=3 the x-free
# a1^11*a2^11*a3^10*b1^10*b2^11*b3^11 (degree 64) takes 0.5 s,
# a1^30*a2^30*b2^30*b3^30 (degree 120) 4.5 s and
# x1^2*x2*a1^6*a2^6*b2^6*b3^6 (degree 24) 3.6-4.4 s; at n=2 a1^64 takes
# 0.01 s and a1^800 6.8 s.
SOLVE_DEGREE_LIMIT = 64

# Highest --n that quantize and symbol accept, checked before the expression
# is parsed: every term carries three exponent tuples of length n, so the
# cost of a fixed expression grows about linearly with n.  In process,
# quantize of x1*a1*b<n>*a2*b<n-1>*a3*b<n-2>*a4*b<n-3> took 0.44 s at n=16,
# 1.1 s at n=64, 1.9 s at n=128 and 3.5 s at n=256.
SOLVE_DIM_LIMIT = 64

# Highest --max-order that verify accepts.  The suites size their random
# operators, and the resonance suite its label-pair walk, by this order.  At
# n=3 the slowest suite, equivariance, took 1.7 s at order 8, 4.2 s at 10
# and 19 s at 12.
VERIFY_ORDER_LIMIT = 8

# Highest --n that verify accepts.  At the default order 3 the slowest suite,
# casimir, took 1.4 s at n=5 and 4.2 s at n=6; at order 8 equivariance took
# 1.3 s at n=5 and 9.7 s at n=6.
VERIFY_DIM_LIMIT = 5


class UsageError(Exception):
    pass


def parse_rational(text: str) -> Fraction:
    if not _RATIONAL.match(text.strip()):
        raise UsageError(
            f"expected an exact rational like 3 or -5/7, got {text!r}")
    return Fraction(text)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="projquant", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    spectrum = sub.add_parser("spectrum", help="eigenvalue table")
    spectrum.add_argument("--n", type=int, required=True)
    spectrum.add_argument("--delta", required=True)
    spectrum.add_argument("--max-order", type=int, default=4)
    spectrum.add_argument("--json", action="store_true")

    critical = sub.add_parser("critical", help="critical shifts in an interval")
    critical.add_argument("--n", type=int, required=True)
    critical.add_argument("--range", nargs=2, required=True,
                          metavar=("LO", "HI"))
    critical.add_argument("--json", action="store_true")

    resonances = sub.add_parser("resonances", help="classify one shift")
    resonances.add_argument("--n", type=int, required=True)
    resonances.add_argument("--delta", required=True)
    resonances.add_argument("--max-order", type=int, default=6)
    resonances.add_argument("--json", action="store_true")

    for name, text in (("quantize", "prolong a symbol"),
                       ("symbol", "symbol of an operator")):
        solve = sub.add_parser(name, help=text)
        solve.add_argument("--n", type=int, required=True)
        for weight in ("--lambda1", "--lambda2", "--mu"):
            solve.add_argument(weight, required=True)
        solve.add_argument("expr")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True)
    verify.add_argument("--n", type=int, default=2)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--max-order", type=int, default=3)
    verify.add_argument("--json", action="store_true")

    return parser


def _emit(payload, as_json: bool, text_lines) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _check_order(max_order: int, least: int) -> None:
    if not least <= max_order <= SCAN_ORDER_LIMIT:
        raise UsageError(f"scan limit: --max-order must be in {least}..{SCAN_ORDER_LIMIT}")


def _check_verify_size(n: int, max_order: int) -> None:
    if n > VERIFY_DIM_LIMIT:
        raise UsageError(f"verify limit: --n must be at most {VERIFY_DIM_LIMIT}")
    if not 0 <= max_order <= VERIFY_ORDER_LIMIT:
        raise UsageError(
            f"verify limit: --max-order must be in 0..{VERIFY_ORDER_LIMIT}")


def _check_shift(n: int, shift: Fraction) -> None:
    top = critical_lower_bound(n, SCAN_ORDER_LIMIT)
    if top <= shift:
        raise UsageError(f"scan limit: shift must be below {top} at n={n}")


def _cmd_spectrum(args) -> int:
    delta = parse_rational(args.delta)
    _check_order(args.max_order, 0)
    rows = [[i, p, str(casimir_eigenvalue(args.n, delta, i, p))]
            for i in range(args.max_order + 1)
            for p in tableau_labels(args.n, i)]
    _emit({"delta": str(delta), "gamma": rows}, args.json,
          [f"i={i} p={p} gamma={g}" for i, p, g in rows])
    return 0


def _cmd_critical(args) -> int:
    lo = parse_rational(args.range[0])
    hi = parse_rational(args.range[1])
    _check_shift(args.n, hi)
    grouped = critical_values_in_interval(args.n, lo, hi)
    payload = [{"delta": str(d),
                "tuples": [[t.i, t.p, t.j, t.q] for t in tuples]}
               for d, tuples in grouped]
    lines = [f"delta={entry['delta']} tuples={entry['tuples']}"
             for entry in payload]
    if not lines:
        lines = ["no critical shifts in the interval"]
    _emit(payload, args.json, lines)
    return 0


def _cmd_resonances(args) -> int:
    delta = parse_rational(args.delta)
    _check_order(args.max_order, 1)
    _check_shift(args.n, delta)
    result = classify_shift(args.n, delta, args.max_order)
    payload = {
        "delta": str(delta),
        "tuples": [[t.i, t.p, t.j, t.q, t.critical] for t in result.tuples],
        "checks": {"kind": result.kind,
                   "max_order": result.max_order,
                   "critical_bound_index": result.critical_bound},
    }
    lines = [f"delta={delta}: {result.kind} "
             f"(resonances complete up to order {result.max_order}; "
             f"criticality certified, bound index {result.critical_bound})"]
    for t in result.tuples:
        lines.append(f"  ({t.i},{t.p};{t.j},{t.q})"
                     + (" critical" if t.critical else " not critical"))
    _emit(payload, args.json, lines)
    return 0


def _context_from(args) -> Context:
    return Context(args.n, (parse_rational(args.lambda1),
                            parse_rational(args.lambda2)),
                   parse_rational(args.mu))


def _solve(args, solver, result_key: str) -> int:
    """Parse the expression, run the solver in the context of the args and
    print the result, or the obstruction with exit code 2."""
    if args.n > SOLVE_DIM_LIMIT:
        raise UsageError(f"solve limit: --n must be at most {SOLVE_DIM_LIMIT}")
    ctx = _context_from(args)
    body = parse_poly(args.expr, args.n)
    if body.fiber_degree() > SOLVE_DEGREE_LIMIT:
        raise UsageError(f"solve limit: the fiber degree must be at most "
                         f"{SOLVE_DEGREE_LIMIT}, got {body.fiber_degree()}")
    try:
        result = solver(body, ctx)
    except ObstructionError as err:
        print(json.dumps({"obstruction": {
            "source": list(err.source),
            "blocked": list(err.blocked),
            "component": format_poly(err.obstruction.body),
        }}, sort_keys=True))
        return OBSTRUCTION_EXIT
    print(json.dumps({
        "input": format_poly(body),
        result_key: format_poly(getattr(result, result_key).body),
        "free_slots": sorted([i, p] for i, p in result.free_slots),
        "unique": result.unique,
    }, sort_keys=True))
    return 0


def _cmd_quantize(args) -> int:
    return _solve(args, lambda body, ctx: quantize(SymbolPoly(body, ctx)),
                  "operator")


def _cmd_symbol(args) -> int:
    return _solve(args, lambda body, ctx: symbol_map(BidiffOp(body, ctx)),
                  "symbol")


def _cmd_verify(args) -> int:
    _check_verify_size(args.n, args.max_order)
    try:
        checks = run_suite(args.suite, args.n, args.seed, args.max_order)
    except KeyError as err:
        raise UsageError(str(err)) from None
    payload = {"checks": [{"name": c.name,
                           "status": "pass" if c.passed else "fail"}
                          for c in checks]}
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.name}"
             + (f" ({c.detail})" if c.detail else "") for c in checks]
    _emit(payload, args.json, lines)
    return 0 if all(c.passed for c in checks) else 1


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "critical": _cmd_critical,
    "resonances": _cmd_resonances,
    "quantize": _cmd_quantize,
    "symbol": _cmd_symbol,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ParseError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
