"""Seeded verification suites surfacing the per-module exact identities.

Each suite returns a list of named checks; a check fails only when an exact
identity is violated, so any failure is a real defect.  Suites are
deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .casimir import (casimir_correction, casimir_direct, casimir_eigenvalue,
                      casimir_symbol, highest_weight_vector, tableau_labels)
from .densities import (Context, lie_derivative_operator,
                        lie_derivative_symbol, lie_derivative_via_definition,
                        apply_operator)
from .isotypic import decompose
from .poly import Poly
from .quantization import quantize, symbol_map
from .resonance import (critical_lower_bound,
                        critical_values_in_interval, is_critical,
                        label_pairs, resonant_delta)
from .sampling import (generic_context, random_density, random_fraction,
                       random_operator, random_symbol)
from .slbasis import basis_fields, bracket_closure_check


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, passed: bool, detail: str = "") -> Check:
    return Check(name, bool(passed), detail if not passed else "")


def suite_casimir(n: int, seed: int, max_order: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    ok = True
    for _ in range(5):
        ctx = Context(n, (rng_weight(rng), rng_weight(rng)), rng_weight(rng))
        op = random_operator(rng, ctx, max_order, 2)
        lhs = casimir_direct(op).body
        rhs = casimir_symbol(op).body + casimir_correction(op).body
        ok = ok and lhs == rhs
    checks.append(_check("decomposition_identity_arity2", ok))
    ok = True
    for _ in range(3):
        ctx = Context(n, (rng_weight(rng),), rng_weight(rng))
        op = random_operator(rng, ctx, max_order, 2)
        ok = ok and casimir_direct(op).body == (
            casimir_symbol(op).body + casimir_correction(op).body)
    checks.append(_check("decomposition_identity_arity1", ok))
    ok = True
    ctx = Context(n, (rng_weight(rng), rng_weight(rng)), rng_weight(rng))
    op = random_operator(rng, ctx, 2, 2)
    for label, field in basis_fields(n):
        lhs = casimir_direct(lie_derivative_operator(field, op)).body
        rhs = lie_derivative_operator(field, casimir_direct(op)).body
        if lhs != rhs:
            ok = False
            break
    checks.append(_check("centrality", ok))
    if n >= 2:
        ok = True
        ctx = Context.from_delta(n, (rng_weight(rng), rng_weight(rng)),
                                 rng_weight(rng))
        for k in range(3):
            for l in range(3):
                for q in range(min(k, l) + 1):
                    vec = highest_weight_vector(k, l, q, ctx)
                    gamma = casimir_eigenvalue(n, ctx.delta, k + l, q)
                    ok = ok and casimir_symbol(vec).body == gamma * vec.body
        checks.append(_check("eigenvalue_on_highest_weight", ok))
    return checks


def suite_spectrum(n: int, seed: int, max_order: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    ok = True
    for delta in (Fraction(0), Fraction(1), rng_weight(rng)):
        for i in range(13):
            values = [casimir_eigenvalue(n, delta, i, p) for p in tableau_labels(n, i)]
            ok = ok and len(set(values)) == len(values)
    checks.append(_check("tableau_injectivity", ok))
    if n >= 2:
        ctx = Context.from_delta(n, (Fraction(0), Fraction(0)), rng_weight(rng))
        ok = True
        for _ in range(3):
            sym = random_symbol(rng, ctx, max_order, 2)
            parts = decompose(sym)
            total = Poly.zero(n)
            for part in parts.values():
                total = total + part.body
            ok = ok and total == sym.body
            for (i, p), comp in parts.items():
                gamma = casimir_eigenvalue(n, ctx.delta, i, p)
                ok = ok and casimir_symbol(comp).body == gamma * comp.body
        checks.append(_check("isotypic_resolution", ok))
    closed, witness = bracket_closure_check(n)
    checks.append(_check("bracket_closure", closed, str(witness)))
    return checks


def suite_resonance(n: int, seed: int, max_order: int) -> list[Check]:
    checks = []
    ok = True
    for i, p, j, q in label_pairs(n, max_order):
        d = resonant_delta(n, i, p, j, q)
        ok = ok and (casimir_eigenvalue(n, d, i, p)
                     == casimir_eigenvalue(n, d, j, q))
    checks.append(_check("definitional_identity", ok))
    bounds = [critical_lower_bound(n, i) for i in range(1, 13)]
    checks.append(_check("lower_bound_monotone",
                         all(a <= b for a, b in zip(bounds, bounds[1:]))))
    ok = True
    for i, p, j, q in label_pairs(n, 12):
        if is_critical(i, p, j, q):
            d = resonant_delta(n, i, p, j, q)
            ok = ok and d >= critical_lower_bound(n, i)
            ok = ok and d >= 1
    checks.append(_check("critical_bounds", ok))
    values = [d for d, _ in critical_values_in_interval(n, 0, 2)]
    checks.append(_check("no_critical_below_one", all(v >= 1 for v in values)))
    return checks


def suite_equivariance(n: int, seed: int, max_order: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    ok = True
    ctx = generic_context(rng, n, max_order + 1)
    for _ in range(3):
        op = random_operator(rng, ctx, max_order, 2)
        sym = symbol_map(op).symbol
        for label, field in basis_fields(n):
            lhs = symbol_map(lie_derivative_operator(field, op)).symbol.body
            rhs = lie_derivative_symbol(field, sym).body
            if lhs != rhs:
                ok = False
                checks.append(_check(f"symbol_map_equivariance[{label}]", False))
                break
        if not ok:
            break
    checks.append(_check("symbol_map_equivariance", ok))
    ok = True
    for _ in range(3):
        op = random_operator(rng, ctx, max_order, 2)
        f = random_density(rng, n, 3, ctx.weights[0])
        g = random_density(rng, n, 3, ctx.weights[1])
        for label, field in basis_fields(n):
            closed = apply_operator(lie_derivative_operator(field, op), f, g)
            defined = lie_derivative_via_definition(field, op, f, g)
            if closed.value != defined.value:
                ok = False
                break
    checks.append(_check("closed_form_matches_definition", ok))
    return checks


def suite_roundtrip(n: int, seed: int, max_order: int) -> list[Check]:
    rng = random.Random(seed)
    checks = []
    ok = True
    ctx = generic_context(rng, n, max_order + 1)
    for _ in range(5):
        sym = random_symbol(rng, ctx, max_order, 2)
        result = quantize(sym)
        ok = ok and result.unique
        ok = ok and symbol_map(result.operator).symbol.body == sym.body
    checks.append(_check("symbol_of_quantization", ok))
    ok = True
    for _ in range(5):
        op = random_operator(rng, ctx, max_order, 2)
        back = symbol_map(op)
        ok = ok and quantize(back.symbol).operator.body == op.body
    checks.append(_check("quantization_of_symbol", ok))
    return checks


SUITES = {
    "casimir": suite_casimir,
    "spectrum": suite_spectrum,
    "resonance": suite_resonance,
    "equivariance": suite_equivariance,
    "roundtrip": suite_roundtrip,
}


def rng_weight(rng: random.Random) -> Fraction:
    return random_fraction(rng, 6, 5)


def run_suite(name: str, n: int, seed: int, max_order: int) -> list[Check]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](n, seed, max_order)
