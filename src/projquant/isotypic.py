"""Decomposition of symbols into eigenblocks of the symbol Casimir.

A homogeneous symbol of total fiber degree i splits into components labelled
(i, p) with p up to floor(i/2) (only p = 0 in dimension one or at arity
one).  The projectors are the Lagrange interpolants l_p(C) of the shift-free
symbol Casimir C: the eigenvalue differences 2 (p - q)(p + q - 1 - i) do not
depend on the shift, so any context shift yields the same operator.

`projector_constants` holds, per (n, i), the shift-free eigenvalues, the
common denominator D of the interpolants and the integer coefficients of
each D l_p(t); it is the only thing cached across calls.

The symbol Casimir leaves x alone, so the projection works per fiber
monomial: P(x^s m) = x^s P(m).  One integer kernel, `_combine`, applies
rows of weights to the Krylov vectors m, Cm, ..., C^(L-1) m (L labels) of
each distinct fiber monomial m of a body: the rows of D l_p for
`decompose_body`, the resolvent row for the level solve of
`projquant.quantization`.  The Krylov vectors go into a plain dict memo,
which lives for one top-level call (`decompose`, `quantize`, `symbol_map`)
and is shared by every degree, level and component of it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import lcm, prod

from .casimir import (LabelRangeError, SpectralLabel, casimir_eigenvalue,
                      fiber_casimir, tableau_labels)
from .densities import Context, SymbolPoly, _numerators, _poly
from .poly import Poly


def labels_for_degree(ctx: Context, degree: int) -> tuple[SpectralLabel, ...]:
    """Admissible labels (degree, q) in this context."""
    if degree < 0:
        return ()
    if ctx.arity == 1:
        return (SpectralLabel(degree, 0),)
    return tuple(SpectralLabel(degree, q) for q in tableau_labels(ctx.n, degree))


@lru_cache(maxsize=256)
def projector_constants(n: int, degree: int) -> tuple:
    """(gamma, D, coefficients) of the projectors at one degree, arity two.

    gamma holds the shift-free eigenvalues gamma_q of the labels (degree, q),
    D = lcm_p prod_{q != p} (gamma_p - gamma_q) is the common denominator of
    the Lagrange basis polynomials l_p(t) = prod_{q != p} (t - gamma_q) /
    (gamma_p - gamma_q), and coefficients[p] lists the integer coefficients
    of D l_p(t), constant term first.  Each numerator is the master
    polynomial prod_q (t - gamma_q) divided by t - gamma_p, synthetically."""
    gamma = tuple(int(casimir_eigenvalue(n, 0, degree, q))
                  for q in tableau_labels(n, degree))
    master = [1]
    for gamma_q in gamma:
        master = [a - gamma_q * b for a, b in zip([0] + master, master + [0])]
    products = []
    for p, gamma_p in enumerate(gamma):
        quotient = list(accumulate(reversed(master[1:]),
                                   lambda carry, c: c + gamma_p * carry))
        den = prod(gamma_p - gamma_q for q, gamma_q in enumerate(gamma) if q != p)
        products.append((quotient[::-1], den))
    D = lcm(*(den for _, den in products))
    return gamma, D, tuple(tuple(c * (D // den) for c in poly)
                           for poly, den in products)


def _combine(body: Poly, rows: list, n: int, memo: dict) -> tuple[list, int]:
    """sum_k row[k] C^k body for each row of length L, C the shift-free
    Casimir, as integer numerators over the body's denominator.

    memo maps fiber monomials m to their Krylov vectors; share it across the
    calls for one context.  Each row is combined once per m and accumulated
    over the x monomials that carry m."""
    terms, den = _numerators(body.terms)
    fibers: dict = {}
    for (xa, aa, ba), c in terms.items():
        fibers.setdefault((aa, ba), []).append((xa, c))
    euler = 2 * (n + 1)
    outs: list = [{} for _ in rows]
    for fiber, carriers in fibers.items():
        krylov = memo.get(fiber)
        if krylov is None:
            krylov = [{fiber: 1}]
            for _ in rows[0][1:]:
                step: dict = {}
                for (u1, v1), c in krylov[-1].items():
                    for u2, v2, k in fiber_casimir(u1, v1, 0, euler):
                        step[(u2, v2)] = step.get((u2, v2), 0) + c * k
                krylov.append(step)
            memo[fiber] = krylov
        for row, out in zip(rows, outs):
            num: dict = {}
            for k, vector in zip(row, krylov):
                for key, c in vector.items():
                    num[key] = num.get(key, 0) + k * c
            image = [(a, b, c) for (a, b), c in num.items() if c]
            for xa, c in carriers:
                for a, b, k in image:
                    key = (xa, a, b)
                    out[key] = out.get(key, 0) + c * k
    return outs, den


def decompose_body(body: Poly, degree: int, ctx: Context,
                   memo: dict) -> dict[SpectralLabel, Poly]:
    """Isotypic pieces of a homogeneous body; zero pieces are omitted.

    Each piece is the combination of the Krylov vectors with the
    coefficients of D l_p (`_combine`, sharing memo), over D times the
    body's denominator."""
    if body.is_zero():
        return {}
    labels = labels_for_degree(ctx, degree)
    if len(labels) == 1:
        return {labels[0]: body}
    _, D, coefficients = projector_constants(ctx.n, degree)
    outs, den = _combine(body, coefficients, ctx.n, memo)
    parts = {}
    for label, out in zip(labels, outs):
        piece = _poly(ctx.n, out, D * den)
        if not piece.is_zero():
            parts[label] = piece
    return parts


def isotypic_project(sym: SymbolPoly, label: SpectralLabel) -> SymbolPoly:
    """Projection of a homogeneous symbol onto one eigenblock."""
    i, p = label
    ctx = sym.context
    if label not in labels_for_degree(ctx, i):
        raise LabelRangeError(f"label ({i},{p}) is not admissible in this context")
    if sym.body.is_zero():
        return sym
    degrees = set(sym.body.fiber_parts())
    if degrees != {i}:
        raise ValueError(
            f"projection needs a homogeneous symbol of degree {i}, "
            f"found degrees {sorted(degrees)}")
    parts = decompose_body(sym.body, i, ctx, {})
    return SymbolPoly(parts.get(SpectralLabel(i, p), Poly.zero(ctx.n)), ctx)


def decompose(sym: SymbolPoly) -> dict[SpectralLabel, SymbolPoly]:
    """Full isotypic decomposition; components sum to the input."""
    ctx = sym.context
    memo: dict = {}
    out: dict[SpectralLabel, SymbolPoly] = {}
    for degree, part in sym.body.fiber_parts().items():
        for label, piece in decompose_body(part, degree, ctx, memo).items():
            out[label] = SymbolPoly(piece, ctx)
    return dict(sorted(out.items()))
