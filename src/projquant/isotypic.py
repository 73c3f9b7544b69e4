"""Decomposition of symbols into eigenblocks of the symbol Casimir.

A homogeneous symbol of total fiber degree i splits into components labelled
(i, p) with p up to floor(i/2) (only p = 0 in dimension one or at arity
one).  The projectors are Lagrange interpolants of casimir_symbol: the
eigenvalue differences 2 (p - q)(p + q - 1 - i) are shift-free, so any
context shift yields the same operator.

The symbol Casimir leaves x alone, so the projection works per fiber
monomial: P(x^s m) = x^s P(m).  Each distinct fiber monomial m is projected
once, with the shift-free Casimir in integer arithmetic, into a plain dict
memo.  A memo lives for one top-level call (`decompose`, `quantize`,
`symbol_map`) and is shared by every degree, level and component of it;
nothing is kept between calls.
"""

from __future__ import annotations

from fractions import Fraction

from .casimir import (LabelRangeError, SpectralLabel, casimir_eigenvalue,
                      fiber_casimir, tableau_labels)
from .densities import Context, SymbolPoly
from .poly import Poly


def labels_for_degree(ctx: Context, degree: int) -> tuple[SpectralLabel, ...]:
    """Admissible labels (degree, q) in this context."""
    if degree < 0:
        return ()
    if ctx.arity == 1:
        return (SpectralLabel(degree, 0),)
    return tuple(SpectralLabel(degree, q) for q in tableau_labels(ctx.n, degree))


def _project_fiber(u: tuple[int, ...], v: tuple[int, ...],
                   labels: tuple[SpectralLabel, ...], gamma: list[int],
                   n: int) -> list:
    """Isotypic pieces of the fiber monomial a^u b^v, as
    (label, ((u', v', coefficient), ...)) with zero pieces omitted; gamma
    holds the shift-free eigenvalues of the labels.

    Every label but the last is the Lagrange product of (C - gamma_q) over
    the other labels, taken with the shift-free Casimir so that the
    numerators stay integers; the last is the remainder, which equals its
    own Lagrange product because the interpolants sum to one."""
    euler = 2 * (n + 1)
    pieces = []
    rest = {(u, v): Fraction(1)}
    for label in labels[:-1]:
        num = {(u, v): 1}
        den = 1
        for _, q in labels:
            if q == label.p:
                continue
            step: dict = {}
            for (u1, v1), c in num.items():
                for u2, v2, k in fiber_casimir(u1, v1, -gamma[q], euler):
                    step[(u2, v2)] = step.get((u2, v2), 0) + c * k
            num = {key: c for key, c in step.items() if c}
            den *= gamma[label.p] - gamma[q]
            if not num:
                break
        if num:
            image = tuple((a, b, Fraction(c, den)) for (a, b), c in num.items())
            pieces.append((label, image))
            for a, b, c in image:
                rest[(a, b)] = rest.get((a, b), 0) - c
    last = tuple((a, b, c) for (a, b), c in rest.items() if c)
    if last:
        pieces.append((labels[-1], last))
    return pieces


def decompose_body(body: Poly, degree: int, ctx: Context,
                   memo: dict) -> dict[SpectralLabel, Poly]:
    """Isotypic pieces of a homogeneous body; zero pieces are omitted.

    memo maps fiber monomials to their pieces; pass the same dict to every
    call made for one context to project each fiber monomial only once."""
    if body.is_zero():
        return {}
    labels = labels_for_degree(ctx, degree)
    if len(labels) == 1:
        return {labels[0]: body}
    gamma = [int(casimir_eigenvalue(ctx.n, 0, degree, q)) for _, q in labels]
    acc: dict[SpectralLabel, dict] = {label: {} for label in labels}
    for (xa, aa, ba), c in body.terms.items():
        pieces = memo.get((aa, ba))
        if pieces is None:
            pieces = memo[(aa, ba)] = _project_fiber(aa, ba, labels, gamma, ctx.n)
        for label, image in pieces:
            terms = acc[label]
            for a, b, k in image:
                key = (xa, a, b)
                terms[key] = terms.get(key, 0) + c * k
    parts = {}
    for label, terms in acc.items():
        terms = {key: c for key, c in terms.items() if c}
        if terms:
            parts[label] = Poly._trusted(ctx.n, terms)
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
