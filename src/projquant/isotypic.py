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
monomial: P(x^s m) = x^s P(m).  Each distinct fiber monomial m is projected
once, in integer arithmetic: its Krylov vectors m, Cm, ..., C^(L-1) m (L
labels) are combined with the coefficients of each D l_p, and the last
label takes the remainder D m minus the others.  The integer images over D
go into a plain dict memo.  A memo lives for one top-level call
(`decompose`, `quantize`, `symbol_map`) and is shared by every degree, level
and component of it.  `decompose_body` reads the body as integer numerators
over one denominator and builds each output coefficient once.
"""

from __future__ import annotations

from functools import lru_cache
from math import lcm

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
    of D l_p(t), constant term first."""
    gamma = tuple(int(casimir_eigenvalue(n, 0, degree, q))
                  for q in tableau_labels(n, degree))
    products = []
    for p, gamma_p in enumerate(gamma):
        poly = [1]
        den = 1
        for q, gamma_q in enumerate(gamma):
            if q != p:
                poly = [a - gamma_q * b for a, b in zip([0] + poly, poly + [0])]
                den *= gamma_p - gamma_q
        products.append((poly, den))
    D = lcm(*(den for _, den in products))
    return gamma, D, tuple(tuple(c * (D // den) for c in poly)
                           for poly, den in products)


def _project_fiber(u: tuple[int, ...], v: tuple[int, ...],
                   labels: tuple[SpectralLabel, ...], D: int,
                   coefficients: tuple, n: int) -> list:
    """Isotypic pieces of the fiber monomial a^u b^v, times D, as
    (label, ((u', v', integer), ...)) with zero pieces omitted.

    The Krylov vectors m, Cm, ..., C^(L-1) m of the shift-free Casimir C
    (L labels) take L - 1 Casimir applications; every label but the last is
    their combination with the coefficients of D l_p, and the last is the
    remainder D m minus the others, since the interpolants sum to one."""
    euler = 2 * (n + 1)
    krylov = [{(u, v): 1}]
    for _ in labels[1:]:
        step: dict = {}
        for (u1, v1), c in krylov[-1].items():
            for u2, v2, k in fiber_casimir(u1, v1, 0, euler):
                step[(u2, v2)] = step.get((u2, v2), 0) + c * k
        krylov.append(step)
    pieces = []
    rest = {(u, v): D}
    for label in labels[:-1]:
        num: dict = {}
        for k, vector in zip(coefficients[label.p], krylov):
            for key, c in vector.items():
                num[key] = num.get(key, 0) + k * c
        image = tuple((a, b, c) for (a, b), c in num.items() if c)
        if image:
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

    memo maps fiber monomials to their integer pieces over D; pass the same
    dict to every call made for one context to project each fiber monomial
    only once.  The body is read as integer numerators over one
    denominator, and each output coefficient is built once."""
    if body.is_zero():
        return {}
    labels = labels_for_degree(ctx, degree)
    if len(labels) == 1:
        return {labels[0]: body}
    _, D, coefficients = projector_constants(ctx.n, degree)
    terms, den = _numerators(body.terms)
    acc: dict[SpectralLabel, dict] = {label: {} for label in labels}
    for (xa, aa, ba), c in terms.items():
        pieces = memo.get((aa, ba))
        if pieces is None:
            pieces = memo[(aa, ba)] = _project_fiber(aa, ba, labels, D,
                                                     coefficients, ctx.n)
        for label, image in pieces:
            out = acc[label]
            for a, b, k in image:
                key = (xa, a, b)
                out[key] = out.get(key, 0) + c * k
    parts = {}
    for label, out in acc.items():
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
