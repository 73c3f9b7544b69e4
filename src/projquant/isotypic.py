"""Decomposition of symbols into eigenblocks of the symbol Casimir.

A homogeneous symbol of total fiber degree i splits into components labelled
(i, p) with p up to floor(i/2) (only p = 0 in dimension one or at arity
one).  Each component is the projection onto the eigenspace of the
shift-free Casimir C0 for gamma0(i, p) (`casimir.projections`): the shift
adds one scalar to the whole degree-i part, so any context shift yields the
same operator.  The memo of one top-level call (`decompose`, `quantize`,
`symbol_map`) is shared by every degree, level and component of it.
"""

from __future__ import annotations

from .casimir import (LabelRangeError, SpectralLabel, projections,
                      shift_free_eigenvalue, tableau_labels)
from .densities import Context, SymbolPoly
from .poly import Poly


def labels_for_degree(ctx: Context, degree: int) -> tuple[SpectralLabel, ...]:
    """Admissible labels (degree, q) in this context."""
    if degree < 0:
        return ()
    if ctx.arity == 1:
        return (SpectralLabel(degree, 0),)
    return tuple(SpectralLabel(degree, q) for q in tableau_labels(ctx.n, degree))


def decompose_body(body: Poly, degree: int, ctx: Context,
                   memo: dict) -> dict[SpectralLabel, Poly]:
    """Isotypic pieces of a nonzero homogeneous body; zero pieces are
    omitted."""
    labels = labels_for_degree(ctx, degree)
    nodes = tuple(shift_free_eigenvalue(ctx.n, *label) for label in labels)
    pieces = projections(body, nodes, ctx.n, memo)
    return {label: piece for label, piece in zip(labels, pieces)
            if not piece.is_zero()}


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
