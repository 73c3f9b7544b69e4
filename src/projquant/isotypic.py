"""Decomposition of symbols into eigenblocks of the symbol Casimir.

Each homogeneous part of a symbol splits into its pieces on the labels of
its degree, one `casimir.projections` call per degree: the shift adds one
scalar to the whole degree-i part, so the projectors of the shift-free
Casimir C0 serve any context.  `casimir.labels_for_degree` states which
labels exist.  `projections` works on integer numerators over one
denominator; both functions here convert at their own boundary.
"""

from __future__ import annotations

from .casimir import LabelRangeError, SpectralLabel, labels_for_degree, projections
from .densities import SymbolPoly, _numerators, _poly


def isotypic_project(sym: SymbolPoly, label: SpectralLabel) -> SymbolPoly:
    """Projection of a homogeneous symbol onto one eigenblock."""
    i, p = label
    ctx = sym.context
    labels = labels_for_degree(ctx, i)
    if label not in labels:
        raise LabelRangeError(f"label ({i},{p}) is not admissible in this context")
    if sym.body.is_zero():
        return sym
    degrees = set(sym.body.fiber_parts())
    if degrees != {i}:
        raise ValueError(
            f"projection needs a homogeneous symbol of degree {i}, "
            f"found degrees {sorted(degrees)}")
    pieces = projections(_numerators(sym.body.terms), ctx.n, labels, {})
    return SymbolPoly(_poly(ctx.n, *pieces.get(label, ({}, 1))), ctx)


def decompose(sym: SymbolPoly) -> dict[SpectralLabel, SymbolPoly]:
    """Full isotypic decomposition; components sum to the input.  One memo
    serves every degree."""
    ctx = sym.context
    memo: dict = {}
    out: dict[SpectralLabel, SymbolPoly] = {}
    for degree, part in sym.body.fiber_parts().items():
        for label, piece in projections(_numerators(part.terms), ctx.n,
                                        labels_for_degree(ctx, degree),
                                        memo).items():
            out[label] = SymbolPoly(_poly(ctx.n, *piece), ctx)
    return dict(sorted(out.items()))
