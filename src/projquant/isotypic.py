"""Decomposition of symbols into eigenblocks of the symbol Casimir.

A homogeneous symbol of total fiber degree i splits into components labelled
(i, p) with p up to floor(i/2) (only p = 0 in dimension one or at arity
one).  The projectors are the Lagrange interpolants l_p(C0) of the
shift-free Casimir C0 on its eigenvalues gamma0(i, p), the nodes: the shift
adds one scalar to the whole degree-i part, so any context shift yields the
same operator.

`projector_constants` holds, per tuple of nodes, the common denominator D
of the interpolants and the integer coefficients of each D l_p(t); it is
the only thing cached across calls.  A single node, at arity one, in
dimension one or at degree below two, gives the identity (1, ((1,),)), so
every degree goes through the same path.

C0 leaves x alone, so the projection works per fiber monomial:
P(x^s m) = x^s P(m).  `decompose_body` passes the rows of D l_p, each over
D, to the integer kernel `casimir._combine`, which applies them to the
Krylov vectors m, C0 m, ..., C0^(L-1) m (L labels) of each distinct fiber
monomial m of a body.  The Krylov vectors go into a plain dict memo, which
lives for one top-level call (`decompose`, `quantize`, `symbol_map`) and is
shared by every degree, level and component of it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import lcm, prod

from .casimir import (LabelRangeError, SpectralLabel, _combine,
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


@lru_cache(maxsize=256)
def projector_constants(nodes: tuple[int, ...]) -> tuple:
    """(D, coefficients) of the Lagrange interpolants on distinct nodes.

    D = lcm_p prod_{q != p} (gamma_p - gamma_q) is the common denominator of
    the basis polynomials l_p(t) = prod_{q != p} (t - gamma_q) /
    (gamma_p - gamma_q), and coefficients[p] lists the integer coefficients
    of D l_p(t), constant term first; one node gives (1, ((1,),)).  Each
    numerator is the master polynomial prod_q (t - gamma_q) divided by
    t - gamma_p, synthetically."""
    master = [1]
    for gamma_q in nodes:
        master = [a - gamma_q * b for a, b in zip([0] + master, master + [0])]
    products = []
    for p, gamma_p in enumerate(nodes):
        quotient = list(accumulate(reversed(master[1:]),
                                   lambda carry, c: c + gamma_p * carry))
        den = prod(gamma_p - gamma_q for q, gamma_q in enumerate(nodes) if q != p)
        products.append((quotient[::-1], den))
    D = lcm(*(den for _, den in products))
    return D, tuple(tuple(c * (D // den) for c in poly) for poly, den in products)


def decompose_body(body: Poly, degree: int, ctx: Context,
                   memo: dict) -> dict[SpectralLabel, Poly]:
    """Isotypic pieces of a nonzero homogeneous body; zero pieces are
    omitted.  Each piece is one row of D l_p over D (`_combine`, sharing
    memo)."""
    labels = labels_for_degree(ctx, degree)
    D, coefficients = projector_constants(
        tuple(shift_free_eigenvalue(ctx.n, *label) for label in labels))
    pieces = _combine(body, [(row, D) for row in coefficients], ctx.n, memo)
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
