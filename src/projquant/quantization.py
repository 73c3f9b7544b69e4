"""Equivariant quantization and its inverse symbol map.

`quantize` splits a symbol into its isotypic components, one
`casimir.projections` call per fiber degree, and prolongs each into an
eigenvector of the operator Casimir by solving the triangular system level
by level: at each lower degree every label's piece of the correction is
divided by its eigenvalue gap, in one `casimir.resolvent` call per level,
until the correction vanishes.  From the projection to the output every
level is integer numerators over one denominator, reduced by their gcd,
and goes into one map from fiber degree to such entries; each degree's
entries are summed once, over the lcm of their denominators, and a
Fraction is built once per output term.  Labels at a vanishing gap, the
source's resonances, are free slots, set to zero; a nonzero piece there
is an obstruction, reported with its label and exact component to read
weight conditions off.

`symbol_map` peels from the top on the same map: each degree's source is
the operator's part less the entries the higher sources wrote there,
formed in integers, and the entries a source writes at its own degree
must sum to that source.

The second-order closed forms, the arity-one quantization, the polarization
maps between unary and binary second-order symbols, and the two
divergence-style equivariant maps available at shift one are provided
alongside, mainly as independent cross-checks of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .casimir import (SpectralLabel, _nc_body, _nc_weights, labels_for_degree,
                      projections, resolvent, shift_free_eigenvalue)
from .densities import (ArityError, BidiffOp, Context, SymbolPoly, _numerators,
                         _poly)
from .poly import ALPHA, BETA, Poly, as_fraction
from .resonance import resonant_pairs


class ObstructionError(Exception):
    """No eigenvector prolongation: a resonant block is actually hit."""

    def __init__(self, source: SpectralLabel, blocked: SpectralLabel,
                 obstruction: SymbolPoly):
        self.source = source
        self.blocked = blocked
        self.obstruction = obstruction
        super().__init__(
            f"component {tuple(source)} cannot be prolonged: the eigenvalue "
            f"gap at {tuple(blocked)} vanishes but the correction does not")


class CriticalShiftError(ValueError):
    """A closed-form denominator vanishes at this shift."""

    def __init__(self, denominator: str, delta):
        self.denominator = denominator
        super().__init__(
            f"critical shift: denominator {denominator} vanishes at "
            f"delta = {delta}")


@dataclass(frozen=True)
class QuantizationResult:
    operator: BidiffOp
    free_slots: frozenset[SpectralLabel]

    @property
    def unique(self) -> bool:
        return not self.free_slots


@dataclass(frozen=True)
class SymbolMapResult:
    symbol: SymbolPoly
    free_slots: frozenset[SpectralLabel]

    @property
    def unique(self) -> bool:
        return not self.free_slots


def _reduced(nums: dict, den: int) -> tuple[dict, int]:
    """Numerators and their denominator divided by their gcd, so that equal
    term maps have equal reduced forms."""
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {key: c // g for key, c in nums.items()}, den // g


def _sum(plus: list, minus: list = ()) -> tuple[dict, int]:
    """sum(plus) - sum(minus) of (numerators, denominator) entries without
    zero numerators, over the lcm of their denominators, zeros left out."""
    if len(plus) == 1 and not minus:
        return plus[0]
    den = lcm(*(d for _, d in plus), *(d for _, d in minus))
    out: dict = {}
    for entries, sign in ((plus, 1), (minus, -1)):
        for nums, d in entries:
            scale = sign * (den // d)
            for key, c in nums.items():
                out[key] = out.get(key, 0) + c * scale
    return {key: c for key, c in out.items() if c}, den


def _solve(part: tuple[dict, int], degree: int, ctx: Context, delta: Fraction,
           weights: tuple, memo: dict, free_slots: set[SpectralLabel],
           levels: dict[int, list]) -> None:
    """Prolong each component of a homogeneous part, given as (numerators,
    denominator), labels in order, into levels, a map from fiber degree to
    a list of (numerators, denominator) entries, each reduced by its gcd.
    At degree j the gap to (j, q) is s - gamma0(j, q), s being the source's
    gamma0 less 2(n+1) delta (i - j), zero at the source's
    `resonant_pairs`; delta is the context's shift and weights its
    `_nc_weights`, both read once by the caller.  The solve stops at the
    first zero correction: every level below is zero."""
    n = ctx.n
    a, b = delta.as_integer_ratio()
    for label, piece in projections(part, n, labels_for_degree(ctx, degree),
                                    memo).items():
        free_slots.update(SpectralLabel(j, q) for _, _, j, q in
                          resonant_pairs(n, delta, [label])
                          if (j, q) in labels_for_degree(ctx, j))
        gamma = shift_free_eigenvalue(n, *label)
        current = _reduced(*piece)
        levels.setdefault(degree, []).append(current)
        for j in range(degree - 1, -1, -1):
            current = _nc_body(current, weights)
            if not current[0]:
                break
            s = Fraction(gamma * b - 2 * (n + 1) * a * (degree - j), b)
            solved, blocked = resolvent(current, n, labels_for_degree(ctx, j),
                                        s, memo)
            if blocked:
                hit, piece = next(iter(blocked.items()))
                raise ObstructionError(label, hit, SymbolPoly(piece, ctx))
            current = _reduced(*solved)
            levels.setdefault(j, []).append(current)


def quantize(sym: SymbolPoly) -> QuantizationResult:
    """Equivariant prolongation of a symbol into an operator, its parts from
    the top degree down; the principal part of the result equals the input.
    One memo serves the whole call, and each degree's entries are
    summed once, one Fraction per output term."""
    ctx = sym.context
    delta, weights = ctx.delta, _nc_weights(ctx)
    free_slots: set[SpectralLabel] = set()
    levels, memo = {}, {}
    for degree, part in sorted(sym.body.fiber_parts().items(), reverse=True):
        _solve(_numerators(part.terms), degree, ctx, delta, weights, memo,
               free_slots, levels)
    terms: dict = {}
    for entries in levels.values():
        terms.update(_poly(ctx.n, *_sum(entries)).terms)
    return QuantizationResult(BidiffOp(Poly._trusted(ctx.n, terms), ctx),
                              frozenset(free_slots))


def symbol_map(op: BidiffOp) -> SymbolMapResult:
    """Inverse of quantize, by principal-part peeling: the level each
    source writes at its own degree must be that source, compared in
    gcd-reduced form.  Every peeling step shares one memo and one
    level map."""
    ctx = op.context
    delta, weights = ctx.delta, _nc_weights(ctx)
    parts = {degree: [_numerators(part.terms)]
             for degree, part in op.body.fiber_parts().items()}
    free_slots: set[SpectralLabel] = set()
    collected, levels, memo = {}, {}, {}
    for degree in range(max(parts, default=-1), -1, -1):
        source = _reduced(*_sum(parts.get(degree, []), levels.pop(degree, [])))
        if source[0]:
            collected.update(_poly(ctx.n, *source).terms)
            _solve(source, degree, ctx, delta, weights, memo, free_slots,
                   levels)
            if _reduced(*_sum(levels.pop(degree, []))) != source:
                raise AssertionError("peeling failed to lower the order")
    return SymbolMapResult(SymbolPoly(Poly._trusted(ctx.n, collected), ctx),
                           frozenset(free_slots))


# ----------------------------------------------------------------------
# second-order closed forms


def _order2_denominators(ctx: Context) -> tuple[Fraction, Fraction, Fraction]:
    n, delta = ctx.n, ctx.delta
    den1 = 1 - delta
    den2 = (n + 1) * (1 - delta) + 1
    den3 = (n + 1) * (1 - delta) + 2
    if den1 == 0:
        raise CriticalShiftError("1 - delta", delta)
    if den2 == 0:
        raise CriticalShiftError("(n+1)(1-delta) + 1", delta)
    if den3 == 0:
        raise CriticalShiftError("(n+1)(1-delta) + 2", delta)
    return den1, den2, den3


def _split_symmetric(part: Poly) -> tuple[Poly, Poly]:
    swapped = part.swap_fibers()
    half = Fraction(1, 2)
    return (part + swapped).scale(half), (part - swapped).scale(half)


def _prolong_block(part: Poly, ratios, double=0) -> Poly:
    """One block of a second-order closed form: part plus r * eta_f(part)
    for each (family f, ratio r) of ratios, plus double times part
    contracted once in the first family of ratios and once in the last."""
    onces = [part.eta_contract(family) for family, _ in ratios]
    out = part
    for (_, ratio), once in zip(ratios, onces):
        out = out + ratio * once
    if double:
        out = out + double * onces[0].eta_contract(ratios[-1][0])
    return out


def quantize_order2_closed(sym: SymbolPoly) -> BidiffOp:
    """Explicit prolongation of symbols of degree at most two.

    Pure second order in one argument gains one and two coefficient
    derivatives with ratios built from (n+1)*weight + 1; the mixed symmetric
    part uses (n+1)*weight for each argument and a doubled product term; the
    antisymmetric part gains single derivatives with ratio weight/(1-shift);
    degree one matches the antisymmetric ratios and degree zero passes
    through.  Valid away from the three vanishing denominators."""
    ctx = sym.context
    if ctx.arity != 2:
        raise ArityError("second-order closed form needs arity 2")
    if sym.degree > 2:
        raise ValueError("closed form only covers degree <= 2")
    n = ctx.n
    lam1, lam2 = ctx.weights
    den1, den2, den3 = _order2_denominators(ctx)
    out = Poly.zero(n)
    for (da, db), part in sym.body.bidegree_parts().items():
        if da + db == 0:
            out = out + part
        elif da * db == 0:
            family, lam = (ALPHA, lam1) if da else (BETA, lam2)
            if da + db == 1:
                out = out + _prolong_block(part, [(family, lam / den1)])
            else:
                r1 = ((n + 1) * lam + 1) / den3
                r2 = r1 * (n + 1) * lam / den2
                out = out + _prolong_block(part, [(family, r1)], r2 / 2)
        else:
            symmetric, antisymmetric = _split_symmetric(part)
            if not symmetric.is_zero():
                out = out + _prolong_block(
                    symmetric, [(ALPHA, (n + 1) * lam1 / den3),
                                (BETA, (n + 1) * lam2 / den3)],
                    (n + 1) ** 2 * lam1 * lam2 / (den3 * den2))
            if not antisymmetric.is_zero():
                out = out + _prolong_block(
                    antisymmetric, [(ALPHA, lam1 / den1), (BETA, lam2 / den1)])
    return BidiffOp(out, ctx)


def linear_quantize_order2(sym: SymbolPoly, lam, mu) -> BidiffOp:
    """Arity-one quantization of a degree <= 2 symbol: the same triangular
    engine run with a single fiber family."""
    if sym.body.fiber_degree() > 2:
        raise ValueError("degree must be <= 2")
    lam = as_fraction(lam)
    mu = as_fraction(mu)
    ctx1 = Context(sym.context.n, (lam,), mu)
    _order2_denominators(ctx1)
    return quantize(SymbolPoly(sym.body, ctx1)).operator


def tau_maps(sym: SymbolPoly, ctx2: Context | None = None
             ) -> tuple[SymbolPoly, SymbolPoly, SymbolPoly]:
    """Polarizations of a homogeneous degree-2 arity-1 symbol P:
    P(a), P(b), and P(a+b) - P(a) - P(b), in a binary context with the same
    shift."""
    if sym.context.arity != 1:
        raise ArityError("polarization starts from an arity-1 symbol")
    if set(sym.body.fiber_parts()) != {2}:
        raise ValueError("polarization needs a homogeneous degree-2 symbol")
    if ctx2 is None:
        ctx2 = Context(sym.context.n, (sym.context.weights[0], Fraction(0)),
                       sym.context.mu)
    if ctx2.delta != sym.context.delta:
        raise ValueError("target context must carry the same shift")
    body = sym.body
    on_first = SymbolPoly(body, ctx2)
    on_second = SymbolPoly(body.move_alpha_to_beta(), ctx2)
    mixed = SymbolPoly(
        body.fiber_sum_expand() - on_first.body - on_second.body, ctx2)
    return on_first, on_second, mixed


# ----------------------------------------------------------------------
# shift-one equivariant maps


def _require_shift(ctx: Context, value: Fraction, where: str):
    if ctx.delta != value:
        raise ValueError(f"{where} is defined at shift {value}, "
                         f"context has {ctx.delta}")


def t1(sym: SymbolPoly) -> BidiffOp:
    """Antisymmetric degree-(1,1) symbol with coefficient c maps to the
    operator sending (f, g) to sum over (i, j) of
    d_i c * f * d_j g - d_j c * f * d_i g; defined at shift one."""
    ctx = sym.context
    _require_shift(ctx, Fraction(1), "t1")
    parts = sym.body.bidegree_parts()
    if not set(parts) <= {(1, 1)} or not (sym.body + sym.body.swap_fibers()).is_zero():
        raise ValueError("t1 expects an antisymmetric bidegree-(1,1) symbol")
    return BidiffOp(sym.body.eta_contract(ALPHA), ctx)


def t2(sym: SymbolPoly) -> BidiffOp:
    """Symbol c * a_i maps to (f, g) -> d_i c * f * g; defined at shift one."""
    ctx = sym.context
    _require_shift(ctx, Fraction(1), "t2")
    if not set(sym.body.bidegree_parts()) <= {(1, 0)}:
        raise ValueError("t2 expects a bidegree-(1,0) symbol")
    return BidiffOp(sym.body.eta_contract(ALPHA), ctx)


# ----------------------------------------------------------------------
# the one-parameter family at the next critical shift


def order2_critical_family(sym: SymbolPoly, k) -> BidiffOp:
    """The prolongation family of symmetric degree-2 symbols at shift
    (n+2)/(n+1): first-derivative ratios as in the generic closed form, with
    a free parameter k on the doubly-derived coefficient slot.  The engine's
    canonical output (zero free slot) is the member with k = 0."""
    ctx = sym.context
    n = ctx.n
    _require_shift(ctx, Fraction(n + 2, n + 1), "order2_critical_family")
    if ctx.arity != 2:
        raise ArityError("order2_critical_family needs arity 2")
    k = as_fraction(k)
    lam1, lam2 = ctx.weights
    den3 = (n + 1) * (1 - ctx.delta) + 2
    out = Poly.zero(n)
    for (da, db), part in sym.body.bidegree_parts().items():
        if (da, db) in ((2, 0), (0, 2)):
            family, lam = (ALPHA, lam1) if da else (BETA, lam2)
            out = out + _prolong_block(
                part, [(family, ((n + 1) * lam + 1) / den3)], k / 2)
        elif (da, db) == (1, 1):
            symmetric, antisymmetric = _split_symmetric(part)
            if not antisymmetric.is_zero():
                raise ValueError("family covers the symmetric block only")
            out = out + _prolong_block(
                symmetric, [(ALPHA, (n + 1) * lam1 / den3),
                            (BETA, (n + 1) * lam2 / den3)], k / 2)
        else:
            raise ValueError("family is defined on degree-2 symbols")
    return BidiffOp(out, ctx)
