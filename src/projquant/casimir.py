"""Casimir operators of the projective algebra action and their spectrum.

`casimir_direct` sums Lie_e composed with Lie_e* over the dual basis pairs
and is the defining form.  On symbols it coincides with the closed form
`casimir_symbol` (degree preserving, coefficient transparent); on operators
it decomposes as casimir_symbol plus the degree-lowering correction
`casimir_correction`.  The decomposition identity is verified exactly in the
test suite rather than assumed.

The shift-free Casimir C0 (`fiber_casimir`, per fiber monomial, integer
coefficients) has the eigenvalue gamma0(i, p) = 2(i^2 + (n - p) i + p(p - 1))
on the block of total fiber degree i and two-line tableau label p
(`shift_free_eigenvalue`).  The shift d adds the one scalar
n(n+1) d(d-1) - 2(n+1) d i on the whole degree-i part (`_shift_part`), so
`casimir_eigenvalue` is gamma0 plus that scalar, `casimir_symbol` is C0
plus it on each fiber degree, and a gap gamma(i, p) - gamma(j, q) is the
shift-free gap minus 2(n+1) d (i - j).  `highest_weight_vector` produces
the canonical generator of each block.

C0 ignores x, so one integer kernel, `_combine`, applies rows of weights to
the Krylov vectors m, C0 m, C0^2 m, ... of each distinct fiber monomial m of
a body: the row [sigma.numerator, sigma.denominator] for `casimir_symbol`,
the projector rows of `projquant.isotypic` and the resolvent row of the
level solve in `projquant.quantization`.  `casimir_correction` is one pass
over the terms: each term maps to at most n images per fiber family.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, TypeVar, Union

from .densities import (BidiffOp, Context, SymbolPoly, _numerators, _poly,
                        lie_derivative_operator, lie_derivative_symbol)
from .poly import ALPHA, BETA, Poly, as_fraction
from .slbasis import sl_basis


class SpectralLabel(NamedTuple):
    """Names an isotypic block: total degree i and tableau label p."""

    i: int
    p: int


class LabelRangeError(ValueError):
    """Spectral label outside the admissible range."""


def tableau_labels(n: int, i: int) -> range:
    """Admissible tableau labels p at total degree i >= 0: 0 <= p <= floor(i/2),
    and only p = 0 in dimension one.  Rejects dimensions n < 1."""
    if n < 1:
        raise LabelRangeError(f"dimension must be >= 1, got n={n}")
    return range(1 if n == 1 else i // 2 + 1)


def check_label(n: int, i: int, p: int):
    if i < 0 or p not in tableau_labels(n, i):
        raise LabelRangeError(f"label ({i},{p}) is not admissible when n={n}")


def shift_free_eigenvalue(n: int, i: int, p: int) -> int:
    """gamma0(i, p) = 2(i^2 + (n - p) i + p(p - 1)), the eigenvalue of the
    shift-free Casimir `fiber_casimir` on the (i, p) block; labels are not
    checked."""
    return 2 * (i * i + (n - p) * i + p * (p - 1))


def _shift_part(n: int, d: Fraction, i: int) -> Fraction:
    """What the shift d adds to every eigenvalue at total degree i."""
    return n * (n + 1) * d * (d - 1) - 2 * (n + 1) * d * i


def casimir_eigenvalue(n: int, delta, i: int, p: int) -> Fraction:
    """Eigenvalue of casimir_symbol on the (i, p) block."""
    check_label(n, i, p)
    return shift_free_eigenvalue(n, i, p) + _shift_part(n, as_fraction(delta), i)


def highest_weight_vector(k: int, l: int, q: int, ctx: Context) -> SymbolPoly:
    """(a1*b2 - a2*b1)^q * a1^(k-q) * b1^(l-q), the canonical generator of
    the two-line tableau block with row lengths k+l-q and q."""
    if q < 0 or q > min(k, l):
        raise LabelRangeError(f"tableau label q={q} exceeds min(k,l)={min(k, l)}")
    n = ctx.n
    check_label(n, k + l, q)
    body = (Poly.variable(n, ALPHA, 1) ** (k - q)
            * Poly.variable(n, BETA, 1) ** (l - q))
    if q:
        det = (Poly.variable(n, ALPHA, 1) * Poly.variable(n, BETA, 2)
               - Poly.variable(n, ALPHA, 2) * Poly.variable(n, BETA, 1))
        body = det ** q * body
    return SymbolPoly(body, ctx)


_OpOrSym = TypeVar("_OpOrSym", bound=Union[SymbolPoly, BidiffOp])


def fiber_casimir(u: tuple[int, ...], v: tuple[int, ...], n: int) -> list:
    """Shift-free Casimir C0 of the fiber monomial a^u b^v, as a list of
    (u', v', coefficient) with zero terms omitted; the coefficients are
    integers.

    Of the terms xi_ki xi_lj D_l. D_k. (families k, l; indices i, j) only
    those moving one a-index j to i and one b-index i to j, i != j, change
    the monomial, each move carrying 2 u_j v_i.  The rest restore the
    monomial and, with the Euler term 2(n+1) deg, sum to
    deg^2 + 2n deg + |u|^2 + |v|^2 + 2 u.v on the diagonal."""
    ua = sum(u)
    vb = sum(v)
    deg = ua + vb
    diag = (deg * deg + 2 * n * deg + ua * ua + vb * vb
            + 2 * sum(x * y for x, y in zip(u, v) if x))
    out = [(u, v, diag)] if diag else []
    for j, uj in enumerate(u):
        if not uj:
            continue
        for i, vi in enumerate(v):
            if vi and i != j:
                u2 = list(u)
                u2[j] -= 1
                u2[i] += 1
                v2 = list(v)
                v2[i] -= 1
                v2[j] += 1
                out.append((tuple(u2), tuple(v2), 2 * uj * vi))
    return out


def _combine(body: Poly, rows: list, n: int, memo: dict) -> tuple[list, int]:
    """sum_k row[k] C0^k body for each row of length L, as integer
    numerators over the body's denominator.

    memo maps fiber monomials m to their Krylov vectors m, C0 m, ...,
    C0^(L-1) m; share it across the calls whose rows have one length per
    fiber degree.  Each row is combined once per m and accumulated over the
    x monomials that carry m."""
    terms, den = _numerators(body.terms)
    fibers: dict = {}
    for (xa, aa, ba), c in terms.items():
        fibers.setdefault((aa, ba), []).append((xa, c))
    outs: list = [{} for _ in rows]
    for fiber, carriers in fibers.items():
        krylov = memo.get(fiber)
        if krylov is None:
            krylov = [{fiber: 1}]
            for _ in rows[0][1:]:
                step: dict = {}
                for (u1, v1), c in krylov[-1].items():
                    for u2, v2, k in fiber_casimir(u1, v1, n):
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


def casimir_symbol(arg: _OpOrSym) -> _OpOrSym:
    """Degree-preserving closed form: C0 plus the shift part sigma on each
    fiber degree, one `_combine` with the row [sigma.numerator,
    sigma.denominator], so each distinct fiber monomial is mapped once."""
    ctx = arg.context
    ctx.fiber_families()  # arity must be representable
    n = ctx.n
    terms: dict = {}
    for degree, part in arg.body.fiber_parts().items():
        sigma = _shift_part(n, ctx.delta, degree)
        (out,), den = _combine(part, [(sigma.numerator, sigma.denominator)],
                               n, {})
        terms.update(_poly(n, out, sigma.denominator * den).terms)
    return type(arg)(Poly._trusted(n, terms), ctx)


def _nc_body(body: Poly, ctx: Context) -> Poly:
    """One pass over the terms: for each fiber family with weight lam and
    each index i, x^s u maps to x^(s - e_i) u' with coefficient
    2 s_i u_i (|u| - 1 + (n+1) lam), u the family's monomial and u' that
    monomial with its i-th exponent lowered by one."""
    ctx.fiber_families()  # arity must be representable
    n = ctx.n
    families = [(slot, (n + 1) * lam) for slot, lam in zip((1, 2), ctx.weights)]
    terms: dict = {}
    for key, c in body.terms.items():
        xa = key[0]
        moves = [i for i, s in enumerate(xa) if s]
        if not moves:
            continue
        for slot, shift in families:
            u = key[slot]
            scale = (sum(u) - 1 + shift) * c
            if not scale:
                continue
            for i in moves:
                ui = u[i]
                if not ui:
                    continue
                x2 = list(xa)
                x2[i] -= 1
                u2 = list(u)
                u2[i] -= 1
                if slot == 1:
                    image = (tuple(x2), tuple(u2), key[2])
                else:
                    image = (tuple(x2), key[1], tuple(u2))
                terms[image] = terms.get(image, 0) + scale * (2 * xa[i] * ui)
    return Poly._trusted(n, {k: v for k, v in terms.items() if v})


def casimir_correction(arg: _OpOrSym) -> _OpOrSym:
    """Degree-lowering part: one x-derivative paired with one fiber
    derivative per family, weighted by the fiber degree plus (n+1) times the
    argument weight."""
    return type(arg)(_nc_body(arg.body, arg.context), arg.context)


def casimir_direct(arg: _OpOrSym) -> _OpOrSym:
    """Sum of Lie_e after Lie_e* over all dual basis pairs.

    Uses the operator action on BidiffOp and the tensor action on
    SymbolPoly; all x-dependent intermediate terms are kept and must cancel
    on their own."""
    if isinstance(arg, BidiffOp):
        lie = lie_derivative_operator
    elif isinstance(arg, SymbolPoly):
        lie = lie_derivative_symbol
    else:
        raise TypeError("casimir_direct expects a SymbolPoly or BidiffOp")
    total = Poly.zero(arg.context.n)
    for pair in sl_basis(arg.context.n):
        total = total + lie(pair.element, lie(pair.dual, arg)).body
    return type(arg)(total, arg.context)
