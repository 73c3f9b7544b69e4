"""Casimir operators of the projective algebra action and their spectrum.

`casimir_direct` sums Lie_e composed with Lie_e* over the dual basis pairs
and is the defining form.  On symbols it coincides with the closed form
`casimir_symbol` (degree preserving, coefficient transparent); on operators
it decomposes as casimir_symbol plus the degree-lowering correction
`casimir_correction`.  The decomposition identity is verified exactly in the
test suite rather than assumed.

On the block of homogeneous symbols of total fiber degree i with two-line
tableau label q, `casimir_symbol` is the scalar

    n(n+1) d(d-1) - 2((n+1) d - n + q)(i) + 2 i^2 + 2 q(q-1)

where d is the shift; `casimir_eigenvalue` evaluates it and
`highest_weight_vector` produces the canonical generator of each block.
The shift enters through n(n+1) d(d-1) - 2(n+1) d i alone, so a gap
gamma(i, p) - gamma(j, q) is the shift-free gap minus 2(n+1) d (i - j).

`fiber_casimir` is the kernel of `casimir_symbol` on one fiber monomial:
the Casimir ignores x, so `casimir_symbol` maps each distinct fiber
monomial of a body once, in one pass over the terms.  With its shift
scalars set to zero it is the shift-free operator whose Krylov vectors
`projquant.isotypic` combines into its projectors, one fiber monomial at a
time and memoised per solve.  `casimir_correction` is likewise one pass
over the terms: each term maps to at most n images per fiber family, with
no intermediate Poly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, TypeVar, Union

from .densities import BidiffOp, Context, SymbolPoly, lie_derivative_operator, lie_derivative_symbol
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


def _shift_scalars(n: int, d: Fraction) -> tuple[Fraction, Fraction]:
    """The parts of the eigenvalue that depend on the shift alone."""
    return n * (n + 1) * d * (d - 1), (n + 1) * d - n


def _eigenvalue(base: Fraction, slope: Fraction, i: int, p: int) -> Fraction:
    return base - 2 * (slope + p) * i + 2 * i * i + 2 * p * (p - 1)


def casimir_eigenvalue(n: int, delta, i: int, p: int) -> Fraction:
    """Eigenvalue of casimir_symbol on the (i, p) block."""
    check_label(n, i, p)
    return _eigenvalue(*_shift_scalars(n, as_fraction(delta)), i, p)


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


def fiber_casimir(u: tuple[int, ...], v: tuple[int, ...], base, euler) -> list:
    """Degree-preserving Casimir of the fiber monomial a^u b^v, as a list of
    (u', v', coefficient) with zero terms omitted.

    base and euler are the context scalars n(n+1)d(d-1) and 2(n+1)(1-d);
    with base 0 and euler 2(n+1) the result is shift-free, with integer
    coefficients: the operator C whose Krylov vectors m, Cm, C^2 m, ...
    the isotypic projectors combine.  Of the terms
    xi_ki xi_lj D_l. D_k. (families k, l; indices i, j) only those moving
    one a-index j to i and one b-index i to j, i != j, change the monomial,
    each move carrying 2 u_j v_i.  The rest restore the monomial and sum to
    deg^2 - 2 deg + |u|^2 + |v|^2 + 2 u.v on the diagonal."""
    ua = sum(u)
    vb = sum(v)
    deg = ua + vb
    diag = (base + euler * deg + deg * deg - 2 * deg + ua * ua + vb * vb
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


def _ct_body(body: Poly, ctx: Context) -> Poly:
    ctx.fiber_families()  # arity must be representable
    n = ctx.n
    base, slope = _shift_scalars(n, ctx.delta)
    euler = 2 * (1 - slope)
    images: dict = {}
    terms: dict = {}
    for (xa, aa, ba), c in body.terms.items():
        image = images.get((aa, ba))
        if image is None:
            image = images[(aa, ba)] = fiber_casimir(aa, ba, base, euler)
        for a2, b2, k in image:
            key = (xa, a2, b2)
            terms[key] = terms.get(key, 0) + c * k
    return Poly._trusted(n, {key: c for key, c in terms.items() if c})


def casimir_symbol(arg: _OpOrSym) -> _OpOrSym:
    """Degree-preserving closed form: acts on fiber variables only, so it is
    transparent to the x coefficients and is computed once per distinct
    fiber monomial of the body."""
    return type(arg)(_ct_body(arg.body, arg.context), arg.context)


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
