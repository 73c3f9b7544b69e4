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

Every function of C0 the engine applies is built here, as rows of integer
weights on the Krylov vectors p, C0 p, C0^2 p, ... of the fiber polynomial
p of each distinct x monomial of a body; C0 ignores x, so f(C0)(x^s p) =
x^s f(C0)(p).  One kernel, `_combine`, applies the rows to a body given as
integer numerators over one denominator and returns (numerators,
denominator) per row.  Every Krylov step reads C0 m of each monomial m
from a plain dict memo that lives for one top-level call (`decompose`,
`quantize`, `symbol_map`, `casimir_symbol`), so `fiber_casimir` maps each
monomial once per call.  There are three kinds of row:

- `casimir_symbol`: C0 + sigma, sigma the shift part of one fiber degree,
  is the row [sigma.numerator, sigma.denominator] over sigma.denominator.
- `projections`: the labels of one degree (`labels_for_degree`) have
  distinct eigenvalues gamma_p = gamma0(p); the projector pi_p is the
  Lagrange interpolant l_p(C0) = prod_{q != p} (C0 - gamma_q) /
  (gamma_p - gamma_q), the row of D l_p over D, where D is the common
  denominator of the interpolants (`projector_constants`).  A single label
  gives the identity row.
- `resolvent`: by Sylvester's formula, sum over gamma_q != s of
  pi_q / (s - gamma_q) is one row, the sum of the rows of D l_q times
  E / (s - gamma_q), over D E, where E is the lcm of the numerators of the
  nonzero gaps.  Each label with gamma_q = s adds the row of its pi_q over D.

Both key their pieces by label and leave zero pieces out.  The memo also
keeps `projector_constants` per tuple of eigenvalues: such a tuple holds
ints and a fiber key holds two exponent tuples, so the keys cannot collide.
Nothing spectral outlives the call.  The degree-lowering correction
`_nc_body` is one integer pass over the terms: each term maps to at most n
images per fiber family, and the weights' factors are integers over the lcm
L of their denominators, so a level's denominator gains the factor L; L and
the factors (`_nc_weights`) are read once per call.

The level solve of `quantization` stays on numerators from `projections`
through `_nc_body` and `resolvent`'s solved part; `resolvent` writes each
gap s - gamma0(q) as an integer over the denominator of s.  Fractions are
built only at the Poly boundary: by `casimir_symbol` and
`casimir_correction` on their results, by `resolvent` on its blocked
pieces, which go into an obstruction, by `isotypic` on the pieces of
`projections`, and by the solve once per output term.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm, prod
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
    and only p = 0 in dimension one.  Rejects a non-int n and n < 1."""
    if not isinstance(n, int):
        raise TypeError(f"dimension must be an int, got {type(n).__name__}")
    if n < 1:
        raise LabelRangeError(f"dimension must be >= 1, got n={n}")
    return range(1 if n == 1 else i // 2 + 1)


def labels_for_degree(ctx: Context, degree: int) -> tuple[SpectralLabel, ...]:
    """Admissible labels (degree, q) in this context; only q = 0 at arity one."""
    if degree < 0:
        return ()
    if ctx.arity == 1:
        return (SpectralLabel(degree, 0),)
    return tuple(SpectralLabel(degree, q) for q in tableau_labels(ctx.n, degree))


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


def _image(m: tuple, memo: dict) -> dict:
    """C0 m for the fiber monomial m, computed once per memo."""
    image = memo.get(m)
    if image is None:
        image = memo[m] = {(u, v): k
                           for u, v, k in fiber_casimir(*m, len(m[0]))}
    return image


def _combine(body: tuple[dict, int], rows: list, memo: dict) -> list:
    """sum_k row[k] C0^k body / row_den for each row (row, row_den) of
    integers, body being (numerators, denominator); one (numerators,
    denominator) per row, zero numerators left out.

    The body is grouped by x monomial: the Krylov vectors p, C0 p, ... of
    each x monomial's fiber polynomial p grow to the longest row of the
    call, each step summing the memo's images of the monomials of the last
    one, and each row combines them once."""
    terms, den = body
    polys: dict = {}
    for (xa, aa, ba), c in terms.items():
        polys.setdefault(xa, {})[(aa, ba)] = c
    length = max(len(row) for row, _ in rows)
    outs: list = [{} for _ in rows]
    for xa, poly in polys.items():
        krylov = [poly]
        while len(krylov) < length:
            step: dict = {}
            for m, c in krylov[-1].items():
                for key, k in _image(m, memo).items():
                    step[key] = step.get(key, 0) + c * k
            krylov.append(step)
        for (row, _), out in zip(rows, outs):
            num: dict = {}
            for k, vector in zip(row, krylov):
                for key, c in vector.items():
                    num[key] = num.get(key, 0) + k * c
            out.update(((xa, a, b), c) for (a, b), c in num.items() if c)
    return [(out, row_den * den) for (_, row_den), out in zip(rows, outs)]


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


def _constants(labels: tuple[SpectralLabel, ...], n: int, memo: dict) -> tuple:
    """The labels' gamma0 and their projector_constants, built once per memo."""
    nodes = tuple(shift_free_eigenvalue(n, *label) for label in labels)
    if nodes not in memo:
        memo[nodes] = projector_constants(nodes)
    return nodes, memo[nodes]


def projections(body: tuple[dict, int], n: int, labels: tuple[SpectralLabel, ...],
                memo: dict) -> dict[SpectralLabel, tuple[dict, int]]:
    """{label: pi_label body} for the labels of one degree, in label order,
    body and each piece being (numerators, denominator)."""
    _, (D, coefficients) = _constants(labels, n, memo)
    pieces = _combine(body, [(row, D) for row in coefficients], memo)
    return {label: piece for label, piece in zip(labels, pieces) if piece[0]}


def resolvent(body: tuple[dict, int], n: int, labels: tuple[SpectralLabel, ...],
              s, memo: dict) -> tuple[tuple[dict, int], dict[SpectralLabel, Poly]]:
    """(sum over the labels q with gamma0(q) != s of pi_q body / (s - gamma0(q)),
    {q: pi_q body} for the labels with gamma0(q) = s), body and the solved
    part being (numerators, denominator).  With s = a/b each gap is the
    integer a - b gamma0(q) over b, reduced by their gcd."""
    nodes, (D, coefficients) = _constants(labels, n, memo)
    a, b = s.as_integer_ratio()
    gaps = []
    for node in nodes:
        gap = a - b * node
        g = gcd(gap, b)
        gaps.append((gap // g, b // g) if gap else None)
    E = lcm(*(gap[0] for gap in gaps if gap))
    weights = [E // gap[0] * gap[1] if gap else 0 for gap in gaps]
    row = [sum(w * c for w, c in zip(weights, column))
           for column in zip(*coefficients)]
    blocked = [q for q, gap in enumerate(gaps) if not gap]
    solved, *pieces = _combine(
        body, [(row, D * E)] + [(coefficients[q], D) for q in blocked], memo)
    return solved, {labels[q]: _poly(n, *piece)
                    for q, piece in zip(blocked, pieces) if piece[0]}


def casimir_symbol(arg: _OpOrSym) -> _OpOrSym:
    """Degree-preserving closed form: C0 plus the shift part sigma on each
    fiber degree, with one memo for the call, so each distinct fiber
    monomial is mapped once."""
    ctx = arg.context
    n = ctx.n
    memo: dict = {}
    terms: dict = {}
    for degree, part in arg.body.fiber_parts().items():
        sigma = _shift_part(n, ctx.delta, degree)
        row = (sigma.numerator, sigma.denominator)
        (image,) = _combine(_numerators(part.terms),
                            [(row, sigma.denominator)], memo)
        terms.update(_poly(n, *image).terms)
    return type(arg)(Poly._trusted(n, terms), ctx)


def _nc_weights(ctx: Context) -> tuple[int, tuple]:
    """(L, ((slot, (n+1) lam L), ...)): the lcm L of the weight denominators
    and, per fiber family with weight lam and key slot 1 or 2, its integer
    shift (n+1) lam over L; read once per `quantize`, `symbol_map` or
    `casimir_correction` call and handed to `_nc_body`."""
    L = lcm(*(lam.denominator for lam in ctx.weights))
    return L, tuple((slot, (ctx.n + 1) * lam.numerator * (L // lam.denominator))
                    for slot, lam in zip((1, 2), ctx.weights))


def _nc_body(body: tuple[dict, int], weights: tuple[int, tuple]
             ) -> tuple[dict, int]:
    """One pass over the terms of body = (numerators, denominator): for each
    fiber family with weight lam and each index i, x^s u maps to
    x^(s - e_i) u' with coefficient 2 s_i u_i (|u| - 1 + (n+1) lam), u the
    family's monomial and u' that monomial with its i-th exponent lowered
    by one.  Each factor is an integer over L, weights being `_nc_weights`
    of the context, so the image is over denominator * L."""
    terms, den = body
    L, families = weights
    out: dict = {}
    for key, c in terms.items():
        xa = key[0]
        moves = [i for i, s in enumerate(xa) if s]
        if not moves:
            continue
        for slot, shift in families:
            u = key[slot]
            scale = ((sum(u) - 1) * L + shift) * c
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
                out[image] = out.get(image, 0) + scale * (2 * xa[i] * ui)
    return {k: v for k, v in out.items() if v}, den * L


def casimir_correction(arg: _OpOrSym) -> _OpOrSym:
    """Degree-lowering part: one x-derivative paired with one fiber
    derivative per family, weighted by the fiber degree plus (n+1) times the
    argument weight."""
    body = _nc_body(_numerators(arg.body.terms), _nc_weights(arg.context))
    return type(arg)(_poly(arg.context.n, *body), arg.context)


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
