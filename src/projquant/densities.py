"""Densities, vector fields, symbols and bidifferential operators, with the
Lie derivative actions that make each of them a module over polynomial
vector fields.

The operator and symbol spaces share one polynomial representation: a term
x^s a^u b^v of an operator body encodes the coefficient x^s applied to
(D^u of the first argument) times (D^v of the second argument), while the
same term of a symbol body is a plain tensor-field monomial with fiber
variables a, b.  The two Lie derivatives differ precisely by the
degree-lowering corrections computed here.

The operator Lie derivative is implemented in closed polynomial form: pairing
the body with a vector field X expands a finite Taylor series in which each
fiber shift of order m contributes the m-th x-derivative of a component of X.
The series stops at the x-degree of X, so every polynomial field is handled
exactly.  The symbol Lie derivative is the same series cut at first-order
shifts, without the weight terms.  The defining composition form (act, then
subtract the action on each argument) is kept as
`lie_derivative_via_definition` and serves as an independent oracle in the
tests.

`_lie_body` is the one kernel of the action.  The operator and symbol
actions run it with their per-family weights and Taylor orders; the density
action is its fiber-free (degree-0) case at shift the weight; and the bracket
[X, Y] is its degree-1 case, the tensor action of X on the symbol
sum_i Y_i a_i at shift 0, read back per a_i.

The kernel and `apply_operator` make one pass over the input's terms into
one accumulator dict, with no intermediate Poly.  Each call carries integer
numerators over one denominator, the lcm of the body's denominators times
the field's times those of the weights and shift, and builds Fractions only
for the returned Poly.  Field derivatives are read off the field's raw
terms, D^m x^e = perm(e, m) x^(e - m), the divergence is built only at a
nonzero shift, and the image of each distinct x-monomial, fiber monomial or
derivative multi-index is built once per call.  The former Poly-chain forms
are the references of the test suite's oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, perm

from .poly import ALPHA, BETA, X, DimensionMismatchError, Poly, as_fraction

_ZERO = Fraction(0)


class ArityError(ValueError):
    """Operation not available at this operator arity."""


class WeightMismatchError(ValueError):
    """Density weights do not match the operator's context."""


@dataclass(frozen=True)
class Context:
    """Ambient data: dimension n, argument weights, target weight mu.

    The shift (the weight of an operator's coefficient densities) is always
    derived as mu minus the sum of the argument weights, never stored.
    """

    n: int
    weights: tuple[Fraction, ...]
    mu: Fraction

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        object.__setattr__(self, "weights",
                           tuple(as_fraction(w) for w in self.weights))
        object.__setattr__(self, "mu", as_fraction(self.mu))
        if len(self.weights) < 1:
            raise ValueError("at least one argument weight is required")

    @classmethod
    def from_delta(cls, n: int, weights, delta) -> "Context":
        weights = tuple(as_fraction(w) for w in weights)
        return cls(n, weights, as_fraction(delta) + sum(weights))

    @property
    def arity(self) -> int:
        return len(self.weights)

    @property
    def delta(self) -> Fraction:
        return self.mu - sum(self.weights)

    def fiber_families(self) -> tuple[str, ...]:
        if self.arity == 1:
            return (ALPHA,)
        if self.arity == 2:
            return (ALPHA, BETA)
        raise ArityError(
            f"arity {self.arity} not representable: the polynomial "
            "representation carries two fiber families")


def _check_x_only(p: Poly, what: str):
    if p.degree(ALPHA) > 0 or p.degree(BETA) > 0:
        raise ValueError(f"{what} must depend on x only")


@dataclass(frozen=True)
class Density:
    """Polynomial density of a given weight."""

    value: Poly
    weight: Fraction

    def __post_init__(self):
        _check_x_only(self.value, "density value")
        object.__setattr__(self, "weight", as_fraction(self.weight))

    @property
    def n(self) -> int:
        return self.value.n


@dataclass(frozen=True)
class VectorField:
    """Polynomial vector field, one x-only component per coordinate."""

    components: tuple[Poly, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("vector field needs at least one component")
        n = comps[0].n
        for c in comps:
            if c.n != n:
                raise DimensionMismatchError("component dimensions differ")
            _check_x_only(c, "vector field component")
        if len(comps) != n:
            raise DimensionMismatchError(
                f"expected {n} components, got {len(comps)}")
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return self.components[0].n

    def x_degree(self) -> int:
        return max(c.degree(X) for c in self.components)


def _check_body(self):
    """The shared check of SymbolPoly and BidiffOp."""
    if self.body.n != self.context.n:
        raise DimensionMismatchError("body and context dimensions differ")
    if self.context.arity == 1 and self.body.degree(BETA) > 0:
        raise ArityError(f"arity-1 {self._noun} cannot contain b variables")


@dataclass(frozen=True)
class SymbolPoly:
    """Symmetric-tensor-valued symbol: fiber polynomial with x coefficients."""

    body: Poly
    context: Context
    _noun = "symbol"
    __post_init__ = _check_body

    @property
    def degree(self) -> int:
        return self.body.fiber_degree()


@dataclass(frozen=True)
class BidiffOp:
    """Multidifferential operator in polynomial form."""

    body: Poly
    context: Context
    _noun = "operator"
    __post_init__ = _check_body

    @property
    def order(self) -> int:
        return self.body.fiber_degree()


# ----------------------------------------------------------------------
# integer kernels


def _numerators(coeffs: dict) -> tuple[dict, int]:
    """The Fraction values as integer numerators over the lcm of their
    denominators."""
    den = lcm(1, *(c.denominator for c in coeffs.values()))
    return {key: c.numerator * (den // c.denominator)
            for key, c in coeffs.items()}, den


def _field_numerators(field: VectorField) -> tuple[list[dict], int]:
    """Each component as {x exponents: integer numerator}, all over one
    denominator."""
    nums, den = _numerators({(slot, key[0]): c
                             for slot, comp in enumerate(field.components)
                             for key, c in comp.terms.items()})
    comps = [{} for _ in field.components]
    for (slot, xa), c in nums.items():
        comps[slot][xa] = c
    return comps, den


def _poly(n: int, acc: dict, den: int) -> Poly:
    """The Poly whose coefficients are acc's numerators over den."""
    return Poly._trusted(n, {key: Fraction(c, den)
                             for key, c in acc.items() if c})


def _derivative(terms: dict, m: tuple[int, ...]) -> dict:
    """D^m of {x exponents: coefficient}, read off the raw terms:
    x^e maps to prod_k perm(e_k, m_k) x^(e - m)."""
    out = {}
    for e, c in terms.items():
        factor = 1
        for ek, mk in zip(e, m):
            if ek < mk:
                break
            if mk:
                factor *= perm(ek, mk)
        else:
            # Subtracting a fixed multi-index keeps distinct keys distinct.
            out[tuple([ek - mk for ek, mk in zip(e, m)])] = c * factor
    return out


def _divergence(comps: list[dict]) -> dict:
    n = len(comps)
    out: dict = {}
    for i, comp in enumerate(comps):
        unit = tuple(int(k == i) for k in range(n))
        for e, c in _derivative(comp, unit).items():
            out[e] = out.get(e, 0) + c
    return out


def _pairing_derivative(comps: list[dict], div: dict, xa: tuple[int, ...],
                        scale: int, weight: int) -> dict:
    """The density action on one coefficient monomial, as {x exponents:
    integer}: <X, eta> x^xa = sum_i xa_i X_i x^(xa - e_i) times scale, plus
    div(X) x^xa times weight."""
    out: dict = {}
    for i, s in enumerate(xa):
        if not s:
            continue
        lowered = list(xa)
        lowered[i] -= 1
        k = s * scale
        for e, c in comps[i].items():
            key = tuple([a + b for a, b in zip(lowered, e)])
            out[key] = out.get(key, 0) + k * c
    if weight:
        for e, c in div.items():
            key = tuple([a + b for a, b in zip(xa, e)])
            out[key] = out.get(key, 0) + weight * c
    return {key: c for key, c in out.items() if c}


@lru_cache(maxsize=4096)
def _lowerings(u: tuple[int, ...], top: int) -> tuple[tuple[int, ...], ...]:
    """The multi-indices m <= u with 1 <= |m| <= top."""
    out = [()]
    for uk in u:
        out = [m + (j,) for m in out for j in range(min(uk, top - sum(m)) + 1)]
    return tuple(m for m in out if any(m))


def _fiber_image(comps: list[dict], u: tuple[int, ...], top: int,
                 scale: int, lam: int) -> list:
    """The fiber shifts of one fiber monomial u, as (x exponents, fiber
    exponents, integer) with zero entries omitted.

    The Taylor term of order m, 1 <= |m| <= top, pairs binom(u, m) with
    -D^m X_l xi_l (times scale) and, for a nonzero weight, with
    -D^(m + e_l) X_l (times lam).  Both derivatives are read off each term
    c x^e of X_l: D^m x^e = perm(e, m) x^(e - m), nonzero for m <= e."""
    out: dict = {}
    for ell, comp in enumerate(comps):
        for e, c in comp.items():
            for m in _lowerings(tuple(map(min, u, e)), top):
                coeff = -c
                for uk, ek, mk in zip(u, e, m):
                    if mk:
                        coeff *= comb(uk, mk) * perm(ek, mk)
                rest = [a - b for a, b in zip(u, m)]
                lower = [a - b for a, b in zip(e, m)]
                raised = list(rest)
                raised[ell] += 1
                key = (tuple(lower), tuple(raised))
                out[key] = out.get(key, 0) + coeff * scale
                if lam and lower[ell]:
                    # D^(m + e_l) x^e = (e_l - m_l) D^m x^e lowered in x_l
                    k = coeff * lower[ell] * lam
                    lower[ell] -= 1
                    key = (tuple(lower), tuple(rest))
                    out[key] = out.get(key, 0) + k
    return [(e, v, c) for (e, v), c in out.items() if c]


def _lie_body(field: VectorField, body: Poly, shift: Fraction, top: int,
              weights: tuple[Fraction, ...]) -> Poly:
    """Lie derivative of a body in one pass over its terms: the only kernel
    of the action.

    Each term x^s a^u b^v maps to the density action on x^s (weight the
    shift) times a^u b^v, plus the fiber shifts of a^u and of b^v times x^s,
    with Taylor orders up to top and one weight per fiber family in weights
    (none for a density).  The divergence is built only for a nonzero shift,
    and the images of each distinct x^s and fiber monomial only once."""
    comps, field_den = _field_numerators(field)
    terms, den = _numerators(body.terms)
    scale = lcm(shift.denominator, *(w.denominator for w in weights))
    shift_num = shift.numerator * (scale // shift.denominator)
    families = [(slot, lam.numerator * (scale // lam.denominator))
                for slot, lam in zip((1, 2), weights)]
    div = _divergence(comps) if shift_num else {}
    x_images: dict = {}
    fiber_images: dict = {}
    acc: dict = {}
    for (xa, aa, ba), c in terms.items():
        image = x_images.get(xa)
        if image is None:
            image = x_images[xa] = _pairing_derivative(comps, div, xa,
                                                       scale, shift_num)
        for e, k in image.items():
            key = (e, aa, ba)
            acc[key] = acc.get(key, 0) + c * k
        for slot, lam in families:
            u = aa if slot == 1 else ba
            if not any(u):
                continue
            image = fiber_images.get((slot, u))
            if image is None:
                image = fiber_images[(slot, u)] = _fiber_image(
                    comps, u, top, scale, lam)
            for e, v, k in image:
                x2 = tuple([a + b for a, b in zip(xa, e)])
                key = (x2, v, ba) if slot == 1 else (x2, aa, v)
                acc[key] = acc.get(key, 0) + c * k
    return _poly(body.n, acc, den * field_den * scale)


# ----------------------------------------------------------------------
# Lie derivatives


def lie_derivative_density(field: VectorField, phi: Density) -> Density:
    """Derivative along the field plus weight times divergence: the action
    on a fiber-free body at shift the weight."""
    if field.n != phi.n:
        raise DimensionMismatchError("field and density dimensions differ")
    return Density(_lie_body(field, phi.value, phi.weight, 0, ()), phi.weight)


def apply_operator(op: BidiffOp, *args: Density) -> Density:
    """Evaluate the operator on polynomial densities.

    Each term x^s a^u b^v contributes x^s * D^u(arg1) * D^v(arg2); each
    distinct D^u of an argument is built once."""
    ctx = op.context
    if len(args) != ctx.arity:
        raise ArityError(f"expected {ctx.arity} arguments, got {len(args)}")
    for arg, weight in zip(args, ctx.weights):
        if arg.n != ctx.n:
            raise DimensionMismatchError("argument dimension differs")
        if arg.weight != weight:
            raise WeightMismatchError(
                f"argument weight {arg.weight} != context weight {weight}")
    ctx.fiber_families()  # arity must be representable
    terms, den = _numerators(op.body.terms)
    factors = []
    for arg in args:
        nums, arg_den = _numerators({key[0]: c for key, c in arg.value.terms.items()})
        factors.append((nums, {}))
        den *= arg_den
    zero = (0,) * ctx.n
    acc: dict = {}
    for (xa, *fibers), c in terms.items():
        pieces = [(xa, c)]
        for (nums, derived), u in zip(factors, fibers):
            d = derived.get(u)
            if d is None:
                d = derived[u] = _derivative(nums, u)
            pieces = [(tuple([a + b for a, b in zip(e1, e2)]), c1 * c2)
                      for e1, c1 in pieces for e2, c2 in d.items()]
        for e, k in pieces:
            acc[(e, zero, zero)] = acc.get((e, zero, zero), 0) + k
    return Density(_poly(ctx.n, acc, den), ctx.mu)


def lie_derivative_symbol(field: VectorField, sym: SymbolPoly) -> SymbolPoly:
    """Tensor-field Lie derivative in fiber coordinates: the operator action
    cut at first-order fiber shifts, with no weight terms."""
    if field.n != sym.body.n:
        raise DimensionMismatchError("field and symbol dimensions differ")
    ctx = sym.context
    zero_weights = (_ZERO,) * len(ctx.fiber_families())
    return SymbolPoly(_lie_body(field, sym.body, ctx.delta, 1, zero_weights),
                      ctx)


def lie_derivative_operator(field: VectorField, op: BidiffOp) -> BidiffOp:
    """Closed polynomial form of the Lie derivative of an operator.

    For each fiber family the shifted-argument expansion is a finite Taylor
    series: the order-m fiber derivative of the body pairs with the m-th
    (or (m + 1)-th, for the weight part) x-derivatives of the components of
    the field.  The series stops at the x-degree of the field.
    """
    if field.n != op.body.n:
        raise DimensionMismatchError("field and operator dimensions differ")
    ctx = op.context
    ctx.fiber_families()  # arity must be representable
    top = max(field.x_degree(), 0)
    return BidiffOp(_lie_body(field, op.body, ctx.delta, top, ctx.weights),
                    ctx)


def lie_derivative_via_definition(field: VectorField, op: BidiffOp,
                                  *args: Density) -> Density:
    """(Lie_X T)(f, ...) computed from the defining composition form."""
    total = lie_derivative_density(field, apply_operator(op, *args))
    for i in range(len(args)):
        shifted = list(args)
        shifted[i] = lie_derivative_density(field, args[i])
        total = Density(total.value - apply_operator(op, *shifted).value,
                        total.weight)
    return total


def bracket(first: VectorField, second: VectorField) -> VectorField:
    """Lie bracket of vector fields: the tensor action of the first field on
    the degree-1 symbol sum_i Y_i a_i of the second at shift 0, read back
    per a_i."""
    if first.n != second.n:
        raise DimensionMismatchError("field dimensions differ")
    n = first.n
    zero = (0,) * n
    units = {tuple(int(k == i) for k in range(n)): i for i in range(n)}
    body = Poly._trusted(n, {(xa, unit, zero): c
                             for unit, comp in zip(units, second.components)
                             for (xa, _, _), c in comp.terms.items()})
    comps: list[dict] = [{} for _ in range(n)]
    for (xa, aa, _), c in _lie_body(first, body, _ZERO, 1, (_ZERO,)).terms.items():
        comps[units[aa]][(xa, zero, zero)] = c
    return VectorField(tuple(Poly._trusted(n, t) for t in comps))
