"""Lie derivative actions on densities, symbols and operators.

The closed polynomial form of the operator action is held against the
defining composition form on random polynomial densities, and all three
module structures are checked on the bracket.  The one-pass integer kernels
are held against their former Poly-chain forms in `oracles`.
"""

import random
from fractions import Fraction

import pytest
import sympy

from projquant.densities import (ArityError, BidiffOp, Context, Density,
                                 SymbolPoly, VectorField, WeightMismatchError,
                                 apply_operator, bracket,
                                 lie_derivative_density,
                                 lie_derivative_operator,
                                 lie_derivative_symbol,
                                 lie_derivative_via_definition)
from projquant.parsing import parse_poly
from projquant.poly import ALPHA, BETA, X, Poly
from projquant.sampling import (random_density, random_operator,
                                random_vector_field, random_x_poly)
from projquant.slbasis import basis_fields, sl_basis

from oracles import (apply_operator_reference, bracket_reference,
                     lie_density_reference, lie_operator_reference,
                     lie_symbol_reference, pairing_derivative_reference,
                     sympy_symbols, to_sympy)

N = 2


def field(*exprs):
    n = len(exprs)
    return VectorField(tuple(parse_poly(e, n) for e in exprs))


def test_context_shift_is_derived():
    ctx = Context(2, (Fraction(1, 3), Fraction(1, 6)), Fraction(2))
    assert ctx.delta == Fraction(3, 2)
    ctx2 = Context.from_delta(2, (Fraction(1, 3), Fraction(1, 6)), Fraction(3, 2))
    assert ctx2.mu == Fraction(2)
    assert ctx.arity == 2


def test_lie_density_examples():
    # X = d1, phi = x1 -> 1
    out = lie_derivative_density(field("1", "0"),
                                 Density(parse_poly("x1", N), Fraction(0)))
    assert out.value == Poly.constant(N, 1)
    # X = x1 d1, phi = 1, weight lam -> lam
    lam = Fraction(2, 7)
    out = lie_derivative_density(field("x1", "0"),
                                 Density(Poly.constant(N, 1), lam))
    assert out.value == Poly.constant(N, lam)
    assert out.weight == lam
    # quadratic field (x1^2, x1 x2), phi = 1, weight 1 -> 3 x1
    out = lie_derivative_density(field("x1^2", "x1*x2"),
                                 Density(Poly.constant(N, 1), Fraction(1)))
    assert out.value == parse_poly("3*x1", N)


def test_lie_density_matches_sympy():
    rng = random.Random(1)
    xs, _, _ = sympy_symbols(N)
    for _ in range(5):
        X_field = random_vector_field(rng, N, 2)
        phi = random_density(rng, N, 3, Fraction(rng.randint(-3, 3), 2))
        got = lie_derivative_density(X_field, phi).value
        expr = sum(to_sympy(X_field.components[i]) * sympy.diff(to_sympy(phi.value), xs[i])
                   for i in range(N))
        expr += sympy.Rational(phi.weight.numerator, phi.weight.denominator) * sum(
            sympy.diff(to_sympy(X_field.components[i]), xs[i]) for i in range(N)
        ) * to_sympy(phi.value)
        assert sympy.expand(to_sympy(got) - expr) == 0


CTX = Context(N, (Fraction(1, 3), Fraction(0)), Fraction(1))


def test_apply_operator_examples():
    f = Density(parse_poly("x1^2", N), CTX.weights[0])
    g = Density(Poly.constant(N, 1), CTX.weights[1])
    out = apply_operator(BidiffOp(parse_poly("a1", N), CTX), f, g)
    assert out.value == parse_poly("2*x1", N)
    assert out.weight == CTX.mu

    f = Density(parse_poly("x1", N), CTX.weights[0])
    g = Density(parse_poly("x1", N), CTX.weights[1])
    out = apply_operator(BidiffOp(parse_poly("a1*b1", N), CTX), f, g)
    assert out.value == Poly.constant(N, 1)

    # x2 a1 a2 applied to (x1 x2, x2): coefficient x2 times 1 times x2
    f = Density(parse_poly("x1*x2", N), CTX.weights[0])
    g = Density(parse_poly("x2", N), CTX.weights[1])
    out = apply_operator(BidiffOp(parse_poly("x2*a1*a2", N), CTX), f, g)
    assert out.value == parse_poly("x2^2", N)


def test_apply_operator_checks_weights_and_arity():
    f = Density(parse_poly("x1", N), Fraction(1, 2))
    g = Density(parse_poly("x1", N), CTX.weights[1])
    with pytest.raises(WeightMismatchError):
        apply_operator(BidiffOp(parse_poly("a1", N), CTX), f, g)
    with pytest.raises(ArityError):
        apply_operator(BidiffOp(parse_poly("a1", N), CTX), g)


def test_arity_one_operator_application():
    ctx1 = Context(N, (Fraction(1, 4),), Fraction(1))
    op = BidiffOp(parse_poly("x2*a1^2", N), ctx1)
    f = Density(parse_poly("x1^3", N), Fraction(1, 4))
    assert apply_operator(op, f).value == parse_poly("6*x1*x2", N)
    with pytest.raises(ArityError):
        BidiffOp(parse_poly("b1", N), ctx1)


def test_lie_operator_examples():
    # constant coefficients are translation invariant
    op = BidiffOp(parse_poly("a1*b2 + a2^2", N), CTX)
    assert lie_derivative_operator(field("-1", "0"), op).body.is_zero()

    # X = x1 d1 on the first-derivative operator: (shift - 1) a1
    op = BidiffOp(parse_poly("a1", N), CTX)
    out = lie_derivative_operator(field("x1", "0"), op)
    assert out.body == (CTX.delta - 1) * parse_poly("a1", N)

    # quadratic field on the order-0 operator: shift * divergence
    op = BidiffOp(Poly.constant(N, 1), CTX)
    out = lie_derivative_operator(field("x1^2", "x1*x2"), op)
    assert out.body == CTX.delta * parse_poly("3*x1", N)


def test_closed_form_matches_defining_form():
    rng = random.Random(9)
    for trial in range(6):
        ctx = Context(N, (Fraction(rng.randint(-3, 3), 2),
                          Fraction(rng.randint(-3, 3), 3)),
                      Fraction(rng.randint(-3, 3), 2))
        op = random_operator(rng, ctx, 3, 2)
        X_field = random_vector_field(rng, N, 3)
        f = random_density(rng, N, 3, ctx.weights[0])
        g = random_density(rng, N, 3, ctx.weights[1])
        closed = apply_operator(lie_derivative_operator(X_field, op), f, g)
        defined = lie_derivative_via_definition(X_field, op, f, g)
        assert closed.value == defined.value
        assert closed.weight == defined.weight == ctx.mu


def test_filtration_never_raises_order():
    rng = random.Random(4)
    for _ in range(6):
        ctx = Context(N, (Fraction(1, 2), Fraction(-1, 3)), Fraction(0))
        op = random_operator(rng, ctx, 3, 2)
        X_field = random_vector_field(rng, N, 3)
        out = lie_derivative_operator(X_field, op)
        assert out.body.fiber_degree() <= max(op.body.fiber_degree(), -1)


def test_order_zero_operators_transform_as_shift_densities():
    rng = random.Random(8)
    ctx = Context(N, (Fraction(1, 5), Fraction(2, 3)), Fraction(1, 2))
    for _ in range(5):
        value = random_x_poly(rng, N, 3)
        op = BidiffOp(value, ctx)
        X_field = random_vector_field(rng, N, 2)
        as_operator = lie_derivative_operator(X_field, op).body
        as_density = lie_derivative_density(
            X_field, Density(value, ctx.delta)).value
        assert as_operator == as_density


def test_bracket_examples():
    # [d1, x1 d1] = d1
    assert bracket(field("1", "0"), field("x1", "0")) == field("1", "0")
    # [di, dj] = 0
    assert bracket(field("1", "0"), field("0", "1")) == field("0", "0")
    # [e_1, eps_1] at n=2 is the diagonal basis field
    e1 = field("-1", "0")
    eps1 = field("x1^2", "x1*x2")
    assert bracket(e1, eps1) == field("-2*x1", "-x2")


@pytest.mark.parametrize("space", ["density", "operator", "symbol"])
def test_representation_property(space):
    rng = random.Random(17)
    ctx = Context(N, (Fraction(1, 3), Fraction(-1, 2)), Fraction(2, 5))
    pool = [f for _, f in basis_fields(N)]
    pool += [random_vector_field(rng, N, 3) for _ in range(3)]
    samples = rng.sample(pool, 6)
    pairs = [(samples[i], samples[j]) for i in range(3) for j in range(3, 6)]
    for X_field, Y_field in pairs:
        if space == "density":
            target = random_density(rng, N, 3, Fraction(1, 3))
            lie = lambda v, t: lie_derivative_density(v, t)
            body = lambda t: t.value
        elif space == "operator":
            target = random_operator(rng, ctx, 2, 2)
            lie = lambda v, t: lie_derivative_operator(v, t)
            body = lambda t: t.body
        else:
            target = SymbolPoly(random_operator(rng, ctx, 2, 2).body, ctx)
            lie = lambda v, t: lie_derivative_symbol(v, t)
            body = lambda t: t.body
        lhs = body(lie(bracket(X_field, Y_field), target))
        rhs = body(lie(X_field, lie(Y_field, target))) - body(
            lie(Y_field, lie(X_field, target)))
        assert lhs == rhs


def test_symbol_action_examples():
    ctx = Context.from_delta(N, (Fraction(1, 3), Fraction(0)), Fraction(2, 7))
    sym = SymbolPoly(parse_poly("a1*b2", N), ctx)
    assert lie_derivative_symbol(field("1", "0"), sym).body.is_zero()
    sym = SymbolPoly(parse_poly("a1", N), ctx)
    out = lie_derivative_symbol(field("x1", "0"), sym)
    assert out.body == (ctx.delta - 1) * parse_poly("a1", N)


def test_symbol_action_preserves_bidegree_for_projective_fields():
    rng = random.Random(23)
    ctx = Context.from_delta(N, (Fraction(0), Fraction(0)), Fraction(3, 4))
    sym = SymbolPoly(parse_poly("x1*a1*b2 + x2^2*a2*b1", N), ctx)
    for _, X_field in basis_fields(N):
        out = lie_derivative_symbol(X_field, sym)
        assert set(out.body.bidegree_parts()) <= {(1, 1)}


def test_operator_symbol_defect_for_quadratic_fields():
    """The two actions differ by the four contraction terms, second order in
    the derivatives of the field; recomputed here from first principles."""
    rng = random.Random(31)
    n = N
    ctx = Context(n, (Fraction(1, 3), Fraction(-2, 5)), Fraction(1, 7))
    lam1, lam2 = ctx.weights
    for pair in sl_basis(n)[-n:]:  # the quadratic fields
        X_field = pair.element
        body = random_operator(rng, ctx, 2, 2).body
        op_side = lie_derivative_operator(X_field, BidiffOp(body, ctx)).body
        sym_side = lie_derivative_symbol(X_field, SymbolPoly(body, ctx)).body
        defect = Poly.zero(n)
        for fam, lam in ((ALPHA, lam1), (BETA, lam2)):
            # weight part: sum_m (sum_l d_m d_l X^l) D_fam_m body
            for m in range(1, n + 1):
                scalar = Poly.zero(n)
                for l in range(1, n + 1):
                    scalar = scalar + X_field.components[l - 1].diff(X, m).diff(X, l)
                defect = defect - lam * scalar * body.diff(fam, m)
            # half the double fiber shift paired with two field derivatives
            for l in range(1, n + 1):
                xi_l = Poly.variable(n, fam, l)
                for m1 in range(1, n + 1):
                    for m2 in range(1, n + 1):
                        coeff = X_field.components[l - 1].diff(X, m1).diff(X, m2)
                        if coeff.is_zero():
                            continue
                        defect = defect - Fraction(1, 2) * coeff * xi_l * \
                            body.diff(fam, m1).diff(fam, m2)
        assert op_side - sym_side == defect


# ----------------------------------------------------------------------
# the one-pass integer kernels against the former Poly chains

PARITY_CONTEXTS = [
    pytest.param(Context(2, (Fraction(1, 3), Fraction(-2, 5)), Fraction(1, 7)),
                 id="n2-distinct-denominators"),
    pytest.param(Context.from_delta(2, (Fraction(0), Fraction(3, 4)), Fraction(0)),
                 id="n2-zero-weight-shift-0"),
    pytest.param(Context.from_delta(3, (Fraction(-5, 6), Fraction(0)), Fraction(0)),
                 id="n3-zero-weight-shift-0"),
    pytest.param(Context(3, (Fraction(7, 4), Fraction(2, 9)), Fraction(-1, 6)),
                 id="n3-distinct-denominators"),
    pytest.param(Context(2, (Fraction(-5, 6),), Fraction(2, 9)),
                 id="n2-arity-1"),
    pytest.param(Context.from_delta(3, (Fraction(0),), Fraction(0)),
                 id="n3-arity-1-zero-weight-shift-0"),
    pytest.param(Context(1, (Fraction(3, 8),), Fraction(-4, 3)),
                 id="n1-arity-1"),
]


def _parity_fields(rng, n):
    """Random polynomial fields of x-degree <= 3 with Fraction
    coefficients, the zero field and two basis fields."""
    fields = [random_vector_field(rng, n, 3) for _ in range(4)]
    fields.append(VectorField(tuple(Poly.zero(n) for _ in range(n))))
    fields += [f for _, f in basis_fields(n)[-2:]]
    return fields


@pytest.mark.parametrize("ctx", PARITY_CONTEXTS)
def test_lie_kernels_match_poly_chains(ctx):
    rng = random.Random(41)
    n = ctx.n
    bodies = [random_operator(rng, ctx, 4, 3, terms=8).body for _ in range(3)]
    bodies.append(Poly.zero(n))
    for X_field in _parity_fields(rng, n):
        for body in bodies:
            op = BidiffOp(body, ctx)
            sym = SymbolPoly(body, ctx)
            assert (lie_derivative_operator(X_field, op)
                    == lie_operator_reference(X_field, op))
            assert (lie_derivative_symbol(X_field, sym)
                    == lie_symbol_reference(X_field, sym))


@pytest.mark.parametrize("ctx", PARITY_CONTEXTS)
def test_density_kernels_match_poly_chains(ctx):
    rng = random.Random(43)
    n = ctx.n
    for X_field in _parity_fields(rng, n):
        for weight in ctx.weights + (Fraction(0), ctx.delta):
            value = random_x_poly(rng, n, 3, terms=6)
            for phi in (Density(value, weight), Density(Poly.zero(n), weight)):
                assert (lie_derivative_density(X_field, phi)
                        == lie_density_reference(X_field, phi))
            assert (lie_derivative_density(X_field, Density(value, 0)).value
                    == pairing_derivative_reference(X_field, value))
    for body in (random_operator(rng, ctx, 4, 3, terms=8).body, Poly.zero(n)):
        op = BidiffOp(body, ctx)
        args = [random_density(rng, n, 4, w) for w in ctx.weights]
        assert apply_operator(op, *args) == apply_operator_reference(op, *args)
        zero_args = [Density(Poly.zero(n), w) for w in ctx.weights]
        assert (apply_operator(op, *zero_args)
                == apply_operator_reference(op, *zero_args))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bracket_matches_poly_chain(n):
    rng = random.Random(47 + n)
    fields = _parity_fields(rng, n) + [f for _, f in basis_fields(n)]
    for X_field in fields:
        for Y_field in rng.sample(fields, 5):
            assert bracket(X_field, Y_field) == bracket_reference(X_field, Y_field)
