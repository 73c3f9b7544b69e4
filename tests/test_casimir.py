"""Casimir operators: defining summation, closed forms, spectrum.

The central identity (direct summation equals symbol part plus correction)
is exercised on seeded random operators with the two sides computed along
entirely different code paths: nested Lie derivatives over the basis versus
the two closed-form differential operators.
"""

import random
from fractions import Fraction

import pytest

from projquant.casimir import (LabelRangeError, _nc_body, _nc_weights,
                               casimir_correction, casimir_direct,
                               casimir_eigenvalue, casimir_symbol,
                               highest_weight_vector, shift_free_eigenvalue,
                               tableau_labels)
from projquant.densities import (BidiffOp, Context, SymbolPoly, VectorField,
                                 _numerators, _poly, lie_derivative_operator)
from projquant.isotypic import decompose
from projquant.parsing import parse_poly
from projquant.poly import Poly
from projquant.sampling import random_body, random_operator, random_x_poly
from projquant.slbasis import basis_fields, sl_basis

from oracles import eigenvalue_reference, nc_body_reference


def ctx_d(n, delta, lam1=Fraction(0), lam2=Fraction(0)):
    return Context.from_delta(n, (lam1, lam2), delta)


def test_direct_casimir_examples():
    n = 2
    # order-0 operator: n(n+1) d(d-1) times the identity
    for delta in (Fraction(0), Fraction(1, 2), Fraction(3)):
        ctx = ctx_d(n, delta)
        op = BidiffOp(Poly.constant(n, 1), ctx)
        expected = n * (n + 1) * delta * (delta - 1)
        assert casimir_direct(op).body == Poly.constant(n, expected)
    # antisymmetric constant operator at shift 1 is annihilated
    ctx = ctx_d(n, Fraction(1))
    op = BidiffOp(parse_poly("a1*b2 - a2*b1", n), ctx)
    assert casimir_direct(op).body.is_zero()
    # a1^2 at shift 0 scales by 16
    ctx = ctx_d(n, Fraction(0))
    op = BidiffOp(parse_poly("a1*a1", n), ctx)
    assert casimir_direct(op).body == 16 * op.body


def test_eigenvalue_examples():
    assert casimir_eigenvalue(2, Fraction(0), 0, 0) == 0
    assert casimir_eigenvalue(2, Fraction(1), 0, 0) == 0
    assert casimir_eigenvalue(3, Fraction(1, 2), 0, 0) == Fraction(-3)
    for label in ((2, 1), (1, 0), (0, 0)):
        assert casimir_eigenvalue(2, Fraction(1), *label) == 0
    assert casimir_eigenvalue(2, Fraction(0), 2, 0) == 16
    assert casimir_eigenvalue(2, Fraction(0), 2, 1) == 12
    with pytest.raises(LabelRangeError):
        casimir_eigenvalue(2, Fraction(0), 2, 2)
    with pytest.raises(LabelRangeError):
        casimir_eigenvalue(1, Fraction(0), 4, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_eigenvalue_matches_the_one_line_formula(n):
    """gamma0 plus the shift part against the former closed form, on
    integer shifts, shifts with a denominator and the critical (n+2)/(n+1)."""
    for delta in (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(5, 12),
                  Fraction(n + 2, n + 1)):
        for i in range(13):
            for p in tableau_labels(n, i):
                value = casimir_eigenvalue(n, delta, i, p)
                assert isinstance(value, Fraction)
                assert value == eigenvalue_reference(n, delta, i, p)
                if delta == 0:
                    assert value == shift_free_eigenvalue(n, i, p)


def test_tableau_labels():
    assert tableau_labels(1, 6) == range(1)
    assert tableau_labels(2, 0) == range(1)
    assert tableau_labels(3, 5) == range(3)
    for n in (0, -1):
        with pytest.raises(LabelRangeError):
            tableau_labels(n, 2)
        with pytest.raises(LabelRangeError):
            casimir_eigenvalue(n, Fraction(0), 0, 0)


def test_highest_weight_vectors():
    ctx = ctx_d(2, Fraction(0))
    assert highest_weight_vector(1, 1, 1, ctx).body == parse_poly("a1*b2 - a2*b1", 2)
    assert highest_weight_vector(2, 1, 0, ctx).body == parse_poly("a1^2*b1", 2)
    assert highest_weight_vector(2, 1, 1, ctx).body == parse_poly(
        "(a1*b2 - a2*b1)*a1", 2)
    with pytest.raises(LabelRangeError):
        highest_weight_vector(1, 1, 2, ctx)
    with pytest.raises(LabelRangeError):
        highest_weight_vector(2, 2, 1, ctx_d(1, Fraction(0)))


@pytest.mark.parametrize("n", [2, 3])
def test_eigenvalue_property_on_highest_weight_vectors(n):
    for delta in (Fraction(0), Fraction(1, 2)):
        ctx = ctx_d(n, delta, Fraction(1, 3), Fraction(-1, 5))
        for k in range(5):
            for l in range(5):
                for q in range(min(k, l) + 1):
                    vec = highest_weight_vector(k, l, q, ctx)
                    gamma = casimir_eigenvalue(n, delta, k + l, q)
                    assert casimir_symbol(vec).body == gamma * vec.body


def test_correction_examples():
    n = 2
    ctx = Context(n, (Fraction(1, 5), Fraction(0)), Fraction(1))
    # x-independent input is annihilated
    op = BidiffOp(parse_poly("a1^2*b2", n), ctx)
    assert casimir_correction(op).body.is_zero()
    # x1 a1: twice (0 + (n+1) lam1) after the contraction
    op = BidiffOp(parse_poly("x1*a1", n), ctx)
    assert casimir_correction(op).body == Poly.constant(n, 6 * Fraction(1, 5))
    # x1 b1 with lam2 = 0 dies on the weight factor
    op = BidiffOp(parse_poly("x1*b1", n), ctx)
    assert casimir_correction(op).body.is_zero()


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_pass_correction_matches_whole_body_reference(n, arity):
    """The one-pass correction, on integer numerators and through
    `casimir_correction`, equals eta_contract, Euler and scaling composed
    on whole bodies.  The first weight is -1/(n+1), so the factor
    |u| - 1 + (n+1) lam vanishes on the a-monomials of degree two."""
    rng = random.Random(10 * n + arity)
    weights = (Fraction(-1, n + 1), Fraction(2, 7))[:arity]
    ctx = Context(n, weights, Fraction(1, 3))
    for _ in range(4):
        body = random_body(rng, n, 5, 3, arity, terms=12)
        one_pass = _poly(n, *_nc_body(_numerators(body.terms),
                                      _nc_weights(ctx)))
        assert one_pass == nc_body_reference(body, ctx)
        assert casimir_correction(BidiffOp(body, ctx)).body == one_pass
    vanishing = parse_poly("x1*a1^2", n)
    assert nc_body_reference(vanishing, ctx).is_zero()
    assert _nc_body(_numerators(vanishing.terms), _nc_weights(ctx))[0] == {}
    assert casimir_correction(BidiffOp(vanishing, ctx)).body.is_zero()


def test_correction_lowers_degree_by_one():
    rng = random.Random(12)
    ctx = Context(2, (Fraction(1, 2), Fraction(1, 3)), Fraction(0))
    for _ in range(5):
        body = random_x_poly(rng, 2, 2) * parse_poly("a1*b2 + a2^2", 2)
        out = casimir_correction(BidiffOp(body, ctx)).body
        if not out.is_zero():
            assert out.fiber_degree() == body.fiber_degree() - 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_decomposition_identity(n):
    rng = random.Random(100 + n)
    for _ in range(6):
        ctx = Context(n, (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                          Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
                      Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        op = random_operator(rng, ctx, 3, 2)
        direct = casimir_direct(op).body
        split = casimir_symbol(op).body + casimir_correction(op).body
        assert direct == split


@pytest.mark.parametrize("n", [1, 2])
def test_decomposition_identity_arity_one(n):
    rng = random.Random(50 + n)
    for _ in range(5):
        ctx = Context(n, (Fraction(rng.randint(-4, 4), rng.randint(1, 3)),),
                      Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        op = random_operator(rng, ctx, 3, 2)
        assert casimir_direct(op).body == (
            casimir_symbol(op).body + casimir_correction(op).body)


def test_direct_casimir_on_symbols_matches_closed_form():
    rng = random.Random(77)
    for n in (1, 2):
        ctx = Context(n, (Fraction(1, 3), Fraction(-1, 2)), Fraction(2, 5))
        for _ in range(4):
            sym = SymbolPoly(random_operator(rng, ctx, 3, 2).body, ctx)
            assert casimir_direct(sym).body == casimir_symbol(sym).body


def test_centrality():
    rng = random.Random(13)
    ctx = Context(2, (Fraction(1, 4), Fraction(-2, 3)), Fraction(1, 2))
    op = random_operator(rng, ctx, 2, 2)
    for label, field in basis_fields(2):
        lhs = casimir_direct(lie_derivative_operator(field, op)).body
        rhs = lie_derivative_operator(field, casimir_direct(op)).body
        assert lhs == rhs, f"Casimir does not commute with {label}"


def test_symbol_casimir_is_coefficient_transparent():
    n = 2
    ctx = ctx_d(n, Fraction(2, 3))
    c = parse_poly("x1^2*x2 - 3*x2", n)
    a1 = parse_poly("a1", n)
    lhs = casimir_symbol(SymbolPoly(c * a1, ctx)).body
    rhs = c * casimir_symbol(SymbolPoly(a1, ctx)).body
    assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gamma_injective_in_tableau_label(n):
    for delta in (Fraction(0), Fraction(1), Fraction(-3, 7)):
        for i in range(13):
            labels = [0] if n == 1 else range(i // 2 + 1)
            seen = {}
            for p in labels:
                value = casimir_eigenvalue(n, delta, i, p)
                assert value not in seen
                seen[value] = p


def test_correction_image_supported_on_adjacent_tableau_labels():
    n = 2
    rng = random.Random(3)
    ctx = Context(n, (Fraction(1, 3), Fraction(1, 7)), Fraction(2))
    for k, l, q in [(2, 1, 1), (2, 2, 1), (3, 2, 2), (2, 2, 2), (3, 1, 1)]:
        c = random_x_poly(rng, n, 1)
        vec = highest_weight_vector(k, l, q, ctx)
        image = casimir_correction(SymbolPoly(c * vec.body, ctx))
        parts = decompose(image)
        i = k + l
        assert set(parts) <= {(i - 1, q - 1), (i - 1, q)}


def test_tampered_duals_break_the_identity():
    """Negating the duals of the quadratic fields must be caught."""
    n = 2
    ctx = Context(n, (Fraction(1, 3), Fraction(0)), Fraction(1))
    op = BidiffOp(parse_poly("x1*a1", n), ctx)
    total = Poly.zero(n)
    for pair in sl_basis(n):
        dual = pair.dual
        if pair.label.startswith("e_") and pair.label.count("_") == 1:
            dual = VectorField(tuple(-c for c in dual.components))
        total = total + lie_derivative_operator(
            pair.element, lie_derivative_operator(dual, op)).body
    honest = casimir_symbol(op).body + casimir_correction(op).body
    assert total != honest
