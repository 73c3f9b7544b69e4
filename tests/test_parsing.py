"""Grammar round trips and error reporting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from projquant.parsing import ParseError, format_poly, parse_poly
from projquant.poly import Poly

N = 2

coefficients = st.fractions(
    min_value=-5, max_value=5, max_denominator=6).filter(lambda f: f != 0)
exponents = st.tuples(st.integers(0, 3), st.integers(0, 3))


@st.composite
def polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        terms[(draw(exponents), draw(exponents), draw(exponents))] = draw(coefficients)
    return Poly(N, terms)


@settings(max_examples=80, deadline=None)
@given(polys())
def test_parse_after_format_is_identity(p):
    assert parse_poly(format_poly(p), N) == p


def test_simple_forms():
    assert format_poly(Poly.zero(N)) == "0"
    assert parse_poly("0", N).is_zero()
    p = parse_poly("3/2 * x1^2 * a1", N)
    assert p == Poly.monomial(N, Fraction(3, 2), x={1: 2}, a={1: 1})
    assert format_poly(p) == "3/2*x1^2*a1"


def test_highest_weight_expression():
    p = parse_poly("a1*b2 - a2*b1", N)
    assert p == (Poly.variable(N, "a", 1) * Poly.variable(N, "b", 2)
                 - Poly.variable(N, "a", 2) * Poly.variable(N, "b", 1))


def test_precedence_and_unary_minus():
    assert parse_poly("-x1^2", N) == -(Poly.variable(N, "x", 1) ** 2)
    assert parse_poly("2*x1 + 3*x2^2", N) == (
        2 * Poly.variable(N, "x", 1) + 3 * Poly.variable(N, "x", 2) ** 2)
    assert parse_poly("-(x1 - x2)", N) == (
        Poly.variable(N, "x", 2) - Poly.variable(N, "x", 1))
    assert parse_poly("(x1 + a1)^2", N) == (
        Poly.variable(N, "x", 1) + Poly.variable(N, "a", 1)) ** 2


def test_rational_literals():
    assert parse_poly("-5/7", N) == Poly.constant(N, Fraction(-5, 7))
    with pytest.raises(ParseError):
        parse_poly("1/0", N)


def test_index_out_of_range():
    with pytest.raises(ParseError) as err:
        parse_poly("a3", N)
    assert "out of range" in str(err.value)


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("a1)", N)
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_poly("x1 +", N)
    with pytest.raises(ParseError):
        parse_poly("x1 x2", N)
    with pytest.raises(ParseError):
        parse_poly("x", N)
    with pytest.raises(ParseError):
        parse_poly("(x1", N)
    with pytest.raises(ParseError):
        parse_poly("x1^-2", N)
    with pytest.raises(ParseError):
        parse_poly("y1", N)


def test_dense_body_round_trips():
    from projquant.poly import multi_indices
    monomials = [m for d in range(5) for m in multi_indices(N, d)]
    terms = {}
    for xa in monomials[:10]:
        for aa in monomials:
            for ba in monomials[:10]:
                k = len(terms)
                terms[(xa, aa, ba)] = Fraction(k % 7 - 3 or 5, 1 + k % 5)
    body = Poly(N, terms)
    assert len(body.terms) == 1500
    text = format_poly(body)
    assert parse_poly(text, N) == body
    assert format_poly(parse_poly(text, N)) == text


def test_repeated_terms_merge():
    assert parse_poly("a1 + 2*x1*b2 - 1/2*a1 + b2*x1", N) == parse_poly(
        "1/2*a1 + 3*x1*b2", N)
    assert parse_poly("a1 - a1", N).is_zero()
    assert format_poly(parse_poly("a1 - a1", N)) == "0"
    assert parse_poly("x1 - (x1 - a2) - a2", N).is_zero()
