"""Grammar round trips and error reporting."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from projquant.parsing import (COEFF_BITS_LIMIT, NESTING_LIMIT, ParseError,
                               format_poly, parse_poly)
from projquant.poly import Poly

from oracles import parse_reference

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


@pytest.mark.parametrize("n, error, message", [
    (0, ValueError, "dimension must be >= 1"),
    (-2, ValueError, "dimension must be >= 1"),
    (2.0, TypeError, "dimension must be an int, got float"),
])
def test_dimension_is_checked_as_poly_checks_it(n, error, message):
    for make in (Poly, lambda n: parse_poly("3", n)):
        with pytest.raises(error, match=message):
            make(n)


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


VARIABLES = ("x1", "x2", "a1", "a2", "b1", "b2")
literals = st.one_of(
    st.integers(0, 12).map(str),
    st.builds("{}/{}".format, st.integers(0, 12), st.integers(1, 6)),
    st.sampled_from(VARIABLES))
powers = st.sampled_from(["", "^0", "^1", "^2", "^3"])
low_powers = st.sampled_from(["", "^0", "^1"])
spaces = st.sampled_from(["", " ", "  "])


@st.composite
def expressions(draw, depth=2):
    """Expression text: sums of products of factors, each factor an optional
    run of unary minus signs, then a literal or a parenthesised expression one
    level down, then an optional power.  A parenthesised factor at the top
    level takes no power above 1 and at most one shares a product, so the
    expansions stay small."""
    summands = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        nested = 0
        for _ in range(draw(st.integers(1, 3))):
            if depth and nested < (2 if depth == 1 else 1) and draw(st.booleans()):
                nested += 1
                atom = "(" + draw(expressions(depth - 1)) + ")"
                power = draw(powers if depth == 1 else low_powers)
            else:
                atom = draw(literals)
                power = draw(powers)
            factors.append("-" * draw(st.integers(0, 2)) + atom + power)
        summands.append((draw(spaces) + "*" + draw(spaces)).join(factors))
    text = summands[0]
    for summand in summands[1:]:
        text += draw(spaces) + draw(st.sampled_from("+-")) + draw(spaces) + summand
    return text


def outcome(parser, text):
    """The parsed Poly, or the error's (message, position)."""
    try:
        return parser(text, N)
    except ParseError as err:
        return (str(err), err.position)


@settings(max_examples=150, deadline=None)
@given(expressions())
def test_single_pass_parser_matches_the_recursive_descent_reference(text):
    value = parse_poly(text, N)
    assert value == parse_reference(text, N)
    assert all(type(c) is Fraction for c in value.terms.values())


@settings(max_examples=150, deadline=None)
@given(expressions(depth=1), st.data())
def test_edited_text_gives_the_reference_value_or_error(text, data):
    """One character deleted or inserted: both parsers give the same Poly,
    or the same message at the same position."""
    at = data.draw(st.integers(0, len(text)))
    if data.draw(st.booleans()) and at < len(text):
        text = text[:at] + text[at + 1:]
    else:
        inserted = data.draw(st.sampled_from("xab0123456789+-*/^() $y."))
        text = text[:at] + inserted + text[at:]
    got = outcome(parse_poly, text)
    if isinstance(got, tuple) and "too large" in got[0]:
        return  # an exponent grew past the parse limit; the reference would expand it
    assert got == outcome(parse_reference, text)


@pytest.mark.parametrize("text, message, position", [
    ("a1)", "unexpected ')'", 2),
    ("a1) $", "unexpected ')'", 2),
    ("$ a1)", "unexpected character '$'", 0),
    ("x1 x2", "unexpected 'var'", 3),
    ("x", "variable 'x' needs an index", 0),
    ("x1 + x", "variable 'x' needs an index", 5),
    ("a3", "variable index out of range: a3 with n=2", 0),
    ("1/x1", "denominator must be an integer", 2),
    ("1/0", "zero denominator", 2),
    ("x1^-2", "exponent must be a non-negative integer", 3),
    ("(x1", "expected ')'", 3),
    ("y1", "unexpected character 'y'", 0),
])
def test_error_messages_and_positions(text, message, position):
    """A lexing error is reported only where the parser reaches it."""
    with pytest.raises(ParseError) as err:
        parse_poly(text, N)
    assert (str(err.value), err.value.position) == (
        f"{message} (at position {position})", position)


def test_work_limits():
    """Powers and products of sums are costed before they are expanded and
    rejected at their operator past the limits."""
    sextet = "(x1+a1+b1+x2+a2+b2)"
    assert len(parse_poly(f"{sextet}^5*{sextet}^5", N).terms) == 3003
    with pytest.raises(ParseError) as err:
        parse_poly(f"{sextet}^6*{sextet}^6", N)
    assert err.value.position == len(sextet) + 2
    assert str(err.value).startswith("product too large")
    with pytest.raises(ParseError) as err:
        parse_poly(f"x1 + {sextet}^40", N)
    assert err.value.position == 5 + len(sextet)
    assert str(err.value).startswith("power too large")
    largest = Poly.constant(N, 2 ** COEFF_BITS_LIMIT)
    assert parse_poly(f"2^{COEFF_BITS_LIMIT}", N) == largest
    assert parse_poly("(x1)^99999999", N) == Poly.monomial(N, 1, x={1: 99999999})
    for text in (f"2^{COEFF_BITS_LIMIT + 1}", "(3*x1)^99999999", "1/2^99999999"):
        with pytest.raises(ParseError) as err:
            parse_poly(text, N)
        assert "coefficients over" in str(err.value)


def test_nesting_limit():
    deepest = "(" * NESTING_LIMIT + "x1" + ")" * NESTING_LIMIT
    assert parse_poly(deepest, N) == Poly.variable(N, "x", 1)
    with pytest.raises(ParseError) as err:
        parse_poly("-(" + deepest + ")", N)
    assert err.value.position == 1 + NESTING_LIMIT
    assert str(err.value).startswith("parentheses nested deeper than")
