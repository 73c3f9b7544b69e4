"""Ring structure, derivatives and canonical form of the sparse polynomials."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from projquant.parsing import parse_poly
from projquant.poly import ALPHA, BETA, X, DimensionMismatchError, Poly

from oracles import sympy_equal, sympy_symbols, to_sympy

N = 2

coefficients = st.fractions(
    min_value=-5, max_value=5, max_denominator=4).filter(lambda f: f != 0)
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def polys(draw, n=N, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        key = (draw(exponents), draw(exponents), draw(exponents))
        terms[key] = draw(coefficients)
    return Poly(n, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_multiplication_matches_sympy(a, b):
    assert sympy_equal(a * b, to_sympy(a) * to_sympy(b))


@settings(max_examples=40, deadline=None)
@given(polys())
def test_cancellation_gives_empty_term_map(a):
    assert (a - a).terms == {}
    assert a.scale(0).terms == {}


@settings(max_examples=40, deadline=None)
@given(polys(), st.sampled_from([X, ALPHA, BETA]), st.integers(1, N),
       st.sampled_from([X, ALPHA, BETA]), st.integers(1, N))
def test_derivatives_commute(a, fam1, i1, fam2, i2):
    assert a.diff(fam1, i1).diff(fam2, i2) == a.diff(fam2, i2).diff(fam1, i1)


@settings(max_examples=30, deadline=None)
@given(polys(), polys(), st.sampled_from([X, ALPHA, BETA]), st.integers(1, N))
def test_leibniz_rule(a, b, fam, i):
    assert (a * b).diff(fam, i) == a.diff(fam, i) * b + a * b.diff(fam, i)


@settings(max_examples=30, deadline=None)
@given(polys(), st.sampled_from([X, ALPHA, BETA]), st.integers(1, N))
def test_derivative_matches_sympy(a, fam, i):
    xs, as_, bs = sympy_symbols(N)
    sym = {X: xs, ALPHA: as_, BETA: bs}[fam][i - 1]
    assert sympy_equal(a.diff(fam, i), sympy.diff(to_sympy(a), sym))


def test_spec_examples():
    # (x1 + a1) + (x1 - a1) -> 2 x1
    x1 = Poly.variable(N, X, 1)
    a1 = Poly.variable(N, ALPHA, 1)
    assert (x1 + a1) + (x1 - a1) == 2 * x1
    # a1 * b2
    b2 = Poly.variable(N, BETA, 2)
    assert a1 * b2 == parse_poly("a1*b2", N)
    # d/da1 of a1^2 b2 -> 2 a1 b2
    assert (a1 ** 2 * b2).diff(ALPHA, 1) == 2 * a1 * b2
    # d/dx1 of a1 b2 -> 0
    assert (a1 * b2).diff(X, 1).is_zero()
    # the x-fiber contraction of x1 x2 a1 is x2
    p = parse_poly("x1*x2*a1", N)
    assert p.eta_contract(ALPHA) == Poly.variable(N, X, 2)


def test_taylor_derivative_uses_binomials():
    p = parse_poly("a1^3", N)
    assert p.taylor_diff(ALPHA, (2, 0)) == 3 * Poly.variable(N, ALPHA, 1)
    assert p.taylor_diff(ALPHA, (3, 0)) == Poly.constant(N, 1)
    assert p.taylor_diff(ALPHA, (4, 0)).is_zero()


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        Poly.constant(2, 1) + Poly.constant(3, 1)
    with pytest.raises(DimensionMismatchError):
        Poly.constant(2, 1) * Poly.constant(3, 1)


def test_index_out_of_range_raises():
    with pytest.raises(ValueError):
        Poly.constant(2, 1).diff(X, 3)
    with pytest.raises(ValueError):
        Poly.variable(2, ALPHA, 0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        Poly.constant(2, 0.5)
    with pytest.raises(TypeError):
        Poly.constant(2, 1).scale(0.5)


def test_negative_and_non_integer_exponents_rejected():
    """A negative exponent used to be stored, and `quantize` then dropped
    its factor: x1^-1*a1^2 came back without any x."""
    z = (0, 0)
    with pytest.raises(ValueError, match="exponents must be >= 0"):
        Poly(2, {((-1, 0), z, z): 1})
    with pytest.raises(ValueError, match="exponents must be >= 0"):
        Poly.monomial(2, 3, x={1: -2})
    with pytest.raises(TypeError, match="exponents must be ints"):
        Poly(2, {(z, (1.5, 0), z): 1})
    assert Poly(2, {(z, z, (0, 3)): 1}) == Poly.monomial(2, 1, b={2: 3})


def test_family_degrees_and_parts():
    p = parse_poly("x1^2*a1*b2 + a1^3 + 5", N)
    assert p.degree(X) == 2
    assert p.degree(ALPHA) == 3
    assert p.degree(BETA) == 1
    assert p.fiber_degree() == 3
    parts = p.fiber_parts()
    assert sorted(parts) == [0, 2, 3]
    total = Poly.zero(N)
    for piece in parts.values():
        total = total + piece
    assert total == p
    assert Poly.zero(N).degree(X) == -1


def test_fiber_swap_and_polarization():
    p = parse_poly("a1*b2 - a2*b1", N)
    assert p.swap_fibers() == -p
    q = parse_poly("x1*a1*a2", N)
    expanded = q.fiber_sum_expand()
    assert expanded == parse_poly(
        "x1*(a1*a2 + a1*b2 + a2*b1 + b1*b2)", N)
    assert q.move_alpha_to_beta() == parse_poly("x1*b1*b2", N)
    with pytest.raises(ValueError):
        parse_poly("b1", N).fiber_sum_expand()


def test_scale_by_fraction():
    p = parse_poly("a1*b2 - a2*b1", N)
    assert p.scale(Fraction(1, 2)) == parse_poly("1/2*a1*b2 - 1/2*a2*b1", N)
    assert Fraction(1, 2) * p == p.scale(Fraction(1, 2))
