"""Structure of the projective algebra imbedding."""

import random
from fractions import Fraction

import pytest

from oracles import span_decompose_reference
from projquant.densities import VectorField, bracket
from projquant.parsing import parse_poly
from projquant.poly import X, DimensionMismatchError, Poly
from projquant.slbasis import (basis_fields, bracket_closure_check,
                               euler_field, sl_basis, span_decompose)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pair_count(n):
    assert len(sl_basis(n)) == n * n + 2 * n == (n + 1) ** 2 - 1


def test_n1_pairs_match_stated_forms():
    pairs = {p.label: p for p in sl_basis(1)}
    assert set(pairs) == {"e_1_1", "e_1", "eps_1"}
    e11 = pairs["e_1_1"]
    assert e11.element.components[0] == parse_poly("-2*x1", 1)
    assert e11.dual.components[0] == parse_poly("-x1", 1)
    e1 = pairs["e_1"]
    assert e1.element.components[0] == parse_poly("-1", 1)
    assert e1.dual.components[0] == parse_poly("x1^2", 1)
    eps1 = pairs["eps_1"]
    assert eps1.element.components[0] == parse_poly("x1^2", 1)
    assert eps1.dual.components[0] == parse_poly("-1", 1)


def test_offdiagonal_duality_convention():
    pairs = {p.label: p for p in sl_basis(2)}
    e12 = pairs["e_1_2"]
    assert e12.element.components[0] == parse_poly("-x2", 2)
    assert e12.element.components[1].is_zero()
    assert e12.dual.components[1] == parse_poly("-x1", 2)
    assert e12.dual.components[0].is_zero()


def test_grading_by_x_degree():
    for n in (1, 2, 3):
        for label, f in basis_fields(n):
            if label.startswith("eps"):
                assert f.x_degree() == 2
            elif label.startswith("e_") and label.count("_") == 2:
                assert f.x_degree() == 1
            else:
                assert f.x_degree() == 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_bracket_closure(n):
    ok, witness = bracket_closure_check(n)
    assert ok, f"bracket left the span at {witness}"


def test_span_witness_for_constant_quadratic_bracket():
    n = 2
    fields = dict(basis_fields(n))
    result = span_decompose(bracket(fields["e_1"], fields["eps_1"]), n)
    assert result == {"e_1_1": Fraction(1)}


def test_non_member_is_detected():
    n = 2
    cubic = parse_poly("x1^3", n)
    bad = VectorField((cubic, Poly.zero(n)))
    assert span_decompose_reference(bad, n) is None
    assert span_decompose(bad, n) is None


def _field(n: int, *slots: str) -> VectorField:
    return VectorField(tuple(parse_poly(text, n) for text in slots))


def _scaled(c: Fraction, coeffs: dict) -> dict:
    return {label: c * v for label, v in coeffs.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_read_off_matches_elimination_on_every_bracket(n):
    """One elimination per unordered pair: the reference is linear, so the
    swapped bracket [b, a] = -[a, b] must decompose to the negated result."""
    fields = basis_fields(n)
    for k, (_, a) in enumerate(fields):
        for _, b in fields[k:]:
            field = bracket(a, b)
            expected = span_decompose_reference(field, n)
            assert expected is not None
            assert span_decompose(field, n) == expected
            assert span_decompose(bracket(b, a), n) == _scaled(Fraction(-1), expected)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_read_off_matches_elimination_on_random_combinations(n):
    rng = random.Random(700 + n)
    pairs = sl_basis(n)
    for _ in range(12):
        coeffs = {}
        for pair in rng.sample(pairs, rng.randint(1, len(pairs))):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            if c:
                coeffs[pair.label] = c
        elements = {pair.label: pair.element for pair in pairs}
        field = VectorField(tuple(
            sum((c * elements[label].components[slot]
                 for label, c in coeffs.items()), Poly.zero(n))
            for slot in range(n)))
        result = span_decompose(field, n)
        assert result == span_decompose_reference(field, n) == coeffs
        assert list(result) == [p.label for p in pairs if p.label in coeffs]


@pytest.mark.parametrize("n, slots", [
    (3, ("0", "0", "x1*x2")),
    # a linear field plus the slot-1 coordinate of eps_2, which no read-off
    # looks at; only the residual check rejects it
    (2, ("x1 + x1*x2", "x2")),
    (3, ("x1 + x1*x2", "x2", "0")),
    # eps_2 missing its slot-3 part
    (3, ("x1*x2", "x2^2", "0")),
    # x_i^3 in slot i
    (1, ("x1^3",)),
    (2, ("0", "x2^3")),
    (3, ("x1", "0", "x3^3 - x3^2")),
    # x_i * x_j in slot i without the rest of eps_j
    (2, ("x1*x2", "0")),
    (3, ("0", "x2*x3 + x2^2", "0")),
    # a member at n = 1 plus a cubic
    (1, ("1 + x1^2 + x1^3",)),
])
def test_non_members_are_rejected_by_both(n, slots):
    field = _field(n, *slots)
    assert span_decompose_reference(field, n) is None
    assert span_decompose(field, n) is None


@pytest.mark.parametrize("n, slots, expected", [
    # at n = 1 every field of degree <= 2 is a member: 1 + x1^2 = -e_1 + eps_1
    (1, ("1 + x1^2",), {"e_1": Fraction(-1), "eps_1": Fraction(1)}),
    (1, ("x1^2 - 4*x1",), {"e_1_1": Fraction(2), "eps_1": Fraction(1)}),
    (2, ("x1^2 + 3", "x1*x2"), {"e_1": Fraction(-3), "eps_1": Fraction(1)}),
    (3, ("x1*x3", "x2*x3 - x1", "x3^2"),
     {"e_2_1": Fraction(1), "eps_3": Fraction(1)}),
])
def test_members_read_off_every_coordinate(n, slots, expected):
    field = _field(n, *slots)
    assert span_decompose(field, n) == span_decompose_reference(field, n) == expected


def test_linear_fields_decompose_through_the_diagonal_block():
    """x1 d1 + x2 d2 at n = 3 needs every diagonal field: the read-off solves
    -(I + J) c = y with y = (1, 1, 0)."""
    field = _field(3, "x1", "x2", "0")
    expected = {"e_1_1": Fraction(-1, 2), "e_2_2": Fraction(-1, 2),
                "e_3_3": Fraction(1, 2)}
    assert span_decompose(field, 3) == span_decompose_reference(field, 3) == expected


def test_dimension_mismatch_is_rejected():
    eps_1_of_three = dict(basis_fields(3))["eps_1"]
    with pytest.raises(DimensionMismatchError):
        span_decompose(eps_1_of_three, 2)
    eps_1_of_two = dict(basis_fields(2))["eps_1"]
    with pytest.raises(DimensionMismatchError):
        span_decompose(eps_1_of_two, 3)


def test_basis_is_built_once_per_n():
    assert sl_basis(3) is sl_basis(3)
    assert sl_basis(2) is not sl_basis(3)
    with pytest.raises(DimensionMismatchError):
        span_decompose(dict(basis_fields(3))["e_1_2"], 2)
    with pytest.raises(ValueError):
        sl_basis(0)


def test_euler_field_components():
    e = euler_field(3)
    assert [c for c in e.components] == [Poly.variable(3, X, i) for i in (1, 2, 3)]
