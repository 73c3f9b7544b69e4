"""Spectral projectors and the eigenblock decomposition."""

import random
from fractions import Fraction

import pytest

from projquant.casimir import (casimir_eigenvalue, casimir_symbol,
                               highest_weight_vector, shift_free_eigenvalue)
from projquant.densities import Context, SymbolPoly, lie_derivative_symbol
from projquant.isotypic import (decompose, isotypic_project, labels_for_degree,
                                projector_constants)
from projquant.parsing import parse_poly
from projquant.poly import Poly
from projquant.sampling import random_body
from projquant.slbasis import sl_basis

from oracles import ct_body_reference, decompose_reference, project_fiber_reference


def ctx_d(n, delta):
    return Context.from_delta(n, (Fraction(0), Fraction(0)), delta)


CTX = ctx_d(2, Fraction(1, 2))


def sym(expr, ctx=CTX):
    return SymbolPoly(parse_poly(expr, ctx.n), ctx)


def test_projection_examples():
    assert isotypic_project(sym("a1*b1"), (2, 1)).body.is_zero()
    assert isotypic_project(sym("a1*b2"), (2, 1)).body == parse_poly(
        "1/2*a1*b2 - 1/2*a2*b1", 2)
    vec = highest_weight_vector(2, 1, 1, CTX)
    assert isotypic_project(vec, (3, 1)).body == vec.body


def test_projection_requires_homogeneous_input():
    with pytest.raises(ValueError):
        isotypic_project(sym("a1 + a1*b1"), (1, 0))


def test_label_range_errors():
    from projquant.casimir import LabelRangeError
    with pytest.raises(LabelRangeError):
        isotypic_project(sym("a1*b1"), (2, 2))


def test_decompose_examples():
    parts = decompose(sym("a1*b2"))
    assert set(parts) == {(2, 0), (2, 1)}
    assert parts[(2, 0)].body == parse_poly("1/2*a1*b2 + 1/2*a2*b1", 2)
    assert parts[(2, 1)].body == parse_poly("1/2*a1*b2 - 1/2*a2*b1", 2)

    parts = decompose(sym("a1 + b2"))
    assert set(parts) == {(1, 0)}
    assert parts[(1, 0)].body == parse_poly("a1 + b2", 2)

    parts = decompose(sym("a1*a2*b1"))
    assert set(parts) == {(3, 0), (3, 1)}
    total = Poly.zero(2)
    for (i, p), comp in parts.items():
        gamma = casimir_eigenvalue(2, CTX.delta, i, p)
        assert casimir_symbol(comp).body == gamma * comp.body
        total = total + comp.body
    assert total == parse_poly("a1*a2*b1", 2)


@pytest.mark.parametrize("n", [2, 3])
def test_resolution_of_identity_up_to_degree_six(n):
    rng = random.Random(60 + n)
    ctx = ctx_d(n, Fraction(-2, 7))
    for degree in range(7):
        body = Poly(n, {k: v for k, v in
                        random_body(rng, n, degree, 1, terms=8).terms.items()
                        if sum(k[1]) + sum(k[2]) == degree})
        if body.is_zero():
            continue
        total = Poly.zero(n)
        for label in labels_for_degree(ctx, degree):
            piece = isotypic_project(SymbolPoly(body, ctx), label)
            total = total + piece.body
        assert total == body


def test_idempotence_and_mutual_annihilation():
    rng = random.Random(9)
    ctx = ctx_d(2, Fraction(3, 5))
    for degree in (2, 3, 4):
        body = Poly(2, {k: v for k, v in
                        random_body(rng, 2, degree, 1, terms=6).terms.items()
                        if sum(k[1]) + sum(k[2]) == degree})
        if body.is_zero():
            continue
        labels = labels_for_degree(ctx, degree)
        pieces = {lab: isotypic_project(SymbolPoly(body, ctx), lab)
                  for lab in labels}
        for lab in labels:
            again = isotypic_project(pieces[lab], lab)
            assert again.body == pieces[lab].body
            for other in labels:
                if other != lab and not pieces[lab].body.is_zero():
                    crossed = isotypic_project(pieces[lab], other)
                    assert crossed.body.is_zero()


def test_projectors_commute_with_linear_fields():
    ctx = ctx_d(2, Fraction(1, 3))
    body = parse_poly("x1*a1*b2 + x2*a2*b1 - a1*b1", 2)
    pairs = {p.label: p for p in sl_basis(2)}
    fields = [pairs["e_1_2"].element, pairs["e_2_1"].element,
              pairs["e_1_1"].element, pairs["e_1_1"].dual,
              pairs["e_2_2"].element, pairs["e_2_2"].dual]
    for field in fields:
        for label in labels_for_degree(ctx, 2):
            lhs = isotypic_project(
                lie_derivative_symbol(field, SymbolPoly(body, ctx)), label).body
            rhs = lie_derivative_symbol(
                field, isotypic_project(SymbolPoly(body, ctx), label)).body
            assert lhs == rhs


def test_dimension_one_degeneracy():
    ctx = Context.from_delta(1, (Fraction(0), Fraction(0)), Fraction(1, 2))
    body = parse_poly("x1*a1^2*b1 + a1*b1^2", 1)
    parts = decompose(SymbolPoly(body, ctx))
    assert set(parts) == {(3, 0)}
    assert parts[(3, 0)].body == body
    assert labels_for_degree(ctx, 5) == ((5, 0),)


def test_arity_one_labels():
    ctx = Context(2, (Fraction(1, 3),), Fraction(1))
    assert labels_for_degree(ctx, 4) == ((4, 0),)
    body = parse_poly("x1*a1^2*a2", 2)
    parts = decompose(SymbolPoly(body, ctx))
    assert set(parts) == {(3, 0)}


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fiber_monomial_kernels_match_whole_body_references(n, arity):
    """casimir_symbol against the whole-body Casimir, at shifts whose shift
    part has denominator one and at shifts where it has not; the
    decomposition is the same at every shift."""
    rng = random.Random(100 * n + arity)
    weights = (Fraction(1, 3), Fraction(-2, 5))[:arity]
    ctx = Context.from_delta(n, weights, Fraction(1, 2))
    others = [Context.from_delta(n, weights, delta)
              for delta in (Fraction(-7, 3), Fraction(0), Fraction(1),
                            Fraction(5, 12), Fraction(n + 2, n + 1))]
    for _ in range(3):
        body = random_body(rng, n, 6, 2, arity, terms=10)
        sym = SymbolPoly(body, ctx)
        assert casimir_symbol(sym).body == ct_body_reference(body, ctx)
        parts = decompose(sym)
        assert parts == decompose_reference(sym)
        for other in others:
            assert (casimir_symbol(SymbolPoly(body, other)).body
                    == ct_body_reference(body, other))
            shifted = decompose(SymbolPoly(body, other))
            assert {k: v.body for k, v in shifted.items()} == {
                k: v.body for k, v in parts.items()}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projector_constants_are_lagrange_interpolants(n):
    for degree in range(11):
        labels = labels_for_degree(ctx_d(n, 0), degree)
        gamma = tuple(shift_free_eigenvalue(n, *label) for label in labels)
        assert gamma == tuple(casimir_eigenvalue(n, 0, *label)
                              for label in labels)
        D, coefficients = projector_constants(gamma)
        if len(gamma) == 1:
            assert (D, coefficients) == (1, ((1,),))
        assert D > 0
        # the interpolants sum to one
        assert [sum(column) for column in zip(*coefficients)] == (
            [D] + [0] * (len(gamma) - 1))
        # D l_p(gamma_q) = D delta_pq
        for p, row in enumerate(coefficients):
            for q, gamma_q in enumerate(gamma):
                value = sum(c * gamma_q ** k for k, c in enumerate(row))
                assert value == (D if p == q else 0)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101, 103)


def homogeneous_parts(rng, n, arity, degrees, terms):
    """A body with terms of each fiber degree, every coefficient over its own
    prime denominator."""
    dens = iter(PRIMES)
    out = {}
    for degree in degrees:
        for _ in range(terms):
            xa = [0] * n
            for _ in range(rng.randint(0, 2)):
                xa[rng.randrange(n)] += 1
            aa = [0] * n
            ba = [0] * n
            for _ in range(degree):
                target = aa if (arity == 1 or rng.random() < 0.5) else ba
                target[rng.randrange(n)] += 1
            den = next(dens)
            out[(tuple(xa), tuple(aa), tuple(ba))] = Fraction(
                rng.choice((-1, 1)) * rng.randint(1, den - 1 or 1), den)
    return Poly(n, out)


def fiberwise_reference(body, ctx):
    """The decomposition assembled from project_fiber_reference, one term at
    a time."""
    out = {}
    for (xa, aa, ba), c in body.terms.items():
        degree = sum(aa) + sum(ba)
        labels = labels_for_degree(ctx, degree)
        gamma = [int(casimir_eigenvalue(ctx.n, 0, degree, q)) for _, q in labels]
        for label, image in project_fiber_reference(aa, ba, labels, gamma, ctx.n):
            terms = out.setdefault(label, {})
            for a, b, k in image:
                terms[(xa, a, b)] = terms.get((xa, a, b), 0) + c * k
    pieces = {label: SymbolPoly(Poly(ctx.n, terms), ctx)
              for label, terms in out.items()}
    return dict(sorted((label, piece) for label, piece in pieces.items()
                       if not piece.body.is_zero()))


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_krylov_projection_matches_lagrange_references(n, arity):
    rng = random.Random(1000 + 10 * n + arity)
    weights = (Fraction(2, 7), Fraction(-3, 11))[:arity]
    ctx = Context.from_delta(n, weights, Fraction(5, 13))
    # one decompose call: one memo shared by degrees 0..8 (up to 5 labels)
    body = homogeneous_parts(rng, n, arity, range(9), 3)
    assert len(body.fiber_parts()) == 9
    sym = SymbolPoly(body, ctx)
    parts = decompose(sym)
    assert parts == fiberwise_reference(body, ctx)
    assert parts == decompose_reference(sym)
    zero = SymbolPoly(Poly.zero(n), ctx)
    assert decompose(zero) == decompose_reference(zero) == {}
