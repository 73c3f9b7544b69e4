"""Spectral projectors and the eigenblock decomposition."""

import random
from fractions import Fraction

import pytest

from projquant.casimir import (_combine, casimir_eigenvalue, casimir_symbol,
                               highest_weight_vector, labels_for_degree,
                               projections, projector_constants, resolvent,
                               shift_free_eigenvalue)
from projquant.densities import (BidiffOp, Context, SymbolPoly, _numerators,
                                 _poly, lie_derivative_symbol)
from projquant.isotypic import decompose, isotypic_project
from projquant.parsing import parse_poly
from projquant.poly import Poly, multi_indices
from projquant.quantization import quantize, symbol_map
from projquant.sampling import random_body
from projquant.slbasis import sl_basis

from oracles import (ct_body_reference, decompose_reference,
                     project_fiber_reference, quantize_reference,
                     symbol_map_reference)


def ctx_d(n, delta):
    return Context.from_delta(n, (Fraction(0), Fraction(0)), delta)


CTX = ctx_d(2, Fraction(1, 2))


def sym(expr, ctx=CTX):
    return SymbolPoly(parse_poly(expr, ctx.n), ctx)


def project(body, labels, memo):
    """`projections` of a Poly, with the pieces back as Polys."""
    return {label: _poly(body.n, *piece) for label, piece in
            projections(_numerators(body.terms), body.n, labels, memo).items()}


def resolve(body, labels, s, memo):
    """`resolvent` of a Poly, with the solved part back as a Poly."""
    solved, blocked = resolvent(_numerators(body.terms), body.n, labels, s, memo)
    return _poly(body.n, *solved), blocked


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


def assert_matches_lagrange_references(body, labels, pieces, memo):
    """`projections` gives pieces, the nonzero pieces of decompose_reference
    in label order; `resolvent` at a generic s gives the sum of
    piece_q / (s - gamma_q), and at s = gamma_r the sum over q != r with
    exactly piece r blocked, if it is nonzero."""
    n = body.n

    def divided(s, skip=None):
        return sum((piece.scale(1 / (s - shift_free_eigenvalue(n, *label)))
                    for label, piece in pieces.items() if label != skip),
                   Poly.zero(n))

    got = project(body, labels, memo)
    assert got == pieces
    assert list(got) == [label for label in labels if label in pieces]
    generic = Fraction(-1, 3)
    assert resolve(body, labels, generic, memo) == (divided(generic), {})
    for label in labels:
        s = Fraction(shift_free_eigenvalue(n, *label))
        blocked = {label: pieces[label]} if label in pieces else {}
        assert resolve(body, labels, s, memo) == (divided(s, skip=label),
                                                  blocked)


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_projections_and_resolvent_match_lagrange_references(n, arity):
    """At degrees 0..7 (1 to 4 labels): `projections` gives the pieces of
    decompose_reference, keyed by label in label order with no zero piece;
    `resolvent` at a generic s gives the sum of piece_q / (s - gamma_q), and
    at s = gamma_r the sum over q != r with exactly piece r blocked, if it
    is nonzero; a memo shared by every call gives what a fresh one gives."""
    rng = random.Random(2000 + 10 * n + arity)
    weights = (Fraction(2, 7), Fraction(-3, 11))[:arity]
    ctx = Context.from_delta(n, weights, Fraction(5, 13))
    shared: dict = {}
    for degree in range(8):
        body = homogeneous_parts(rng, n, arity, [degree], 4)
        labels = labels_for_degree(ctx, degree)
        reference = decompose_reference(SymbolPoly(body, ctx))
        pieces = {label: reference[label].body for label in labels
                  if label in reference}
        for memo in ({}, shared):
            assert_matches_lagrange_references(body, labels, pieces, memo)
    assert max(len(labels_for_degree(ctx, d)) for d in range(8)) == (
        4 if n > 1 and arity == 2 else 1)


def weight_space(weight):
    """Every fiber monomial a^u b^v with u + v = weight."""
    spaces = [[(k, w - k) for k in range(w + 1)] for w in weight]
    fibers = [((), ())]
    for space in spaces:
        fibers = [(u + (k,), v + (l,)) for u, v in fibers for k, l in space]
    return fibers


def grouped_body(rng, n, carriers):
    """sum over (x monomial, fibers) of carriers of x^s times each fiber,
    with nonzero rational coefficients."""
    terms = {}
    for xa, fibers in carriers:
        for u, v in fibers:
            sign = rng.choice((-1, 1))
            terms[(xa, u, v)] = Fraction(sign * rng.randint(1, 9),
                                         rng.randint(1, 7))
    return Poly(n, terms)


@pytest.mark.parametrize("n", [2, 3])
def test_x_and_fiber_heavy_bodies_match_lagrange_and_solve_references(n):
    """The kernel takes one Krylov sequence per x monomial.  One x monomial
    over a whole weight space, ten x monomials over one fiber, and two x
    monomials over a weight space plus one more on one of its monomials:
    each body's pieces, resolvents, quantization and symbol match the
    references."""
    rng = random.Random(500 + n)
    ctx = Context.from_delta(n, (Fraction(2, 7), Fraction(-3, 11)),
                             Fraction(5, 13))
    space = weight_space((3, 3) if n == 2 else (2, 1, 1))
    x1, x2 = ((1,) + (0,) * (n - 1), (0, 1) + (0,) * (n - 2))
    x12 = tuple(a + b for a, b in zip(x1, x2))
    cases = (
        [(x12, space)],
        [(xa, space[:1]) for d in range(4) for xa in multi_indices(n, d)][:10],
        [(x1, space), (x2, space), (x12, space[-1:])],
    )
    for carriers in cases:
        body = grouped_body(rng, n, carriers)
        degree = body.fiber_degree()
        labels = labels_for_degree(ctx, degree)
        assert len(labels) > 2
        reference = decompose_reference(SymbolPoly(body, ctx))
        pieces = {label: piece.body for label, piece in reference.items()}
        assert_matches_lagrange_references(body, labels, pieces, {})
        operator, free_slots = quantize_reference(SymbolPoly(body, ctx))
        result = quantize(SymbolPoly(body, ctx))
        assert (result.operator.body, result.free_slots) == (operator,
                                                             free_slots)
        op = BidiffOp(body, ctx)
        symbol, free_slots = symbol_map_reference(op)
        result = symbol_map(op)
        assert (result.symbol.body, result.free_slots) == (symbol, free_slots)


def test_resolvent_at_a_label_whose_piece_is_zero_blocks_nothing():
    """a1^4 at n = 2 lies wholly in (4, 0): at s = gamma0(4, 1) the resonant
    label has a zero piece, so nothing is blocked and the solved part is
    a1^4 / (s - gamma0(4, 0))."""
    ctx = ctx_d(2, 0)
    body = parse_poly("a1^4", 2)
    labels = labels_for_degree(ctx, 4)
    assert project(body, labels, {}) == {(4, 0): body}
    s = Fraction(shift_free_eigenvalue(2, 4, 1))
    gap = s - shift_free_eigenvalue(2, 4, 0)
    assert resolve(body, labels, s, {}) == (body.scale(1 / gap), {})


@pytest.mark.parametrize("n", [2, 3])
def test_memo_filled_by_a_shorter_row_gives_fresh_pieces(n):
    """A memo first filled through a length-2 row must still give the pieces
    of a fresh memo at a degree with three labels."""
    ctx = Context.from_delta(n, (Fraction(1, 3), Fraction(1, 5)), Fraction(1, 7))
    body = parse_poly("x1*a1^2*b2^2 + a1*a2*b1*b2", n)
    labels = labels_for_degree(ctx, 4)
    assert len(labels) == 3
    memo: dict = {}
    (image,) = _combine(_numerators(body.terms), [((1, 1), 1)], memo)
    # at shift 0 casimir_symbol is C0 itself
    assert _poly(n, *image) == body + casimir_symbol(SymbolPoly(body, ctx_d(n, 0))).body
    shared = project(body, labels, memo)
    assert shared == project(body, labels, {})
    reference = decompose_reference(SymbolPoly(body, ctx))
    assert {label: SymbolPoly(piece, ctx) for label, piece in shared.items()} == reference
    assert len(reference) == 3
