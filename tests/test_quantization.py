"""The equivariant prolongation engine and its companions."""

import gc
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from projquant import casimir, quantization
from projquant.casimir import casimir_direct, casimir_eigenvalue, highest_weight_vector
from projquant.densities import (ArityError, BidiffOp, Context, Density,
                                 SymbolPoly, apply_operator,
                                 lie_derivative_operator,
                                 lie_derivative_symbol)
from projquant.isotypic import decompose
from projquant.parsing import parse_poly
from projquant.poly import Poly
from projquant.quantization import (CriticalShiftError, ObstructionError,
                                    linear_quantize_order2,
                                    order2_critical_family, quantize,
                                    quantize_order2_closed, symbol_map, t1,
                                    t2, tau_maps)
from projquant.resonance import classify_shift, label_pairs, resonant_delta
from projquant.sampling import (generic_context, random_body, random_density,
                                random_operator, random_symbol,
                                random_vector_field, random_x_poly)
from projquant.slbasis import basis_fields

from oracles import quantize_reference, symbol_map_reference

N = 2


def sym(expr, ctx):
    return SymbolPoly(parse_poly(expr, ctx.n), ctx)


def test_order_zero_is_multiplication():
    ctx = generic_context(random.Random(0), N, 2)
    c = parse_poly("x1^2*x2 - 5", N)
    result = quantize(SymbolPoly(c, ctx))
    assert result.operator.body == c
    assert result.unique


def test_degree_one_closed_form():
    # lam1 = 1/3, lam2 = 0, shift 1/2: ratio lam1/(1 - shift) = 2/3
    ctx = Context.from_delta(N, (Fraction(1, 3), Fraction(0)), Fraction(1, 2))
    result = quantize(sym("x1*x2*a1", ctx))
    assert result.operator.body == parse_poly("x1*x2*a1 + 2/3*x2", N)
    assert result.unique


def test_degree_two_closed_form_coefficients():
    # ((n+1) lam1 + 1)/((n+1)(1-d) + 2) = 4/7 and the double ratio 8/35
    ctx = Context.from_delta(N, (Fraction(1, 3), Fraction(0)), Fraction(1, 2))
    result = quantize(sym("x1*x2*a1*a2", ctx))
    expected = (parse_poly("x1*x2*a1*a2", N)
                + Fraction(4, 7) * parse_poly("x2*a2 + x1*a1", N)
                + Fraction(8, 35) * Poly.constant(N, 1))
    assert result.operator.body == expected


def test_antisymmetric_closed_form():
    ctx = Context.from_delta(N, (Fraction(1, 3), Fraction(1, 6)), Fraction(1, 2))
    result = quantize(sym("x1*x2*(a1*b2 - a2*b1)", ctx))
    expected = (parse_poly("x1*x2*(a1*b2 - a2*b1)", N)
                + Fraction(2, 3) * parse_poly("x2*b2 - x1*b1", N)
                + Fraction(1, 3) * parse_poly("x1*a1 - x2*a2", N))
    assert result.operator.body == expected


def test_mixed_symmetric_closed_form():
    ctx = Context.from_delta(N, (Fraction(1, 3), Fraction(1, 6)), Fraction(1, 2))
    result = quantize(sym("x1*x2*(a1*b2 + a2*b1)", ctx))
    expected = (parse_poly("x1*x2*(a1*b2 + a2*b1)", N)
                + Fraction(2, 7) * parse_poly("x2*b2 + x1*b1", N)
                + Fraction(1, 7) * parse_poly("x1*a1 + x2*a2", N)
                + Fraction(4, 35) * Poly.constant(N, 1))
    assert result.operator.body == expected


def test_quantize_agrees_with_closed_form_on_spanning_set():
    rng = random.Random(101)
    coefficients = ["1", "x1", "x1*x2"]
    shapes = ["a1*a1", "a1*a2", "b1*b2", "a1*b1", "a1*b2", "a2*b1",
              "a1", "b2", "1"]
    for n in (2, 3):
        for _ in range(4):
            ctx = generic_context(rng, n, 3)
            for c in coefficients:
                for shape in shapes:
                    P = sym(f"({c})*({shape})", ctx)
                    assert quantize(P).operator.body == \
                        quantize_order2_closed(P).body


def test_closed_form_rejects_critical_shifts():
    for delta, name in ((Fraction(1), "1 - delta"),
                        (Fraction(N + 2, N + 1), "(n+1)(1-delta) + 1"),
                        (Fraction(N + 3, N + 1), "(n+1)(1-delta) + 2")):
        ctx = Context.from_delta(N, (Fraction(0), Fraction(0)), delta)
        with pytest.raises(CriticalShiftError) as err:
            quantize_order2_closed(sym("x1*a1*a1", ctx))
        assert err.value.denominator == name


def test_closed_form_degree_cap():
    ctx = generic_context(random.Random(5), N, 4)
    with pytest.raises(ValueError):
        quantize_order2_closed(sym("a1^3", ctx))


def test_obstruction_at_top_second_order_shift():
    delta = Fraction(N + 3, N + 1)
    for lam1 in (Fraction(0), Fraction(1, 2), Fraction(-1, 4)):
        ctx = Context.from_delta(N, (lam1, Fraction(0)), delta)
        with pytest.raises(ObstructionError) as err:
            quantize(sym("x1*a1*a1", ctx))
        assert tuple(err.value.source) == (2, 0)
        assert tuple(err.value.blocked) == (1, 0)
        assert not err.value.obstruction.body.is_zero()
    # the weight condition from the triangular system
    ctx = Context.from_delta(N, (Fraction(-1, N + 1), Fraction(0)), delta)
    result = quantize(sym("x1*a1*a1", ctx))
    assert result.free_slots == {(1, 0)}
    assert not result.unique


def test_obstruction_component_recovers_weight_condition():
    """The reported component is linear in the weight with the predicted
    root, so the solvability condition can be read off the error."""
    delta = Fraction(N + 3, N + 1)
    values = {}
    for lam1 in (Fraction(0), Fraction(1), Fraction(2)):
        ctx = Context.from_delta(N, (lam1, Fraction(0)), delta)
        with pytest.raises(ObstructionError) as err:
            quantize(sym("x1*a1*a1", ctx))
        coeff = err.value.obstruction.body.terms[
            ((0, 0), (1, 0), (0, 0))]
        values[lam1] = coeff
    # linear in lam1: second difference vanishes, root at -1/(n+1)
    d1 = values[Fraction(1)] - values[Fraction(0)]
    d2 = values[Fraction(2)] - values[Fraction(1)]
    assert d1 == d2
    root = -values[Fraction(0)] / d1
    assert root == Fraction(-1, N + 1)


def test_no_single_weight_solves_all_generators_at_top_shift():
    """At shift (n+3)/(n+1) the three second-order generator shapes are never
    simultaneously solvable: the pure blocks force weight -1/(n+1) while the
    mixed block forces weight zero on both arguments.  (The mixed generator
    alone does succeed at (0, 0); the prolongation it produces is an exact
    eigenvector of the direct Casimir, checked below.)"""
    for n in (2, 3):
        delta = Fraction(n + 3, n + 1)
        special = Fraction(-1, n + 1)
        generators = ["x1*a1*a1", "x1*b1*b1", "x1*(a1*b2 + a2*b1)"]
        for lam1 in (Fraction(0), special, Fraction(1, 2)):
            for lam2 in (Fraction(0), special, Fraction(1, 2)):
                ctx = Context.from_delta(n, (lam1, lam2), delta)
                outcomes = []
                for g in generators:
                    try:
                        quantize(sym(g, ctx))
                        outcomes.append(True)
                    except ObstructionError:
                        outcomes.append(False)
                assert not all(outcomes), (lam1, lam2)
        # the mixed block needs both weights to vanish, and then it works
        ctx = Context.from_delta(n, (Fraction(0), Fraction(0)), delta)
        result = quantize(sym("x1*(a1*b2 + a2*b1)", ctx))
        assert result.free_slots == {(1, 0)}
        gamma = casimir_eigenvalue(n, delta, 2, 0)
        assert casimir_direct(result.operator).body == gamma * result.operator.body
        for lam in ((Fraction(0), special), (special, Fraction(0)),
                    (special, special)):
            ctx = Context.from_delta(n, lam, delta)
            with pytest.raises(ObstructionError):
                quantize(sym("x1*(a1*b2 + a2*b1)", ctx))


def test_eigenvector_prolongation():
    rng = random.Random(55)
    ctx = generic_context(rng, N, 4)
    for k, l, q in [(1, 1, 1), (2, 1, 0), (2, 1, 1), (1, 0, 0)]:
        c = random_x_poly(rng, N, 1)
        P = SymbolPoly(c * highest_weight_vector(k, l, q, ctx).body, ctx)
        if P.body.is_zero():
            continue
        op = quantize(P).operator
        gamma = casimir_eigenvalue(N, ctx.delta, k + l, q)
        assert casimir_direct(op).body == gamma * op.body


def test_principal_symbol_is_preserved():
    rng = random.Random(14)
    ctx = generic_context(rng, N, 4)
    P = random_symbol(rng, ctx, 3, 2)
    top = P.body.fiber_parts()[P.body.fiber_degree()]
    result = quantize(P)
    out_top = result.operator.body.fiber_parts()[
        result.operator.body.fiber_degree()]
    assert out_top == top


def test_round_trips_generic():
    rng = random.Random(2024)
    for _ in range(10):
        ctx = generic_context(rng, N, 4)
        P = random_symbol(rng, ctx, 3, 2)
        q = quantize(P)
        assert q.unique
        back = symbol_map(q.operator)
        assert back.unique
        assert back.symbol.body == P.body
        T = random_operator(rng, ctx, 3, 2)
        s = symbol_map(T)
        assert quantize(s.symbol).operator.body == T.body


def test_symbol_map_examples():
    ctx = Context.from_delta(N, (Fraction(1, 3), Fraction(0)), Fraction(1, 2))
    c = parse_poly("x2^2", N)
    assert symbol_map(BidiffOp(c, ctx)).symbol.body == c
    op_body = parse_poly("x1*x2*a1 + 2/3*x2", N)
    assert symbol_map(BidiffOp(op_body, ctx)).symbol.body == parse_poly(
        "x1*x2*a1", N)


def test_symbol_map_propagates_obstruction():
    delta = Fraction(N + 3, N + 1)
    ctx = Context.from_delta(N, (Fraction(0), Fraction(0)), delta)
    with pytest.raises(ObstructionError):
        symbol_map(BidiffOp(parse_poly("x1*a1*a1", N), ctx))


@pytest.mark.parametrize("n", [2, 3])
def test_equivariance_over_basis_fields(n):
    rng = random.Random(404)
    for _ in range(2 if n == 2 else 1):
        ctx = generic_context(rng, n, 4)
        T = random_operator(rng, ctx, 3, 2)
        sT = symbol_map(T).symbol
        for label, field in basis_fields(n):
            lhs = symbol_map(lie_derivative_operator(field, T)).symbol.body
            rhs = lie_derivative_symbol(field, sT).body
            assert lhs == rhs, f"equivariance fails along {label}"


def test_quantize_is_linear():
    rng = random.Random(406)
    ctx = generic_context(rng, N, 4)
    a = random_symbol(rng, ctx, 3, 2)
    b = random_symbol(rng, ctx, 3, 2)
    combined = SymbolPoly(a.body + Fraction(2, 3) * b.body, ctx)
    assert quantize(combined).operator.body == (
        quantize(a).operator.body + Fraction(2, 3) * quantize(b).operator.body)


def test_resonant_not_critical_shift_zero():
    """Shift zero resonates at (7,3;6,0) but never critically; prolongation
    succeeds, stays equivariant, and respects the reach constraint."""
    ctx = Context.from_delta(N, (Fraction(0), Fraction(0)), Fraction(0))
    rng = random.Random(70)
    body = Poly(N, {k: v for k, v in
                    random_symbol(rng, ctx, 7, 1, terms=10).body.terms.items()})
    P = SymbolPoly(body, ctx)
    result = quantize(P)  # must not raise
    for label, field in basis_fields(N):
        lhs = quantize(lie_derivative_symbol(field, P)).operator.body
        rhs = lie_derivative_operator(field, result.operator).body
        assert lhs == rhs, f"shift-zero equivariance fails along {label}"


def test_prolongation_support_condition():
    """Each level of the prolongation of an (i, p) component only holds
    labels (j, q) with 0 <= p - q <= i - j."""
    rng = random.Random(71)
    ctx = Context.from_delta(N, (Fraction(0), Fraction(0)), Fraction(0))
    for k, l, q in [(2, 2, 2), (3, 2, 2), (2, 1, 1), (3, 3, 3)]:
        c = random_x_poly(rng, N, 1)
        P = SymbolPoly(c * highest_weight_vector(k, l, q, ctx).body, ctx)
        if P.body.is_zero():
            continue
        i = k + l
        op = quantize(P).operator
        for (j, qq), _comp in decompose(SymbolPoly(op.body, op.context)).items():
            assert 0 <= q - qq <= i - j


# ----------------------------------------------------------------------
# the linear case


def test_linear_quantization_degree_one():
    lam, mu = Fraction(1, 3), Fraction(1, 3) + Fraction(1, 2)
    ctx1 = Context(N, (lam,), mu)
    P = SymbolPoly(parse_poly("x1*x2*a1", N), ctx1)
    out = linear_quantize_order2(P, lam, mu)
    # lam/(1 - shift) = (1/3)/(1/2) = 2/3
    assert out.body == parse_poly("x1*x2*a1 + 2/3*x2", N)


def test_linear_quantization_excluded_shifts():
    lam = Fraction(0)
    for delta, name in ((Fraction(1), "1 - delta"),
                        (Fraction(N + 2, N + 1), "(n+1)(1-delta) + 1"),
                        (Fraction(N + 3, N + 1), "(n+1)(1-delta) + 2")):
        ctx1 = Context(N, (lam,), delta)
        P = SymbolPoly(parse_poly("a1*a1", N), ctx1)
        with pytest.raises(CriticalShiftError) as err:
            linear_quantize_order2(P, lam, delta)
        assert err.value.denominator == name


def test_linear_quantization_checks_the_degree_before_the_shift():
    """x1*a1^3 at shift 1: the degree is out of range, as in the closed form,
    even though 1 - delta vanishes too."""
    P = SymbolPoly(parse_poly("x1*a1^3", N), Context(N, (Fraction(0),), Fraction(1)))
    with pytest.raises(ValueError, match="degree must be <= 2"):
        linear_quantize_order2(P, 0, 1)


def test_linear_quantization_matches_binary_pure_block():
    """The arity-one prolongation of c xi_i xi_j at weights (lam1, mu - lam2)
    has the same coefficients as the binary prolongation of c a_i a_j."""
    rng = random.Random(88)
    for _ in range(5):
        ctx = generic_context(rng, N, 3)
        lam1, lam2 = ctx.weights
        c = random_x_poly(rng, N, 2)
        body = c * parse_poly("a1*a2", N)
        binary = quantize(SymbolPoly(body, ctx)).operator.body
        ctx1 = Context(N, (lam1,), ctx.mu - lam2)
        unary = linear_quantize_order2(SymbolPoly(body, ctx1), lam1,
                                       ctx.mu - lam2).body
        assert binary == unary


def test_tau_maps_polarization():
    ctx1 = Context(N, (Fraction(1, 4),), Fraction(1))
    P = SymbolPoly(parse_poly("x2*a1^2", N), ctx1)
    on_first, on_second, mixed = tau_maps(P)
    assert on_first.body == parse_poly("x2*a1^2", N)
    assert on_second.body == parse_poly("x2*b1^2", N)
    assert mixed.body == parse_poly("2*x2*a1*b1", N)

    P = SymbolPoly(parse_poly("a1*a2", N), ctx1)
    _, second, mixed = tau_maps(P)
    assert second.body == parse_poly("b1*b2", N)
    assert mixed.body == parse_poly("a1*b2 + a2*b1", N)
    assert mixed.body == mixed.body.swap_fibers()

    with pytest.raises(ValueError):
        tau_maps(SymbolPoly(parse_poly("a1", N), ctx1))


def _apply_unary(op: BidiffOp, f: Density) -> Poly:
    return apply_operator(op, f).value


def test_composition_identity_pure_block():
    """Binary prolongation of c a_i a_j applied to (f, g) equals the unary
    prolongation at weights (lam1, mu - lam2) applied to f, times g."""
    rng = random.Random(90)
    for _ in range(5):
        ctx = generic_context(rng, N, 3)
        lam1, lam2 = ctx.weights
        c = random_x_poly(rng, N, 2)
        P1 = SymbolPoly(c * parse_poly("a1*a2", N),
                        Context(N, (lam1,), ctx.mu - lam2))
        alpha_block, _, _ = tau_maps(P1, ctx)
        f = random_density(rng, N, 3, lam1)
        g = random_density(rng, N, 3, lam2)
        lhs = apply_operator(quantize(alpha_block).operator, f, g).value
        unary_op = linear_quantize_order2(P1, lam1, ctx.mu - lam2)
        rhs = _apply_unary(unary_op, f) * g.value
        assert lhs == rhs


def test_composition_identity_mixed_block():
    """The mixed symmetric prolongation applied to (f, g) equals the unary
    prolongation at weights (lam1 + lam2, mu) of the product fg, minus the
    two pure-block compositions."""
    rng = random.Random(91)
    for _ in range(5):
        ctx = generic_context(rng, N, 3)
        lam1, lam2 = ctx.weights
        c = random_x_poly(rng, N, 2)
        base = c * parse_poly("a1*a2", N)
        P_sum = SymbolPoly(base, Context(N, (lam1 + lam2,), ctx.mu))
        P_first = SymbolPoly(base, Context(N, (lam1,), ctx.mu - lam2))
        P_second = SymbolPoly(base, Context(N, (lam2,), ctx.mu - lam1))
        _, _, mixed = tau_maps(P_first, ctx)
        f = random_density(rng, N, 3, lam1)
        g = random_density(rng, N, 3, lam2)
        lhs = apply_operator(quantize(mixed).operator, f, g).value
        fg = Density(f.value * g.value, lam1 + lam2)
        rhs = _apply_unary(linear_quantize_order2(P_sum, lam1 + lam2, ctx.mu), fg)
        rhs = rhs - _apply_unary(
            linear_quantize_order2(P_first, lam1, ctx.mu - lam2), f) * g.value
        rhs = rhs - f.value * _apply_unary(
            linear_quantize_order2(P_second, lam2, ctx.mu - lam1), g)
        assert lhs == rhs


# ----------------------------------------------------------------------
# shift one


SHIFT1 = Context.from_delta(N, (Fraction(0), Fraction(0)), Fraction(1))


def test_shift_one_quantization_succeeds_with_free_slots():
    rng = random.Random(92)
    P = random_symbol(rng, SHIFT1, 6, 1, terms=10)
    result = quantize(P)
    assert symbol_map(result.operator).symbol.body == P.body


def test_t1_t2_values():
    c = parse_poly("x1^2*x2", N)
    P = SymbolPoly(c * parse_poly("a1*b2 - a2*b1", N), SHIFT1)
    out = t1(P)
    assert out.body == (c.diff("x", 1) * parse_poly("b2", N)
                        - c.diff("x", 2) * parse_poly("b1", N))
    P2 = SymbolPoly(c * parse_poly("a1", N), SHIFT1)
    assert t2(P2).body == c.diff("x", 1)
    constant = SymbolPoly(parse_poly("a1*b2 - a2*b1", N), SHIFT1)
    assert t1(constant).body.is_zero()
    assert t2(SymbolPoly(parse_poly("a2", N), SHIFT1)).body.is_zero()


def test_t1_t2_shape_checks():
    with pytest.raises(ValueError):
        t1(SymbolPoly(parse_poly("a1*b1", N), SHIFT1))
    with pytest.raises(ValueError):
        t2(SymbolPoly(parse_poly("b1", N), SHIFT1))
    generic = Context.from_delta(N, (Fraction(0), Fraction(0)), Fraction(1, 2))
    with pytest.raises(ValueError):
        t2(SymbolPoly(parse_poly("a1", N), generic))


def test_t1_t2_equivariant_under_all_polynomial_fields():
    rng = random.Random(93)
    c = random_x_poly(rng, N, 3)
    P1 = SymbolPoly(c * parse_poly("a1*b2 - a2*b1", N), SHIFT1)
    P2 = SymbolPoly(random_x_poly(rng, N, 3) * parse_poly("a1", N)
                    + random_x_poly(rng, N, 2) * parse_poly("a2", N), SHIFT1)
    fields = [f for _, f in basis_fields(N)]
    fields += [random_vector_field(rng, N, 3) for _ in range(10)]
    for field in fields:
        assert t1(lie_derivative_symbol(field, P1)).body == \
            lie_derivative_operator(field, t1(P1)).body
        assert t2(lie_derivative_symbol(field, P2)).body == \
            lie_derivative_operator(field, t2(P2)).body


# ----------------------------------------------------------------------
# the family at shift (n+2)/(n+1)


MIDDLE = Fraction(N + 2, N + 1)


def test_grid_of_solvable_weights_at_middle_shift():
    generators = ["x1*x2*a1*a2", "x1*x2*b1*b2", "x1*x2*(a1*b2 + a2*b1)"]
    good = {(Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(-1, N + 1)),
            (Fraction(-1, N + 1), Fraction(0))}
    values = [Fraction(0), Fraction(-1, N + 1), Fraction(1, 3),
              Fraction(1, 2), Fraction(-1, 2)]
    for lam1 in values:
        for lam2 in values:
            ctx = Context.from_delta(N, (lam1, lam2), MIDDLE)
            solvable = True
            slots = set()
            for g in generators:
                try:
                    slots |= quantize(sym(g, ctx)).free_slots
                except ObstructionError:
                    solvable = False
                    break
            assert solvable == ((lam1, lam2) in good)
            if solvable:
                assert slots == {(0, 0)}


def test_family_matches_engine_at_k_zero():
    for lam in ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(-1, N + 1)),
                (Fraction(-1, N + 1), Fraction(0))):
        ctx = Context.from_delta(N, lam, MIDDLE)
        for g in ("x1*x2*a1*a2", "x1*x2*(a1*b2 + a2*b1)", "x1*x2*b1*b2"):
            P = sym(g, ctx)
            assert quantize(P).operator.body == order2_critical_family(P, 0).body


@pytest.mark.parametrize("k", [Fraction(0), Fraction(1), Fraction(-2, 5)])
def test_family_is_equivariant_for_sampled_parameters(k):
    ctx = Context.from_delta(N, (Fraction(0), Fraction(0)), MIDDLE)
    for g in ("x1*x2*a1*a2", "x1*x2*b1*b2", "x1*x2*(a1*b2 + a2*b1)"):
        P = sym(g, ctx)
        for label, field in basis_fields(N):
            lhs = order2_critical_family(lie_derivative_symbol(field, P), k).body
            rhs = lie_derivative_operator(field, order2_critical_family(P, k)).body
            assert lhs == rhs, f"family not equivariant along {label} at k={k}"


def test_family_requires_middle_shift_and_symmetric_input():
    generic = Context.from_delta(N, (Fraction(0), Fraction(0)), Fraction(1, 2))
    with pytest.raises(ValueError):
        order2_critical_family(sym("a1*a1", generic), 0)
    ctx = Context.from_delta(N, (Fraction(0), Fraction(0)), MIDDLE)
    with pytest.raises(ValueError):
        order2_critical_family(sym("a1*b2 - a2*b1", ctx), 0)
    with pytest.raises(ValueError):
        order2_critical_family(sym("a1", ctx), 0)


# ----------------------------------------------------------------------
# dimension one


def test_dimension_one_round_trip():
    rng = random.Random(94)
    for _ in range(4):
        ctx = generic_context(rng, 1, 5)
        P = random_symbol(rng, ctx, 4, 2)
        result = quantize(P)
        assert result.unique
        assert symbol_map(result.operator).symbol.body == P.body


def test_dimension_one_resonances_do_obstruct():
    """At n = 1 every resonance is critical: the shift 3/2 collision of
    degrees 2 and 0 blocks a second-order symbol unless the first weight is
    0 or -1/2."""
    n = 1
    delta = Fraction(3, 2)
    for lam1, solvable in ((Fraction(1, 4), False), (Fraction(1), False),
                           (Fraction(0), True), (Fraction(-1, 2), True)):
        ctx = Context.from_delta(n, (lam1, Fraction(1, 3)), delta)
        P = SymbolPoly(parse_poly("x1^2*a1^2", n), ctx)
        if solvable:
            result = quantize(P)
            assert result.free_slots == {(0, 0)}
        else:
            with pytest.raises(ObstructionError) as err:
                quantize(P)
            assert tuple(err.value.blocked) == (0, 0)


def test_shift_one_free_slots_and_canonical_choice():
    """The antisymmetric generator at shift one with vanishing weights needs
    no corrections at all: both collisions below it have vanishing
    right-hand sides, so the canonical prolongation is the symbol itself."""
    ctx = SHIFT1
    P = sym("x1*x2*(a1*b2 - a2*b1)", ctx)
    result = quantize(P)
    assert result.operator.body == P.body
    assert result.free_slots == {(1, 0), (0, 0)}
    assert not result.unique
    single = quantize(sym("x1*a1", ctx))
    assert single.operator.body == parse_poly("x1*a1", 2)
    assert single.free_slots == {(0, 0)}


def test_arity_above_two_rejected():
    """A three-weight context is constructible, but no symbol or operator
    can be made on it, so no engine entry point receives one."""
    ctx = Context(2, (Fraction(0), Fraction(0), Fraction(0)), Fraction(1))
    assert ctx.arity == 3
    body = parse_poly("a1*b2 + x1*a1", 2)
    with pytest.raises(ArityError):
        SymbolPoly(body, ctx)
    with pytest.raises(ArityError):
        BidiffOp(body, ctx)


def _engine_quantize(sym):
    result = quantize(sym)
    return result.operator.body, result.free_slots


def _engine_symbol_map(op):
    result = symbol_map(op)
    return result.symbol.body, result.free_slots


def _outcome(solve, arg):
    """(body, free slots), or (source, blocked, exact component) of the
    obstruction."""
    try:
        body, free_slots = solve(arg)
    except ObstructionError as err:
        return err.source, err.blocked, err.obstruction.body
    return body, frozenset(free_slots)


def _assert_matches_per_label_reference(body, ctx):
    sym_in, op_in = SymbolPoly(body, ctx), BidiffOp(body, ctx)
    expected = _outcome(quantize_reference, sym_in)
    assert _outcome(_engine_quantize, sym_in) == expected
    assert _outcome(_engine_symbol_map, op_in) == _outcome(
        symbol_map_reference, op_in)
    return expected


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_resolvent_level_solve_matches_per_label_reference(n, arity):
    rng = random.Random(10 * n + arity)
    ctx = generic_context(rng, n, 5, arity)
    for _ in range(2):
        body = random_body(rng, n, 5, 3, arity, terms=6)
        _, free_slots = _assert_matches_per_label_reference(body, ctx)
        assert not free_slots


def test_resolvent_level_solve_matches_reference_at_a_resonant_label():
    """Shift 2 at n = 2 with vanishing weights: the gap from (3, 1) to
    (2, 1) vanishes.  The x-free source leaves the slot free; x1 times it
    meets a nonzero correction there and obstructs."""
    ctx = Context(N, (Fraction(0), Fraction(0)), Fraction(2))
    det = "(a1*b2 - a2*b1)*a1"
    assert _assert_matches_per_label_reference(parse_poly(det, N), ctx) == (
        parse_poly(det, N), frozenset({(2, 1)}))
    source, blocked, component = _assert_matches_per_label_reference(
        parse_poly(f"x1*{det}", N), ctx)
    assert (source, blocked) == ((3, 1), (2, 1))
    assert component == parse_poly("3*a1*b2 - 3*a2*b1", N)


def test_resolvent_level_solve_matches_reference_at_a_missed_resonance():
    """Shift 1 at n = 2 with vanishing weights: the gap from (6, 2) to
    (5, 0) vanishes, and the correction at degree 5 is nonzero but has no
    (5, 0) piece, so the slot is free and the other labels are solved."""
    ctx = Context(N, (Fraction(0), Fraction(0)), Fraction(1))
    body = parse_poly("x2*(a1*b2 - a2*b1)^2*a1^2", N)
    operator, free_slots = _assert_matches_per_label_reference(body, ctx)
    assert free_slots == {(5, 0)}
    assert operator.fiber_parts()[5]


COPRIME_WEIGHTS = (Fraction(1, 97), Fraction(2, 89))


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_level_solve_matches_reference_where_denominators_grow(n, arity):
    """Weights 1/97 and 2/89 and shift 3/83: every level multiplies the
    denominator by the weights' lcm and by the gaps' numerators, and the
    integer solve must still give the reference's exact bytes, at each
    x-degree from 0 to 3."""
    rng = random.Random(500 + 10 * n + arity)
    ctx = Context.from_delta(n, COPRIME_WEIGHTS[:arity], Fraction(3, 83))
    largest = 1
    for x_degree in range(4):
        body = random_body(rng, n, 4, x_degree, arity, terms=5)
        operator, free_slots = _assert_matches_per_label_reference(body, ctx)
        assert not free_slots
        largest = max(largest, *(c.denominator for c in operator.terms.values()))
    assert largest > 97 * 89


def test_level_solve_with_coprime_weights_matches_reference_at_resonances():
    """With weights 1/97 and 2/89 at n = 2: at shift 7/3 the gap from (4, 0)
    to (1, 0) vanishes and the correction three levels down hits it; at
    shift 1 the (5, 0) slot is free while the levels below it are solved."""
    ctx = Context.from_delta(N, COPRIME_WEIGHTS, Fraction(7, 3))
    source, blocked, component = _assert_matches_per_label_reference(
        parse_poly("x1^2*x2*a1^2*b2^2", N), ctx)
    assert (source, blocked) == ((4, 0), (1, 0))
    assert not component.is_zero()
    ctx = Context.from_delta(N, COPRIME_WEIGHTS, Fraction(1))
    operator, free_slots = _assert_matches_per_label_reference(
        parse_poly("x1*x2*(a1*b2 - a2*b1)^2*a1^2", N), ctx)
    assert free_slots == {(5, 0)}
    assert operator.fiber_parts()[4]


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_free_slots_are_the_resonances_of_the_sources(n, arity):
    """At every resonant shift k/4 and k/3 below 3, an x-free body (free
    slots below its sources, no correction) and one with x-degree up to 2
    match the per-label reference, and each free slot is a tuple of
    `classify_shift` whose source is a nonzero component."""
    rng = random.Random(100 * n + arity)
    grid = {Fraction(k, 4) for k in range(12)} | {Fraction(k, 3) for k in range(9)}
    for delta in sorted(grid & {resonant_delta(n, *pair)
                                for pair in label_pairs(n, 4)}):
        weights = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                        for _ in range(arity))
        ctx = Context.from_delta(n, weights, delta)
        tuples = classify_shift(n, delta, 4).tuples
        for coeff_degree in (0, 2):
            body = random_body(rng, n, 4, coeff_degree, arity, terms=4)
            outcome = _assert_matches_per_label_reference(body, ctx)
            if len(outcome) == 3:
                continue
            sources = set(decompose(SymbolPoly(body, ctx)))
            assert outcome[1] <= {(t.j, t.q) for t in tuples
                                  if (t.i, t.p) in sources}


def test_arity_one_free_slots_keep_only_its_labels():
    """At n = 2 and shift 3, (3, 0) resonates with (2, 1), a label that
    arity one does not have: degree-3 bodies, x-free or not, get no free
    slot."""
    ctx = Context.from_delta(N, (Fraction(1, 3),), Fraction(3))
    assert (3, 0, 2, 1) in [(t.i, t.p, t.j, t.q)
                            for t in classify_shift(N, 3, 3).tuples]
    for expr in ("a1^3", "x1*a1^3", "x1^2*x2*a1*a2^2"):
        _, free_slots = _assert_matches_per_label_reference(
            parse_poly(expr, N), ctx)
        assert not free_slots


def test_solve_stops_at_the_first_zero_correction(monkeypatch):
    """The correction lowers the x-degree at each level, so a component of
    x-degree k needs at most k + 1 corrections; the levels below are
    zero."""
    calls = []

    def counted(*args):
        calls.append(args)
        return casimir._nc_body(*args)

    monkeypatch.setattr(quantization, "_nc_body", counted)
    ctx = Context(N, (Fraction(1, 3), Fraction(1, 5)), Fraction(1, 7))
    for expr, x_degree in (("x1*a1^4*b2^3", 1), ("a1^4*b2^3", 0),
                           ("x1^2*x2*a1^3*b1*b2^2", 3)):
        sym = SymbolPoly(parse_poly(expr, N), ctx)
        calls.clear()
        quantize(sym)
        assert 0 < len(calls) <= (x_degree + 1) * len(decompose(sym))


def test_high_degree_x_free_symbol_is_its_own_quantization():
    """a1^400 at n = 2 has 201 labels at its degree and a zero correction
    at its first level, where the solve stops.  Projector constants built
    in more than O(L^2), or fetched at levels whose correction is zero,
    make this test slow."""
    ctx = Context(N, (Fraction(1, 3), Fraction(1, 5)), Fraction(1, 7))
    body = parse_poly("a1^400", N)
    result = quantize(SymbolPoly(body, ctx))
    assert result.operator.body == body
    assert result.unique


def test_quantize_keeps_no_spectral_state_after_it_returns():
    """The degree-200 projector constants at n = 2 take about 1.7 MiB; they
    live in the call's memo and go with it."""
    ctx = Context(N, (Fraction(1, 3), Fraction(1, 5)), Fraction(1, 7))
    sym = SymbolPoly(parse_poly("a1^200", N), ctx)
    gc.collect()
    tracemalloc.start()
    try:
        result = quantize(sym)
        gc.collect()
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.operator.body == sym.body
    assert live < 64 * 1024


def test_the_reported_obstruction_is_the_first_from_the_top():
    """Both components of x1*a1*b2 + x1*x2*b1 obstruct at this shift: (2, 1)
    at (1, 0), and (1, 0) at (0, 0) on its own.  Degrees are solved from the
    top, so quantize and symbol_map both report (2, 1)."""
    ctx = Context(N, (Fraction(2, 5), Fraction(-1, 7)), Fraction(44, 35))
    assert _outcome(_engine_quantize, sym("x1*x2*b1", ctx))[:2] == ((1, 0), (0, 0))
    body = parse_poly("x1*a1*b2 + x1*x2*b1", N)
    expected = ((2, 1), (1, 0), parse_poly("6/5*b2 + 3/7*a2", N))
    assert _outcome(_engine_quantize, SymbolPoly(body, ctx)) == expected
    assert _outcome(_engine_symbol_map, BidiffOp(body, ctx)) == expected


@pytest.mark.parametrize("n", [2, 3])
def test_obstruction_reports_match_reference_where_several_components_obstruct(n):
    """At resonant shifts, on seeded bodies with at least two components that
    obstruct on their own, quantize and symbol_map report the obstruction
    that `quantize_reference`, solving sources in (-i, p) order, meets
    first."""
    rng = random.Random(n)
    shifts = sorted({resonant_delta(n, *pair) for pair in label_pairs(n, 4)})
    found = 0
    for _ in range(200):
        weights = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 5))
                        for _ in range(2))
        ctx = Context.from_delta(n, weights, rng.choice(shifts))
        body = random_body(rng, n, 4, 2, terms=6)
        components = decompose(SymbolPoly(body, ctx)).values()
        if sum(len(_outcome(quantize_reference, c)) == 3 for c in components) < 2:
            continue
        assert len(_assert_matches_per_label_reference(body, ctx)) == 3
        found += 1
        if found == 3:
            break
    assert found == 3


def test_solve_path_does_no_poly_arithmetic(monkeypatch):
    """quantize and symbol_map split their input by degree once and add
    every level into one term map, with no Poly sum or difference."""
    counts = Counter()
    for name in ("__add__", "__sub__", "fiber_parts"):
        def counted(*args, _name=name, _original=getattr(Poly, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(Poly, name, counted)
    ctx = Context(N, (Fraction(1, 3), Fraction(1, 5)), Fraction(1, 7))
    P = sym("x1^2*x2*a1^2*b2^2 + 3*x2*a1*a2*b1 - x1*x2*a2^2 + x1^3*b1 + 5", ctx)
    operator = quantize(P).operator
    assert counts == {"fiber_parts": 1}
    counts.clear()
    assert symbol_map(operator).symbol.body == P.body
    assert counts == {"fiber_parts": 1}


def _homogeneous(rng, n, degree, arity):
    """A random body of x-degree at most 2 whose terms all have fiber degree
    `degree`."""
    while True:
        part = random_body(rng, n, degree, 2, arity, terms=12).fiber_parts()
        if degree in part:
            return part[degree]


@pytest.mark.parametrize("arity", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_peel_matches_reference_where_the_level_map_does_the_work(n, arity):
    """Peeling matches `symbol_map_reference` and inverts quantize on an
    operator with only degrees 5 and 1, on one whose degree-4 part is all
    written by its degree-5 source, so nothing is peeled there, and on the
    zero operator."""
    rng = random.Random(700 + 10 * n + arity)
    ctx = generic_context(rng, n, 5, arity)
    top = Poly.variable(n, "x", n) * _homogeneous(rng, n, 5, arity)
    P = SymbolPoly(top + _homogeneous(rng, n, 3, arity), ctx)
    cancelling = quantize(P).operator.body
    assert 4 in cancelling.fiber_parts()
    for body in (top + _homogeneous(rng, n, 1, arity), cancelling, Poly.zero(n)):
        op = BidiffOp(body, ctx)
        symbol = symbol_map(op).symbol
        assert symbol.body == symbol_map_reference(op)[0]
        assert quantize(symbol).operator.body == body
    assert symbol_map(BidiffOp(cancelling, ctx)).symbol.body == P.body


def test_peel_fails_loudly_when_a_source_is_not_written_back(monkeypatch):
    """The level a source writes at its own degree must be that source: a
    projection that loses a nonzero piece breaks the peel, which raises
    instead of returning a wrong symbol."""
    ctx = Context(N, (Fraction(1, 3), Fraction(1, 5)), Fraction(1, 7))
    op = BidiffOp(parse_poly("x1*a1*b2 + x2*a2^2 + x1", N), ctx)
    symbol_map(op)

    def dropping(*args):
        return dict(list(casimir.projections(*args).items())[1:])

    monkeypatch.setattr(quantization, "projections", dropping)
    with pytest.raises(AssertionError, match="peeling failed"):
        symbol_map(op)
