"""Resonant and critical shifts: closed form, bounds, classification.

The closed form for the resonant shift never appears in print as a general
formula; it is validated here against its defining property, the exact
equality of the two eigenvalues.
"""

import random
from fractions import Fraction

import pytest

from projquant.casimir import LabelRangeError, casimir_eigenvalue
from projquant.densities import Context
from projquant.resonance import (classify_shift, critical_bound_index,
                                 critical_lower_bound,
                                 critical_values_in_interval, is_critical,
                                 label_pairs, one_dimensional_resonances,
                                 resonant_delta, resonant_pairs)

from oracles import (bound_index_reference, classify_reference,
                     critical_values_reference, label_pairs_reference)


def _labels(n, i):
    return range(1) if n == 1 else range(i // 2 + 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_definitional_identity(n):
    for i in range(1, 11):
        for p in _labels(n, i):
            for j in range(i):
                for q in _labels(n, j):
                    delta = resonant_delta(n, i, p, j, q)
                    assert (casimir_eigenvalue(n, delta, i, p)
                            == casimir_eigenvalue(n, delta, j, q))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_known_resonant_values(n):
    assert resonant_delta(n, 2, 0, 1, 0) == Fraction(n + 3, n + 1)
    assert resonant_delta(n, 2, 0, 0, 0) == Fraction(n + 2, n + 1)
    assert resonant_delta(n, 2, 1, 1, 0) == 1
    assert resonant_delta(n, 2, 1, 0, 0) == 1
    assert resonant_delta(n, 1, 0, 0, 0) == 1
    for k in range(1, 5):
        assert resonant_delta(n, 2 * k, k, 0, 0) == 1 + Fraction(3 * (k - 1), 2 * (n + 1))
        assert resonant_delta(n, 2 * k + 1, k, 0, 0) == 1 + Fraction(3 * k * k, (2 * k + 1) * (n + 1))


def test_resonant_delta_argument_checks():
    with pytest.raises(LabelRangeError):
        resonant_delta(2, 2, 0, 2, 0)
    with pytest.raises(LabelRangeError):
        resonant_delta(2, 3, 2, 1, 0)


def test_lower_bound_values():
    for n in (2, 3):
        assert critical_lower_bound(n, 1) == 1
        assert critical_lower_bound(n, 2) == 1
    assert critical_lower_bound(2, 3) == Fraction(4, 3)
    # dimension one: the tableau label is pinned at zero
    assert critical_lower_bound(1, 1) == 1
    assert critical_lower_bound(1, 4) == Fraction(5, 2)
    with pytest.raises(ValueError):
        critical_lower_bound(2, 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lower_bound_monotone_nondecreasing(n):
    values = [critical_lower_bound(n, i) for i in range(1, 13)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_monotone_step_in_tableau_label():
    """Raising the upper tableau label by one lowers the resonant shift by
    (i - 2p) / ((n+1)(i - j)), a positive step.  (The same step appears in
    print without the 1/(n+1) factor; the version asserted here is the one
    consistent with the defining eigenvalue equality, e.g. the two known
    second-order values differ by 2/(n+1), not 2.)"""
    for n in (1, 2, 3):
        for i in range(1, 11):
            top = 0 if n == 1 else i // 2
            for p in range(top):
                for j in range(i):
                    for q in _labels(n, j):
                        step = (resonant_delta(n, i, p, j, q)
                                - resonant_delta(n, i, p + 1, j, q))
                        assert step == Fraction(i - 2 * p, (n + 1) * (i - j))
                        assert step > 0


@pytest.mark.parametrize("n", [2, 3])
def test_critical_tuples_respect_lower_bound(n):
    for i in range(1, 13):
        for p in _labels(n, i):
            for j in range(i):
                for q in _labels(n, j):
                    if is_critical(i, p, j, q):
                        delta = resonant_delta(n, i, p, j, q)
                        assert delta >= critical_lower_bound(n, i)
                        assert delta >= 1


def test_bound_index_examples():
    assert critical_bound_index(2, Fraction(1, 2)) == 1
    assert critical_bound_index(2, Fraction(-5)) == 1
    assert critical_bound_index(2, Fraction(1)) == 3
    assert critical_bound_index(2, Fraction(5, 3)) == 5


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bound_index_matches_the_linear_scan(n):
    """Every bound value up to degree 64 is an equality boundary: the index
    must step exactly there, and not 1/1000 to either side."""
    shifts = []
    for i in range(1, 65):
        bound = critical_lower_bound(n, i)
        shifts += [bound, bound - Fraction(1, 1000), bound + Fraction(1, 1000)]
    shifts += [Fraction(-7, 2), Fraction(0), Fraction(99, 7), Fraction(1000),
               Fraction(10 ** 5)]
    for delta in shifts:
        assert critical_bound_index(n, delta) == bound_index_reference(n, delta), delta


def test_classification_examples():
    # shift 0 in dimension two: resonant through (7,3;6,0), never critical
    result = classify_shift(2, Fraction(0), 7)
    assert result.kind == "resonant"
    witness = [(t.i, t.p, t.j, t.q) for t in result.tuples]
    assert (7, 3, 6, 0) in witness
    assert all(not t.critical for t in result.tuples)
    assert result.max_order == 7

    # shift 1 is critical with the second-order pairings
    result = classify_shift(2, Fraction(1), 2)
    assert result.kind == "critical"
    witness = {(t.i, t.p, t.j, t.q): t.critical for t in result.tuples}
    assert witness[(2, 1, 1, 0)] and witness[(2, 1, 0, 0)]

    # a generic shift
    assert classify_shift(2, Fraction(1, 2), 6).kind == "generic"


def test_classification_caps_are_recorded():
    result = classify_shift(2, Fraction(0), 3)
    # the cap grows to the criticality bound even when max_order is smaller
    assert result.max_order == max(3, result.critical_bound)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_second_order_resonances_match_known_table(n):
    seen = {}
    for i in range(1, 3):
        for p in _labels(n, i):
            for j in range(i):
                for q in _labels(n, j):
                    d = resonant_delta(n, i, p, j, q)
                    seen.setdefault(d, []).append((i, p, j, q))
                    assert is_critical(i, p, j, q)
    assert set(seen) == {Fraction(n + 3, n + 1), Fraction(n + 2, n + 1),
                         Fraction(1)}
    assert seen[Fraction(n + 3, n + 1)] == [(2, 0, 1, 0)]
    assert seen[Fraction(n + 2, n + 1)] == [(2, 0, 0, 0)]
    assert sorted(seen[Fraction(1)]) == [(1, 0, 0, 0), (2, 1, 0, 0), (2, 1, 1, 0)]


def test_one_dimensional_resonances():
    assert one_dimensional_resonances(1, 0) == 1
    assert one_dimensional_resonances(2, 0) == Fraction(3, 2)
    assert one_dimensional_resonances(2, 1) == 2
    with pytest.raises(LabelRangeError):
        one_dimensional_resonances(1, 1)
    for i in range(1, 7):
        for j in range(i):
            assert one_dimensional_resonances(i, j) == resonant_delta(1, i, 0, j, 0)
    # every dimension-one resonance is critical
    for i in range(1, 7):
        for j in range(i):
            assert is_critical(i, 0, j, 0)


def test_interval_listing():
    values = critical_values_in_interval(2, 0, Fraction(99, 100))
    assert values == []
    listed = dict(critical_values_in_interval(2, 1, Fraction(5, 3)))
    assert Fraction(1) in listed
    assert Fraction(4, 3) in listed
    assert Fraction(5, 3) in listed
    n1 = dict(critical_values_in_interval(1, 1, 2))
    assert set(n1) == {Fraction(1), Fraction(3, 2), Fraction(2)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_label_pairs_match_the_nested_scan(n):
    for max_degree in range(13):
        assert list(label_pairs(n, max_degree)) == label_pairs_reference(n, max_degree)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scans_match_the_nested_oracle_on_a_shift_grid(n):
    """Every critical value in [1, 4] plus generic shifts, each classified;
    the interval listing on the whole of [1, 4], on one-point intervals and
    on the stretches between consecutive generic shifts."""
    critical = [d for d, _ in critical_values_reference(n, 1, 4)]
    assert len(critical) > 3
    generic = [Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(8, 7),
               Fraction(22, 7), Fraction(7, 2)]
    for delta in critical + generic:
        result = classify_shift(n, delta, 6)
        assert ((result.max_order, result.critical_bound, list(result.tuples))
                == classify_reference(n, delta, 6))
    for lo, hi in ([(1, 4)] + [(d, d) for d in critical[::10] + generic]
                   + list(zip(generic, generic[1:]))):
        assert critical_values_in_interval(n, lo, hi) == critical_values_reference(n, lo, hi)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classification_solve_matches_the_pair_walk(n):
    """The solve for q in classify_shift against the walk over every label
    pair: at every resonant shift of the pairs up to degree 8, and at 15
    seeded shifts a/b with b <= 8 and a/b in [-5, 8]."""
    rng = random.Random(n)
    shifts = {resonant_delta(n, i, p, j, q) for i, p, j, q in label_pairs(n, 8)}
    for _ in range(15):
        b = rng.randint(1, 8)
        shifts.add(Fraction(rng.randint(-5 * b, 8 * b), b))
    for delta in sorted(shifts):
        result = classify_shift(n, delta, 6)
        assert ((result.max_order, result.critical_bound, list(result.tuples))
                == classify_reference(n, delta, 6)), delta


@pytest.mark.parametrize("n", [1, 2, 3])
def test_resonant_pairs_of_one_source_are_its_resonances(n):
    """One source at a time, in reverse order, as the level solve asks:
    each yields the pairs of the label walk from it whose shift is delta."""
    shifts = {pair: resonant_delta(n, *pair) for pair in label_pairs(n, 6)}
    sources = sorted({pair[:2] for pair in shifts}, reverse=True)
    for delta in sorted(set(shifts.values())):
        for source in sources:
            assert list(resonant_pairs(n, delta, [source])) == [
                pair for pair, d in shifts.items()
                if pair[:2] == source and d == delta]


def test_scans_reject_dimensions_below_one():
    for n in (0, -1):
        with pytest.raises(LabelRangeError):
            list(label_pairs(n, 3))
        with pytest.raises(LabelRangeError):
            classify_shift(n, Fraction(1), 6)
        with pytest.raises(LabelRangeError):
            critical_values_in_interval(n, 1, 2)


@pytest.mark.parametrize("entry", [
    lambda n: casimir_eigenvalue(n, Fraction(1, 2), 2, 1),
    lambda n: Context(n, (Fraction(0), Fraction(0)), Fraction(1)),
    lambda n: classify_shift(n, 1, 3),
], ids=["casimir_eigenvalue", "Context", "classify_shift"])
def test_non_integer_dimensions_rejected(entry):
    """A float dimension would turn exact results into floats."""
    for n in (2.0, Fraction(2)):
        with pytest.raises(TypeError, match="dimension must be an int"):
            entry(n)
