"""Resonant and critical shift values.

A shift is resonant when two Casimir eigenvalues of different total degrees
coincide; the quadratic terms in the shift cancel, so the witnessing shift
is (gamma0(i, p) - gamma0(j, q)) / (2(n+1)(i - j)), gamma0 the shift-free
eigenvalues.  A resonance (i, p; j, q) is critical when additionally
0 <= p - q <= i - j, the condition under which the degree-lowering
correction can actually reach the colliding block.  Every scan enumerates
label pairs with `label_pairs`, in lexicographic order of (i, p, j, q),
and reads gamma0 from a table it builds once per call.

Criticality verdicts are complete: `critical_lower_bound` is non-decreasing
and unbounded in the degree, so a finite scan certifies that no critical
tuple exists beyond the returned bound.  Resonance verdicts are only
complete up to the enumeration cap, which the classification result records
(resonances exist at unbounded order, e.g. shift 0 in dimension two via the
tuple (7,3;6,0)).  The command line caps scans at `cli.SCAN_ORDER_LIMIT`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .casimir import (LabelRangeError, check_label, shift_free_eigenvalue,
                      tableau_labels)
from .poly import as_fraction


@dataclass(frozen=True, order=True)
class ResonanceTuple:
    i: int
    p: int
    j: int
    q: int
    delta: Fraction
    critical: bool


def resonant_delta(n: int, i: int, p: int, j: int, q: int) -> Fraction:
    """The unique shift at which the (i,p) and (j,q) eigenvalues agree.

    Closed form obtained by cancelling the shift-quadratic terms; it is
    validated against the defining eigenvalue equality in the tests."""
    check_label(n, i, p)
    check_label(n, j, q)
    if i <= j:
        raise LabelRangeError(f"need i > j, got i={i}, j={j}")
    return _resonant_shift(n, i, j, shift_free_eigenvalue(n, i, p)
                           - shift_free_eigenvalue(n, j, q))


def _resonant_shift(n: int, i: int, j: int, gap: int) -> Fraction:
    """The shift at which two blocks of degrees i > j collide, from the gap
    gamma0(i, p) - gamma0(j, q) of their shift-free eigenvalues."""
    return Fraction(gap, 2 * (n + 1) * (i - j))


def _shift_free_table(n: int, max_degree: int) -> list[list[int]]:
    """gamma0(i, p) at every admissible label up to max_degree, as [i][p]."""
    return [[shift_free_eigenvalue(n, i, p) for p in tableau_labels(n, i)]
            for i in range(max_degree + 1)]


def is_critical(i: int, p: int, j: int, q: int) -> bool:
    return 0 <= p - q <= i - j


def label_pairs(n: int, max_degree: int) -> Iterator[tuple[int, int, int, int]]:
    """Every (i, p, j, q) with 1 <= i <= max_degree, 0 <= j < i and
    admissible tableau labels p at i and q at j, in lexicographic order."""
    labels = [tableau_labels(n, k) for k in range(max_degree + 1)]
    for i in range(1, max_degree + 1):
        for p in labels[i]:
            for j in range(i):
                for q in labels[j]:
                    yield i, p, j, q


def critical_lower_bound(n: int, i: int) -> Fraction:
    """Lower bound for every critical shift witnessed at degree i.

    Equals the resonant shift of (i, floor(i/2); 0, 0), gamma0(0, 0) being
    zero; in dimension one the tableau label is pinned to 0 and the bound
    (i+1)/2 still dominates all resonances (i, 0; j, 0)."""
    if i < 1:
        raise ValueError("degree must be >= 1")
    top = tableau_labels(n, i)[-1]
    return _resonant_shift(n, i, 0, shift_free_eigenvalue(n, i, top))


def critical_bound_index(n: int, delta) -> int:
    """Smallest degree beyond which no critical tuple can reach this shift.

    That is the least i >= 1 with critical_lower_bound(n, i) > delta.  In
    dimension one the bound is (i+1)/2.  Otherwise it is
    E(i) = ((3/4)i + n - 1/2)/(n+1) at even i, and E(i) + 3/(4(n+1)i) at odd
    i, so E(i) <= bound(i) <= E(i+1): the least i with E(i) > delta is the
    answer or one above it, and one exact comparison tells which."""
    d = as_fraction(delta)
    tableau_labels(n, 0)  # rejects dimensions n < 1
    if n == 1:
        return max(1, math.floor(2 * d - 1) + 1)
    i = max(1, math.floor(Fraction(4, 3) * ((n + 1) * d - n + Fraction(1, 2))) + 1)
    if i > 1 and critical_lower_bound(n, i - 1) > d:
        i -= 1
    return i


def one_dimensional_resonances(i: int, j: int) -> Fraction:
    """Resonant shifts in dimension one: 1 + (i + j - 1)/2, all critical."""
    if i <= j or j < 0:
        raise LabelRangeError(f"need i > j >= 0, got i={i}, j={j}")
    return 1 + Fraction(i + j - 1, 2)


@dataclass(frozen=True)
class ShiftClassification:
    delta: Fraction
    max_order: int               # resonance verdict complete up to this cap
    critical_bound: int          # criticality verdict complete, certified
    tuples: tuple[ResonanceTuple, ...]

    @property
    def kind(self) -> str:
        if any(t.critical for t in self.tuples):
            return "critical"
        if self.tuples:
            return "resonant"
        return "generic"


def classify_shift(n: int, delta, max_order: int) -> ShiftClassification:
    """Enumerate witnessing tuples up to max(max_order, critical bound)."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    d = as_fraction(delta)
    bound = critical_bound_index(n, d)
    cap = max(max_order, bound)
    gamma = _shift_free_table(n, cap)
    tuples = tuple(ResonanceTuple(i, p, j, q, d, is_critical(i, p, j, q))
                   for i, p, j, q in label_pairs(n, cap)
                   if _resonant_shift(n, i, j, gamma[i][p] - gamma[j][q]) == d)
    return ShiftClassification(d, cap, bound, tuples)


def critical_values_in_interval(n: int, lo, hi) -> list[tuple[Fraction, list[ResonanceTuple]]]:
    """Complete list of critical shifts in [lo, hi], grouped by value.

    Completeness: a critical tuple at degree i has shift at least
    critical_lower_bound(n, i), so degrees at and beyond the bound index for
    hi cannot contribute."""
    lo = as_fraction(lo)
    hi = as_fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    grouped: dict[Fraction, list[ResonanceTuple]] = {}
    max_degree = critical_bound_index(n, hi) - 1
    gamma = _shift_free_table(n, max_degree)
    for i, p, j, q in label_pairs(n, max_degree):
        if is_critical(i, p, j, q):
            d = _resonant_shift(n, i, j, gamma[i][p] - gamma[j][q])
            if lo <= d <= hi:
                grouped.setdefault(d, []).append(ResonanceTuple(i, p, j, q, d, True))
    return sorted(grouped.items())
