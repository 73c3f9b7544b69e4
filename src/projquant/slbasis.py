"""The imbedding of sl(n+1) into polynomial vector fields.

The basis consists of the constant fields, the linear fields, and the n
quadratic fields eps_i whose i-th component is x_i * x_l in slot l.  Each
basis element is listed together with its dual partner for the fixed
invariant pairing; the Casimir computations depend on this normalization,
so the duality is hard-coded rather than recomputed from a bilinear form.

Span membership needs no elimination: the basis is almost in echelon form,
so `span_decompose` reads every coefficient off one coordinate of the field
in one pass over its terms (the diagonal fields through the inverse of an
n x n block), then proves membership with one exact residual check,
sum(c * element) == field.  `bracket_closure_check` goes through the same
`span_decompose` for every bracket.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .densities import VectorField, bracket
from .poly import DimensionMismatchError, Poly, X


@dataclass(frozen=True)
class DualBasisPair:
    label: str
    element: VectorField
    dual: VectorField


def _zero_field_components(n: int) -> list[Poly]:
    return [Poly.zero(n) for _ in range(n)]


def _e_offdiag(n: int, i: int, j: int) -> VectorField:
    """-x_j d/dx_i (1-based indices)."""
    comps = _zero_field_components(n)
    comps[i - 1] = -Poly.variable(n, X, j)
    return VectorField(tuple(comps))


def _e_diag(n: int, i: int) -> VectorField:
    """-x_i d/dx_i minus the Euler field."""
    comps = [-Poly.variable(n, X, k + 1) for k in range(n)]
    comps[i - 1] = comps[i - 1] - Poly.variable(n, X, i)
    return VectorField(tuple(comps))

def _e_diag_dual(n: int, i: int) -> VectorField:
    """-x_i d/dx_i."""
    comps = _zero_field_components(n)
    comps[i - 1] = -Poly.variable(n, X, i)
    return VectorField(tuple(comps))


def _e_const(n: int, i: int) -> VectorField:
    """-d/dx_i."""
    comps = _zero_field_components(n)
    comps[i - 1] = Poly.constant(n, -1)
    return VectorField(tuple(comps))


def _eps(n: int, i: int) -> VectorField:
    """x_i times the Euler field."""
    xi = Poly.variable(n, X, i)
    comps = [xi * Poly.variable(n, X, k + 1) for k in range(n)]
    return VectorField(tuple(comps))


def euler_field(n: int) -> VectorField:
    return VectorField(tuple(Poly.variable(n, X, k + 1) for k in range(n)))


@lru_cache(maxsize=16)
def sl_basis(n: int) -> tuple[DualBasisPair, ...]:
    """All n^2 + 2n dual pairs; the elements alone form the basis.

    Built once per n: the tuple of frozen pairs is never mutated, so every
    caller shares it."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    pairs = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                pairs.append(DualBasisPair(
                    f"e_{i}_{j}", _e_offdiag(n, i, j), _e_offdiag(n, j, i)))
    for i in range(1, n + 1):
        pairs.append(DualBasisPair(f"e_{i}_{i}", _e_diag(n, i), _e_diag_dual(n, i)))
    for i in range(1, n + 1):
        pairs.append(DualBasisPair(f"e_{i}", _e_const(n, i), _eps(n, i)))
    for i in range(1, n + 1):
        pairs.append(DualBasisPair(f"eps_{i}", _eps(n, i), _e_const(n, i)))
    return tuple(pairs)


def basis_fields(n: int) -> tuple[tuple[str, VectorField], ...]:
    """The (n+1)^2 - 1 labelled basis elements."""
    return tuple((pair.label, pair.element) for pair in sl_basis(n))


# ----------------------------------------------------------------------
# exact span membership

_ZERO = Fraction(0)


def _read_off(field: VectorField) -> list[Fraction]:
    """The only coefficients that can express the field in the basis, in
    `sl_basis` order, from one pass over the field's terms.

    Each non-diagonal basis element is the only one reaching one coordinate:
    e_i the constant of slot i, e_i_j the x_j of slot i, eps_i the x_i^2 of
    slot i; every other term is left to the residual check.  The diagonal
    fields all reach the x_k of slot k, y_k = -c_kk - sum(c), which the
    inverse of -(I + J) solves as c_kk = -y_k + sum(y)/(n+1); when every
    y_k is 0, as for most brackets of basis elements, so is every c_kk.
    """
    n = field.n
    diag = n * (n - 1)  # e_i_j (i != j) come first, then e_k_k, e_i, eps_i
    coeffs = [_ZERO] * (n * n + 2 * n)
    y = [_ZERO] * n
    for i, component in enumerate(field.components):
        for (xa, _, _), c in component.terms.items():
            degree = sum(xa)
            if not degree:
                coeffs[diag + n + i] = -c
            elif degree == 1:
                j = xa.index(1)
                if j == i:
                    y[i] = c
                else:
                    coeffs[i * (n - 1) + j - (j > i)] = -c
            elif degree == 2 and xa[i] == 2:
                coeffs[diag + 2 * n + i] = c
    if any(y):
        mean = sum(y, _ZERO) / (n + 1)
        for k, yk in enumerate(y):
            coeffs[diag + k] = mean - yk
    return coeffs


def span_decompose(field: VectorField, n: int):
    """Exact coefficients of a field in the basis; None if not in the span.

    The coefficients are read off the coordinates each basis element pins
    down, and one exact residual check, sum(c * element) == field slot by
    slot, decides membership."""
    pairs = sl_basis(n)
    if field.n != n:
        raise DimensionMismatchError(
            f"field of dimension {field.n} against the sl({n + 1}) basis")
    nonzero = [(pair, c) for pair, c in zip(pairs, _read_off(field)) if c]
    for slot, component in enumerate(field.components):
        total: dict = {}
        for pair, c in nonzero:
            for key, value in pair.element.components[slot].terms.items():
                total[key] = total.get(key, 0) + c * value
        if {key: v for key, v in total.items() if v} != component.terms:
            return None
    return {pair.label: c for pair, c in nonzero}


def bracket_closure_check(n: int):
    """Verify every pairwise bracket of basis elements stays in the span.

    Returns (True, None) on success, else (False, (label_a, label_b))."""
    pairs = sl_basis(n)
    for a in pairs:
        for b in pairs:
            if span_decompose(bracket(a.element, b.element), n) is None:
                return False, (a.label, b.label)
    return True, None
