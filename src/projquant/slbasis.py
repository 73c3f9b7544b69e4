"""The imbedding of sl(n+1) into polynomial vector fields.

The basis consists of the constant fields, the linear fields, and the n
quadratic fields eps_i whose i-th component is x_i * x_l in slot l.  Each
basis element is listed together with its dual partner for the fixed
invariant pairing; the Casimir computations depend on this normalization,
so the duality is hard-coded rather than recomputed from a bilinear form.

Span membership needs no elimination: the basis is almost in echelon form,
so `span_decompose` reads every coefficient off one coordinate of the field
(the diagonal fields through the inverse of an n x n block), then proves
membership with one exact residual check, sum(c * element) == field.
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


def _read_off(field: VectorField) -> dict[str, Fraction]:
    """The only coefficients that can express the field in the basis.

    Each non-diagonal basis element is the only one reaching one coordinate:
    e_i the constant of slot i, e_i_j the x_j of slot i, eps_i the x_i^2 of
    slot i.  The diagonal fields all reach the x_k of slot k, y_k = -c_kk -
    sum(c), which the inverse of -(I + J) solves as c_kk = -y_k + sum(y)/(n+1).
    """
    n = field.n
    zero = (0,) * n

    def coordinate(slot: int, *xs: int) -> Fraction:
        """Coefficient of the product of the x_xs in the given slot."""
        exps = [0] * n
        for x in xs:
            exps[x - 1] += 1
        return field.components[slot - 1].terms.get(
            (tuple(exps), zero, zero), _ZERO)

    coeffs = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                coeffs[f"e_{i}_{j}"] = -coordinate(i, j)
    y = [coordinate(k, k) for k in range(1, n + 1)]
    mean = sum(y, Fraction(0)) / (n + 1)
    for k in range(1, n + 1):
        coeffs[f"e_{k}_{k}"] = mean - y[k - 1]
    for i in range(1, n + 1):
        coeffs[f"e_{i}"] = -coordinate(i)
        coeffs[f"eps_{i}"] = coordinate(i, i, i)  # x_i^2 in slot i
    return coeffs


def _decompose_in(field: VectorField, pairs: tuple[DualBasisPair, ...]):
    """`span_decompose` against a basis built once by the caller."""
    coeffs = _read_off(field)
    nonzero = [(pair, coeffs[pair.label]) for pair in pairs
               if coeffs[pair.label] != 0]
    for slot, component in enumerate(field.components):
        total: dict = {}
        for pair, c in nonzero:
            for key, value in pair.element.components[slot].terms.items():
                total[key] = total.get(key, 0) + c * value
        if {key: v for key, v in total.items() if v} != component.terms:
            return None
    return {pair.label: c for pair, c in nonzero}


def span_decompose(field: VectorField, n: int):
    """Exact coefficients of a field in the basis; None if not in the span.

    The coefficients are read off the coordinates each basis element pins
    down, and one exact residual check, sum(c * element) == field slot by
    slot, decides membership."""
    pairs = sl_basis(n)
    if field.n != n:
        raise DimensionMismatchError(
            f"field of dimension {field.n} against the sl({n + 1}) basis")
    return _decompose_in(field, pairs)


def bracket_closure_check(n: int):
    """Verify every pairwise bracket of basis elements stays in the span.

    Returns (True, None) on success, else (False, (label_a, label_b))."""
    pairs = sl_basis(n)
    for a in pairs:
        for b in pairs:
            if _decompose_in(bracket(a.element, b.element), pairs) is None:
                return False, (a.label, b.label)
    return True, None
