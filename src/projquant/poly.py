"""Sparse multivariate polynomials over exact rationals, in three variable
families: base coordinates x, and two fiber families a and b.

A term is keyed by a triple of exponent tuples (one tuple of length n per
family) and carries a Fraction coefficient.  The canonical form never stores
zero coefficients, so two Poly values are mathematically equal exactly when
their term maps are equal.  All values are immutable after construction.

Coefficients are plain ``fractions.Fraction``; floats are rejected so that
every computation in the package stays exact.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

X = "x"
ALPHA = "a"
BETA = "b"
FAMILIES = (X, ALPHA, BETA)
_SLOT = {X: 0, ALPHA: 1, BETA: 2}


class DimensionMismatchError(ValueError):
    """Operands live over different base dimensions."""


def as_fraction(value) -> Fraction:
    """Coerce int or Fraction to Fraction; reject inexact types."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


def _zero_exps(n: int) -> tuple[int, ...]:
    return (0,) * n


class Poly:
    """Polynomial in x1..xn, a1..an, b1..bn with Fraction coefficients."""

    __slots__ = ("n", "terms", "_hash")

    def __init__(self, n: int, terms=None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = as_fraction(coeff)
                if coeff == 0:
                    continue
                xa, aa, ba = key
                if len(xa) != n or len(aa) != n or len(ba) != n:
                    raise DimensionMismatchError(
                        f"exponent tuples must have length {n}")
                clean[(tuple(xa), tuple(aa), tuple(ba))] = coeff
        self.terms = clean
        self._hash = None

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _trusted(cls, n: int, terms: dict) -> "Poly":
        """Wrap a term map that is already canonical (exact, no zeros)."""
        out = cls.__new__(cls)
        out.n = n
        out.terms = terms
        out._hash = None
        return out

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def constant(cls, n: int, value) -> "Poly":
        z = _zero_exps(n)
        return cls(n, {(z, z, z): as_fraction(value)})

    @classmethod
    def variable(cls, n: int, family: str, index: int) -> "Poly":
        """The single variable <family><index>, index 1-based."""
        if not 1 <= index <= n:
            raise ValueError(f"variable index {index} out of range 1..{n}")
        exps = [_zero_exps(n), _zero_exps(n), _zero_exps(n)]
        e = [0] * n
        e[index - 1] = 1
        exps[_SLOT[family]] = tuple(e)
        return cls(n, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, coeff, x=(), a=(), b=()) -> "Poly":
        """Single term from sparse {index: exponent} maps (1-based indices)."""
        def expand(sparse):
            e = [0] * n
            for idx, exp in dict(sparse).items():
                if not 1 <= idx <= n:
                    raise ValueError(f"variable index {idx} out of range 1..{n}")
                e[idx - 1] = exp
            return tuple(e)

        return cls(n, {(expand(x), expand(a), expand(b)): as_fraction(coeff)})

    # ------------------------------------------------------------------
    # basic protocol

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, frozenset(self.terms.items())))
        return self._hash

    def __repr__(self):
        from .parsing import format_poly
        return f"Poly({self.n}, {format_poly(self)!r})"

    def _check_same(self, other: "Poly"):
        if self.n != other.n:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.n} vs {other.n}")

    # ------------------------------------------------------------------
    # arithmetic

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            new = terms.get(key, 0) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return Poly._trusted(self.n, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._trusted(self.n, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value) -> "Poly":
        c = as_fraction(value)
        if c == 0:
            return Poly.zero(self.n)
        return Poly._trusted(self.n, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_same(other)
        terms = {}
        for (xa, aa, ba), c1 in self.terms.items():
            for (xb, ab, bb), c2 in other.terms.items():
                key = (
                    tuple(map(sum, zip(xa, xb))),
                    tuple(map(sum, zip(aa, ab))),
                    tuple(map(sum, zip(ba, bb))),
                )
                new = terms.get(key, 0) + c1 * c2
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        return Poly._trusted(self.n, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, power: int):
        if not isinstance(power, int) or power < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Poly.constant(self.n, 1)
        base = self
        while power:
            if power & 1:
                result = result * base
            power >>= 1
            if power:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # derivatives

    def diff(self, family: str, index: int) -> "Poly":
        """Formal partial derivative in <family><index>, index 1-based."""
        if not 1 <= index <= self.n:
            raise ValueError(f"index {index} out of range 1..{self.n}")
        slot = _SLOT[family]
        pos = index - 1
        # Lowering one fixed exponent keeps distinct keys distinct.
        terms = {}
        for key, coeff in self.terms.items():
            exp = key[slot][pos]
            if exp == 0:
                continue
            fam = list(key[slot])
            fam[pos] = exp - 1
            new_key = list(key)
            new_key[slot] = tuple(fam)
            terms[tuple(new_key)] = coeff * exp
        return Poly._trusted(self.n, terms)

    def taylor_diff(self, family: str, multi: tuple[int, ...]) -> "Poly":
        """D^multi / multi! in one family (exact binomial coefficients)."""
        slot = _SLOT[family]
        # Subtracting a fixed multi-index keeps distinct keys distinct.
        terms = {}
        for key, coeff in self.terms.items():
            exps = key[slot]
            factor = 1
            new = list(exps)
            ok = True
            for pos, m in enumerate(multi):
                if m == 0:
                    continue
                if exps[pos] < m:
                    ok = False
                    break
                factor *= comb(exps[pos], m)
                new[pos] = exps[pos] - m
            if not ok:
                continue
            new_key = list(key)
            new_key[slot] = tuple(new)
            terms[tuple(new_key)] = coeff * factor
        return Poly._trusted(self.n, terms)

    # ------------------------------------------------------------------
    # family structure

    def degree(self, family: str) -> int:
        """Max total exponent in one family; -1 for the zero polynomial."""
        slot = _SLOT[family]
        if not self.terms:
            return -1
        return max(sum(key[slot]) for key in self.terms)

    def fiber_degree(self) -> int:
        """Max combined a+b degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(k[1]) + sum(k[2]) for k in self.terms)

    def fiber_parts(self) -> dict[int, "Poly"]:
        """Split by total a+b degree."""
        buckets: dict[int, dict] = {}
        for key, coeff in self.terms.items():
            d = sum(key[1]) + sum(key[2])
            buckets.setdefault(d, {})[key] = coeff
        return {d: Poly._trusted(self.n, t) for d, t in sorted(buckets.items())}

    def bidegree_parts(self) -> dict[tuple[int, int], "Poly"]:
        """Split by (a-degree, b-degree)."""
        buckets: dict[tuple[int, int], dict] = {}
        for key, coeff in self.terms.items():
            d = (sum(key[1]), sum(key[2]))
            buckets.setdefault(d, {})[key] = coeff
        return {d: Poly._trusted(self.n, t) for d, t in sorted(buckets.items())}

    def eta_contract(self, family: str) -> "Poly":
        """Sum_i d/dx_i D_{v_i}: one x-derivative paired with one fiber
        derivative, the degree-lowering contraction of the calculus."""
        out = Poly.zero(self.n)
        for i in range(1, self.n + 1):
            step = self.diff(family, i)
            if step.is_zero():
                continue
            out = out + step.diff(X, i)
        return out

    def swap_fibers(self) -> "Poly":
        """Exchange the a and b families."""
        return Poly._trusted(
            self.n, {(xa, ba, aa): c for (xa, aa, ba), c in self.terms.items()})

    def fiber_sum_expand(self) -> "Poly":
        """Substitute a_i -> a_i + b_i (polarization helper).

        Input must be free of b variables."""
        if self.degree(BETA) > 0:
            raise ValueError("fiber_sum_expand expects a b-free polynomial")
        out = Poly.zero(self.n)
        for (xa, aa, _), coeff in self.terms.items():
            term = Poly(self.n, {(xa, _zero_exps(self.n), _zero_exps(self.n)): coeff})
            for pos, exp in enumerate(aa):
                if exp:
                    pair = (Poly.variable(self.n, ALPHA, pos + 1)
                            + Poly.variable(self.n, BETA, pos + 1))
                    term = term * pair ** exp
            out = out + term
        return out

    def move_alpha_to_beta(self) -> "Poly":
        """Rename the a family to b.  Input must be b-free."""
        if self.degree(BETA) > 0:
            raise ValueError("move_alpha_to_beta expects a b-free polynomial")
        return self.swap_fibers()


def multi_indices(n: int, order: int):
    """All exponent tuples of length n with |m| == order."""
    if order == 0:
        yield _zero_exps(n)
        return
    for combo in itertools.combinations_with_replacement(range(n), order):
        m = [0] * n
        for pos in combo:
            m[pos] += 1
        yield tuple(m)
