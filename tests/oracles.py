"""Independent recomputation helpers used by the tests.

sympy serves as a second arithmetic engine: polynomials are converted to
sympy expressions and the checked operation is redone there, so an agreement
is evidence about the implementation rather than a tautology.

The reference Casimir and projector below are the engine's former whole-body
forms: the symbol Casimir as a sum of second derivatives in the fiber
variables, and each isotypic projector as a Lagrange product of Casimir
applications to the whole x-dependent body.  `project_fiber_reference` is
the engine's former per-fiber-monomial projector: one Lagrange product of
shift-free Casimir applications per label, divided by its own eigenvalue
differences.

The reference degree-lowering correction is the engine's former
composition of whole-body `eta_contract`, `euler` and scaling.

`quantize_reference` and `symbol_map_reference` run the engine's former
level loop: decompose each correction, then add piece / gap label by label.

The reference resonance scans are the engine's former hand-written nests
over (i, p, j, q), with the label rule written out and every shift taken
from the checked `resonant_delta`.

`parse_reference` is the engine's former recursive-descent parser, which
re-lexed the text on every peek and built every factor as a Poly.

`span_decompose_reference` is the engine's former span membership test: a
dense Gaussian elimination over the monomial coordinates of every basis field.

The reference Lie derivatives, operator application and bracket are the
engine's former Poly chains: every step of every sum is a whole-Poly
product or difference, and each field derivative D^m X_l is an iterated
`diff_multi`.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

from projquant.casimir import casimir_eigenvalue, fiber_casimir
from projquant.densities import (ArityError, BidiffOp, Context, Density,
                                 SymbolPoly, VectorField, WeightMismatchError)
from projquant.isotypic import labels_for_degree
from projquant.parsing import ParseError
from projquant.quantization import ObstructionError
from projquant.slbasis import sl_basis
from projquant.poly import (ALPHA, BETA, DimensionMismatchError, Poly, X,
                            multi_indices)
from projquant.resonance import ResonanceTuple, is_critical, resonant_delta


def sympy_symbols(n: int):
    xs = sympy.symbols(f"x1:{n + 1}")
    as_ = sympy.symbols(f"a1:{n + 1}")
    bs = sympy.symbols(f"b1:{n + 1}")
    return xs, as_, bs


def to_sympy(p: Poly):
    xs, as_, bs = sympy_symbols(p.n)
    total = sympy.Integer(0)
    for (xa, aa, ba), coeff in p.terms.items():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for sym, exp in zip(xs + as_ + bs, xa + aa + ba):
            if exp:
                term *= sym ** exp
        total += term
    return sympy.expand(total)


def sympy_equal(p: Poly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


def ct_body_reference(body: Poly, ctx: Context) -> Poly:
    """Symbol Casimir: n(n+1)d(d-1) + 2(n+1)(1-d) Euler + the sum over
    families k, l and indices i, j of xi_ki xi_lj (D_li D_kj + D_lj D_ki)."""
    n = ctx.n
    d = ctx.delta
    fams = ctx.fiber_families()
    out = (n * (n + 1) * d * (d - 1)) * body
    for fam in fams:
        out = out + (2 * (n + 1) * (1 - d)) * body.euler(fam)
    for fam_k in fams:
        for fam_l in fams:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    xi_k_i = Poly.variable(n, fam_k, i)
                    xi_l_j = Poly.variable(n, fam_l, j)
                    cross = body.diff(fam_l, i).diff(fam_k, j)
                    straight = body.diff(fam_l, j).diff(fam_k, i)
                    out = out + xi_k_i * xi_l_j * (cross + straight)
    return out


def nc_body_reference(body: Poly, ctx: Context) -> Poly:
    """Degree-lowering correction through whole-body Poly operations: for
    each fiber family, 2 (Euler + (n+1) weight) applied to eta_contract."""
    n = ctx.n
    out = Poly.zero(n)
    for fam, lam in zip(ctx.fiber_families(), ctx.weights):
        contracted = body.eta_contract(fam)
        if contracted.is_zero():
            continue
        piece = contracted.euler(fam) + ((n + 1) * lam) * contracted
        out = out + 2 * piece
    return out


def project_reference(body: Poly, degree: int, p: int, ctx: Context) -> Poly:
    """Lagrange projector onto the (degree, p) block, applied to the whole
    homogeneous body."""
    gamma_p = casimir_eigenvalue(ctx.n, ctx.delta, degree, p)
    out = body
    for _, q in labels_for_degree(ctx, degree):
        if q == p:
            continue
        gamma_q = casimir_eigenvalue(ctx.n, ctx.delta, degree, q)
        shifted = ct_body_reference(out, ctx) - gamma_q * out
        out = shifted.scale(1 / (gamma_p - gamma_q))
    return out


def project_fiber_reference(u: tuple[int, ...], v: tuple[int, ...],
                            labels: tuple, gamma: list[int], n: int) -> list:
    """Isotypic pieces of the fiber monomial a^u b^v, as
    (label, ((u', v', coefficient), ...)) with zero pieces omitted; gamma
    holds the shift-free eigenvalues of the labels.

    Every label but the last is the Lagrange product of (C - gamma_q) over
    the other labels, taken with the shift-free Casimir so that the
    numerators stay integers; the last is the remainder, which equals its
    own Lagrange product because the interpolants sum to one."""
    euler = 2 * (n + 1)
    pieces = []
    rest = {(u, v): Fraction(1)}
    for label in labels[:-1]:
        num = {(u, v): 1}
        den = 1
        for _, q in labels:
            if q == label.p:
                continue
            step: dict = {}
            for (u1, v1), c in num.items():
                for u2, v2, k in fiber_casimir(u1, v1, -gamma[q], euler):
                    step[(u2, v2)] = step.get((u2, v2), 0) + c * k
            num = {key: c for key, c in step.items() if c}
            den *= gamma[label.p] - gamma[q]
            if not num:
                break
        if num:
            image = tuple((a, b, Fraction(c, den)) for (a, b), c in num.items())
            pieces.append((label, image))
            for a, b, c in image:
                rest[(a, b)] = rest.get((a, b), 0) - c
    last = tuple((a, b, c) for (a, b), c in rest.items() if c)
    if last:
        pieces.append((labels[-1], last))
    return pieces


def decompose_reference(sym: SymbolPoly) -> dict:
    """Nonzero Lagrange projections of every homogeneous part, by label."""
    out = {}
    for degree, part in sym.body.fiber_parts().items():
        for label in labels_for_degree(sym.context, degree):
            piece = project_reference(part, degree, label.p, sym.context)
            if not piece.is_zero():
                out[label] = SymbolPoly(piece, sym.context)
    return dict(sorted(out.items()))


def _prolong_reference(body: Poly, label, ctx: Context,
                       free_slots: set) -> Poly:
    """The triangular system below one eigencomponent, level by level: each
    correction is split by `project_reference`, and every piece is divided
    by its own gap, from `casimir_eigenvalue` at the context's shift."""
    gamma = casimir_eigenvalue(ctx.n, ctx.delta, *label)
    total = current = body
    for j in range(label.i - 1, -1, -1):
        correction = nc_body_reference(current, ctx)
        current = Poly.zero(ctx.n)
        for lab in labels_for_degree(ctx, j):
            gap = gamma - casimir_eigenvalue(ctx.n, ctx.delta, *lab)
            piece = project_reference(correction, j, lab.p, ctx)
            if gap == 0:
                if not piece.is_zero():
                    raise ObstructionError(label, lab, SymbolPoly(piece, ctx))
                free_slots.add(lab)
            elif not piece.is_zero():
                current = current + piece.scale(1 / gap)
        total = total + current
    return total


def _quantize_body_reference(body: Poly, ctx: Context, free_slots: set) -> Poly:
    total = Poly.zero(ctx.n)
    parts = decompose_reference(SymbolPoly(body, ctx))
    for label in sorted(parts, key=lambda label: (-label.i, label.p)):
        piece = parts[label]
        total = total + _prolong_reference(piece.body, label, ctx, free_slots)
    return total


def quantize_reference(sym: SymbolPoly) -> tuple:
    """(operator body, free slots) of the engine's former per-label level
    loop; raises ObstructionError as `quantize` does."""
    free_slots: set = set()
    return _quantize_body_reference(sym.body, sym.context, free_slots), free_slots


def symbol_map_reference(op: BidiffOp) -> tuple:
    """(symbol body, free slots) by principal-part peeling over
    `quantize_reference`."""
    ctx = op.context
    remaining = op.body
    collected = Poly.zero(ctx.n)
    free_slots: set = set()
    while not remaining.is_zero():
        top = remaining.fiber_parts()[remaining.fiber_degree()]
        collected = collected + top
        remaining = remaining - _quantize_body_reference(top, ctx, free_slots)
    return collected, free_slots


def _top_label(n: int, i: int) -> int:
    return 0 if n == 1 else i // 2


def label_pairs_reference(n: int, max_degree: int) -> list:
    """Every (i, p, j, q) with 1 <= i <= max_degree and j < i, in the order
    of the former nested loops."""
    pairs = []
    for i in range(1, max_degree + 1):
        for p in range(_top_label(n, i) + 1):
            for j in range(i):
                for q in range(_top_label(n, j) + 1):
                    pairs.append((i, p, j, q))
    return pairs


def bound_index_reference(n: int, delta) -> int:
    """Smallest degree i whose top-label shift resonant_delta(i, top; 0, 0)
    exceeds delta."""
    i = 1
    while resonant_delta(n, i, _top_label(n, i), 0, 0) <= delta:
        i += 1
    return i


def classify_reference(n: int, delta, max_order: int) -> tuple:
    """(cap, bound index, witnessing tuples) as classify_shift reports them."""
    bound = bound_index_reference(n, delta)
    cap = max(max_order, bound)
    tuples = [ResonanceTuple(i, p, j, q, delta, is_critical(i, p, j, q))
              for i, p, j, q in label_pairs_reference(n, cap)
              if resonant_delta(n, i, p, j, q) == delta]
    return cap, bound, tuples


def critical_values_reference(n: int, lo, hi) -> list:
    """Critical shifts in [lo, hi] with their tuples, grouped and sorted."""
    grouped: dict = {}
    for i, p, j, q in label_pairs_reference(n, bound_index_reference(n, hi) - 1):
        if 0 <= p - q <= i - j:
            d = resonant_delta(n, i, p, j, q)
            if lo <= d <= hi:
                grouped.setdefault(d, []).append(ResonanceTuple(i, p, j, q, d, True))
    return sorted(grouped.items())


# ----------------------------------------------------------------------
# the former parser


_VAR_LETTERS = {"x": X, "a": ALPHA, "b": BETA}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self):
        text, i = self.text, self.pos
        while i < len(text) and text[i].isspace():
            i += 1
        self.pos = i
        if i >= len(text):
            return ("end", None, i)
        ch = text[i]
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            return ("int", text[i:j], i)
        if ch in _VAR_LETTERS:
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError(f"variable '{ch}' needs an index", i)
            return ("var", text[i:j], i)
        if ch in "+-*^()/":
            return (ch, ch, i)
        raise ParseError(f"unexpected character {ch!r}", i)

    def next(self):
        kind, value, pos = self.peek()
        if kind == "int" or kind == "var":
            self.pos = pos + len(value)
        elif kind != "end":
            self.pos = pos + 1
        return (kind, value, pos)


class _Parser:
    def __init__(self, text: str, n: int):
        self.tok = _Tokenizer(text)
        self.n = n

    def parse(self) -> Poly:
        result = self.expr()
        kind, _, pos = self.tok.peek()
        if kind != "end":
            raise ParseError(f"unexpected {kind!r}", pos)
        return result

    def expr(self) -> Poly:
        # Summands accumulate into one term map: adding Poly values one by
        # one would copy the running sum for every summand.
        terms: dict = {}
        negate = False
        while True:
            for key, coeff in self.term().terms.items():
                terms[key] = terms.get(key, 0) + (-coeff if negate else coeff)
            kind, _, _ = self.tok.peek()
            if kind not in ("+", "-"):
                return Poly(self.n, terms)
            self.tok.next()
            negate = kind == "-"

    def term(self) -> Poly:
        value = self.prefix()
        while True:
            kind, _, _ = self.tok.peek()
            if kind == "*":
                self.tok.next()
                value = value * self.prefix()
            else:
                return value

    def prefix(self) -> Poly:
        kind, _, _ = self.tok.peek()
        if kind == "-":
            self.tok.next()
            return -self.prefix()
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        kind, _, _ = self.tok.peek()
        if kind == "^":
            self.tok.next()
            kind, value, pos = self.tok.next()
            if kind != "int":
                raise ParseError("exponent must be a non-negative integer", pos)
            return base ** int(value)
        return base

    def atom(self) -> Poly:
        kind, value, pos = self.tok.next()
        if kind == "int":
            numer = int(value)
            kind2, _, _ = self.tok.peek()
            if kind2 == "/":
                self.tok.next()
                kind3, value3, pos3 = self.tok.next()
                if kind3 != "int":
                    raise ParseError("denominator must be an integer", pos3)
                denom = int(value3)
                if denom == 0:
                    raise ParseError("zero denominator", pos3)
                return Poly.constant(self.n, Fraction(numer, denom))
            return Poly.constant(self.n, numer)
        if kind == "var":
            family = _VAR_LETTERS[value[0]]
            index = int(value[1:])
            if not 1 <= index <= self.n:
                raise ParseError(
                    f"variable index out of range: {value} with n={self.n}", pos)
            return Poly.variable(self.n, family, index)
        if kind == "(":
            inner = self.expr()
            kind2, _, pos2 = self.tok.next()
            if kind2 != ")":
                raise ParseError("expected ')'", pos2)
            return inner
        raise ParseError(f"unexpected {kind!r}", pos)


def parse_reference(text: str, n: int) -> Poly:
    """The former recursive-descent parse_poly: re-lexes on every peek and
    builds every factor as a Poly."""
    return _Parser(text, n).parse()


# ----------------------------------------------------------------------
# the former span decomposition


def _coordinate_index(n: int, max_degree: int) -> list:
    zero = (0,) * n
    keys = [(m, zero, zero) for order in range(max_degree + 1)
            for m in multi_indices(n, order)]
    return [(slot, key) for slot in range(n) for key in keys]


def _field_coordinates(field, coords: list) -> list[Fraction]:
    return [field.components[slot].terms.get(key, Fraction(0))
            for slot, key in coords]


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]):
    """Solve matrix @ c = rhs over the rationals; None when inconsistent.

    Columns are basis fields, rows are monomial coordinates."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    aug = [list(matrix[r]) + [rhs[r]] for r in range(rows)]
    pivot_cols = []
    r = 0
    for c in range(cols):
        pivot = next((k for k in range(r, rows) if aug[k][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for k in range(rows):
            if k != r and aug[k][c] != 0:
                factor = aug[k][c]
                aug[k] = [vk - factor * vr for vk, vr in zip(aug[k], aug[r])]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    for k in range(r, rows):
        if aug[k][cols] != 0:
            return None
    solution = [Fraction(0)] * cols
    for row, c in enumerate(pivot_cols):
        solution[c] = aug[row][cols]
    return solution


def span_decompose_reference(field, n: int):
    """Coefficients of a field in the basis by Gaussian elimination; None
    if not in the span."""
    pairs = sl_basis(n)
    coords = _coordinate_index(n, max(2, field.x_degree()))
    matrix_cols = [_field_coordinates(p.element, coords) for p in pairs]
    matrix = [[matrix_cols[c][r] for c in range(len(pairs))]
              for r in range(len(coords))]
    solution = _solve_exact(matrix, _field_coordinates(field, coords))
    if solution is None:
        return None
    return {pairs[k].label: coeff for k, coeff in enumerate(solution) if coeff != 0}


# ----------------------------------------------------------------------
# the former Poly-chain kernels of the sl(n+1) action


def lie_density_reference(field, phi):
    """Derivative along the field plus weight times divergence."""
    out = Poly.zero(phi.n)
    for i, comp in enumerate(field.components):
        out = out + comp * phi.value.diff(X, i + 1)
    out = out + phi.weight * field.divergence() * phi.value
    return Density(out, phi.weight)


def apply_operator_reference(op, *args):
    """Each term x^s a^u b^v contributes x^s * D^u(arg1) * D^v(arg2)."""
    ctx = op.context
    if len(args) != ctx.arity:
        raise ArityError(f"expected {ctx.arity} arguments, got {len(args)}")
    for arg, weight in zip(args, ctx.weights):
        if arg.n != ctx.n:
            raise DimensionMismatchError("argument dimension differs")
        if arg.weight != weight:
            raise WeightMismatchError(
                f"argument weight {arg.weight} != context weight {weight}")
    fams = ctx.fiber_families()
    slots = {ALPHA: 0, BETA: 1}
    out = Poly.zero(ctx.n)
    for (xa, aa, ba), coeff in op.body.terms.items():
        fiber_exps = (aa, ba)
        piece = Poly(ctx.n, {(xa, (0,) * ctx.n, (0,) * ctx.n): coeff})
        for fam in fams:
            derived = args[slots[fam]].value.diff_multi(X, fiber_exps[slots[fam]])
            piece = piece * derived
            if piece.is_zero():
                break
        out = out + piece
    return Density(out, ctx.mu)


def pairing_derivative_reference(field, body):
    """<X, eta> body: derivatives hitting the coefficient part."""
    out = Poly.zero(body.n)
    for i, comp in enumerate(field.components):
        step = body.diff(X, i + 1)
        if step.is_zero():
            continue
        out = out + comp * step
    return out


def lie_symbol_reference(field, sym):
    """Tensor-field Lie derivative in fiber coordinates."""
    ctx = sym.context
    body = sym.body
    n = ctx.n
    out = pairing_derivative_reference(field, body)
    for fam in ctx.fiber_families():
        if body.degree(fam) <= 0:
            continue
        for ell in range(n):
            xi_l = Poly.variable(n, fam, ell + 1)
            for k in range(n):
                dX = field.components[ell].diff(X, k + 1)
                if dX.is_zero():
                    continue
                step = body.diff(fam, k + 1)
                if step.is_zero():
                    continue
                out = out - dX * xi_l * step
    out = out + ctx.delta * field.divergence() * body
    return SymbolPoly(out, ctx)


def lie_operator_reference(field, op):
    """Operator Lie derivative as a Taylor series of whole-body terms."""
    ctx = op.context
    body = op.body
    n = ctx.n
    out = pairing_derivative_reference(field, body)
    max_order = max(field.x_degree(), 0)
    for fam, lam in zip(ctx.fiber_families(), ctx.weights):
        fam_degree = body.degree(fam)
        if fam_degree <= 0:
            continue
        for order in range(1, min(max_order, fam_degree) + 1):
            for m in multi_indices(n, order):
                step = body.taylor_diff(fam, m)
                if step.is_zero():
                    continue
                for ell in range(n):
                    dX = field.components[ell].diff_multi(X, m)
                    if not dX.is_zero():
                        out = out - dX * Poly.variable(n, fam, ell + 1) * step
                    if lam == 0:
                        continue
                    m_plus = list(m)
                    m_plus[ell] += 1
                    dX2 = field.components[ell].diff_multi(X, tuple(m_plus))
                    if not dX2.is_zero():
                        out = out - lam * dX2 * step
    out = out + ctx.delta * field.divergence() * body
    return BidiffOp(out, ctx)


def bracket_reference(first, second):
    """Lie bracket, component by component through Poly products."""
    n = first.n
    comps = []
    for i in range(n):
        out = Poly.zero(n)
        for j in range(n):
            out = out + first.components[j] * second.components[i].diff(X, j + 1)
            out = out - second.components[j] * first.components[i].diff(X, j + 1)
        comps.append(out)
    return VectorField(tuple(comps))
