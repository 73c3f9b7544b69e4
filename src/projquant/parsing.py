"""Expression grammar for polynomials.

Literals are integers ``p`` or rationals ``p/q``; variables are ``x<i>``,
``a<i>``, ``b<i>`` with 1-based index at most n; operators are ``+ - * ^``
with ``^`` binding tightest, then ``*``, then ``+``/``-``; unary minus and
parentheses are allowed.  ``format_poly`` emits a canonical form that
``parse_poly`` reads back unchanged.

``parse_poly`` lexes the text once, with one compiled regex whose matches
the parser consumes one token at a time.  A malformed token becomes an
error token, reported only when the parser reaches it, so every error names
the first position at which the text stops being a prefix of a valid
expression.  A product of monomial factors (literals, variables and their
powers, unary minus) builds one exponent vector and one coefficient; `Poly`
multiplication and powers are used only for parenthesised sums.

The work of a parenthesised factor is predicted before it is expanded: a
power of a base with t terms is costed by the term pairs of the
square-and-multiply chain of `Poly.__pow__`, each power p^j taken at its
largest possible size C(j + t - 1, t - 1), and a product of two sums by the
product of their sizes.  Past ``TERM_PAIRS_LIMIT`` term pairs, or past
``COEFF_BITS_LIMIT`` bits in the largest coefficient a power can produce,
the parse fails with a ``ParseError`` at the ``^`` or ``*``.  Parentheses
nest at most ``NESTING_LIMIT`` deep.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb, lcm

from .poly import Poly

# Largest number of term pairs one product or power of parenthesised sums
# may multiply: (x1+a1)^k parses up to k = 409 and (x1+a1+b1)^k up to
# k = 42.
TERM_PAIRS_LIMIT = 2 ** 16

# Largest coefficient, in bits, that a power may produce: 2^k parses up to
# k = 4096.  With both limits the slowest accepted power measured,
# (1/31*x1 + 1/31*a1)^409, parses in about 1.5 s.
COEFF_BITS_LIMIT = 2 ** 12

# Deepest nesting of parentheses: each level takes two Python frames, so the
# default recursion limit of 1000 is never reached.
NESTING_LIMIT = 200


class ParseError(ValueError):
    """Syntax or range error, with the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# One token per match, after optional whitespace: an integer, an indexed
# variable, an operator, a variable letter without an index, any other
# character, or the end of the text.  The last three groups are errors.
_TOKEN = re.compile(r"\s*(?:(\d+)|([xab]\d+)|([-+*^()/])|([xab])|(\S)|\Z)")
_KINDS = (None, "int", "var", None, "bad", "bad")
_SLOTS = {"x": 0, "a": 1, "b": 2}


def _ceil_log2(value: int) -> int:
    return (value - 1).bit_length() if value > 1 else 0


def _power_pairs(t: int, k: int) -> int:
    """Term pairs Poly.__pow__ multiplies for a t-term base and exponent k,
    with p^j at its largest size C(j + t - 1, t - 1); stops counting once
    past TERM_PAIRS_LIMIT."""
    pairs = 0
    have, square = 0, 1
    while k and pairs <= TERM_PAIRS_LIMIT:
        if k & 1:
            pairs += comb(have + t - 1, t - 1) * comb(square + t - 1, t - 1)
            have += square
        k >>= 1
        if k:
            pairs += comb(square + t - 1, t - 1) ** 2
            square *= 2
    return pairs


def _power_bits(coeffs, k: int) -> int:
    """Upper bound on the bits of any coefficient of (sum c_i m_i)^k: with L
    the lcm of the denominators, each is an integer at most
    (L sum |c_i|)^k over L^k."""
    common = lcm(*(c.denominator for c in coeffs))
    top = sum(abs(c.numerator) * (common // c.denominator) for c in coeffs)
    return k * (_ceil_log2(top) + _ceil_log2(common))


def _check_power(coeffs, k: int, caret: int) -> None:
    """Reject a power of a base with these coefficients before expanding."""
    if len(coeffs) > 1 and _power_pairs(len(coeffs), k) > TERM_PAIRS_LIMIT:
        raise ParseError(
            f"power too large: more than {TERM_PAIRS_LIMIT} term pairs", caret)
    if _power_bits(coeffs, k) > COEFF_BITS_LIMIT:
        raise ParseError(
            f"power too large: coefficients over {COEFF_BITS_LIMIT} bits", caret)


class _Parser:
    def __init__(self, text: str, n: int):
        self.n = n
        self.depth = 0
        self._matches = _TOKEN.finditer(text)
        self.advance()

    def advance(self):
        """Move to the next token: sets kind ('int', 'var', an operator
        character, 'bad' or 'end') and value (its text)."""
        m = self.m = next(self._matches)
        group = m.lastindex
        if group is None:
            self.kind = "end"
        elif group == 3:
            self.kind = m.group(3)
        else:
            self.kind = _KINDS[group]
            self.value = m.group(group)

    def position(self, m=None) -> int:
        """Start of the current token, or of the token matched by m."""
        m = m or self.m
        return m.end() if m.lastindex is None else m.start(m.lastindex)

    def fail(self, message: str):
        """Raise at the current token; an error token reports itself."""
        if self.kind == "bad":
            ch = self.value
            if self.m.lastindex == 4:
                message = f"variable '{ch}' needs an index"
            else:
                message = f"unexpected character {ch!r}"
        raise ParseError(message, self.position())

    def parse(self) -> Poly:
        result = self.expr()
        if self.kind != "end":
            self.fail(f"unexpected {self.kind!r}")
        return result

    def expr(self) -> Poly:
        # Every summand adds straight into one term map.
        terms: dict = {}
        sign = 1
        while True:
            self.product(terms, sign)
            kind = self.kind
            if kind == "+":
                sign = 1
            elif kind == "-":
                sign = -1
            else:
                return Poly._trusted(self.n, {k: c for k, c in terms.items() if c})
            self.advance()

    def exponent(self) -> int:
        """The exponent after a '^', or 1 when there is none."""
        if self.kind != "^":
            return 1
        self.advance()
        if self.kind != "int":
            self.fail("exponent must be a non-negative integer")
        k = int(self.value)
        self.advance()
        return k

    def product(self, terms: dict, sign: int) -> None:
        """Parse one summand and add sign times it into terms."""
        n = self.n
        exps = [0] * (3 * n)
        num, den = sign, 1
        sums = None
        while True:
            while self.kind == "-":
                num = -num
                self.advance()
            kind = self.kind
            if kind == "var":
                name = self.value
                index = int(name[1:])
                if not 1 <= index <= n:
                    raise ParseError(
                        f"variable index out of range: {name} with n={n}",
                        self.position())
                self.advance()
                exps[_SLOTS[name[0]] * n + index - 1] += self.exponent()
            elif kind == "int":
                p, q = int(self.value), 1
                self.advance()
                if self.kind == "/":
                    self.advance()
                    if self.kind != "int":
                        self.fail("denominator must be an integer")
                    q = int(self.value)
                    if q == 0:
                        raise ParseError("zero denominator", self.position())
                    self.advance()
                if self.kind == "^":
                    caret = self.position()
                    k = self.exponent()
                    power = Fraction(p, q)
                    _check_power((power,), k, caret)
                    power **= k
                    p, q = power.numerator, power.denominator
                num *= p
                den *= q
            elif kind == "(":
                if self.depth == NESTING_LIMIT:
                    raise ParseError(
                        f"parentheses nested deeper than {NESTING_LIMIT}",
                        self.position())
                self.depth += 1
                self.advance()
                inner = self.expr()
                self.depth -= 1
                if self.kind != ")":
                    self.fail("expected ')'")
                self.advance()
                if self.kind == "^":
                    caret = self.position()
                    k = self.exponent()
                    _check_power(inner.terms.values(), k, caret)
                    inner = inner ** k
                if sums is not None:
                    if len(sums.terms) * len(inner.terms) > TERM_PAIRS_LIMIT:
                        raise ParseError(
                            f"product too large: more than {TERM_PAIRS_LIMIT} "
                            "term pairs", self.position(star))
                    inner = sums * inner
                sums = inner
            else:
                self.fail(f"unexpected {kind!r}")
            if self.kind != "*":
                break
            star = self.m
            self.advance()
        coeff = Fraction(num, den)
        if not coeff:
            return
        if sums is None:
            monomials = ((exps, coeff),)
        else:
            monomials = [([e + s for e, s in zip(exps, sum(key, ()))], c * coeff)
                         for key, c in sums.terms.items()]
        for flat, c in monomials:
            key = (tuple(flat[:n]), tuple(flat[n:2 * n]), tuple(flat[2 * n:]))
            old = terms.get(key)
            terms[key] = c if old is None else old + c


def parse_poly(text: str, n: int) -> Poly:
    """Parse an expression into a canonical Poly over dimension n."""
    Poly.zero(n)  # rejects a bad dimension before the text is read
    return _Parser(text, n).parse()


def _term_sort_key(key):
    xa, aa, ba = key
    return (-(sum(aa) + sum(ba)), aa, ba, xa)


def format_poly(p: Poly) -> str:
    """Canonical text form; parse_poly(format_poly(p), p.n) == p."""
    if p.is_zero():
        return "0"
    pieces = []
    for key in sorted(p.terms, key=_term_sort_key):
        coeff = p.terms[key]
        xa, aa, ba = key
        vars_part = []
        for letter, exps in (("x", xa), ("a", aa), ("b", ba)):
            for pos, exp in enumerate(exps):
                if exp == 1:
                    vars_part.append(f"{letter}{pos + 1}")
                elif exp > 1:
                    vars_part.append(f"{letter}{pos + 1}^{exp}")
        mag = abs(coeff)
        if not vars_part:
            body = str(mag)
        elif mag == 1:
            body = "*".join(vars_part)
        else:
            body = "*".join([str(mag)] + vars_part)
        pieces.append((coeff < 0, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out
