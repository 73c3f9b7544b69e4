"""Expression grammar for polynomials.

Literals are integers ``p`` or rationals ``p/q``; variables are ``x<i>``,
``a<i>``, ``b<i>`` with 1-based index at most n; operators are ``+ - * ^``
with ``^`` binding tightest, then ``*``, then ``+``/``-``; unary minus and
parentheses are allowed.  ``format_poly`` emits a canonical form that
``parse_poly`` reads back unchanged.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import ALPHA, BETA, Poly, X


class ParseError(ValueError):
    """Syntax or range error, with the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


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


def parse_poly(text: str, n: int) -> Poly:
    """Parse an expression into a canonical Poly over dimension n."""
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
