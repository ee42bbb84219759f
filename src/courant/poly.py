"""Exact sparse multivariate polynomials over the rationals.

A polynomial in variables x1..xn is stored as a dict mapping exponent
tuples (one nonnegative int per variable) to nonzero rational
coefficients.  Coefficients are Python ints when the denominator is 1
and ``fractions.Fraction`` otherwise; both interoperate transparently
and hash consistently, so canonical forms compare by plain ``==``.

The zero polynomial has an empty term dict.  Two polynomials are equal
iff they have the same variable count and identical term dicts, which
makes every identity in this package a decidable exact equality.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Mapping, Tuple, Union

Exponent = Tuple[int, ...]
Coeff = Union[int, Fraction]


def _norm_coeff(c: Coeff) -> Coeff:
    """Collapse denominator-1 fractions to plain ints."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


def coeff_str(c: Coeff) -> str:
    """Render a rational coefficient as 'p' or 'p/q'."""
    c = _norm_coeff(c)
    if isinstance(c, Fraction):
        return "%d/%d" % (c.numerator, c.denominator)
    return str(c)


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Coeff] = ()):
        self.nvars = nvars
        clean: Dict[Exponent, Coeff] = {}
        for exp, c in dict(terms).items():
            c = _norm_coeff(c)
            if c:
                if len(exp) != nvars:
                    raise ValueError(
                        "exponent %r has length %d, expected %d" % (exp, len(exp), nvars)
                    )
                clean[tuple(exp)] = c
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, value: Coeff) -> "Poly":
        value = _norm_coeff(Fraction(value) if not isinstance(value, (int, Fraction)) else value)
        if not value:
            return Poly(nvars)
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        """The polynomial x_index, with 1-based index."""
        if not 1 <= index <= nvars:
            raise ValueError("variable index %d out of range 1..%d" % (index, nvars))
        exp = [0] * nvars
        exp[index - 1] = 1
        return Poly(nvars, {tuple(exp): 1})

    # -- ring structure ------------------------------------------------

    def _check_compat(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                "variable-count mismatch: %d vs %d" % (self.nvars, other.nvars)
            )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compat(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if s:
                terms[exp] = _norm_coeff(s)
            elif exp in terms:
                del terms[exp]
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = terms
        out._hash = None
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_compat(other)
        if not other.terms:
            return self
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) - c
            if s:
                terms[exp] = _norm_coeff(s)
            elif exp in terms:
                del terms[exp]
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = terms
        out._hash = None
        return out

    def __neg__(self) -> "Poly":
        if not self.terms:
            return self
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = {exp: -c for exp, c in self.terms.items()}
        out._hash = None
        return out

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compat(other)
        if not self.terms:
            return self
        if not other.terms:
            return other
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms: Dict[Exponent, Coeff] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(map(int.__add__, ea, eb))
                s = terms.get(exp, 0) + ca * cb
                if s:
                    terms[exp] = s
                elif exp in terms:
                    del terms[exp]
        for exp, c in terms.items():
            terms[exp] = _norm_coeff(c)
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = terms
        out._hash = None
        return out

    __rmul__ = __mul__

    def scale(self, c: Coeff) -> "Poly":
        if not self.terms:
            return self
        c = _norm_coeff(c)
        if not c:
            return Poly(self.nvars)
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = {exp: _norm_coeff(v * c) for exp, v in self.terms.items()}
        out._hash = None
        return out

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    # -- calculus ------------------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Exact formal partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.nvars:
            raise ValueError("variable index %d out of range 1..%d" % (index, self.nvars))
        if not self.terms:
            return self
        i = index - 1
        terms: Dict[Exponent, Coeff] = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e:
                new = exp[:i] + (e - 1,) + exp[i + 1:]
                s = terms.get(new, 0) + c * e
                if s:
                    terms[new] = _norm_coeff(s)
                elif new in terms:
                    del terms[new]
        out = Poly.__new__(Poly)
        out.nvars = self.nvars
        out.terms = terms
        out._hash = None
        return out

    def evaluate(self, point: Iterable[Coeff]) -> Fraction:
        """Evaluate at a rational point (used by test oracles)."""
        pt = [Fraction(v) for v in point]
        if len(pt) != self.nvars:
            raise ValueError("point has wrong dimension")
        total = Fraction(0)
        for exp, c in self.terms.items():
            v = Fraction(c)
            for x, e in zip(pt, exp):
                if e:
                    v *= x ** e
            total += v
        return total

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self)
        if not self.terms:
            return Fraction(0)
        return Fraction(next(iter(self.terms.values())))

    # -- canonical printing --------------------------------------------

    def _sorted_terms(self):
        # descending graded-lex: higher total degree first, then lex on exponents
        return sorted(
            self.terms.items(),
            key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
        )

    @staticmethod
    def _monomial_str(exp: Exponent) -> str:
        parts = []
        for i, e in enumerate(exp):
            if e == 1:
                parts.append("x%d" % (i + 1))
            elif e > 1:
                parts.append("x%d^%d" % (i + 1, e))
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for pos, (exp, c) in enumerate(self._sorted_terms()):
            mono = self._monomial_str(exp)
            neg = c < 0
            mag = -c if neg else c
            if mono:
                body = mono if mag == 1 else "%s*%s" % (coeff_str(mag), mono)
            else:
                body = coeff_str(mag)
            if pos == 0:
                if neg:
                    # keep the output inside the expression grammar: a
                    # leading sign must belong to a rational atom
                    body = ("-1*%s" % mono) if (mono and mag == 1) else "-" + body
                pieces.append(body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return "Poly(%d, %s)" % (self.nvars, str(self))


class PolyParseError(ValueError):
    """Syntax or range error in a polynomial expression.

    Carries the byte offset of the offending character in ``offset``.
    """

    def __init__(self, message: str, offset: int):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


# Deepest accepted parenthesis nesting: the parser recurses once per
# level, so a bound keeps hostile input from exhausting the stack.
MAX_NESTING = 100


class _Parser:
    # expr   := term (('+'|'-') term)*
    # term   := factor ('*' factor)*
    # factor := atom ('^' uint)?
    # atom   := rational | var | '(' expr ')'
    # rational := ['-'] uint ('/' uint)?
    # var    := 'x' uint

    def __init__(self, src: str, nvars: int):
        self.src = src
        self.nvars = nvars
        self.pos = 0
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise PolyParseError("expected '%s'" % ch, self.pos)
        self.pos += 1

    def parse_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.src) and self.src[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PolyParseError("expected digit", start)
        return int(self.src[start:self.pos])

    def parse_atom(self) -> Poly:
        ch = self.peek()
        if ch == "(":
            if self.depth == MAX_NESTING:
                raise PolyParseError("parentheses nested deeper than %d" % MAX_NESTING, self.pos)
            self.depth += 1
            self.pos += 1
            value = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return value
        if ch == "x":
            start = self.pos
            self.pos += 1
            index = self.parse_uint()
            if index < 1 or index > self.nvars:
                raise PolyParseError(
                    "variable index %d out of range 1..%d" % (index, self.nvars), start
                )
            return Poly.variable(self.nvars, index)
        if ch == "-" or ch.isdigit():
            neg = ch == "-"
            if neg:
                self.pos += 1
            num = self.parse_uint()
            den = 1
            if self.peek() == "/":
                self.pos += 1
                den = self.parse_uint()
                if den == 0:
                    raise PolyParseError("zero denominator", self.pos - 1)
            value = Fraction(-num if neg else num, den)
            return Poly.const(self.nvars, value)
        raise PolyParseError("expected rational, variable or '('", self.pos)

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            return base ** self.parse_uint()
        return base

    def parse_term(self) -> Poly:
        value = self.parse_factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.parse_factor()
        return value

    def parse_expr(self) -> Poly:
        value = self.parse_term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.parse_term()
            elif ch == "-":
                self.pos += 1
                value = value - self.parse_term()
            else:
                return value


def parse_poly(src: str, nvars: int) -> Poly:
    """Parse a polynomial expression; see the README for the grammar."""
    parser = _Parser(src, nvars)
    value = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(src):
        raise PolyParseError("unexpected trailing input", parser.pos)
    return value
