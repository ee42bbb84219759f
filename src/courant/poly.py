"""Exact sparse multivariate polynomials over the rationals.

A polynomial in variables x1..xn is stored as integer numerators over
one common denominator, the layout of FLINT's ``fmpq_mpoly``:
``num`` maps exponent tuples (one nonnegative int per variable) to
nonzero ints and ``den`` is a positive int.  The value is
sum(num[e] * x^e) / den, kept canonical:

- ``den >= 1`` and ``gcd(den, *num.values()) == 1``;
- ``num`` holds no zero numerators;
- the zero polynomial has an empty ``num`` and ``den == 1``.

So ring operations and ``diff`` do pure ``int`` arithmetic plus one
``gcd`` reduction per result (none when the denominator is 1), and two
polynomials are equal iff they have the same variable count,
denominator and numerators, which makes every identity in this package
a decidable exact equality.

``terms`` is a read-only view of the coefficients themselves: ints
when a coefficient's reduced denominator is 1, ``fractions.Fraction``
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Coeff = Union[int, Fraction]


def _coeff(num: int, den: int) -> Coeff:
    """num / den as an int when the reduced denominator is 1, else a Fraction."""
    c = Fraction(num, den)
    return c.numerator if c.denominator == 1 else c


def _make(nvars: int, num: Dict[Exponent, int], den: int) -> "Poly":
    """A Poly from zero-free numerators over a positive denominator,
    reduced to canonical form."""
    if den != 1:
        if not num:
            den = 1
        else:
            g = gcd(den, *num.values())
            if g != 1:
                den //= g
                num = {exp: c // g for exp, c in num.items()}
    out = Poly.__new__(Poly)
    out.nvars = nvars
    out.num = num
    out.den = den
    out._hash = None
    return out


class Poly:
    """Immutable multivariate polynomial with exact rational coefficients."""

    __slots__ = ("nvars", "num", "den", "_hash")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Coeff] = ()):
        coeffs: Dict[Exponent, Fraction] = {}
        for exp, c in dict(terms).items():
            if c:
                if len(exp) != nvars:
                    raise ValueError(
                        "exponent %r has length %d, expected %d" % (exp, len(exp), nvars)
                    )
                coeffs[tuple(exp)] = Fraction(c)
        # the lcm of reduced denominators is coprime to the numerators
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.nvars = nvars
        self.num = {exp: c.numerator * (den // c.denominator) for exp, c in coeffs.items()}
        self.den = den
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return _make(nvars, {}, 1)

    @staticmethod
    def const(nvars: int, value: Coeff) -> "Poly":
        value = Fraction(value)
        if not value:
            return _make(nvars, {}, 1)
        return _make(nvars, {(0,) * nvars: value.numerator}, value.denominator)

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        """The polynomial x_index, with 1-based index."""
        if not 1 <= index <= nvars:
            raise ValueError("variable index %d out of range 1..%d" % (index, nvars))
        exp = [0] * nvars
        exp[index - 1] = 1
        return _make(nvars, {tuple(exp): 1}, 1)

    # -- coefficients --------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Coeff]:
        """Read-only map from exponent to nonzero coefficient."""
        den = self.den
        if den == 1:
            return MappingProxyType(self.num)
        return MappingProxyType(
            {exp: _coeff(c, den) for exp, c in self.num.items()}
        )

    # -- ring structure ------------------------------------------------

    def _check_compat(self, other: "Poly") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                "variable-count mismatch: %d vs %d" % (self.nvars, other.nvars)
            )

    def __bool__(self) -> bool:
        return bool(self.num)

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, sign = 1 or -1."""
        self._check_compat(other)
        if not other.num:
            return self
        da, db = self.den, other.den
        if da == db:
            num = dict(self.num)
            mb = sign
        else:
            g = gcd(da, db)
            ma = db // g
            num = {exp: c * ma for exp, c in self.num.items()}
            da *= ma
            mb = sign * (da // db)
        get = num.get
        for exp, c in other.num.items():
            s = get(exp, 0) + c * mb
            if s:
                num[exp] = s
            else:
                del num[exp]
        return _make(self.nvars, num, da)

    def __add__(self, other: "Poly") -> "Poly":
        if not self.num:
            self._check_compat(other)
            return other
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        if not self.num:
            return self
        return _make(self.nvars, {exp: -c for exp, c in self.num.items()}, self.den)

    def __mul__(self, other) -> "Poly":
        if type(other) is not Poly:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        self._check_compat(other)
        if not self.num:
            return self
        if not other.num:
            return other
        a, b = self.num, other.num
        if len(a) > len(b):
            a, b = b, a
        num: Dict[Exponent, int] = {}
        get = num.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = tuple(map(int.__add__, ea, eb))
                num[exp] = get(exp, 0) + ca * cb
        if 0 in num.values():
            num = {exp: c for exp, c in num.items() if c}
        return _make(self.nvars, num, self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c: Coeff) -> "Poly":
        if not self.num:
            return self
        if type(c) is not int:
            if type(c) is not Fraction:
                c = Fraction(c)
            if c.denominator != 1:
                return _make(
                    self.nvars,
                    {exp: v * c.numerator for exp, v in self.num.items()},
                    self.den * c.denominator,
                )
            c = c.numerator
        if c == 1:
            return self
        if not c:
            return _make(self.nvars, {}, 1)
        return _make(self.nvars, {exp: v * c for exp, v in self.num.items()}, self.den)

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
        return self.nvars == other.nvars and self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.nvars, self.den, frozenset(self.num.items())))
        return self._hash

    # -- calculus ------------------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Exact formal partial derivative with respect to x_index (1-based)."""
        if not 1 <= index <= self.nvars:
            raise ValueError("variable index %d out of range 1..%d" % (index, self.nvars))
        if not self.num:
            return self
        i = index - 1
        # exp -> exp - e_i is injective, so no two terms collide
        num = {
            exp[:i] + (exp[i] - 1,) + exp[index:]: c * exp[i]
            for exp, c in self.num.items()
            if exp[i]
        }
        return _make(self.nvars, num, self.den)

    def evaluate(self, point: Iterable[Coeff]) -> Fraction:
        """Evaluate at a rational point (used by test oracles)."""
        pt = [Fraction(v) for v in point]
        if len(pt) != self.nvars:
            raise ValueError("point has wrong dimension")
        total = Fraction(0)
        for exp, c in self.num.items():
            v = Fraction(c)
            for x, e in zip(pt, exp):
                if e:
                    v *= x ** e
            total += v
        return total / self.den

    def is_constant(self) -> bool:
        return all(not any(exp) for exp in self.num)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self)
        return Fraction(self.num.get((0,) * self.nvars, 0), self.den)

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
        if not self.num:
            return "0"
        pieces = []
        for pos, (exp, c) in enumerate(self._sorted_terms()):
            mono = self._monomial_str(exp)
            neg = c < 0
            mag = -c if neg else c
            if mono:
                body = mono if mag == 1 else "%s*%s" % (mag, mono)
            else:
                body = str(mag)
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


def coefficient_vectors(polys: Sequence[Poly]) -> List[Tuple[Exponent, List[Fraction]]]:
    """Each monomial of ``polys`` in sorted order, with its coefficient
    in every polynomial (0 where absent), as Fractions."""
    monos = sorted({exp for poly in polys for exp in poly.num})
    return [(exp, [Fraction(poly.num.get(exp, 0), poly.den) for poly in polys]) for exp in monos]


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

# Size ceilings on parsed input, so that a short line cannot exhaust
# memory or time: the exponent of a power; the terms of every
# intermediate result, where a product (each step of a power included)
# is refused before it is computed when its factors' term counts
# multiply to more; and the bits of every numerator and denominator,
# since nested powers of a constant grow them exponentially.
MAX_EXPONENT = 16
MAX_TERMS = 1000
MAX_COEFF_BITS = 4096


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
        try:
            return int(self.src[start:self.pos])
        except ValueError:  # beyond the interpreter's digit limit for int()
            raise PolyParseError("number too long", start) from None

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
            start = self.pos
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
            return self.bounded(Poly.const(self.nvars, value), start)
        raise PolyParseError("expected rational, variable or '('", self.pos)

    def bounded(self, value: Poly, offset: int) -> Poly:
        """``value``, unless it exceeds MAX_TERMS or MAX_COEFF_BITS."""
        if len(value.num) > MAX_TERMS:
            raise PolyParseError("more than %d terms" % MAX_TERMS, offset)
        if max([value.den, *map(abs, value.num.values())]).bit_length() > MAX_COEFF_BITS:
            raise PolyParseError("coefficient longer than %d bits" % MAX_COEFF_BITS, offset)
        return value

    def product(self, a: Poly, b: Poly, offset: int) -> Poly:
        if len(a.num) * len(b.num) > MAX_TERMS:
            raise PolyParseError("product could have more than %d terms" % MAX_TERMS, offset)
        return self.bounded(a * b, offset)

    def parse_factor(self) -> Poly:
        base = self.parse_atom()
        if self.peek() != "^":
            return base
        self.pos += 1
        offset = self.pos
        k = self.parse_uint()
        if k > MAX_EXPONENT:
            raise PolyParseError("exponent %d above %d" % (k, MAX_EXPONENT), offset)
        value = Poly.const(self.nvars, 1)
        for _ in range(k):
            value = self.product(value, base, offset)
        return value

    def parse_term(self) -> Poly:
        value = self.parse_factor()
        while self.peek() == "*":
            offset = self.pos
            self.pos += 1
            value = self.product(value, self.parse_factor(), offset)
        return value

    def parse_expr(self) -> Poly:
        value = self.parse_term()
        while True:
            ch = self.peek()
            offset = self.pos
            if ch == "+":
                self.pos += 1
                value = self.bounded(value + self.parse_term(), offset)
            elif ch == "-":
                self.pos += 1
                value = self.bounded(value - self.parse_term(), offset)
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
