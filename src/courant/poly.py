"""Exact sparse multivariate polynomials over the rationals.

A polynomial in variables x1..xn is stored as integer numerators over
one common denominator, the layout of FLINT's ``fmpq_mpoly``:
``num`` maps packed monomials to nonzero ints and ``den`` is a positive
int.  The value is sum(num[e] * x^e) / den, kept canonical:

- ``den >= 1`` and ``gcd(den, *num.values()) == 1``;
- ``num`` holds no zero numerators;
- the zero polynomial has an empty ``num`` and ``den == 1``.

So ring operations and ``diff`` do pure ``int`` arithmetic plus one
``gcd`` reduction per result (none when the denominator is 1), and two
polynomials are equal iff they have the same variable count,
denominator and numerators, which makes every identity in this package
a decidable exact equality.

A monomial x1^e1 ... xn^en is packed into one int, the packed exponent
vectors of Monagan and Pearce (CASC 2007): each variable owns a
``FIELD_BITS`` = 64-bit field, x1 the most significant and xn the least,
so the key is sum(e_i << 64 (n - i)).  Numeric order of keys is then
exactly lexicographic order of exponent tuples, the product of two
monomials is the sum of their keys, and d/dx_i subtracts 1 << 64 (n - i)
after reading the factor e_i from its field.  ``Poly(nvars, terms)``
accepts only exponents that fit a field (ints in 0..2^64 - 1).

A sum of keys is the key of the product only while no field carries
into its neighbour, that is while every exponent of the product stays
below 2^64.  The package's input polynomials come from the parser,
which refuses any intermediate result of degree above ``MAX_DEGREE`` =
2^32 - 1 in some variable (without that ceiling, nested powers such as
``((x1^16)^16)^16`` grow the degree exponentially in the input length,
16^100 at the nesting limit).  Every polynomial computed from parsed
data is a sum of products of boundedly many input coefficients and
their derivatives (a Dorfman bracket multiplies a handful, a
determinant of a fiber matrix at most ``cli.MAX_FIBER_DIM`` = 16, and
the checks nest these a few times), while reaching 2^64 takes more
than 2^32 factors of degree below 2^32; so no product overflows a
field.

``terms``, ``coefficient_vectors``, ``is_constant``, ``constant_value``
and ``str`` unpack keys at the boundary: the public view is exponent
tuples.  ``terms`` is a read-only view of the
coefficients themselves: ints when a coefficient's reduced denominator
is 1, ``fractions.Fraction`` otherwise.

``sum_products`` is the contraction kernel: sum(c * a * b) over (c, a,
b) triples goes into one numerator dict over one common denominator and
is reduced once, not rebuilt one ``acc + (a*b).scale(c)`` at a time.
The fiber pairing, bracket and adjoint matrix run it over the nonzero
tensor entries, and ``linalg``'s matrix products once per entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from struct import Struct
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

Exponent = Tuple[int, ...]
Coeff = Union[int, Fraction]

FIELD_BITS = 64
_FIELD_MASK = (1 << FIELD_BITS) - 1


def _pack(exp: Exponent, nvars: int) -> int:
    """The key of an exponent tuple; ValueError unless it has ``nvars``
    entries, each an int that fits a field."""
    if len(exp) != nvars:
        raise ValueError("exponent %r has length %d, expected %d" % (exp, len(exp), nvars))
    key = 0
    for e in exp:
        if type(e) is not int or not 0 <= e <= _FIELD_MASK:
            raise ValueError("exponent %r: entries must be ints in 0..2^%d-1" % (exp, FIELD_BITS))
        key = key << FIELD_BITS | e
    return key


@lru_cache(maxsize=None)
def _fields(nvars: int) -> Struct:
    # nvars big-endian unsigned 64-bit fields, x1 first
    return Struct(">%dQ" % nvars)


def _unpack(key: int, nvars: int) -> Exponent:
    """The exponent tuple of a key."""
    return _fields(nvars).unpack(key.to_bytes(nvars * FIELD_BITS // 8, "big"))


def _coeff(num: int, den: int) -> Coeff:
    """num / den as an int when the reduced denominator is 1, else a Fraction."""
    c = Fraction(num, den)
    return c.numerator if c.denominator == 1 else c


def _make(nvars: int, num: Dict[int, int], den: int) -> "Poly":
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
        coeffs: Dict[int, Fraction] = {}
        for exp, c in dict(terms).items():
            key = _pack(exp, nvars)
            if c:
                coeffs[key] = Fraction(c)
        # the lcm of reduced denominators is coprime to the numerators
        den = lcm(*(c.denominator for c in coeffs.values()))
        self.nvars = nvars
        self.num = {exp: c.numerator * (den // c.denominator) for exp, c in coeffs.items()}
        self.den = den
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def zero(nvars: int) -> "Poly":
        """The zero polynomial, one shared object per variable count: exact,
        since a Poly is never mutated."""
        return Poly(nvars)

    @staticmethod
    def const(nvars: int, value: Coeff) -> "Poly":
        value = Fraction(value)
        if not value:
            return Poly.zero(nvars)
        return _make(nvars, {0: value.numerator}, value.denominator)

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        """The polynomial x_index, with 1-based index."""
        if not 1 <= index <= nvars:
            raise ValueError("variable index %d out of range 1..%d" % (index, nvars))
        return _make(nvars, {1 << FIELD_BITS * (nvars - index): 1}, 1)

    # -- coefficients --------------------------------------------------

    @property
    def terms(self) -> Mapping[Exponent, Coeff]:
        """Read-only map from exponent to nonzero coefficient."""
        nvars, den = self.nvars, self.den
        if den == 1:
            return MappingProxyType({_unpack(key, nvars): c for key, c in self.num.items()})
        return MappingProxyType(
            {_unpack(key, nvars): _coeff(c, den) for key, c in self.num.items()}
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
        num: Dict[int, int] = {}
        get = num.get
        for ea, ca in a.items():
            for eb, cb in b.items():
                exp = ea + eb
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
            return Poly.zero(self.nvars)
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
        shift = FIELD_BITS * (self.nvars - index)
        one = 1 << shift
        # key -> key - one is injective, so no two terms collide
        num = {
            key - one: c * e
            for key, c in self.num.items()
            if (e := key >> shift & _FIELD_MASK)
        }
        return _make(self.nvars, num, self.den)

    def is_constant(self) -> bool:
        return not any(self.num)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial, as a Fraction."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self)
        return Fraction(self.num.get(0, 0), self.den)

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


def sum_products(nvars: int, triples: Iterable[Tuple[Coeff, Poly, Poly]]) -> Poly:
    """sum(c * a * b for c, a, b in triples) for int or Fraction c, in the
    caller's ``nvars`` variables: one numerator dict over the lcm of the
    pieces' denominators (rescaled when a piece raises it), reduced by one
    ``_make``.  Pieces with a zero factor are skipped."""
    num: Dict[int, int] = {}
    get = num.get
    den = 1
    for c, a, b in triples:
        if a.nvars != nvars or b.nvars != nvars:
            raise ValueError("variable-count mismatch: %d, %d vs %d" % (a.nvars, b.nvars, nvars))
        an, bn = a.num, b.num
        if not (an and bn):
            continue
        d = a.den * b.den
        if type(c) is not int:
            d *= c.denominator
            c = c.numerator
        if den % d:
            up = lcm(den, d) // den
            for exp in num:
                num[exp] *= up
            den *= up
        c *= den // d
        if len(an) > len(bn):
            an, bn = bn, an
        for ea, ca in an.items():
            ca *= c
            for eb, cb in bn.items():
                exp = ea + eb
                num[exp] = get(exp, 0) + ca * cb
    if 0 in num.values():
        num = {exp: v for exp, v in num.items() if v}
    return _make(nvars, num, den) if num else Poly.zero(nvars)


def coefficient_vectors(polys: Sequence[Poly]) -> List[Tuple[Exponent, List[Fraction]]]:
    """Each monomial of ``polys`` in sorted order, with its coefficient
    in every polynomial (0 where absent), as Fractions."""
    monos = sorted({key for poly in polys for key in poly.num})
    return [
        (_unpack(key, polys[0].nvars), [Fraction(poly.num.get(key, 0), poly.den) for poly in polys])
        for key in monos
    ]


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
# multiply to more; the bits of every numerator and denominator, since
# nested powers of a constant grow them exponentially; and, for the same
# reason, the degree in each variable, which keeps every product the
# package computes inside the 64-bit exponent fields (module docstring).
MAX_EXPONENT = 16
MAX_TERMS = 1000
MAX_COEFF_BITS = 4096
MAX_DEGREE = 2 ** 32 - 1


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
        # the bits of every exponent field above MAX_DEGREE, a power of 2 minus 1
        self.degree_mask = sum(
            (_FIELD_MASK ^ MAX_DEGREE) << FIELD_BITS * i for i in range(nvars)
        )

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
        """``a * b``, unless it exceeds a ceiling.  Only products raise a
        degree, and factors of degree <= MAX_DEGREE < 2^32 give exponents
        below 2^33, so the product's fields hold them without carries."""
        if len(a.num) * len(b.num) > MAX_TERMS:
            raise PolyParseError("product could have more than %d terms" % MAX_TERMS, offset)
        value = self.bounded(a * b, offset)
        if any(key & self.degree_mask for key in value.num):
            raise PolyParseError("degree above %d in a variable" % MAX_DEGREE, offset)
        return value

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
