import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from courant import Poly, PolyParseError, parse_poly
from courant.cli import MAX_BASE_DIM
from courant.poly import (
    MAX_COEFF_BITS,
    MAX_DEGREE,
    MAX_EXPONENT,
    MAX_TERMS,
    coefficient_vectors,
    sum_products,
)
from fixtures import evaluate


def rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 4))


def random_poly(rng, nvars, max_degree=3, terms=4):
    out = {}
    for _ in range(terms):
        exp = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            exp[rng.randrange(nvars)] += 1
        out[tuple(exp)] = out.get(tuple(exp), 0) + rational(rng)
    return Poly(nvars, out)


def test_product_ring_identity():
    a = parse_poly("x1+1", 1)
    b = parse_poly("x1-1", 1)
    assert a * b == parse_poly("x1^2-1", 1)


def test_additive_inverse():
    rng = random.Random(0)
    for _ in range(20):
        p = random_poly(rng, 3)
        assert (p - p) == Poly.zero(3)


def test_scalar_product_evaluation_oracle():
    # (1/2 x1)(2/3 x2) checked at 5 random rational points
    a = Poly(2, {(1, 0): Fraction(1, 2)})
    b = Poly(2, {(0, 1): Fraction(2, 3)})
    prod = a * b
    assert prod == Poly(2, {(1, 1): Fraction(1, 3)})
    rng = random.Random(1)
    for _ in range(5):
        pt = [rational(rng), rational(rng)]
        assert evaluate(prod, pt) == evaluate(a, pt) * evaluate(b, pt)


def test_mul_matches_pointwise_oracle_random():
    rng = random.Random(2)
    for _ in range(25):
        a = random_poly(rng, 2)
        b = random_poly(rng, 2)
        prod = a * b
        for _ in range(5):
            pt = [rational(rng), rational(rng)]
            assert evaluate(prod, pt) == evaluate(a, pt) * evaluate(b, pt)


def test_partial_derivative_power_rule():
    p = parse_poly("x1^2*x2", 2)
    assert p.diff(1) == parse_poly("2*x1*x2", 2)
    assert parse_poly("x1^3", 2).diff(2) == Poly.zero(2)


def test_mixed_partials_commute():
    rng = random.Random(3)
    for _ in range(30):
        p = random_poly(rng, 3, max_degree=4)
        assert p.diff(1).diff(2) == p.diff(2).diff(1)


def test_derivative_linear_and_leibniz():
    rng = random.Random(4)
    for _ in range(20):
        p = random_poly(rng, 2)
        q = random_poly(rng, 2)
        assert (p + q).diff(1) == p.diff(1) + q.diff(1)
        assert (p * q).diff(1) == p.diff(1) * q + p * q.diff(1)


def test_variable_count_mismatch():
    with pytest.raises(ValueError):
        Poly.zero(2) + Poly.zero(3)


def test_derivative_index_range():
    with pytest.raises(ValueError):
        Poly.zero(2).diff(3)
    with pytest.raises(ValueError):
        Poly.zero(2).diff(0)


# -- parsing ------------------------------------------------------------------


def test_parse_examples():
    p = parse_poly("3/2*x1^2*x3 - x2", 3)
    assert p == Poly(3, {(2, 0, 1): Fraction(3, 2), (0, 1, 0): -1})
    assert parse_poly("0", 3) == Poly.zero(3)
    assert parse_poly("(x1+1)^2", 1) == parse_poly("x1^2 + 2*x1 + 1", 1)


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x3", 2)
    assert "out of range" in str(err.value)
    assert err.value.offset == 0


def test_parse_error_offsets():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 + @", 2)
    assert err.value.offset == 5
    with pytest.raises(PolyParseError) as err:
        parse_poly("x1 ^ x2", 2)
    assert err.value.offset == 5
    with pytest.raises(PolyParseError) as err:
        parse_poly("(x1+1", 2)
    assert err.value.offset == 5


def test_parse_strict_grammar():
    # a unary minus is only legal inside a rational atom
    with pytest.raises(PolyParseError):
        parse_poly("-x1", 1)
    assert parse_poly("-1*x1", 1) == Poly(1, {(1,): -1})
    assert parse_poly("3*-2", 1) == Poly.const(1, -6)
    assert parse_poly("-3/2", 1) == Poly.const(1, Fraction(-3, 2))


def test_print_is_grammar_conformant():
    cases = [
        Poly(2, {(1, 0): -1}),
        Poly(2, {(0, 0): Fraction(-3, 2)}),
        Poly(2, {(2, 1): Fraction(5, 7), (0, 0): -2}),
        Poly.zero(2),
    ]
    for p in cases:
        assert parse_poly(str(p), 2) == p


@st.composite
def polys(draw, nvars=2):
    n_terms = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(draw(st.integers(0, 3)) for _ in range(nvars))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 5))
        terms[exp] = terms.get(exp, 0) + Fraction(num, den)
    return Poly(nvars, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(polys())
def test_parse_print_roundtrip(p):
    assert parse_poly(str(p), 2) == p


def test_canonical_graded_lex_printing():
    p = Poly(2, {(0, 2): 1, (1, 1): 1, (2, 0): 1, (0, 0): 1, (1, 0): 1})
    assert str(p) == "x1^2 + x1*x2 + x2^2 + x1 + 1"


def test_pow():
    x = Poly.variable(1, 1)
    assert x ** 0 == Poly.const(1, 1)
    assert x ** 5 == Poly(1, {(5,): 1})
    with pytest.raises(ValueError):
        x ** -1


def test_parse_size_ceilings():
    # each ceiling tested only at ceiling + 1: above it the parser refuses
    # the input before computing anything large
    assert MAX_EXPONENT == 16 and MAX_TERMS == 1000 and MAX_COEFF_BITS == 4096
    cases = [
        ("x1^17", 1, "exponent 17 above 16"),
        # 7 x 143 = 1001 possible terms
        (
            "(%s)*(%s)" % (
                " + ".join("x1^%d" % i for i in range(7)),
                " + ".join("x2^%d*x3^%d" % (j, k) for j in range(11) for k in range(13)),
            ),
            3,
            "product could have more than 1000 terms",
        ),
        (
            " + ".join("x1^%d*x2^%d*x3^%d" % (i, j, k) for i in range(7) for j in range(11) for k in range(13)),
            3,
            "more than 1000 terms",
        ),
        # 2^4096 has 4097 bits, as a literal and as nested powers
        (str(2 ** 4096), 0, "coefficient longer than 4096 bits"),
        ("((2^16)^16)^16", 0, "coefficient longer than 4096 bits"),
        # more digits than int() converts by default
        ("1" * 4301, 0, ""),
    ]
    for src, nvars, message in cases:
        with pytest.raises(PolyParseError) as err:
            parse_poly(src, nvars)
        assert message in str(err.value)


def test_parse_nesting_limit():
    # nesting is bounded well below the interpreter's recursion limit
    assert parse_poly("(" * 100 + "x1" + ")" * 100, 1) == Poly.variable(1, 1)
    for depth in (101, 5000):
        with pytest.raises(PolyParseError) as err:
            parse_poly("(" * depth + "x1" + ")" * depth, 1)
        assert "nested deeper than 100" in str(err.value)
        assert err.value.offset == 100


# -- the numerator/denominator layout against a dict-of-Fraction model --------


def assert_canonical(p):
    # exact == relies on this form: den >= 1, gcd(den, *num) == 1, no zero
    # numerators, den == 1 for the zero polynomial
    assert type(p.den) is int and p.den >= 1
    assert all(type(c) is int and c for c in p.num.values())
    assert math.gcd(p.den, *p.num.values()) == 1
    assert p.num or p.den == 1


def model_add(a, b, sign=1):
    out = dict(a)
    for exp, c in b.items():
        out[exp] = out.get(exp, 0) + sign * c
    return {exp: c for exp, c in out.items() if c}


def model_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb
    return {exp: c for exp, c in out.items() if c}


def model_diff(a, index):
    i = index - 1
    return {exp[:i] + (exp[i] - 1,) + exp[i + 1:]: c * exp[i] for exp, c in a.items() if exp[i]}


def model_str(a):
    if not a:
        return "0"
    out = ""
    ordered = sorted(a.items(), key=lambda item: (-sum(item[0]), [-e for e in item[0]]))
    for pos, (exp, c) in enumerate(ordered):
        mono = "*".join(
            "x%d" % (i + 1) if e == 1 else "x%d^%d" % (i + 1, e) for i, e in enumerate(exp) if e
        )
        mag = abs(c)
        num = str(mag.numerator) if mag.denominator == 1 else str(mag)
        body = mono if mono and mag == 1 else ("%s*%s" % (num, mono) if mono else num)
        if pos == 0:
            out = body if c > 0 else ("-1*" + mono if mono and mag == 1 else "-" + body)
        else:
            out += (" - " if c < 0 else " + ") + body
    return out


def assert_matches(p, model, nvars):
    assert_canonical(p)
    assert dict(p.terms) == model
    for c in p.terms.values():
        assert type(c) is (int if Fraction(c).denominator == 1 else Fraction)
    rebuilt = Poly(nvars, model)
    assert p == rebuilt and hash(p) == hash(rebuilt)
    assert str(p) == model_str(model)
    if all(not any(exp) for exp in model):
        assert p.constant_value() == model.get((0,) * nvars, 0)


@st.composite
def models(draw, nvars):
    # denominators with common factors, so sums and products need reduction
    model = {}
    for _ in range(draw(st.integers(0, 4))):
        exp = tuple(draw(st.integers(0, 20)) for _ in range(nvars))
        c = Fraction(draw(st.integers(-6, 6)), draw(st.sampled_from([1, 2, 3, 4, 6])))
        model[exp] = model.get(exp, 0) + c
    return {exp: c for exp, c in model.items() if c}


scalars = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 6]))


@st.composite
def model_pairs(draw):
    # every base dimension a config may have, exponents far past the
    # shipped configs', so that products and derivatives cross fields
    nvars = draw(st.integers(0, MAX_BASE_DIM))
    return nvars, draw(models(nvars)), draw(models(nvars))


def model_coefficient_vectors(models):
    # monomials in lexicographic order of exponent tuples
    monos = sorted({exp for model in models for exp in model})
    return [(exp, [Fraction(model.get(exp, 0)) for model in models]) for exp in monos]


@settings(max_examples=300, deadline=None)
@given(model_pairs(), scalars, st.integers(0, 3))
def test_poly_matches_fraction_model(pair, c, k):
    nvars, ma, mb = pair
    a, b = Poly(nvars, ma), Poly(nvars, mb)
    assert_matches(a, ma, nvars)
    assert (a == b) == (ma == mb)
    assert_matches(a + b, model_add(ma, mb), nvars)
    assert_matches(a - b, model_add(ma, mb, -1), nvars)
    assert_matches(a - a, {}, nvars)
    assert_matches(-a, model_add({}, ma, -1), nvars)
    product = model_mul(ma, mb)
    assert_matches(a * b, product, nvars)
    power = {(0,) * nvars: Fraction(1)}
    for _ in range(k):
        power = model_mul(power, ma)
    assert_matches(a ** k, power, nvars)
    scaled = {exp: v * c for exp, v in ma.items() if v * c}
    for p in (a.scale(c), a * c, c * a):
        assert_matches(p, scaled, nvars)
    if c.denominator == 1:
        assert_matches(a.scale(c.numerator), scaled, nvars)
    for index in range(1, nvars + 1):
        assert_matches(a.diff(index), model_diff(ma, index), nvars)
    polys = [a, b, a * b]
    assert coefficient_vectors(polys) == model_coefficient_vectors([ma, mb, product])


def test_reduction_to_canonical_form():
    # in one variable the packed key of x1^e is e itself
    half = Poly(1, {(1,): Fraction(1, 2), (0,): Fraction(1, 2)})
    assert (half.num, half.den) == ({1: 1, 0: 1}, 2)
    doubled = half * 2
    assert (doubled.num, doubled.den) == ({1: 1, 0: 1}, 1)
    assert doubled == parse_poly("x1 + 1", 1)
    assert dict(doubled.terms) == {(1,): 1, (0,): 1}
    assert (half - half).den == 1 and not (half - half).num
    third = Poly(1, {(1,): Fraction(1, 6)}) + Poly(1, {(1,): Fraction(1, 6)})
    assert (third.num, third.den) == ({1: 1}, 3)
    assert third.terms[(1,)] == Fraction(1, 3)


def test_packed_monomial_layout():
    # one 64-bit field per variable, x1 most significant
    p = Poly(3, {(1, 2, 3): 5, (0, 0, 7): Fraction(1, 2), (0, 0, 0): 1})
    assert (p.num, p.den) == ({1 << 128 | 2 << 64 | 3: 10, 7: 1, 0: 2}, 2)
    assert Poly.variable(3, 1).num == {1 << 128: 1}
    assert Poly.variable(3, 3).num == {1: 1}
    # numeric order of keys is lexicographic order of exponent tuples
    exps = [(0, 0, 2 ** 64 - 1), (0, 1, 0), (1, 0, 0), (2, 0, 0), (2, 2 ** 64 - 1, 3)]
    keys = [next(iter(Poly(3, {e: 1}).num)) for e in exps]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    # a product adds keys; diff reads the factor from the field
    q = p * Poly.variable(3, 2)
    assert q.num == {1 << 128 | 3 << 64 | 3: 10, 1 << 64 | 7: 1, 1 << 64: 2}
    assert p.diff(3).num == {1 << 128 | 2 << 64 | 2: 30, 6: 7}
    assert dict(p.diff(3).terms) == {(1, 2, 2): 15, (0, 0, 6): Fraction(7, 2)}


def test_exponents_must_fit_a_field():
    top = 2 ** 64 - 1
    assert Poly(2, {(top, 0): 1}).terms == {(top, 0): 1}
    assert str(Poly(2, {(0, top): 1}).diff(2)) == "%d*x2^%d" % (top, top - 1)
    for nvars, exp in [
        (1, (-1,)),
        (2, (1.5, 0)),
        (2, (0, 2 ** 64)),
        (2, (Fraction(1), 0)),
        (2, (1,)),
    ]:
        with pytest.raises(ValueError):
            Poly(nvars, {exp: 1})


def test_parse_degree_ceiling():
    # nested powers grow the degree exponentially in the input length, so
    # the parser bounds the degree in each variable of every result
    assert MAX_DEGREE == 2 ** 32 - 1
    nested = "x2"
    for _ in range(8):
        nested = "(%s)^16" % nested
    # the highest power of x2: 2^32 - 1 = sum over k < 8 of 15 * 16^k
    top = "*".join("(%sx2%s)^15" % ("(" * k, ")^16" * k) for k in range(8))
    assert parse_poly(top, 2).terms == {(0, 2 ** 32 - 1): 1}
    assert parse_poly(top + "*x1^7", 2).terms == {(7, 2 ** 32 - 1): 1}
    for src in (nested, top + "*x2", "x1*" + top + "*x2", "(%s)^2" % top):
        with pytest.raises(PolyParseError) as err:
            parse_poly(src, 2)
        assert "degree above 4294967295 in a variable" in str(err.value)


# -- the fused sum-of-products kernel -------------------------------------------


@st.composite
def product_sums(draw):
    # int and Fraction coefficients (0 among them), zero factors, and
    # denominators with common factors across the pieces
    nvars = draw(st.integers(0, MAX_BASE_DIM))
    coeffs = st.one_of(st.integers(-6, 6), scalars)
    triples = draw(st.lists(st.tuples(coeffs, models(nvars), models(nvars)), max_size=5))
    return nvars, [(c, Poly(nvars, ma), Poly(nvars, mb)) for c, ma, mb in triples]


@settings(max_examples=300, deadline=None)
@given(product_sums(), st.booleans())
def test_sum_products_matches_accumulate_loop(case, cancel):
    nvars, triples = case
    if cancel:
        # every piece again, negated and with its factors swapped
        triples = triples + [(-c, b, a) for c, a, b in triples]
    expected = Poly.zero(nvars)
    for c, a, b in triples:
        expected = expected + (a * b).scale(c)
    got = sum_products(nvars, triples)
    assert_canonical(got)
    assert got == expected
    if cancel:
        assert not got.num and got.den == 1


def test_sum_products_variable_count():
    # the caller's variable count, also for an empty sum
    assert sum_products(3, []) is Poly.zero(3)
    one = Poly.const(2, 1)
    assert sum_products(2, [(Fraction(1, 2), one, one), (-1, one, one)]) == Poly.const(2, Fraction(-1, 2))
    with pytest.raises(ValueError, match="variable-count mismatch"):
        sum_products(3, [(1, one, one)])
    with pytest.raises(ValueError, match="variable-count mismatch"):
        sum_products(2, [(1, one, Poly.zero(3))])


def test_zero_is_shared_per_variable_count():
    assert Poly.zero(4) is Poly.zero(4)
    assert Poly.zero(4) is not Poly.zero(3)
    assert Poly.const(4, 0) is Poly.zero(4)
    assert parse_poly("x1", 4).scale(0) is Poly.zero(4)
    assert_canonical(Poly.zero(0))
