import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from courant.linalg import (
    poly_mat_det,
    poly_mat_identity,
    poly_mat_inverse_constant_det,
    poly_mat_mul,
    rational_det,
    solve,
)
from courant.poly import Poly
import courant.linalg as linalg
from fixtures import bareiss_det, bareiss_solve, laplace_adjugate, laplace_det, nullspace, rank


def test_det_basics():
    assert rational_det([]) == 1
    assert rational_det([[Fraction(3, 2)]]) == Fraction(3, 2)
    assert rational_det([[1, 2], [3, 4]]) == -2
    assert rational_det([[0, 1], [1, 0]]) == -1
    assert rational_det([[1, 2], [2, 4]]) == 0


def test_det_random_multiplicative():
    rng = random.Random(0)
    for _ in range(15):
        a = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        b = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)] for _ in range(3)]
        ab = [
            [sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert rational_det(ab) == rational_det(a) * rational_det(b)


def test_nullspace_examples():
    # x + y + z = 0 has a 2-dim kernel
    basis = nullspace([[1, 1, 1]], 3)
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0
        first = next(v for v in vec if v)
        assert first == 1
    assert nullspace([[1, 0], [0, 1]], 2) == []


def test_nullspace_zero_matrix():
    basis = nullspace([[0, 0]], 2)
    assert len(basis) == 2


def test_nullspace_random_annihilates():
    rng = random.Random(1)
    for _ in range(20):
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
            for _ in range(rng.randint(1, 5))
        ]
        for vec in nullspace(rows, 4):
            for row in rows:
                assert sum(r * v for r, v in zip(row, vec)) == 0


def test_solve_examples():
    x = solve([[2, 0], [0, 4]], [1, 1])
    assert x == [Fraction(1, 2), Fraction(1, 4)]
    assert solve([[1, 1], [1, 1]], [0, 1]) is None
    x = solve([[1, 1]], [2])
    assert x is not None and x[0] + x[1] == 2


def test_solve_random_consistency():
    rng = random.Random(2)
    for _ in range(20):
        a = [
            [Fraction(rng.randint(-3, 3)) for _ in range(3)]
            for _ in range(rng.randint(1, 4))
        ]
        target = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        rhs = [sum(row[j] * target[j] for j in range(3)) for row in a]
        x = solve(a, rhs)
        assert x is not None
        for row, b in zip(a, rhs):
            assert sum(r * v for r, v in zip(row, x)) == b


def test_poly_det_and_adjugate_inverse():
    one = Poly.const(2, 1)
    x = Poly.variable(2, 1)
    mat = [[one, x], [Poly.zero(2), one]]
    assert poly_mat_det(mat) == one
    inv = poly_mat_inverse_constant_det(mat)
    assert poly_mat_mul(mat, inv) == poly_mat_identity(2, 2)


def test_poly_inverse_rejects_nonconstant_det():
    x = Poly.variable(1, 1)
    one = Poly.const(1, 1)
    with pytest.raises(ValueError):
        poly_mat_inverse_constant_det([[one + x]])
    with pytest.raises(ValueError):
        poly_mat_inverse_constant_det([[Poly.zero(1)]])


def test_poly_det_laplace_random_vs_rational():
    rng = random.Random(3)
    for _ in range(10):
        vals = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)] for _ in range(3)]
        mat = [[Poly.const(0, v) for v in row] for row in vals]
        assert poly_mat_det(mat).constant_value() == rational_det(vals)


POLY_ENTRY = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 1)), st.fractions(-3, 3, max_denominator=3), max_size=2
).map(lambda terms: Poly(2, terms))


@st.composite
def poly_matrices(draw):
    """A square polynomial matrix, m <= 5; half of them L U with unit-
    diagonal L and a nonzero constant diagonal on U, so det is a nonzero
    constant and the inverse exists."""
    m = draw(st.integers(1, 5))
    a = [[draw(POLY_ENTRY) for _ in range(m)] for _ in range(m)]
    if draw(st.booleans()):
        one, zero = Poly.const(2, 1), Poly.zero(2)
        diag = [Poly.const(2, draw(st.fractions(1, 3, max_denominator=3))) for _ in range(m)]
        lower = [[one if i == j else a[i][j] if j < i else zero for j in range(m)] for i in range(m)]
        upper = [[diag[i] if i == j else a[i][j] if j > i else zero for j in range(m)] for i in range(m)]
        a = poly_mat_mul(lower, upper)
    return a


@settings(max_examples=150, deadline=None)
@given(poly_matrices())
def test_berkowitz_matches_laplace(a):
    det = laplace_det(a)
    assert poly_mat_det(a) == det
    if det.is_constant() and det.constant_value():
        scale = 1 / det.constant_value()
        expected = [[entry.scale(scale) for entry in row] for row in laplace_adjugate(a)]
        assert poly_mat_inverse_constant_det(a) == expected
    else:
        message = "matrix determinant is not constant: %s" % det if det else "matrix is singular"
        with pytest.raises(ValueError) as info:
            poly_mat_inverse_constant_det(a)
        assert str(info.value) == message


def test_inverse_8x8_makes_at_most_m4_sum_products(monkeypatch):
    # Laplace expansion makes ~e m! sum_products calls for the determinant
    # alone (~110,000 at m = 8); Berkowitz plus Horner make O(m^4)
    m = 8
    rng = random.Random(8)
    lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0 for j in range(m)] for i in range(m)]
    upper = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(m)] for i in range(m)]
    dense = [[sum(lower[i][k] * upper[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
    a = [[Poly.const(1, v) for v in row] for row in dense]
    calls = []
    counted = linalg.sum_products

    def counting(*args):
        calls.append(1)
        return counted(*args)

    monkeypatch.setattr(linalg, "sum_products", counting)
    inv = poly_mat_inverse_constant_det(a)
    monkeypatch.undo()
    assert len(calls) <= m ** 4
    assert poly_mat_mul(a, inv) == poly_mat_identity(1, m)


def test_rank():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[Fraction(1, 2), 1], [1, 2]]) == 1
    assert rank([[1, 2, 3], [0, Fraction(1, 3), 1], [1, 0, 0]]) == 3
    rng = random.Random(0)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3)] for _ in range(2)]
        # a third row in the span never raises the rank
        combo = [rows[0][j] * 2 - rows[1][j] for j in range(3)]
        assert rank(rows + [combo]) == rank(rows) == 3 - len(nullspace(rows, 3))


# -- the reduced-echelon kernel against the dense Bareiss oracle -------------

# about half the entries are zero, so the systems are sparse
ENTRY = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))


def _dot(row, x):
    return sum((r * v for r, v in zip(row, x)), Fraction(0))


@st.composite
def rows_with_combinations(draw, nrows, ncols):
    """Random rows, some replaced by a combination of two others, so
    rank deficiency is common."""
    rows = [[draw(ENTRY) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        if nrows > 1 and draw(st.integers(0, 3)) == 0:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s = draw(ENTRY)
            rows[i] = [x + s * y for x, y in zip(a, b)]
    return rows


@st.composite
def linear_systems(draw):
    """(A, b): b in the image of A (consistent) or random (often
    inconsistent once A is rank deficient)."""
    nrows, ncols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rows = draw(rows_with_combinations(nrows, ncols))
    if draw(st.booleans()):
        x = [draw(ENTRY) for _ in range(ncols)]
        rhs = [_dot(row, x) for row in rows]
    else:
        rhs = [draw(ENTRY) for _ in rows]
    return rows, rhs


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    return draw(rows_with_combinations(n, n))


@settings(max_examples=400, deadline=None)
@given(linear_systems())
def test_solve_matches_bareiss(system):
    rows, rhs = system
    x = solve(rows, rhs)
    assert x == bareiss_solve(rows, rhs)
    if x is not None:
        assert all(_dot(row, x) == b for row, b in zip(rows, rhs))


@settings(max_examples=300, deadline=None)
@given(square_matrices())
def test_det_matches_bareiss(matrix):
    assert rational_det(matrix) == bareiss_det(matrix)


def test_solve_zero_at_free_columns():
    # column 1 depends on column 0, so it is free and the solution is zero there
    assert solve([[1, 2, 0], [2, 4, 1]], [1, 3]) == [1, 0, 1]
    assert solve([[0, 1]], [5]) == [0, 5]
    assert solve([[1, 1]], [2]) == [2, 0]
    assert solve([[0, 0]], [1]) is None
    assert solve([], []) == []
