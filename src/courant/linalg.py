"""Exact rational and polynomial-matrix linear algebra.

Rational matrices are lists of lists with int/Fraction entries.  The
elimination routines clear denominators and run fraction-free (Bareiss)
row reduction over the integers, so intermediate values stay integral;
solutions and nullspace vectors are reported as exact rationals.

Polynomial matrices (entries :class:`courant.poly.Poly`) get the small
dense helpers needed for structure transport: product, determinant via
Laplace expansion, and the adjugate used to invert a matrix whose
determinant is a nonzero constant.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import List, Optional, Sequence, Tuple

from .poly import Poly, sum_products

Vec = List[Fraction]
Mat = List[List[Fraction]]


def _clear_denominators(row: Sequence) -> List[int]:
    fracs = [Fraction(v) for v in row]
    scale = lcm(*(v.denominator for v in fracs))
    return [int(v * scale) for v in fracs]


def _bareiss_echelon(matrix: List[List[int]]) -> Tuple[List[List[int]], List[int], int]:
    """Fraction-free row echelon form; returns (rows, pivot column list,
    sign of the row permutation)."""
    m = [row[:] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: List[int] = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, sign


def rational_det(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant; the empty 0x0 matrix has determinant 1.

    The last Bareiss pivot of the cleared integer matrix is its
    determinant up to the row-swap sign; dividing by the row lcms undoes
    the clearing."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    ech, pivots, sign = _bareiss_echelon([_clear_denominators(row) for row in matrix])
    if len(pivots) < n:
        return Fraction(0)
    scale = prod(lcm(*(Fraction(v).denominator for v in row)) for row in matrix)
    return Fraction(sign * ech[-1][-1], scale)


def nullspace(matrix: Sequence[Sequence], ncols: int) -> List[Vec]:
    """Basis of the right nullspace, each vector scaled so its first
    nonzero entry is 1; ordered by ascending free column."""
    rows = [_clear_denominators(row) for row in matrix if any(Fraction(v) for v in row)]
    if not rows:
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
            for i in range(ncols)
        ]
    ech, pivots, _ = _bareiss_echelon(rows)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis: List[Vec] = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        # back-substitute pivot entries
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = Fraction(0)
            for j in range(c + 1, ncols):
                if vec[j]:
                    s += Fraction(ech[r][j]) * vec[j]
            vec[c] = -s / ech[r][c]
        first = next(v for v in vec if v)
        basis.append([v / first for v in vec])
    return basis


def rank(matrix: Sequence[Sequence]) -> int:
    """Exact rank of a rational matrix."""
    rows = [_clear_denominators(row) for row in matrix]
    return len(_bareiss_echelon(rows)[1])


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[Vec]:
    """One exact solution of ``matrix @ x = rhs`` or None if inconsistent."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [_clear_denominators(list(row) + [b]) for row, b in zip(matrix, rhs)]
    if not aug:
        return [Fraction(0)] * ncols
    ech, pivots, _ = _bareiss_echelon(aug)
    if ncols in pivots:
        return None  # pivot in the augmented column
    x = [Fraction(0)] * ncols
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        s = Fraction(ech[r][ncols])
        for j in range(c + 1, ncols):
            if x[j]:
                s -= Fraction(ech[r][j]) * x[j]
        x[c] = s / ech[r][c]
    return x


# -- polynomial matrices ------------------------------------------------


def poly_mat_zero(nvars: int, nrows: int, ncols: int) -> List[List[Poly]]:
    zero = Poly.zero(nvars)
    return [[zero for _ in range(ncols)] for _ in range(nrows)]


def poly_mat_identity(nvars: int, n: int) -> List[List[Poly]]:
    one = Poly.const(nvars, 1)
    zero = Poly.zero(nvars)
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def poly_mat_mul(a, b):
    """a @ b, one ``sum_products`` call per entry."""
    inner, ncols = len(b), len(b[0]) if b else 0
    if a and len(a[0]) != inner:
        raise ValueError("matrix shape mismatch")
    if not ncols:
        return [[] for _ in a]
    nvars = b[0][0].nvars
    cols = list(zip(*b))
    return [
        [sum_products(nvars, [(1, x, y) for x, y in zip(row, col)]) for col in cols]
        for row in a
    ]


def poly_mat_vec(a, v):
    """a @ v, one ``sum_products`` call per entry."""
    nvars = v[0].nvars if v else 0
    return [sum_products(nvars, [(1, x, y) for x, y in zip(row, v)]) for row in a]


def poly_mat_diff(a, index: int):
    return [[x.diff(index) for x in row] for row in a]


def poly_mat_det(a) -> Poly:
    """Determinant by Laplace expansion; fine for the small fiber sizes here."""
    n = len(a)
    if n == 0:
        raise ValueError("cannot infer variable count of an empty determinant")
    if any(len(row) != n for row in a):
        raise ValueError("determinant of a non-square matrix")
    nvars = a[0][0].nvars
    if n == 1:
        return a[0][0]

    def minor_det(rows: Tuple[int, ...], cols: Tuple[int, ...]) -> Poly:
        if len(rows) == 1:
            return a[rows[0]][cols[0]]
        r, rest = rows[0], rows[1:]
        terms = [
            (-1 if pos % 2 else 1, a[r][c], minor_det(rest, cols[:pos] + cols[pos + 1:]))
            for pos, c in enumerate(cols)
            if a[r][c]
        ]
        return sum_products(nvars, terms)

    return minor_det(tuple(range(n)), tuple(range(n)))


def poly_mat_adjugate(a) -> List[List[Poly]]:
    n = len(a)
    nvars = a[0][0].nvars
    if n == 1:
        return [[Poly.const(nvars, 1)]]
    adj = poly_mat_zero(nvars, n, n)
    idx = tuple(range(n))
    for i in range(n):
        rows = idx[:i] + idx[i + 1:]
        for j in range(n):
            cols = idx[:j] + idx[j + 1:]
            minor = [[a[r][c] for c in cols] for r in rows]
            d = poly_mat_det(minor)
            adj[j][i] = d if (i + j) % 2 == 0 else -d
    return adj


def poly_mat_inverse_constant_det(a) -> List[List[Poly]]:
    """Inverse of a polynomial matrix whose determinant is a nonzero constant.

    Raises ValueError when the determinant is non-constant or zero, since
    the inverse would then leave the polynomial ring.
    """
    det = poly_mat_det(a)
    if not det.is_constant():
        raise ValueError("matrix determinant is not constant: %s" % det)
    value = det.constant_value()
    if value == 0:
        raise ValueError("matrix is singular")
    adj = poly_mat_adjugate(a)
    inv_det = Fraction(1) / value
    return [[entry.scale(inv_det) for entry in row] for row in adj]
