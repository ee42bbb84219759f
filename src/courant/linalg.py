"""Exact rational and polynomial-matrix linear algebra.

Rational matrices are lists of lists with int/Fraction entries.  One
sparse reduced-row-echelon routine over ``Fraction`` (``_rref``) does
every exact elimination: ``solve`` reads one solution off the reduced
form and ``rational_det`` reads the determinant off the pivots.

Polynomial matrices (entries :class:`courant.poly.Poly`) get the small
dense helpers needed for structure transport: product, and the
determinant and the inverse of a matrix whose determinant is a nonzero
constant, both read off the characteristic polynomial with ring
operations only (Berkowitz), so their cost grows as m^4, not m!.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .poly import Poly, sum_products

Row = Dict[int, Fraction]


def _minus(row: Row, factor: Fraction, other: Row) -> Row:
    """row - factor * other, keeping only nonzero entries."""
    keys = row.keys() | other.keys()
    return {j: w for j in keys if (w := row.get(j, 0) - factor * other.get(j, 0))}


def _rref(rows: Sequence[Sequence], ncols: int) -> Tuple[Dict[int, Row], Fraction]:
    """Reduced row echelon form of ``rows``, inserted one row at a time.

    Returns a map from each pivot column to its row (the nonzero entries,
    1 at the pivot, 0 at every other pivot column) and the determinant:
    the product of the leading entries times the sign of the order in
    which the pivots appeared, or 0 once a row reduces to zero.  Each
    pivot row is zero left of its pivot, so column c is a pivot exactly
    when it is independent of columns 0..c-1."""
    pivots: Dict[int, Row] = {}
    det = Fraction(1)
    for dense in rows:
        row = {j: Fraction(dense[j]) for j in range(ncols) if dense[j]}
        for c in [c for c in row if c in pivots]:
            row = _minus(row, row[c], pivots[c])
        if not row:
            det = Fraction(0)
            continue
        lead = min(row)
        scale = row[lead]
        det *= scale * (-1) ** sum(c > lead for c in pivots)
        row = {j: v / scale for j, v in row.items()}
        for c, other in pivots.items():
            if lead in other:
                pivots[c] = _minus(other, other[lead], row)
        pivots[lead] = row
    return pivots, det


def rational_det(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant; the empty 0x0 matrix has determinant 1."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    return _rref(matrix, n)[1]


def solve(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[List[Fraction]]:
    """The solution of ``matrix @ x = rhs`` that is zero at every free
    column, or None if the system is inconsistent."""
    ncols = len(matrix[0]) if matrix else 0
    pivots, _ = _rref([list(row) + [b] for row, b in zip(matrix, rhs)], ncols + 1)
    if ncols in pivots:
        return None  # pivot in the augmented column
    return [pivots.get(c, {}).get(ncols, Fraction(0)) for c in range(ncols)]


# -- polynomial matrices ------------------------------------------------


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


def _charpoly(a) -> List[Poly]:
    """Coefficients c_0 = 1, c_1, .., c_m of det(t I - a) = sum c_i t^(m-i).

    Berkowitz's division-free algorithm, O(m^4) ring operations where
    Laplace expansion takes O(m!): going up from the trailing 1x1 block,
    each step multiplies the coefficients of the trailing block M by the
    Toeplitz matrix whose first column is 1, -a_rr, -R C, -R M C, ..,
    -R M^(s-1) C, for the row R and column C that border M in row r."""
    m = len(a)
    if m == 0:
        raise ValueError("cannot infer variable count of an empty determinant")
    if any(len(row) != m for row in a):
        raise ValueError("determinant of a non-square matrix")
    nvars = a[0][0].nvars
    one = Poly.const(nvars, 1)
    coeffs = [one, -a[m - 1][m - 1]]
    for r in range(m - 2, -1, -1):
        sub = [row[r + 1:] for row in a[r + 1:]]
        border, col = a[r][r + 1:], [row[r] for row in a[r + 1:]]
        column = [one, -a[r][r]]
        for k in range(m - 1 - r):
            if k:
                col = poly_mat_vec(sub, col)
            column.append(sum_products(nvars, [(-1, x, y) for x, y in zip(border, col)]))
        coeffs = [
            sum_products(nvars, [(1, column[i - j], c) for j, c in enumerate(coeffs[: i + 1])])
            for i in range(len(column))
        ]
    return coeffs


def poly_mat_det(a) -> Poly:
    """Determinant, (-1)^m times the last coefficient of the characteristic polynomial."""
    last = _charpoly(a)[-1]
    return -last if len(a) % 2 else last


def poly_mat_inverse_constant_det(a) -> List[List[Poly]]:
    """Inverse of a polynomial matrix whose determinant is a nonzero constant.

    By Cayley-Hamilton, sum c_i a^(m-i) = 0 for the coefficients c_i of
    the characteristic polynomial, so the adjugate is (-1)^(m-1) (a^(m-1)
    + c_1 a^(m-2) + .. + c_(m-1) I), summed by Horner's rule, and det(a)
    is (-1)^m c_m.  Raises ValueError when the determinant is
    non-constant or zero, since the inverse would then leave the
    polynomial ring.
    """
    m = len(a)
    coeffs = _charpoly(a)
    det = -coeffs[-1] if m % 2 else coeffs[-1]
    if not det.is_constant():
        raise ValueError("matrix determinant is not constant: %s" % det)
    value = det.constant_value()
    if value == 0:
        raise ValueError("matrix is singular")
    adj = poly_mat_identity(a[0][0].nvars, m)
    for c in coeffs[1:-1]:
        adj = poly_mat_mul(a, adj)
        for i in range(m):
            adj[i][i] = adj[i][i] + c
    scale = Fraction((-1) ** (m - 1)) / value
    return [[entry.scale(scale) for entry in row] for row in adj]
