"""Exact rational and polynomial-matrix linear algebra.

Rational matrices are lists of lists with int/Fraction entries.  One
sparse reduced-row-echelon routine over ``Fraction`` (``_rref``) does
every exact elimination: ``solve`` reads one solution off the reduced
form and ``rational_det`` reads the determinant off the pivots.

Polynomial matrices (entries :class:`courant.poly.Poly`) get the small
dense helpers needed for structure transport: product, determinant via
Laplace expansion, and the adjugate used to invert a matrix whose
determinant is a nonzero constant.
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
