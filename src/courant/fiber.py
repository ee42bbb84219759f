"""Quadratic Lie algebra fibers.

The fiber bundle is trivial with a fixed quadratic Lie algebra fiber:
constant structure constants ``c[i][j][k]`` (the e_k-coefficient of
[e_i, e_j]) and a constant nondegenerate ad-invariant metric ``g``.
All position dependence of the geometry enters elsewhere, through the
connection, curvature and leafwise 3-form, so fiber validity reduces to
finitely many rational tensor identities checked here exactly.

The metric may be indefinite; no positivity is assumed anywhere.

The pairing, bracket and adjoint matrix are contractions with these
constant tensors.  ``QuadLieAlgebra`` lists the nonzero entries once
(``g_terms``: (g_ij, i, j); ``c_terms[k]``: (c_ij^k, i, j); ints where
the entry is an integer), and each output entry is one
``poly.sum_products`` call over such a list.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import List, Optional, Sequence

from .linalg import nullspace, rational_det
from .poly import Poly, sum_products
from .report import Check, Report, Witness


def _exact(v: Fraction):
    """v as an int when its denominator is 1."""
    return v.numerator if v.denominator == 1 else v


class QuadLieAlgebra:
    """Structure constants plus an ad-invariant metric on a fixed basis."""

    def __init__(self, dim: int, c: Sequence, g: Sequence):
        self.dim = dim
        self.c = [
            [[Fraction(c[i][j][k]) for k in range(dim)] for j in range(dim)]
            for i in range(dim)
        ]
        self.g = [[Fraction(g[i][j]) for j in range(dim)] for i in range(dim)]
        # B[i][j][k] = <[e_i, e_j], e_k>; ad-invariance makes it totally antisymmetric
        self.b = [
            [
                [
                    sum((self.c[i][j][l] * self.g[l][k] for l in range(dim)), Fraction(0))
                    for k in range(dim)
                ]
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        self.g_terms = [
            (_exact(v), i, j) for i, row in enumerate(self.g) for j, v in enumerate(row) if v
        ]
        pairs = list(product(range(dim), repeat=2))
        self.c_terms = [
            [(_exact(self.c[i][j][k]), i, j) for i, j in pairs if self.c[i][j][k]]
            for k in range(dim)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuadLieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.c == other.c and self.g == other.g

    # -- validation ------------------------------------------------------

    def validate(self) -> Report:
        report = Report()
        m = self.dim
        c, g, b = self.c, self.g, self.b

        skew = Check("fiber_bracket_skew", "c[i][j][k] + c[j][i][k]")
        for i, j, k in product(range(m), repeat=3):
            skew.add((i + 1, j + 1, k + 1), c[i][j][k] + c[j][i][k])
        report.add(skew.record())

        jacobi = Check("fiber_jacobi", "jacobiator")
        for i, j, k, s in product(range(m), repeat=4):
            jacobi.add(
                (i + 1, j + 1, k + 1, s + 1),
                sum(
                    (
                        c[i][j][l] * c[l][k][s]
                        + c[j][k][l] * c[l][i][s]
                        + c[k][i][l] * c[l][j][s]
                        for l in range(m)
                    ),
                    Fraction(0),
                ),
            )
        report.add(jacobi.record())

        sym = Check("fiber_metric_symmetric", "g[i][j] - g[j][i]")
        for i, j in product(range(m), repeat=2):
            sym.add((i + 1, j + 1), g[i][j] - g[j][i])
        report.add(sym.record())

        det = rational_det(self.g)
        if det:
            report.add_pass("fiber_metric_nondegenerate")
        else:
            report.add_fail(
                "fiber_metric_nondegenerate", Witness("det(g)", (), "0")
            )

        # total antisymmetry of B (skew in (i,j) is implied by the bracket
        # skew check; the new content is antisymmetry in the last two slots)
        adinv = Check("fiber_ad_invariance", "B[i][j][k] + B[i][k][j]")
        for i, j, k in product(range(m), repeat=3):
            adinv.add((i + 1, j + 1, k + 1), b[i][j][k] + b[i][k][j])
        report.add(adinv.record())
        return report

    # -- operations --------------------------------------------------------

    def bracket(self, r: Sequence[Poly], s: Sequence[Poly]) -> List[Poly]:
        """[r, s] componentwise for m-vectors of polynomials."""
        m = self.dim
        if len(r) != m or len(s) != m:
            raise ValueError("fiber vector length mismatch")
        if not m:
            return []
        nvars = r[0].nvars
        return [
            sum_products(nvars, [(c, r[i], s[j]) for c, i, j in terms])
            for terms in self.c_terms
        ]

    def pairing(self, r: Sequence[Poly], s: Sequence[Poly], nvars: Optional[int] = None) -> Poly:
        """<r, s> for m-vectors of polynomials in ``nvars`` variables.

        ``nvars`` defaults to the variable count of the entries; a fiber
        of dimension 0 has no entries, so callers that can see one pass
        it, and get the zero of their own ring."""
        m = self.dim
        if len(r) != m or len(s) != m:
            raise ValueError("fiber vector length mismatch")
        if nvars is None:
            nvars = r[0].nvars if m else 0
        return sum_products(nvars, [(g, r[i], s[j]) for g, i, j in self.g_terms])

    def ad_matrix(self, v: Sequence[Poly]) -> List[List[Poly]]:
        """Matrix of ad(v): column j holds [v, e_j], entry k sum_i c_ij^k v_i."""
        m = self.dim
        if not m:
            return []
        nvars = v[0].nvars
        one = Poly.const(nvars, 1)
        out = [[[] for _ in range(m)] for _ in range(m)]
        for k, terms in enumerate(self.c_terms):
            for c, i, j in terms:
                out[k][j].append((c, v[i], one))
        return [[sum_products(nvars, entry) for entry in row] for row in out]

    def cartan_three_form(self) -> List[List[List[Fraction]]]:
        """The totally antisymmetric array -<[e_i, e_j], e_k>."""
        m = self.dim
        return [
            [[-self.b[i][j][k] for k in range(m)] for j in range(m)]
            for i in range(m)
        ]

    def center(self) -> List[List[Fraction]]:
        """Rational basis of {r : [r, s] = 0 for all s}.

        Kernel of the stacked adjoint map r -> ad(r); basis vectors are
        normalized to leading entry 1.
        """
        m = self.dim
        rows = []
        for j in range(m):
            for k in range(m):
                rows.append([self.c[i][j][k] for i in range(m)])
        if not rows:
            return []
        return nullspace(rows, m)


def su2() -> QuadLieAlgebra:
    """so(3)-type fiber: c[i][j][k] = epsilon_ijk with the identity metric."""
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1}
    c = [[[eps.get((i, j, k), 0) for k in range(3)] for j in range(3)] for i in range(3)]
    g = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    return QuadLieAlgebra(3, c, g)


def abelian(dim: int, g: Sequence = None) -> QuadLieAlgebra:
    """Abelian fiber with the identity metric unless one is supplied."""
    c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    if g is None:
        g = [[1 if i == j else 0 for j in range(dim)] for i in range(dim)]
    return QuadLieAlgebra(dim, c, g)
