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
``poly.sum_products`` call over such a list.  ``validate`` builds the
residual tensor of each identity from the nonzero entries too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from . import linalg
from .poly import Poly, sum_products
from .report import Check, Record, Report


def _exact(v: Fraction):
    """v as an int when its denominator is 1."""
    return v.numerator if v.denominator == 1 else v


class QuadLieAlgebra(Record):
    """Structure constants plus an ad-invariant metric on a fixed basis."""

    _fields = ("dim", "c", "g")

    def __init__(self, dim: int, c: Sequence, g: Sequence):
        self.dim = dim
        self.c = [
            [[Fraction(c[i][j][k]) for k in range(dim)] for j in range(dim)]
            for i in range(dim)
        ]
        self.g = [[Fraction(g[i][j]) for j in range(dim)] for i in range(dim)]
        # the nonzero structure constants (i, j, k, c_ij^k), lexicographic
        self._c_nonzero = [
            (i, j, k, v) for i, row in enumerate(self.c) for j, col in enumerate(row)
            for k, v in enumerate(col) if v
        ]
        # B[i][j][k] = <[e_i, e_j], e_k> = sum_l c_ij^l g_lk; ad-invariance
        # makes it totally antisymmetric
        self.b = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, l, v in self._c_nonzero:
            for k, w in enumerate(self.g[l]):
                if w:
                    self.b[i][j][k] += v * w
        self.g_terms = [
            (_exact(v), i, j) for i, row in enumerate(self.g) for j, v in enumerate(row) if v
        ]
        self.c_terms = [[] for _ in range(dim)]
        for i, j, k, v in self._c_nonzero:
            self.c_terms[k].append((_exact(v), i, j))

    # -- validation ------------------------------------------------------

    def validate(self) -> Report:
        """The fiber identities, each with the first witness of the dense
        loop over all index tuples in lexicographic order
        (``Check.add_sparse``).  A residual is a sum of (products of)
        tensor entries, so adding each nonzero one into the residuals it
        appears in builds all nonzero residuals."""
        g, b = self.g, self.b
        skew_check = Check("fiber_bracket_skew", "c[i][j][k] + c[j][i][k]")
        jacobi_check = Check("fiber_jacobi", "jacobiator")
        sym_check = Check("fiber_metric_symmetric", "g[i][j] - g[j][i]")
        det_check = Check("fiber_metric_nondegenerate", "det(g)")
        adinv_check = Check("fiber_ad_invariance", "B[i][j][k] + B[i][k][j]")
        nonzero = self._c_nonzero

        skew: Dict[tuple, Fraction] = {}
        for i, j, k, v in nonzero:
            for key in ((i, j, k), (j, i, k)):
                skew[key] = skew.get(key, 0) + v
        skew_check.add_sparse(skew)

        # the jacobiator is the cyclic sum over (i, j, k) of
        # T[i, j, k, s] = sum_l c_ij^l c_lk^s
        starting: List[list] = [[] for _ in range(self.dim)]
        for l, k, s, w in nonzero:
            starting[l].append((k, s, w))
        jacobi: Dict[tuple, Fraction] = {}
        for i, j, l, v in nonzero:
            for k, s, w in starting[l]:
                for key in ((i, j, k, s), (k, i, j, s), (j, k, i, s)):
                    jacobi[key] = jacobi.get(key, 0) + v * w
        jacobi_check.add_sparse(jacobi)

        sym: Dict[tuple, Fraction] = {}
        for v, i, j in self.g_terms:
            sym[i, j] = sym.get((i, j), 0) + v
            sym[j, i] = sym.get((j, i), 0) - v
        sym_check.add_sparse(sym)
        if not linalg.rational_det(g):
            det_check.add((), "0")

        # total antisymmetry of B (skew in (i,j) is implied by the bracket
        # skew check; the new content is antisymmetry in the last two slots)
        adinv: Dict[tuple, Fraction] = {}
        for i, j in {(i, j) for i, j, _, _ in nonzero}:
            for k, v in enumerate(b[i][j]):
                if v:
                    for key in ((i, j, k), (i, k, j)):
                        adinv[key] = adinv.get(key, 0) + v
        adinv_check.add_sparse(adinv)
        return Report([c.record() for c in (skew_check, jacobi_check, sym_check, det_check, adinv_check)])

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
