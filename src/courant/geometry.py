"""Foliated coordinate patch and leafwise differential geometry.

The base is a polynomial patch in coordinates x1..xn whose integrable
distribution F is spanned by the first p coordinate fields, so all
frame Lie brackets vanish and every tensor identity can be checked on
the coordinate frame alone.  ``Patch.d`` is the one leaf derivative
d_a = d/dx_a and ``Patch.along`` the one sum_a x^a d_a, which the anchor,
the vector field bracket and L_x are written through.  Leafwise forms
are stored sparsely on strictly increasing index tuples; coefficients
may involve all n coordinates, but only d_1..d_p ever act.  The three
form classes, ``FForm``, ``GValuedForm`` and ``courant.ample.AForm``,
share the sparse container ``Form``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Mapping, Sequence, Tuple

from .fiber import QuadLieAlgebra
from .poly import Poly
from .report import Check, FrozenRecord, Record, Report


class Patch(FrozenRecord):
    """n base coordinates with F spanned by the first p of them."""

    _fields = ("n", "p")

    def __init__(self, n: int, p: int):
        if not 0 <= p <= n:
            raise ValueError("need 0 <= p <= n")
        self.__dict__.update(n=n, p=p)

    def zero(self) -> Poly:
        return Poly.zero(self.n)

    def one(self) -> Poly:
        return Poly.const(self.n, 1)

    def var(self, i: int) -> Poly:
        return Poly.variable(self.n, i)

    def d(self, f: Poly, a: int) -> Poly:
        """d_a f = df/dx_a, the one leaf derivative.  ``axioms.reduced``
        and ``morphism.intertwining_report`` argue with d_a x_b =
        delta_ab, so a change here must re-derive both."""
        return f.diff(a)

    def along(self, x: Sequence[Poly], f: Poly) -> Poly:
        """x(f) = sum_a x^a d_a f for a leafwise vector field x; a zero f,
        a zero x^a and a zero derivative are skipped."""
        acc = self.zero()
        if not f.num:
            return acc
        for a, xa in enumerate(x, start=1):
            if xa.num:
                d = self.d(f, a)
                if d.num:
                    acc = acc + xa * d
        return acc


def sort_with_sign(indices: Sequence) -> Tuple[tuple, int]:
    """Sort a tuple of comparable indices, returning (sorted tuple,
    permutation sign).

    Repeated indices give sign 0.  Indices may themselves be tuples,
    such as the (rank, index) pairs of ample frame symbols.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


class Form(Record):
    """Sparse form of ``FForm``, ``GValuedForm`` and ``courant.ample.AForm``:
    components on checked keys, zeros dropped, and the linear algebra.
    Keys are leafwise and values ``Poly`` unless a subclass overrides
    ``_check`` (``AForm``) or the value hooks (``GValuedForm``)."""

    _fields = ("patch", "dim", "degree", "comps")
    dim = None  # the fiber dimension, where the values have one

    def __init__(self, patch: Patch, degree: int, comps: Mapping = ()):
        self.patch = patch
        self.degree = degree
        clean = {}
        for key, value in dict(comps).items():
            key, value = self._check(key, value)
            if self._live(value):
                clean[key] = value
        self.comps = clean

    def _check(self, key, value):
        """(key, value) as stored, or ValueError for a malformed key."""
        key = tuple(key)
        if len(key) != self.degree:
            raise ValueError("component %r has wrong arity" % (key,))
        if list(key) != sorted(set(key)):
            raise ValueError("component key %r must be strictly increasing" % (key,))
        if any(not 1 <= a <= self.patch.p for a in key):
            raise ValueError("leaf index out of range in %r" % (key,))
        return key, value

    _live = staticmethod(bool)
    _plus = staticmethod(lambda u, v: u + v)
    _times = staticmethod(lambda u, c: u.scale(c))

    def _zero(self):
        return self.patch.zero()

    def _signed(self, key, sign):
        """The component at a sorted key times a permutation sign; zero
        for sign 0 (a repeated index) and for a missing key."""
        value = self.comps.get(key) if sign else None
        if value is None:
            return self._zero()
        return value if sign == 1 else self._times(value, -1)

    def _like(self, comps) -> "Form":
        """A form of this class and shape on checked keys, zeros dropped."""
        out = object.__new__(self.__class__)
        out.__dict__.update(self.__dict__)
        out.comps = {key: value for key, value in comps.items() if self._live(value)}
        return out

    def keys(self):
        return sorted(self.comps)

    def __bool__(self) -> bool:
        return bool(self.comps)

    def __add__(self, other: "Form") -> "Form":
        if self.degree != other.degree:
            raise ValueError("form degree mismatch")
        if (type(self), self.patch, self.dim) != (type(other), other.patch, other.dim):
            raise ValueError("form shape mismatch")
        comps = dict(self.comps)
        for key, value in other.comps.items():
            comps[key] = self._plus(comps[key], value) if key in comps else value
        return self._like(comps)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(-1)

    def scale(self, c) -> "Form":
        return self._like({k: self._times(v, c) for k, v in self.comps.items()})

    def _label(self, key) -> str:
        return "^".join("dx%d" % a for a in key) if key else "1"

    def __str__(self) -> str:
        parts = ["(%s) %s" % (self.comps[key], self._label(key)) for key in self.keys()]
        return " + ".join(parts) if parts else "0"


class FForm(Form):
    """Leafwise k-form with polynomial coefficients.

    Components are stored on strictly increasing leaf index tuples
    (1-based); missing tuples are zero.
    """

    _fields = ("patch", "degree", "comps")

    @staticmethod
    def zero(patch: Patch, degree: int) -> "FForm":
        return FForm(patch, degree)

    def get(self, indices: Sequence[int]) -> Poly:
        """Signed component on an arbitrary index tuple."""
        return self._signed(*sort_with_sign(indices))


def leafwise_d(w: FForm) -> FForm:
    """Exterior derivative along the foliation; d(d(w)) = 0 exactly."""
    patch = w.patch
    out: Dict[Tuple[int, ...], Poly] = {}
    for key in combinations(range(1, patch.p + 1), w.degree + 1):
        acc = patch.zero()
        for pos, a in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            value = w.comps.get(rest)
            if value is None:
                continue
            term = patch.d(value, a)
            acc = acc + term if pos % 2 == 0 else acc - term
        out[key] = acc
    return FForm(patch, w.degree + 1, out)


class GValuedForm(Form):
    """Fiber-valued leafwise k-form: components are m-vectors of Poly,
    added and scaled componentwise."""

    def __init__(
        self,
        patch: Patch,
        dim: int,
        degree: int,
        comps: Mapping[Tuple[int, ...], Sequence[Poly]] = (),
    ):
        self.dim = dim
        super().__init__(patch, degree, comps)

    def _check(self, key, vec):
        key, vec = super()._check(key, list(vec))
        if len(vec) != self.dim:
            raise ValueError("component %r has wrong fiber dimension" % (key,))
        return key, vec

    _live = staticmethod(any)
    _plus = staticmethod(lambda u, v: [a + b for a, b in zip(u, v)])
    _times = staticmethod(lambda u, c: [a.scale(c) for a in u])

    def _zero(self):
        return [self.patch.zero()] * self.dim

    @staticmethod
    def zero(patch: Patch, dim: int, degree: int) -> "GValuedForm":
        return GValuedForm(patch, dim, degree)

    def get(self, indices: Sequence[int]) -> List[Poly]:
        """Signed component as a fresh list, which the caller may change."""
        return list(self._signed(*sort_with_sign(indices)))


class GConnection(Record):
    """Connection on the trivial fiber bundle: nabla_a r = d_a r + Gamma[a] r."""

    _fields = ("patch", "dim", "gamma")

    def __init__(self, patch: Patch, dim: int, gamma: Sequence[Sequence[Sequence[Poly]]]):
        self.patch = patch
        self.dim = dim
        if len(gamma) != patch.p:
            raise ValueError("need one Gamma matrix per leaf direction")
        self.gamma = [
            [[entry for entry in row] for row in mat] for mat in gamma
        ]
        for mat in self.gamma:
            if len(mat) != dim or any(len(row) != dim for row in mat):
                raise ValueError("Gamma matrices must be %dx%d" % (dim, dim))
        self._memo: Dict[Tuple[int, Tuple[Poly, ...]], List[Poly]] = {}

    @staticmethod
    def flat(patch: Patch, dim: int) -> "GConnection":
        zero = Poly.zero(patch.n)
        return GConnection(
            patch, dim, [[[zero] * dim for _ in range(dim)] for _ in range(patch.p)]
        )

    def apply(self, a: int, r: Sequence[Poly]) -> List[Poly]:
        """nabla_{d/dx_a} r for an m-vector of polynomials (1-based a).

        Results are memoized per connection, keyed by ``(a, tuple(r))``:
        the bracket and the transport checks ask for nabla_a r of the
        same vector many times over.  The memo is exact because ``Poly``
        is immutable and hashes and compares by value, and the Gamma
        matrices are not changed after construction; each call returns
        a fresh list, so a caller may mutate it.
        """
        if not 1 <= a <= self.patch.p:
            raise ValueError("leaf index %d out of range 1..%d" % (a, self.patch.p))
        key = (a, tuple(r))
        out = self._memo.get(key)
        if out is None:
            mat = self.gamma[a - 1]
            out = []
            for k in range(self.dim):
                acc = self.patch.d(r[k], a)
                row = mat[k]
                for j in range(self.dim):
                    if row[j] and r[j]:
                        acc = acc + row[j] * r[j]
                out.append(acc)
            self._memo[key] = out
        return list(out)

    def along(self, x: Sequence[Poly], r: Sequence[Poly]) -> List[Poly]:
        """nabla_x r = sum_a x^a nabla_a r for a leafwise vector field x."""
        out = [self.patch.zero()] * self.dim
        for a, xa in enumerate(x, start=1):
            if xa.num:
                da = self.apply(a, r)
                out = [acc + xa * v if v.num else acc for acc, v in zip(out, da)]
        return out


def validate_connection(conn: GConnection, fiber: QuadLieAlgebra) -> Report:
    """Metric skewness and bracket derivation property, exactly.

    Each residual is a sum of terms, each one nonzero Gamma entry times a
    metric entry or a structure constant, so adding each such term into
    the residual it appears in builds every nonzero residual; each record
    carries the first witness of the dense loop over all index tuples in
    lexicographic order (``Check.add_sparse``).
    """
    m = conn.dim
    g_rows: List[list] = [[] for _ in range(m)]  # g_rows[i]: (j, g_ij)
    g_cols: List[list] = [[] for _ in range(m)]  # g_cols[j]: (i, g_ij)
    for v, i, j in fiber.g_terms:
        g_rows[i].append((j, v))
        g_cols[j].append((i, v))
    c_first: List[list] = [[] for _ in range(m)]  # c_first[i]: (j, k, c_ij^k)
    c_second: List[list] = [[] for _ in range(m)]  # c_second[j]: (i, k, c_ij^k)
    for k, terms in enumerate(fiber.c_terms):
        for v, i, j in terms:
            c_first[i].append((j, k, v))
            c_second[j].append((i, k, v))

    skew: Dict[tuple, Poly] = {}
    deriv: Dict[tuple, Poly] = {}

    def add(residuals: Dict[tuple, Poly], key: tuple, term: Poly) -> None:
        residuals[key] = residuals[key] + term if key in residuals else term

    for a, mat in enumerate(conn.gamma):
        for r, row in enumerate(mat):
            for s, gam in enumerate(row):
                if not gam.num:
                    continue
                # (g Gamma_a + Gamma_a^T g)[i][j] = sum_l g_il Gamma_a^lj + Gamma_a^li g_lj
                for i, v in g_cols[r]:
                    add(skew, (a, i, s), gam.scale(v))
                for j, v in g_rows[r]:
                    add(skew, (a, s, j), gam.scale(v))
                # Gamma_a[e_i, e_j] - [Gamma_a e_i, e_j] - [e_i, Gamma_a e_j] at e_k:
                # sum_l c_ij^l Gamma_a^kl - Gamma_a^li c_lj^k - Gamma_a^lj c_il^k
                for v, i, j in fiber.c_terms[s]:
                    add(deriv, (a, i, j, r), gam.scale(v))
                for j, k, v in c_first[r]:
                    add(deriv, (a, s, j, k), gam.scale(-v))
                for i, k, v in c_second[r]:
                    add(deriv, (a, i, s, k), gam.scale(-v))

    metric = Check("conn_metric_skew", "g*Gamma_a + Gamma_a^T*g")
    derivation = Check("conn_bracket_derivation", "Gamma_a[e_i,e_j] - [Gamma_a e_i,e_j] - [e_i,Gamma_a e_j]")
    metric.add_sparse(skew)
    derivation.add_sparse(deriv)
    return Report([metric.record(), derivation.record()])


def pontryagin_form(curv: GValuedForm, fiber: QuadLieAlgebra) -> FForm:
    """The leafwise 4-form <R wedge R>.

    Component formula 2(<R_ab,R_cd> - <R_ac,R_bd> + <R_ad,R_bc>) on
    a<b<c<d; equal to the 24-term symmetrized sum, which the test suite
    checks independently.
    """
    patch = curv.patch
    out: Dict[Tuple[int, ...], Poly] = {}
    for key in combinations(range(1, patch.p + 1), 4):
        a, b, c, d = key
        value = (
            fiber.pairing(curv.get((a, b)), curv.get((c, d)), patch.n)
            - fiber.pairing(curv.get((a, c)), curv.get((b, d)), patch.n)
            + fiber.pairing(curv.get((a, d)), curv.get((b, c)), patch.n)
        ).scale(2)
        out[key] = value
    return FForm(patch, 4, out)


class FConnection(Record):
    """Torsion-free connection on F, given by Christoffel polynomials.

    christoffel[a][b][c] is the dx_c-component of nabla_{d/dx_a} d/dx_b;
    torsion-freeness on the coordinate frame means symmetry in (a, b).
    The connection acts through two rank-p ``GConnection``s:
    ``on_vectors`` on leafwise vector fields (Gamma_a[c][b] =
    christoffel[a][b][c]) and ``on_covectors``, its dual on F*
    (Gamma_a = -christoffel[a]).
    """

    _fields = ("patch", "christoffel")

    def __init__(self, patch: Patch, christoffel: Sequence[Sequence[Sequence[Poly]]]):
        self.patch = patch
        p = patch.p
        if len(christoffel) != p or any(
            len(row) != p or any(len(col) != p for col in row) for row in christoffel
        ):
            raise ValueError("christoffel array must be p x p x p")
        self.christoffel = [
            [[entry for entry in col] for col in row] for row in christoffel
        ]
        self.on_vectors = GConnection(
            patch, p, [[list(row) for row in zip(*mat)] for mat in self.christoffel]
        )
        self.on_covectors = GConnection(
            patch, p, [[[-entry for entry in row] for row in mat] for mat in self.christoffel]
        )

    @staticmethod
    def flat(patch: Patch) -> "FConnection":
        zero = Poly.zero(patch.n)
        p = patch.p
        return FConnection(patch, [[[zero] * p for _ in range(p)] for _ in range(p)])

    def is_torsion_free(self) -> bool:
        p = self.patch.p
        return all(
            self.christoffel[a][b][c] == self.christoffel[b][a][c]
            for a in range(p)
            for b in range(p)
            for c in range(p)
        )
