"""Shared fixture quintuples and seeded generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import List, Optional, Sequence, Tuple

from courant import (
    FForm,
    GConnection,
    GValuedForm,
    IsoData,
    Patch,
    Poly,
    QuadAlgebroid,
    QuadLieAlgebra,
    Quintuple,
    abelian,
    su2,
    transport,
    validate_iso,
)
from courant.ample import AForm, Section
from courant.linalg import (
    poly_mat_identity,
    poly_mat_inverse_constant_det,
    poly_mat_mul,
    poly_mat_vec,
    rational_det,
    solve,
)
from courant.morphism import pullback_aform
from courant.poly import sum_products
from courant.report import CheckRecord, Report, Witness


def direct_sum(a: QuadLieAlgebra, b: QuadLieAlgebra) -> QuadLieAlgebra:
    """Orthogonal direct sum of two quadratic Lie algebras."""
    m = a.dim + b.dim
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    g = [[Fraction(0)] * m for _ in range(m)]
    for i in range(a.dim):
        for j in range(a.dim):
            g[i][j] = a.g[i][j]
            for k in range(a.dim):
                c[i][j][k] = a.c[i][j][k]
    for i in range(b.dim):
        for j in range(b.dim):
            g[a.dim + i][a.dim + j] = b.g[i][j]
            for k in range(b.dim):
                c[a.dim + i][a.dim + j][a.dim + k] = b.c[i][j][k]
    return QuadLieAlgebra(m, c, g)


def poly_mat_from_rational(nvars: int, matrix) -> list:
    """A matrix of rationals as a matrix of constant polynomials."""
    return [[Poly.const(nvars, v) for v in row] for row in matrix]


def is_horizontal(w: AForm) -> bool:
    """True iff the pure-fiber bigraded component vanishes."""
    return not any(len(key[0]) == w.degree for key in w.comps)


def aform_from_fform(patch: Patch, dim: int, w: FForm) -> AForm:
    """Pull a leafwise form back through the anchor."""
    comps = {((), key): value for key, value in w.comps.items()}
    return AForm(patch, dim, w.degree, comps)


def evaluate(poly: Poly, point) -> Fraction:
    """Evaluate a polynomial at a rational point."""
    pt = [Fraction(v) for v in point]
    if len(pt) != poly.nvars:
        raise ValueError("point has wrong dimension")
    return sum(
        (Fraction(c) * prod(x ** e for x, e in zip(pt, exp)) for exp, c in poly.terms.items()),
        Fraction(0),
    )


# -- sections and the skew bracket ----------------------------------------------


def section(q: Quintuple, xi: Sequence[Poly], r: Sequence[Poly], x: Sequence[Poly]) -> Section:
    """The Courant section xi + r + x of q, with its shape checked."""
    p, m = q.patch.p, q.fiber.dim
    if len(xi) != p or len(r) != m or len(x) != p:
        raise ValueError("section component shape mismatch")
    return Section(list(xi), list(r), list(x))


def ample_section(alg: QuadAlgebroid, r: Sequence[Poly], x: Sequence[Poly]) -> Section:
    """The section r + x of A, with zero F* part and its shape checked."""
    if len(r) != alg.fiber.dim or len(x) != alg.patch.p:
        raise ValueError("ample section shape mismatch")
    return Section([alg.zero_poly()] * alg.patch.p, list(r), list(x))


def courant(q: Quintuple, e1: Section, e2: Section) -> Section:
    """The skew bracket: Dorfman minus D of the pairing."""
    return q.dorfman(e1, e2) - q.d_operator(q.pairing(e1, e2))


# -- dense Bareiss elimination: the oracle of courant.linalg ------------------


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


def bareiss_det(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant: the last Bareiss pivot of the cleared integer matrix,
    up to the row-swap sign, divided by the row lcms."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    ech, pivots, sign = _bareiss_echelon([_clear_denominators(row) for row in matrix])
    if len(pivots) < n:
        return Fraction(0)
    scale = prod(lcm(*(Fraction(v).denominator for v in row)) for row in matrix)
    return Fraction(sign * ech[-1][-1], scale)


def bareiss_solve(matrix: Sequence[Sequence], rhs: Sequence) -> Optional[List[Fraction]]:
    """The solution of ``matrix @ x = rhs`` that is zero at every free
    column, by back-substitution, or None if inconsistent."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    aug = [_clear_denominators(list(row) + [b]) for row, b in zip(matrix, rhs)]
    if not aug:
        return [Fraction(0)] * ncols
    ech, pivots, _ = _bareiss_echelon(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r in range(len(pivots) - 1, -1, -1):
        c = pivots[r]
        s = Fraction(ech[r][ncols])
        for j in range(c + 1, ncols):
            if x[j]:
                s -= Fraction(ech[r][j]) * x[j]
        x[c] = s / ech[r][c]
    return x


def nullspace(matrix: Sequence[Sequence], ncols: int) -> List[List[Fraction]]:
    """Basis of the right nullspace, each vector scaled so its first
    nonzero entry is 1; ordered by ascending free column."""
    rows = [_clear_denominators(row) for row in matrix if any(Fraction(v) for v in row)]
    if not rows:
        return [
            [Fraction(1) if j == i else Fraction(0) for j in range(ncols)]
            for i in range(ncols)
        ]
    ech, pivots, _ = _bareiss_echelon(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
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
    return len(_bareiss_echelon([_clear_denominators(row) for row in matrix])[1])


def center(fiber: QuadLieAlgebra) -> List[List[Fraction]]:
    """Rational basis of {r : [r, s] = 0 for all s}: the kernel of the
    stacked adjoint map r -> ad(r), basis vectors with leading entry 1."""
    m = fiber.dim
    rows = [[fiber.c[i][j][k] for i in range(m)] for j in range(m) for k in range(m)]
    return nullspace(rows, m) if rows else []


# -- Laplace expansion: the oracle of courant.linalg's Berkowitz routines -----


def laplace_det(a) -> Poly:
    """Determinant of a square polynomial matrix by expansion along the first row."""
    n = len(a)
    nvars = a[0][0].nvars

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


def laplace_adjugate(a) -> List[List[Poly]]:
    """adj(a)[j][i] = (-1)^(i+j) times the minor of a without row i and column j."""
    n = len(a)
    if n == 1:
        return [[Poly.const(a[0][0].nvars, 1)]]
    idx = tuple(range(n))
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        rows = idx[:i] + idx[i + 1:]
        for j in range(n):
            d = laplace_det([[a[r][c] for c in idx[:j] + idx[j + 1:]] for r in rows])
            adj[j][i] = d if (i + j) % 2 == 0 else -d
    return adj


# -- isomorphisms and closed-form differentials -------------------------------


def identity_iso(patch: Patch, dim: int) -> IsoData:
    """The identity isomorphism (tau = 1, phi = 0, beta = 0)."""
    return IsoData(
        poly_mat_identity(patch.n, dim),
        GValuedForm.zero(patch, dim, 1),
        [[Poly.zero(patch.n)] * patch.p for _ in range(patch.p)],
    )


def compose_iso(patch: Patch, fiber: QuadLieAlgebra, second: IsoData, first: IsoData) -> IsoData:
    """The isomorphism acting as 'second after first'."""
    m, p, n = fiber.dim, patch.p, patch.n
    tau = poly_mat_mul(second.tau, first.tau)
    # tau_2 phi_1(d_a), read by both the new phi and the beta correction
    moved = [poly_mat_vec(second.tau, first.phi.get((a,))) for a in range(1, p + 1)]
    phi_comps = {}
    for a in range(1, p + 1):
        col = [u + v for u, v in zip(moved[a - 1], second.phi.get((a,)))]
        if any(col):
            phi_comps[(a,)] = col
    beta = [[Poly.zero(n)] * p for _ in range(p)]
    for a in range(1, p + 1):
        for b in range(1, p + 1):
            corr = fiber.pairing(moved[a - 1], second.phi.get((b,)), n)
            beta[b - 1][a - 1] = (
                first.beta[b - 1][a - 1]
                + second.beta[b - 1][a - 1]
                - corr.scale(2)
            )
    return IsoData(tau, GValuedForm(patch, m, 1, phi_comps), beta)


def is_ample_automorphism(q: Quintuple, tau: List[List[Poly]], phi: GValuedForm) -> Report:
    """Check that (tau, phi) preserves the ample bracket of q exactly."""
    report = Report()
    patch, fiber = q.patch, q.fiber
    iso = IsoData(tau, phi, [[Poly.zero(patch.n)] * patch.p for _ in range(patch.p)])
    report.extend(validate_iso(patch, fiber, iso))
    # drop the pairing condition: it constrains beta, which an ample map lacks
    report.records = [r for r in report.records if r.name != "iso_pairing_condition"]
    moved = transport(q, iso)
    if moved.conn != q.conn:
        witness = Witness("transported connection differs", (), "nonzero")
        report.add(CheckRecord("ample_bracket_preserved", "fail", witness))
    elif moved.curv != q.curv:
        witness = Witness("transported curvature differs", (), "nonzero")
        report.add(CheckRecord("ample_bracket_preserved", "fail", witness))
    else:
        report.add(CheckRecord("ample_bracket_preserved", "pass"))
    return report


def intrinsic_form(
    q: Quintuple, tau: List[List[Poly]], phi: GValuedForm, c: AForm
) -> AForm:
    """sigma^* C - C for an ample automorphism sigma = (tau, phi)."""
    gate = is_ample_automorphism(q, tau, phi)
    if not gate.ok:
        raise ValueError(
            "(tau, phi) is not an ample automorphism: %s" % gate.failures()[0].name
        )
    pulled = pullback_aform(q.patch, q.fiber, c, tau, phi)
    return pulled - c


def phi_form_differential(alg: QuadAlgebroid, j: GValuedForm) -> AForm:
    """Closed-form differential of Phi_J on the coordinate frame: an
    oracle for ``ce_differential`` of ``morphism.phi_form``."""
    patch, fiber = alg.patch, alg.fiber
    m, p = fiber.dim, patch.p
    comps = {}
    for gidx in combinations(range(1, m + 1), 2):
        i, jj = gidx
        bracket = fiber.bracket(alg.fiber_elem(i).r, alg.fiber_elem(jj).r)
        for a in range(1, p + 1):
            value = -fiber.pairing(bracket, j.get((a,)))
            if value:
                comps[(gidx, (a,))] = value
    for k in range(1, m + 1):
        ek = alg.fiber_elem(k).r
        for fidx in combinations(range(1, p + 1), 2):
            a, b = fidx
            vec = [
                u - v
                for u, v in zip(
                    alg.conn.apply(b, j.get((a,))), alg.conn.apply(a, j.get((b,)))
                )
            ]
            value = fiber.pairing(ek, vec)
            if value:
                comps[((k,), fidx)] = value
    for fidx in combinations(range(1, p + 1), 3):
        a, b, c = fidx
        value = -(
            fiber.pairing(j.get((a,)), alg.curv.get((b, c)), patch.n)
            + fiber.pairing(j.get((b,)), alg.curv.get((c, a)), patch.n)
            + fiber.pairing(j.get((c,)), alg.curv.get((a, b)), patch.n)
        )
        if value:
            comps[((), fidx)] = value
    return AForm(patch, m, 3, comps)


def psi_form_differential(patch: Patch, dim: int, k: List[List[Poly]]) -> AForm:
    """Closed-form differential of Psi_K on the coordinate frame: an
    oracle for ``ce_differential`` of ``morphism.psi_form``."""
    comps = {}
    for fidx in combinations(range(1, patch.p + 1), 3):
        a, b, c = fidx
        value = (
            k[a - 1][b - 1].diff(c)
            - k[a - 1][c - 1].diff(b)
            + k[b - 1][c - 1].diff(a)
            - k[b - 1][a - 1].diff(c)
            + k[c - 1][a - 1].diff(b)
            - k[c - 1][b - 1].diff(a)
        )
        if value:
            comps[((), fidx)] = value
    return AForm(patch, dim, 3, comps)


def fixture_a() -> Quintuple:
    """Exact case: no fiber, two leaf coordinates, H forced to zero."""
    patch = Patch(2, 2)
    fiber = abelian(0)
    return Quintuple(
        patch,
        fiber,
        GConnection.flat(patch, 0),
        GValuedForm.zero(patch, 0, 2),
        FForm.zero(patch, 3),
    )


def fixture_b() -> Quintuple:
    """Point base with an su(2) fiber: the quadratic Lie algebra itself."""
    patch = Patch(0, 0)
    fiber = su2()
    return Quintuple(
        patch,
        fiber,
        GConnection.flat(patch, 3),
        GValuedForm.zero(patch, 3, 2),
        FForm.zero(patch, 3),
    )


def fixture_c() -> Quintuple:
    """Abelian line fiber over a 4-dim leaf with a nonzero obstruction pairing."""
    patch = Patch(4, 4)
    fiber = abelian(1)
    one = patch.one()
    curv = GValuedForm(patch, 1, 2, {(1, 2): [one], (3, 4): [one]})
    hform = FForm(patch, 3, {(2, 3, 4): patch.var(1).scale(2)})
    return Quintuple(patch, fiber, GConnection.flat(patch, 1), curv, hform)


def su2_adjoint_connection(patch: Patch, fiber: QuadLieAlgebra) -> GConnection:
    """Gamma_a = ad(e_a) for the first p fiber basis vectors."""
    gamma = []
    for a in range(1, patch.p + 1):
        unit = [patch.one() if k == a else patch.zero() for k in range(1, fiber.dim + 1)]
        gamma.append(fiber.ad_matrix(unit))
    return GConnection(patch, fiber.dim, gamma)


def fixture_d() -> Quintuple:
    """su(2) fiber over a 2-dim leaf with adjoint connection, R_12 = e3."""
    patch = Patch(2, 2)
    fiber = su2()
    conn = su2_adjoint_connection(patch, fiber)
    curv = GValuedForm(
        patch, 3, 2, {(1, 2): [patch.zero(), patch.zero(), patch.one()]}
    )
    return Quintuple(patch, fiber, conn, curv, FForm.zero(patch, 3))


def fixture_d_extended(central: int = 1) -> Quintuple:
    """Fixture D with a central subspace adjoined to the fiber
    (su(2) + R^central, a line by default)."""
    patch = Patch(2, 2)
    m = 3 + central
    fiber = direct_sum(su2(), abelian(central))
    gamma = []
    for a in range(1, 3):
        unit = [patch.one() if k == a else patch.zero() for k in range(1, m + 1)]
        gamma.append(fiber.ad_matrix(unit))
    conn = GConnection(patch, m, gamma)
    e3 = [patch.one() if k == 3 else patch.zero() for k in range(1, m + 1)]
    curv = GValuedForm(patch, m, 2, {(1, 2): e3})
    return Quintuple(patch, fiber, conn, curv, FForm.zero(patch, 3))


def rebased(q: Quintuple, basis) -> Quintuple:
    """The same structure in the fiber basis f_i = sum_a basis[a][i] e_a
    (an invertible rational matrix P): structure constants
    P^-1 [P e_i, P e_j], metric P^T g P, connection P^-1 Gamma_a P,
    curvature P^-1 R."""
    patch, fiber = q.patch, q.fiber
    m, n = fiber.dim, patch.n
    fwd = poly_mat_from_rational(n, basis)
    inv = poly_mat_inverse_constant_det(fwd)
    images = [[fwd[a][i] for a in range(m)] for i in range(m)]  # P e_i
    c = [
        [[v.constant_value() for v in poly_mat_vec(inv, fiber.bracket(u, w))] for w in images]
        for u in images
    ]
    g = [[fiber.pairing(u, w).constant_value() for w in images] for u in images]
    gamma = [poly_mat_mul(poly_mat_mul(inv, mat), fwd) for mat in q.conn.gamma]
    curv = GValuedForm(patch, m, 2, {key: poly_mat_vec(inv, vec) for key, vec in q.curv.comps.items()})
    return Quintuple(patch, QuadLieAlgebra(m, c, g), GConnection(patch, m, gamma), curv, q.hform)


def random_basis(rng: random.Random, m: int) -> List[List[Fraction]]:
    """A random invertible rational m x m matrix."""
    while True:
        basis = [[rand_fraction(rng, 2, 3) for _ in range(m)] for _ in range(m)]
        if rational_det(basis):
            return basis


def fixture_exact() -> Quintuple:
    """Exact case over a 3-dim leaf with a nonzero closed leafwise 3-form."""
    patch = Patch(3, 3)
    fiber = abelian(0)
    hform = FForm(patch, 3, {(1, 2, 3): patch.one() + patch.var(1)})
    return Quintuple(
        patch, fiber, GConnection.flat(patch, 0), GValuedForm.zero(patch, 0, 2), hform
    )


def fixture_product() -> Quintuple:
    """Product of an su(2) fiber with a flat 2-dim leaf: flat, no curvature."""
    patch = Patch(2, 2)
    fiber = su2()
    return Quintuple(
        patch,
        fiber,
        GConnection.flat(patch, 3),
        GValuedForm.zero(patch, 3, 2),
        FForm.zero(patch, 3),
    )


ALL_FIXTURES = (
    ("A", fixture_a),
    ("B", fixture_b),
    ("C", fixture_c),
    ("D", fixture_d),
)


# -- seeded generators --------------------------------------------------------


def rand_fraction(rng: random.Random, num: int = 3, den: int = 3) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def rand_poly(rng: random.Random, nvars: int, max_degree: int, terms: int = 3) -> Poly:
    out = {}
    for _ in range(terms):
        exp = [0] * nvars
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            if nvars:
                exp[rng.randrange(nvars)] += 1
        out[tuple(exp)] = out.get(tuple(exp), 0) + rand_fraction(rng)
    return Poly(nvars, out)


def cayley_so3(rng: random.Random):
    """Rational special orthogonal 3x3 matrix via the Cayley transform."""
    a, b, c = (rand_fraction(rng, 2, 2) for _ in range(3))
    s = [
        [Fraction(0), a, b],
        [-a, Fraction(0), c],
        [-b, -c, Fraction(0)],
    ]
    eye = [[Fraction(1 if i == j else 0) for j in range(3)] for i in range(3)]
    plus = [[eye[i][j] + s[i][j] for j in range(3)] for i in range(3)]
    minus = [[eye[i][j] - s[i][j] for j in range(3)] for i in range(3)]
    # invert (I + S) exactly
    det = (
        plus[0][0] * (plus[1][1] * plus[2][2] - plus[1][2] * plus[2][1])
        - plus[0][1] * (plus[1][0] * plus[2][2] - plus[1][2] * plus[2][0])
        + plus[0][2] * (plus[1][0] * plus[2][1] - plus[1][1] * plus[2][0])
    )
    cof = [[Fraction(0)] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = [r for r in range(3) if r != i]
            cols = [c2 for c2 in range(3) if c2 != j]
            minor = (
                plus[rows[0]][cols[0]] * plus[rows[1]][cols[1]]
                - plus[rows[0]][cols[1]] * plus[rows[1]][cols[0]]
            )
            cof[j][i] = minor if (i + j) % 2 == 0 else -minor
    inv = [[cof[i][j] / det for j in range(3)] for i in range(3)]
    return [
        [sum(minus[i][k] * inv[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def cayley_orthogonal(rng: random.Random, m: int) -> List[List[Fraction]]:
    """(I - S)(I + S)^-1 for a random skew integer S: a dense rational
    orthogonal m x m matrix of determinant 1."""
    skew = [[Fraction(0)] * m for _ in range(m)]
    for i, j in combinations(range(m), 2):
        skew[i][j] = Fraction(rng.randint(-2, 2))
        skew[j][i] = -skew[i][j]
    plus = [[(i == j) + skew[i][j] for j in range(m)] for i in range(m)]
    minus = [[(i == j) - skew[i][j] for j in range(m)] for i in range(m)]
    cols = [solve(plus, [Fraction(i == j) for i in range(m)]) for j in range(m)]
    return [[sum(minus[i][k] * cols[j][k] for k in range(m)) for j in range(m)] for i in range(m)]


def seeded_iso_fixture_d(seed: int, q: Quintuple) -> IsoData:
    """Constant rotation tau, degree-1 phi, beta solved plus a random skew part."""
    rng = random.Random(seed)
    patch, fiber = q.patch, q.fiber
    n, p, m = patch.n, patch.p, fiber.dim
    tau = poly_mat_from_rational(n, cayley_so3(rng))
    phi_comps = {}
    for a in range(1, p + 1):
        col = [rand_poly(rng, n, 1, terms=2) for _ in range(m)]
        if any(col):
            phi_comps[(a,)] = col
    phi = GValuedForm(patch, m, 1, phi_comps)
    beta = [[Poly.zero(n) for _ in range(p)] for _ in range(p)]
    for a in range(1, p + 1):
        for b in range(1, p + 1):
            beta[b - 1][a - 1] = -fiber.pairing(phi.get((a,)), phi.get((b,)))
    for a in range(1, p + 1):
        for b in range(a + 1, p + 1):
            skew = rand_poly(rng, n, 1, terms=2)
            beta[b - 1][a - 1] = beta[b - 1][a - 1] + skew
            beta[a - 1][b - 1] = beta[a - 1][b - 1] - skew
    return IsoData(tau, phi, beta)


def seeded_ample_automorphism(seed: int, q: Quintuple):
    """(tau, phi) with tau a rotation and phi_a = tau(e_a) - e_a."""
    rng = random.Random(seed)
    patch, fiber = q.patch, q.fiber
    n, p, m = patch.n, patch.p, fiber.dim
    tau = poly_mat_from_rational(n, cayley_so3(rng))
    phi_comps = {}
    for a in range(1, p + 1):
        col = [tau[k][a - 1] - (patch.one() if k == a - 1 else patch.zero()) for k in range(m)]
        if any(col):
            phi_comps[(a,)] = col
    return tau, GValuedForm(patch, m, 1, phi_comps)


def seeded_gvalued_one_form(seed: int, q: Quintuple, max_degree: int = 2) -> GValuedForm:
    rng = random.Random(seed)
    patch, m = q.patch, q.fiber.dim
    comps = {}
    for a in range(1, patch.p + 1):
        col = [rand_poly(rng, patch.n, max_degree, terms=2) for _ in range(m)]
        if any(col):
            comps[(a,)] = col
    return GValuedForm(patch, m, 1, comps)


def seeded_endomorphism_field(seed: int, q: Quintuple, max_degree: int = 2):
    """A p x p polynomial matrix (an F -> F* map in the beta convention)."""
    rng = random.Random(seed)
    patch = q.patch
    return [
        [rand_poly(rng, patch.n, max_degree, terms=2) for _ in range(patch.p)]
        for _ in range(patch.p)
    ]


MUTATION_CLASSES = ("metric_skew", "curvature_identity_gamma", "curvature_identity_r")


def mutate_fixture_d(seed: int) -> Tuple[Quintuple, str]:
    """One seeded invalid variant of fixture D.

    Class ``metric_skew`` adds a traceless symmetric error to one Gamma,
    breaking metric invariance and the derivation property while keeping
    the canonical 3-form closed.  The two curvature classes perturb
    Gamma by an adjoint matrix or R by a constant vector, breaking only
    the curvature matching identity.  The leaf rank is 2, so the Bianchi
    and Pontryagin identities are vacuous and unbreakable here.
    """
    rng = random.Random(seed)
    q = fixture_d()
    patch, fiber = q.patch, q.fiber
    cls = MUTATION_CLASSES[seed % len(MUTATION_CLASSES)]
    a = rng.randrange(patch.p)
    gamma = [
        [[entry for entry in row] for row in mat] for mat in q.conn.gamma
    ]
    if cls == "metric_skew":
        lam = Fraction(rng.randint(1, 3))
        mu = Fraction(rng.randint(0, 2))
        err = [
            [lam, mu, Fraction(0)],
            [mu, -lam, Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(0)],
        ]
        for i in range(3):
            for j in range(3):
                if err[i][j]:
                    gamma[a][i][j] = gamma[a][i][j] + Poly.const(patch.n, err[i][j])
        conn = GConnection(patch, 3, gamma)
        return Quintuple(patch, fiber, conn, q.curv, q.hform), cls
    if cls == "curvature_identity_gamma":
        v = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        if not any(v):
            v[0] = Fraction(1)
        ad = fiber.ad_matrix([Poly.const(patch.n, t) for t in v])
        # perturb Gamma_2 with an x1 factor: the d_1 Gamma_2 term then picks
        # up ad(v) itself, so the curvature matching always breaks
        for i in range(3):
            for j in range(3):
                if ad[i][j]:
                    gamma[1][i][j] = gamma[1][i][j] + ad[i][j] * patch.var(1)
        conn = GConnection(patch, 3, gamma)
        return Quintuple(patch, fiber, conn, q.curv, q.hform), cls
    v = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
    if not any(v):
        v[2] = Fraction(1)
    vec = [u + Poly.const(patch.n, t) for u, t in zip(q.curv.get((1, 2)), v)]
    curv = GValuedForm(patch, 3, 2, {(1, 2): vec})
    return Quintuple(patch, fiber, q.conn, curv, q.hform), cls


# -- seeded data mutants on rank-3 and rank-4 leaves --------------------------

RANK_MUTANT_CLASSES = {
    # fixture C: the leaf has rank 4, so the Pontryagin identity can break
    "mut_c": ("h_scale", "h_extra", "bianchi"),
    # su(2) on the n=4, p=3 patch: Bianchi and curvature matching can break
    "mut_s": ("curv_const", "gamma_ad", "bianchi"),
}


def su2_patch(n: int, p: int) -> Quintuple:
    """su(2) over an (n, p) patch with Gamma_a = ad e_a and R_ab = [e_a, e_b]."""
    patch = Patch(n, p)
    fiber = su2()

    def unit(k):
        return [patch.one() if i == k else patch.zero() for i in (1, 2, 3)]

    curv = {}
    for a, b in combinations(range(1, p + 1), 2):
        vec = fiber.bracket(unit(a), unit(b))
        if any(vec):
            curv[(a, b)] = vec
    return Quintuple(
        patch,
        fiber,
        su2_adjoint_connection(patch, fiber),
        GValuedForm(patch, 3, 2, curv),
        FForm.zero(patch, 3),
    )


def _replace(q: Quintuple, conn=None, curv=None, hform=None) -> Quintuple:
    return Quintuple(q.patch, q.fiber, conn or q.conn, curv or q.curv, hform or q.hform)


def _add_to_curv(q: Quintuple, key, delta) -> Quintuple:
    comps = {k: list(q.curv.get(k)) for k in q.curv.keys()}
    vec = comps.setdefault(key, [q.patch.zero()] * q.fiber.dim)
    comps[key] = [u + v for u, v in zip(vec, delta)]
    return _replace(q, curv=GValuedForm(q.patch, q.fiber.dim, 2, comps))


def _nonzero_vector(rng: random.Random, n: int, m: int):
    v = [rng.randint(-2, 2) for _ in range(m)]
    if not any(v):
        v[rng.randrange(m)] = 1
    return [Poly.const(n, t) for t in v]


def rank_mutant(family: str, index: int) -> Tuple[Quintuple, str]:
    """The index-th seeded invalid variant of fixture C (``mut_c``) or of
    su(2) on the n=4, p=3 patch (``mut_s``); class = index mod 3.

    These are the ``mut_c_*`` and ``mut_s_*`` configs of the benchmark
    pool, with the same seeds.  ``h_scale`` and ``h_extra`` change H, so
    d^F H = <R wedge R> fails; ``bianchi`` adds a non-closed term to one
    curvature component; ``curv_const`` and ``gamma_ad`` break curvature
    matching.  The bracket code is untouched, so the Leibniz rules hold
    and axiom 1 is where the data errors surface.
    """
    rng = random.Random("%s:%d" % (family, index))
    cls = RANK_MUTANT_CLASSES[family][index % 3]
    if family == "mut_c":
        q = fixture_c()
        n = q.patch.n
        k = rng.choice([-1, 1, 3, 4])
        if cls == "h_scale":
            return _replace(q, hform=FForm(q.patch, 3, {(2, 3, 4): q.patch.var(1).scale(k)})), cls
        if cls == "h_extra":
            comps = {(2, 3, 4): q.patch.var(1).scale(2), (1, 2, 3): q.patch.var(4).scale(k)}
            return _replace(q, hform=FForm(q.patch, 3, comps)), cls
        key = rng.choice([(1, 2), (3, 4)])
        free = rng.choice([c for c in range(1, n + 1) if c not in key])
        return _add_to_curv(q, key, [q.patch.var(free).scale(k)]), cls
    q = su2_patch(4, 3)
    n = q.patch.n
    if cls == "gamma_ad":
        ad = q.fiber.ad_matrix(_nonzero_vector(rng, n, 3))
        x = q.patch.var(1)
        # an x1 factor on Gamma_2: d_1 Gamma_2 then picks up ad(v) itself
        gamma = [[list(row) for row in mat] for mat in q.conn.gamma]
        gamma[1] = [[g + e * x for g, e in zip(grow, arow)] for grow, arow in zip(gamma[1], ad)]
        return _replace(q, conn=GConnection(q.patch, 3, gamma)), cls
    if cls == "curv_const":
        return _add_to_curv(q, (1, 2), _nonzero_vector(rng, n, 3)), cls
    # bianchi: a non-closed perturbation of R_12 along the third leaf direction
    x3 = q.patch.var(3)
    return _add_to_curv(q, (1, 2), [v * x3 for v in _nonzero_vector(rng, n, 3)]), cls


def transported_fixture_d() -> Quintuple:
    q = fixture_d()
    return transport(q, seeded_iso_fixture_d(0, q))


# the quintuples on which the cochain path (ce_differential, the naive
# differential, the characteristic forms) is checked
COCHAIN_FIXTURES = {
    "D": fixture_d,
    "D_transported": transported_fixture_d,
    "C": fixture_c,
    "su2(4,3)": lambda: su2_patch(4, 3),
}
