import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from courant import (
    FConnection,
    FForm,
    GConnection,
    GValuedForm,
    Patch,
    Poly,
    QuadLieAlgebra,
    abelian,
    leafwise_d,
    pontryagin_form,
    su2,
)
from courant.geometry import validate_connection
from courant.report import Check, Report
from fixtures import rand_poly, su2_adjoint_connection


def test_leafwise_d_one_term():
    patch = Patch(2, 2)
    w = FForm(patch, 1, {(2,): patch.var(1)})
    dw = leafwise_d(w)
    assert dw.comps == {(1, 2): patch.one()}


def test_leafwise_d_alternating_sum_oracle():
    patch = Patch(4, 4)
    w = FForm(patch, 3, {(2, 3, 4): patch.var(1).scale(2)})
    dw = leafwise_d(w)
    assert dw.comps == {(1, 2, 3, 4): Poly.const(4, 2)}
    # oracle: (dw)(a0..ak) = sum_i (-1)^i d_{a_i} w(.. skip i ..)
    for key in combinations(range(1, 5), 4):
        expected = Poly.zero(4)
        for pos, a in enumerate(key):
            rest = key[:pos] + key[pos + 1:]
            term = w.get(rest).diff(a)
            expected = expected + term if pos % 2 == 0 else expected - term
        assert dw.get(key) == expected


def test_d_squared_zero_random():
    rng = random.Random(0)
    patch = Patch(4, 4)
    for degree in (0, 1, 2):
        for _ in range(10):
            comps = {
                key: rand_poly(rng, 4, 3)
                for key in combinations(range(1, 5), degree)
            }
            w = FForm(patch, degree, comps)
            assert not leafwise_d(leafwise_d(w))


def test_d_at_top_degree_is_zero_form():
    patch = Patch(2, 2)
    w = FForm(patch, 2, {(1, 2): patch.var(1)})
    dw = leafwise_d(w)
    assert dw.degree == 3 and not dw.comps


def test_signed_component_access():
    patch = Patch(3, 3)
    w = FForm(patch, 2, {(1, 2): patch.one()})
    assert w.get((2, 1)) == -patch.one()
    assert w.get((1, 1)) == patch.zero()


def test_connection_apply_flat():
    patch = Patch(2, 2)
    conn = GConnection.flat(patch, 2)
    r = [patch.var(1), patch.zero()]
    assert conn.apply(1, r) == [patch.one(), patch.zero()]


def test_connection_apply_adjoint():
    patch = Patch(2, 2)
    fiber = su2()
    conn = su2_adjoint_connection(patch, fiber)
    e2 = [patch.zero(), patch.one(), patch.zero()]
    assert conn.apply(1, e2) == [patch.zero(), patch.zero(), patch.one()]


def test_connection_leibniz_random():
    rng = random.Random(1)
    patch = Patch(2, 2)
    fiber = su2()
    conn = su2_adjoint_connection(patch, fiber)
    for _ in range(15):
        f = rand_poly(rng, 2, 2)
        r = [rand_poly(rng, 2, 2) for _ in range(3)]
        fr = [f * v for v in r]
        lhs = conn.apply(1, fr)
        base = conn.apply(1, r)
        rhs = [f.diff(1) * v + f * w for v, w in zip(r, base)]
        assert lhs == rhs


def test_metric_derivative_compatibility():
    rng = random.Random(2)
    patch = Patch(2, 2)
    fiber = su2()
    conn = su2_adjoint_connection(patch, fiber)
    for _ in range(10):
        r = [rand_poly(rng, 2, 2) for _ in range(3)]
        s = [rand_poly(rng, 2, 2) for _ in range(3)]
        for a in (1, 2):
            lhs = fiber.pairing(r, s).diff(a)
            rhs = fiber.pairing(conn.apply(a, r), s) + fiber.pairing(r, conn.apply(a, s))
            assert lhs == rhs


def test_connection_apply_index_range():
    patch = Patch(3, 2)
    conn = GConnection.flat(patch, 1)
    with pytest.raises(ValueError):
        conn.apply(3, [patch.one()])
    with pytest.raises(ValueError):
        conn.apply(0, [patch.one()])


def random_connection(rng, patch, dim):
    return GConnection(
        patch,
        dim,
        [[[rand_poly(rng, patch.n, 1) for _ in range(dim)] for _ in range(dim)] for _ in range(patch.p)],
    )


def uncached_apply(conn, a, r):
    # nabla_a r = d_a r + Gamma_a r, from the definition
    gamma = conn.gamma[a - 1]
    return [
        sum((g * v for g, v in zip(row, r)), r[k].diff(a)) for k, row in enumerate(gamma)
    ]


def test_connection_apply_memo_is_keyed_by_value():
    rng = random.Random(11)
    patch = Patch(3, 2)
    conn = random_connection(rng, patch, 3)
    for _ in range(5):
        r = [rand_poly(rng, 3, 2) for _ in range(3)]
        for a in (1, 2):
            assert conn.apply(a, r) == uncached_apply(conn, a, r)
            # equal polynomials built as distinct objects hit the same entry
            twin = [Poly(3, dict(v.terms)) for v in r]
            assert all(u == v and u is not v for u, v in zip(twin, r))
            size = len(conn._memo)
            assert conn.apply(a, twin) == uncached_apply(conn, a, twin)
            assert len(conn._memo) == size


def test_connection_apply_returns_a_fresh_list():
    rng = random.Random(12)
    patch = Patch(2, 2)
    conn = random_connection(rng, patch, 2)
    r = [rand_poly(rng, 2, 2) for _ in range(2)]
    expected = uncached_apply(conn, 1, r)
    first = conn.apply(1, r)
    first[0] = patch.var(2)
    first.append(patch.one())
    assert conn.apply(1, r) == expected
    assert conn.apply(1, r) is not conn.apply(1, r)


def test_leaf_connection_on_covectors_is_dual_to_on_vectors():
    # d_a <eta, y> = <nabla*_a eta, y> + <eta, nabla_a y>, exactly, for
    # Christoffel data that need not be symmetric
    rng = random.Random(9)
    patch = Patch(4, 3)
    n, p = patch.n, patch.p

    def pair(eta, y):
        return sum((u * v for u, v in zip(eta, y)), patch.zero())

    for _ in range(5):
        fc = FConnection(
            patch, [[[rand_poly(rng, n, 1) for _ in range(p)] for _ in range(p)] for _ in range(p)]
        )
        y = [rand_poly(rng, n, 2) for _ in range(p)]
        eta = [rand_poly(rng, n, 2) for _ in range(p)]
        # the second pass reads every nabla_a from the memo of ``apply``
        for _ in range(2):
            for a in range(1, p + 1):
                lhs = pair(eta, y).diff(a)
                rhs = pair(fc.on_covectors.apply(a, eta), y) + pair(eta, fc.on_vectors.apply(a, y))
                assert lhs == rhs
        # christoffel[a][b] holds the components of nabla_{d/dx_a} d/dx_b
        for a in range(1, p + 1):
            for b in range(1, p + 1):
                unit = [patch.one() if c == b else patch.zero() for c in range(1, p + 1)]
                assert fc.on_vectors.apply(a, unit) == fc.christoffel[a - 1][b - 1]


def test_validate_connection():
    patch = Patch(2, 2)
    fiber = su2()
    assert validate_connection(su2_adjoint_connection(patch, fiber), fiber).ok
    assert validate_connection(GConnection.flat(patch, 3), fiber).ok
    identity = [
        [[patch.one() if i == j else patch.zero() for j in range(3)] for i in range(3)],
        [[patch.zero() for _ in range(3)] for _ in range(3)],
    ]
    report = validate_connection(GConnection(patch, 3, identity), fiber)
    assert not report["conn_metric_skew"].ok


def dense_validate_connection(conn, fiber) -> Report:
    """Both connection identities by the literal loops over every index
    tuple, p * m^2 and p * m^4 of them: the oracle of the sparse
    ``validate_connection``."""
    report = Report()
    patch, m = conn.patch, conn.dim
    g = fiber.g

    skew = Check("conn_metric_skew", "g*Gamma_a + Gamma_a^T*g")
    for a in range(patch.p):
        mat = conn.gamma[a]
        for i in range(m):
            for j in range(m):
                # (g Gamma + Gamma^T g)[i][j]
                acc = Poly.zero(patch.n)
                for l in range(m):
                    if g[i][l] and mat[l][j]:
                        acc = acc + mat[l][j].scale(g[i][l])
                    if mat[l][i] and g[l][j]:
                        acc = acc + mat[l][i].scale(g[l][j])
                skew.add((a + 1, i + 1, j + 1), acc)
    report.add(skew.record())

    deriv = Check("conn_bracket_derivation", "Gamma_a[e_i,e_j] - [Gamma_a e_i,e_j] - [e_i,Gamma_a e_j]")
    for a in range(patch.p):
        mat = conn.gamma[a]
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    # Gamma_a [e_i, e_j] - [Gamma_a e_i, e_j] - [e_i, Gamma_a e_j]
                    acc = Poly.zero(patch.n)
                    for l in range(m):
                        if fiber.c[i][j][l] and mat[k][l]:
                            acc = acc + mat[k][l].scale(fiber.c[i][j][l])
                        if mat[l][i] and fiber.c[l][j][k]:
                            acc = acc - mat[l][i].scale(fiber.c[l][j][k])
                        if mat[l][j] and fiber.c[i][l][k]:
                            acc = acc - mat[l][j].scale(fiber.c[i][l][k])
                    deriv.add((a + 1, i + 1, j + 1, k + 1), acc)
    report.add(deriv.record())
    return report


VALID_FIBERS = (su2(), abelian(2), abelian(2, [[0, 1], [1, 0]]))


@st.composite
def connections(draw):
    """A connection and a fiber.  Either Gamma_a = ad(v_a) for random
    fiber vectors v_a on a valid fiber, which satisfies both identities,
    with up to two entries changed; or sparse random Gamma entries on
    random structure constants and metric."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    p = draw(st.integers(1, 3))
    patch = Patch(p + draw(st.integers(0, 1)), p)
    n = patch.n

    def entry():
        return rand_poly(rng, n, 1, terms=2) if rng.random() < 0.4 else patch.zero()

    if draw(st.booleans()):
        fiber = draw(st.sampled_from(VALID_FIBERS))
        m = fiber.dim
        gamma = [fiber.ad_matrix([entry() for _ in range(m)]) for _ in range(p)]
        for _ in range(draw(st.integers(0, 2))):
            row = gamma[rng.randrange(p)][rng.randrange(m)]
            k = rng.randrange(m)
            row[k] = row[k] + rand_poly(rng, n, 1)
    else:
        m = draw(st.integers(0, 3))
        value = (0, 0, 0, 1, -1, 2, Fraction(1, 2))
        c = [[[rng.choice(value) for _ in range(m)] for _ in range(m)] for _ in range(m)]
        g = [[rng.choice(value) for _ in range(m)] for _ in range(m)]
        fiber = QuadLieAlgebra(m, c, g)
        gamma = [[[entry() for _ in range(m)] for _ in range(m)] for _ in range(p)]
    return GConnection(patch, m, gamma), fiber


@settings(max_examples=150, deadline=None)
@given(connections())
def test_sparse_validate_connection_matches_dense_loops(data):
    conn, fiber = data
    assert validate_connection(conn, fiber).records == dense_validate_connection(conn, fiber).records


def pontryagin_s4_oracle(curv, fiber):
    """The full 24-term symmetrized definition of <R wedge R>."""
    patch = curv.patch
    out = {}
    for key in combinations(range(1, patch.p + 1), 4):
        total = Poly.zero(patch.n)
        for perm in permutations(range(4)):
            sign = 1
            seen = list(perm)
            for i in range(4):
                for j in range(i + 1, 4):
                    if seen[i] > seen[j]:
                        sign = -sign
            r1 = curv.get((key[perm[0]], key[perm[1]]))
            r2 = curv.get((key[perm[2]], key[perm[3]]))
            total = total + fiber.pairing(r1, r2).scale(Fraction(sign, 4))
        if total:
            out[key] = total
    return FForm(patch, 4, out)


def test_pontryagin_example():
    patch = Patch(4, 4)
    fiber = abelian(1)
    curv = GValuedForm(patch, 1, 2, {(1, 2): [patch.one()], (3, 4): [patch.one()]})
    form = pontryagin_form(curv, fiber)
    assert form.comps == {(1, 2, 3, 4): Poly.const(4, 2)}
    assert form == pontryagin_s4_oracle(curv, fiber)


def test_pontryagin_zero_cases():
    patch = Patch(4, 4)
    fiber = abelian(1)
    assert not pontryagin_form(GValuedForm.zero(patch, 1, 2), fiber)
    small = Patch(3, 3)
    curv = GValuedForm(small, 1, 2, {(1, 2): [small.one()]})
    assert not pontryagin_form(curv, fiber).comps


def test_pontryagin_matches_s4_oracle_random():
    rng = random.Random(3)
    patch = Patch(4, 4)
    fiber = su2()
    for _ in range(8):
        comps = {}
        for key in combinations(range(1, 5), 2):
            vec = [rand_poly(rng, 4, 2, terms=2) for _ in range(3)]
            if any(vec):
                comps[key] = vec
        curv = GValuedForm(patch, 3, 2, comps)
        assert pontryagin_form(curv, fiber) == pontryagin_s4_oracle(curv, fiber)


def test_form_shape_errors():
    patch = Patch(2, 2)
    with pytest.raises(ValueError):
        FForm(patch, 1, {(3,): patch.one()})
    with pytest.raises(ValueError):
        FForm(patch, 2, {(2, 1): patch.one()})
    with pytest.raises(ValueError):
        GValuedForm(patch, 2, 1, {(1,): [patch.one()]})
