import random
from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from courant import Patch, Poly, QuadLieAlgebra, abelian, poly, su2
from courant.ample import AForm, QuadAlgebroid, ce_differential
from courant.geometry import FForm, GConnection, GValuedForm
from courant.dorfman import Quintuple
from courant.linalg import rational_det
from courant.poly import parse_poly
from courant.report import Check, Report, Witness
from fixtures import center, direct_sum, rand_poly


def sl2() -> QuadLieAlgebra:
    # basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h; indefinite metric
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][1] = 2
    c[1][0][1] = -2
    c[0][2][2] = -2
    c[2][0][2] = 2
    c[1][2][0] = 1
    c[2][1][0] = -1
    g = [[8, 0, 0], [0, 0, 4], [0, 4, 0]]
    return QuadLieAlgebra(3, c, g)


VALID_FIBERS = [su2(), abelian(1), abelian(3), direct_sum(su2(), abelian(1)), sl2()]


def contraction_oracle(fib):
    """Direct tensor-contraction checks of all fiber invariants."""
    m = fib.dim
    for i in range(m):
        for j in range(m):
            for k in range(m):
                assert fib.c[i][j][k] == -fib.c[j][i][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                for s in range(m):
                    total = Fraction(0)
                    for l in range(m):
                        total += fib.c[i][j][l] * fib.c[l][k][s]
                        total += fib.c[j][k][l] * fib.c[l][i][s]
                        total += fib.c[k][i][l] * fib.c[l][j][s]
                    assert total == 0
    for i in range(m):
        for j in range(m):
            for k in range(m):
                # <[e_i,e_j],e_k> + <e_j,[e_i,e_k]> = 0
                lhs = sum(fib.c[i][j][l] * fib.g[l][k] for l in range(m))
                rhs = sum(fib.c[i][k][l] * fib.g[j][l] for l in range(m))
                assert lhs + rhs == 0


def test_valid_fibers_pass():
    for fib in VALID_FIBERS:
        report = fib.validate()
        assert report.ok, [r.name for r in report.failures()]
        contraction_oracle(fib)


def test_missing_skew_partner_detected():
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2] = 1  # no partner at (2,1,3)
    g = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    report = QuadLieAlgebra(3, c, g).validate()
    record = report["fiber_bracket_skew"]
    assert not record.ok
    assert record.witness.indices == (1, 2, 3) or record.witness.indices == (2, 1, 3)


def test_degenerate_metric_detected():
    fib = QuadLieAlgebra(2, [[[0] * 2] * 2] * 2, [[1, 1], [1, 1]])
    report = fib.validate()
    assert not report["fiber_metric_nondegenerate"].ok


def test_non_ad_invariant_metric_detected():
    fib = QuadLieAlgebra(3, su2().c, [[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    report = fib.validate()
    assert not report["fiber_ad_invariance"].ok


def test_su2_bracket_epsilon_oracle():
    fib = su2()
    one = Poly.const(0, 1)
    zero = Poly.zero(0)
    e1 = [one, zero, zero]
    e2 = [zero, one, zero]
    assert fib.bracket(e1, e2) == [zero, zero, one]
    # [r, r] = 0
    rng = random.Random(0)
    r = [Poly.const(0, Fraction(rng.randint(-3, 3), 2)) for _ in range(3)]
    assert all(not v for v in fib.bracket(r, r))


def test_abelian_bracket_vanishes():
    fib = abelian(3)
    one = Poly.const(0, 1)
    vecs = [[one, one, one], [one, Poly.zero(0), one]]
    assert all(not v for v in fib.bracket(vecs[0], vecs[1]))


def test_cartan_three_form():
    fib = su2()
    cartan = fib.cartan_three_form()
    assert cartan[0][1][2] == -1
    for i, j, k in permutations(range(3)):
        sign = perm_sign((i, j, k))
        assert cartan[i][j][k] == -sign
    assert all(
        v == 0 for plane in abelian(3).cartan_three_form() for row in plane for v in row
    )


def perm_sign(p):
    sign = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def test_cartan_antisymmetry_all_valid_fibers():
    for fib in VALID_FIBERS:
        cartan = fib.cartan_three_form()
        m = fib.dim
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    assert cartan[i][j][k] == -cartan[j][i][k]
                    assert cartan[i][j][k] == -cartan[i][k][j]


def test_centers():
    assert center(su2()) == []
    assert center(abelian(3)) == [
        [Fraction(1), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]
    zvecs = center(direct_sum(su2(), abelian(1)))
    assert zvecs == [[Fraction(0), Fraction(0), Fraction(0), Fraction(1)]]
    # oracle: every center vector annihilates the whole basis
    fib = direct_sum(su2(), abelian(1))
    one = Poly.const(0, 1)
    for vec in zvecs:
        lifted = [Poly.const(0, v) for v in vec]
        for i in range(fib.dim):
            basis = [one if k == i else Poly.zero(0) for k in range(fib.dim)]
            assert all(not t for t in fib.bracket(lifted, basis))


def test_bracket_length_mismatch():
    fib = su2()
    one = Poly.const(0, 1)
    with pytest.raises(ValueError):
        fib.bracket([one, one], [one, one, one])
    with pytest.raises(ValueError):
        fib.pairing([one], [one, one, one])


def test_cartan_form_closed_point_base():
    # the Cartan 3-form of a valid fiber is closed over a point base
    for fib in (su2(), sl2()):
        patch = Patch(0, 0)
        q = Quintuple(
            patch,
            fib,
            GConnection.flat(patch, fib.dim),
            GValuedForm.zero(patch, fib.dim, 2),
            FForm.zero(patch, 3),
        )
        cartan = fib.cartan_three_form()
        comps = {}
        for i in range(1, fib.dim + 1):
            for j in range(i + 1, fib.dim + 1):
                for k in range(j + 1, fib.dim + 1):
                    value = cartan[i - 1][j - 1][k - 1]
                    if value:
                        comps[((i, j, k), ())] = Poly.const(0, value)
        form = AForm(patch, fib.dim, 3, comps)
        assert not ce_differential(QuadAlgebroid.of(q), form)


# -- the contractions against dense index loops ---------------------------------


def rational_fiber() -> QuadLieAlgebra:
    """sl(2) with its metric scaled by -1/3, plus a line with metric 5/2:
    rational entries, indefinite, with a center."""
    s = sl2()
    scaled = QuadLieAlgebra(3, s.c, [[v * Fraction(-1, 3) for v in row] for row in s.g])
    return direct_sum(scaled, abelian(1, [[Fraction(5, 2)]]))


CONTRACTION_FIBERS = {
    "su2": su2,
    "sl2": sl2,
    "su2+line": lambda: direct_sum(su2(), abelian(1)),
    "rational": rational_fiber,
}


def dense_pairing(fib, r, s):
    acc = Poly.zero(r[0].nvars)
    for i, j in product(range(fib.dim), repeat=2):
        acc = acc + (r[i] * s[j]).scale(fib.g[i][j])
    return acc


def dense_bracket(fib, r, s):
    out = []
    for k in range(fib.dim):
        acc = Poly.zero(r[0].nvars)
        for i, j in product(range(fib.dim), repeat=2):
            acc = acc + (r[i] * s[j]).scale(fib.c[i][j][k])
        out.append(acc)
    return out


def dense_ad_matrix(fib, v):
    m = fib.dim
    zero = Poly.zero(v[0].nvars)
    return [
        [sum((v[i].scale(fib.c[i][j][k]) for i in range(m)), zero) for j in range(m)]
        for k in range(m)
    ]


@pytest.mark.parametrize("name", sorted(CONTRACTION_FIBERS))
def test_contractions_match_dense_loops(name):
    fib = CONTRACTION_FIBERS[name]()
    assert fib.validate().ok
    rng = random.Random(name)
    for _ in range(12):
        # rational entries, about a quarter of them zero
        r, s = (
            [rand_poly(rng, 2, 2) if rng.random() < 0.75 else Poly.zero(2) for _ in range(fib.dim)]
            for _ in range(2)
        )
        assert fib.pairing(r, s) == dense_pairing(fib, r, s)
        assert fib.bracket(r, s) == dense_bracket(fib, r, s)
        assert fib.ad_matrix(r) == dense_ad_matrix(fib, r)


def test_sparse_structure_lists():
    fib = rational_fiber()
    third = Fraction(1, 3)
    assert fib.g_terms == [(-8 * third, 0, 0), (-4 * third, 1, 2), (-4 * third, 2, 1), (Fraction(5, 2), 3, 3)]
    # [h, e] = 2e and [e, h] = -2e; integer entries are stored as ints
    assert fib.c_terms[1] == [(2, 0, 1), (-2, 1, 0)]
    assert fib.c_terms[3] == []
    assert all(type(c) is int for terms in fib.c_terms for c, _, _ in terms)
    assert all(type(g) is int for g, _, _ in su2().g_terms)
    # a fiber of dimension 0 pairs into the caller's ring
    assert abelian(0).pairing([], [], 3) is Poly.zero(3)


def count_makes(monkeypatch) -> list:
    """From now on, one entry per Poly built through ``poly._make``."""
    calls = []
    make = poly._make

    def counted(*args):
        calls.append(1)
        return make(*args)

    monkeypatch.setattr(poly, "_make", counted)
    return calls


def test_pairing_builds_one_poly(monkeypatch):
    # the whole sum goes into one accumulator, not one Poly per term
    r = [parse_poly(t, 2) for t in ("x1 + 1/2", "x2", "3")]
    s = [parse_poly(t, 2) for t in ("x1", "1/3", "x2 - 1")]
    fib = su2()
    calls = count_makes(monkeypatch)
    value = fib.pairing(r, s)
    assert len(calls) == 1
    assert value == parse_poly("x1^2 + 1/2*x1 + 10/3*x2 - 3", 2)


# -- sparse validation against the dense loops ----------------------------------


def dense_validate(fib) -> Report:
    """The fiber identities by the literal loops over every index tuple,
    with B built densely from c and g: the oracle of the sparse
    ``QuadLieAlgebra.validate``."""
    report = Report()
    m = fib.dim
    c, g = fib.c, fib.g
    b = [
        [[sum((c[i][j][l] * g[l][k] for l in range(m)), Fraction(0)) for k in range(m)] for j in range(m)]
        for i in range(m)
    ]

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
                    c[i][j][l] * c[l][k][s] + c[j][k][l] * c[l][i][s] + c[k][i][l] * c[l][j][s]
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

    if rational_det(g):
        report.add_pass("fiber_metric_nondegenerate")
    else:
        report.add_fail("fiber_metric_nondegenerate", Witness("det(g)", (), "0"))

    adinv = Check("fiber_ad_invariance", "B[i][j][k] + B[i][k][j]")
    for i, j, k in product(range(m), repeat=3):
        adinv.add((i + 1, j + 1, k + 1), b[i][j][k] + b[i][k][j])
    report.add(adinv.record())
    return report


small_fractions = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def relabelled_valid_fibers(draw):
    """A valid fiber in the basis e'_i = s_i e_pi(i): a permutation and
    nonzero rational scalings keep it a quadratic Lie algebra."""
    fib = draw(st.sampled_from(VALID_FIBERS))
    m = fib.dim
    pi = draw(st.permutations(range(m)))
    s = [draw(small_fractions.filter(bool)) for _ in range(m)]
    c = [
        [[s[i] * s[j] * fib.c[pi[i]][pi[j]][pi[k]] / s[k] for k in range(m)] for j in range(m)]
        for i in range(m)
    ]
    g = [[s[i] * s[j] * fib.g[pi[i]][pi[j]] for j in range(m)] for i in range(m)]
    return c, g


@st.composite
def broken_fibers(draw):
    """A valid fiber with a few entries of c or g changed."""
    c, g = draw(relabelled_valid_fibers())
    m = len(g)
    for _ in range(draw(st.integers(1, 3))):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        if draw(st.booleans()):
            c[i][j][k] += draw(small_fractions)
        else:
            g[i][j] += draw(small_fractions)
    return c, g


@st.composite
def random_fibers(draw):
    """Sparse random structure constants and metric of dimension <= 4."""
    m = draw(st.integers(0, 4))
    entry = st.one_of(st.just(Fraction(0)), st.integers(-2, 2).map(Fraction), small_fractions)
    c = [[[draw(entry) for _ in range(m)] for _ in range(m)] for _ in range(m)]
    g = [[draw(entry) for _ in range(m)] for _ in range(m)]
    return c, g


@settings(max_examples=150, deadline=None)
@given(st.one_of(relabelled_valid_fibers(), broken_fibers(), random_fibers()))
def test_sparse_validate_matches_dense_loops(data):
    c, g = data
    fib = QuadLieAlgebra(len(g), c, g)
    assert fib.validate().records == dense_validate(fib).records
