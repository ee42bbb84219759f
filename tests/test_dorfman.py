import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from courant import Poly, Quintuple
from courant.ample import Section
from fixtures import (
    ALL_FIXTURES,
    courant,
    fixture_a,
    fixture_c,
    fixture_d,
    mutate_fixture_d,
    rand_poly,
    section,
    su2_patch,
)
from test_poly import polys
from courant import axioms
from courant.dorfman import MAX_DEGREE_CAP, monomials
from courant.geometry import FForm


def rand_section(rng, q, max_degree=2):
    p, m, n = q.patch.p, q.fiber.dim, q.patch.n
    return Section(
        [rand_poly(rng, n, max_degree, terms=2) for _ in range(p)],
        [rand_poly(rng, n, max_degree, terms=2) for _ in range(m)],
        [rand_poly(rng, n, max_degree, terms=2) for _ in range(p)],
    )


# -- pseudo-metric, anchor, D ---------------------------------------------------


def test_pairing_examples():
    q = fixture_d()
    assert q.pairing(q.delta(1), q.coord(1)) == Poly.const(2, Fraction(1, 2))
    assert not q.pairing(q.coord(1), q.coord(2))
    assert not q.pairing(q.delta(1), q.delta(2))
    assert not q.pairing(q.delta(1), q.delta(1))
    for i in range(1, 4):
        for j in range(1, 4):
            expected = Poly.const(2, q.fiber.g[i - 1][j - 1])
            assert q.pairing(q.fiber_elem(i), q.fiber_elem(j)) == expected


def test_anchor_returns_x_part():
    q = fixture_d()
    rng = random.Random(0)
    e = rand_section(rng, q)
    assert q.anchor(e) == e.x


def test_d_operator_against_pairing_oracle():
    # <D f, u> = rho(u) f / 2 for every frame section u
    q = fixture_d()
    rng = random.Random(1)
    for _ in range(10):
        f = rand_poly(rng, 2, 3)
        df = q.d_operator(f)
        for u in q.frame_sections():
            assert q.pairing(df, u) == q.anchor_apply(u, f).scale(Fraction(1, 2))
    assert q.d_operator(q.patch.var(1)) == q.delta(1)
    assert q.d_operator(Poly.const(2, 7)).is_zero()


# -- the bracket on fixtures ----------------------------------------------------


def test_fixture_d_frame_brackets():
    q = fixture_d()
    one, zero = q.patch.one(), q.patch.zero()
    assert q.dorfman(q.coord(1), q.coord(2)) == Section([zero, zero], [zero, zero, one], [zero, zero])
    assert q.dorfman(q.coord(1), q.fiber_elem(2)) == Section([zero, zero], [zero, zero, one], [zero, zero])
    # Q(d1, e3) pairs e3 with R_12 = e3 on the second dual slot
    assert q.q_form(q.coord(1).x, q.fiber_elem(3).r) == [zero, one]
    assert q.p_form(q.fiber_elem(1).r, q.fiber_elem(2).r) == [
        q.fiber.pairing(q.fiber_elem(2).r, q.nabla(1, q.fiber_elem(1).r)).scale(2),
        q.fiber.pairing(q.fiber_elem(2).r, q.nabla(2, q.fiber_elem(1).r)).scale(2),
    ]


def test_p_form_flat_constant_zero():
    q = fixture_c()
    r1 = [q.patch.one()]
    r2 = [q.patch.one()]
    assert all(not v for v in q.p_form(r1, r2))


def test_q_form_zero_curvature():
    q = fixture_a()
    assert q.q_form(q.coord(1).x, []) == [q.patch.zero(), q.patch.zero()]


def test_exact_case_bracket_is_h_twisted():
    # no fiber: [[x, y]] = H(x,y,-) + [x,y]
    q = fixture_a()
    rng = random.Random(2)
    for _ in range(10):
        x = rand_section(rng, q)
        x.xi = [q.patch.zero()] * 2
        y = rand_section(rng, q)
        y.xi = [q.patch.zero()] * 2
        br = q.dorfman(x, y)
        assert br.x == q.vf_bracket(x.x, y.x)
        assert br.xi == q.h_contract(x.x, y.x)


def test_fiber_projection_of_fiber_bracket():
    # the bracket of two fiber sections projects to the fiber bracket
    q = fixture_d()
    rng = random.Random(3)
    for _ in range(10):
        r1 = [rand_poly(rng, 2, 2) for _ in range(3)]
        r2 = [rand_poly(rng, 2, 2) for _ in range(3)]
        e1 = section(q, [q.patch.zero()] * 2, r1, [q.patch.zero()] * 2)
        e2 = section(q, [q.patch.zero()] * 2, r2, [q.patch.zero()] * 2)
        assert q.dorfman(e1, e2).r == q.fiber.bracket(r1, r2)


# -- Leibniz rules as unconditional identities ----------------------------------


def leibniz_right_defect(q, e1, e2, f):
    lhs = q.dorfman(e1, e2.mul(f))
    rhs = q.dorfman(e1, e2).mul(f) + e2.mul(q.anchor_apply(e1, f))
    return lhs - rhs


def leibniz_left_defect(q, e1, e2, f):
    lhs = q.dorfman(e1.mul(f), e2)
    rhs = q.dorfman(e1, e2).mul(f) - e1.mul(q.anchor_apply(e2, f))
    pair = q.pairing(e1, e2)
    if pair:
        rhs = rhs + q.d_operator(f).mul(pair.scale(2))
    return lhs - rhs


def rand_cubic(rng, n):
    """A random polynomial with a term of total degree exactly 3."""
    exp = [0] * n
    for _ in range(3):
        exp[rng.randrange(n)] += 1
    return rand_poly(rng, n, 3, terms=4) + Poly(n, {tuple(exp): rng.randint(1, 3)})


def test_leibniz_rules_hold_for_general_sections():
    # both rules are calculus identities of the closed-form bracket: they
    # hold for arbitrary polynomial sections, even over invalid data.  The
    # reduced axiom check certifies them from frame pairs and coefficients
    # of degree <= 1; here sections have degree-2 and f cubic coefficients
    rng = random.Random(4)
    quintuples = [fixture_d(), fixture_c(), mutate_fixture_d(0)[0], mutate_fixture_d(1)[0]]
    for q in quintuples:
        for _ in range(8):
            e1 = rand_section(rng, q)
            e2 = rand_section(rng, q)
            f = rand_cubic(rng, q.patch.n)
            assert leibniz_right_defect(q, e1, e2, f).is_zero()
            assert leibniz_left_defect(q, e1, e2, f).is_zero()


def test_reduced_axiom_check_bracket_count(monkeypatch):
    # a deterministic guard on the cost of the frame stages: 81 frame
    # brackets, 2 x 324 Leibniz instances, 4 x 9 for axiom 5 (degree <= 1
    # once both Leibniz rules pass; 14 x 9 up to degree 2 made 1,107) and
    # 3 x 84 for axiom 1 on sorted triples make 1,017 at every cap; with all 729
    # triples, f = 1 and axiom 5 up to degree 2 * cap it was 3,204 at cap 1
    # and 3,699 at cap 2, and the widened Leibniz stages before that made
    # ~96,000 at cap 2
    calls = []
    dorfman = Quintuple.dorfman

    def counted(self, e1, e2):
        calls.append(1)
        return dorfman(self, e1, e2)

    monkeypatch.setattr(Quintuple, "dorfman", counted)
    for cap in (1, 2):
        calls.clear()
        assert fixture_c().check_axioms(cap).ok
        assert len(calls) <= 1020, cap


def test_axiom4_shape_on_family():
    q = fixture_d()
    family, _ = q.axiom_family(1)
    for e1 in family[:20]:
        for e2 in family[:20]:
            d = (
                q.dorfman(e1, e2)
                + q.dorfman(e2, e1)
                - q.d_operator(q.pairing(e1, e2)).scale(2)
            )
            assert d.is_zero()


def test_axiom2_anchor_homomorphism_random():
    q = fixture_d()
    rng = random.Random(5)
    for _ in range(10):
        e1 = rand_section(rng, q)
        e2 = rand_section(rng, q)
        assert q.anchor(q.dorfman(e1, e2)) == q.vf_bracket(e1.x, e2.x)


def test_courant_bracket_is_skew():
    q = fixture_d()
    rng = random.Random(6)
    for _ in range(10):
        e1 = rand_section(rng, q, 1)
        e2 = rand_section(rng, q, 1)
        d = courant(q, e1, e2) + courant(q, e2, e1)
        assert d.is_zero()


# -- validation -----------------------------------------------------------------


def test_all_fixtures_validate():
    for name, build in ALL_FIXTURES:
        report = build().validate()
        assert report.ok, (name, [r.name for r in report.failures()])


def test_fixture_c_broken_h_residual():
    q = fixture_c()
    broken = type(q)(q.patch, q.fiber, q.conn, q.curv, FForm.zero(q.patch, 3))
    report = broken.validate()
    bad = [r for r in report.failures()]
    assert [r.name for r in bad] == ["dF_H_equals_RR"]
    witness = bad[0].witness
    assert witness.indices == (1, 2, 3, 4)
    assert witness.residual == "2"


def test_axiom_check_passes_all_fixtures():
    for name, build in ALL_FIXTURES:
        report = build().check_axioms(1)
        assert report.ok, (name, [r.name for r in report.failures()])


def test_axiom_methods_agree_on_valid_fixtures():
    for build, caps in ((fixture_a, (0, 1, 2)), (fixture_d, (0, 1))):
        q = build()
        for cap in caps:
            reduced = q.check_axioms(cap)
            direct = axioms.direct(q, cap)
            red = {r.name: r.status for r in reduced if r.name.startswith("axiom")}
            dir_ = {r.name: r.status for r in direct}
            assert red == dir_


def test_axiom_methods_agree_on_mutants():
    for seed in range(9):
        q, _cls = mutate_fixture_d(seed)
        reduced = q.check_axioms(1)
        direct = axioms.direct(q, 1)
        assert not reduced.ok and not direct.ok
        red = {r.name: r.status for r in reduced if r.name.startswith("axiom")}
        dir_ = {r.name: r.status for r in direct}
        assert red == dir_


def test_validate_iff_axioms_on_mutants():
    for seed in range(12):
        q, _cls = mutate_fixture_d(seed)
        assert not q.validate().ok
        assert not q.check_axioms(1).ok


def test_broken_h_fails_axiom_1():
    q = fixture_c()
    broken = type(q)(q.patch, q.fiber, q.conn, q.curv, FForm.zero(q.patch, 3))
    report = broken.check_axioms(1)
    assert not report["axiom_1"].ok


def test_exact_line_field_all_axioms():
    # one-dimensional leaf, no fiber, no H: everything reduces to calculus
    from courant import GConnection, GValuedForm, Patch, Quintuple, abelian

    patch = Patch(1, 1)
    q = Quintuple(
        patch,
        abelian(0),
        GConnection.flat(patch, 0),
        GValuedForm.zero(patch, 0, 2),
        FForm.zero(patch, 3),
    )
    assert q.validate().ok
    assert q.check_axioms(2).ok


def test_monomials_enumeration():
    monos = monomials(2, 2)
    assert [str(m) for m in monos] == ["1", "x2", "x1", "x2^2", "x1*x2", "x1^2"]
    assert len(monomials(4, 2)) == 15
    assert [str(m) for m in monomials(0, 3)] == ["1"]


def test_monomials_match_box_enumeration():
    # the enumeration by total degree lists what filtering the exponent box
    # {0..d}^n by total degree and sorting graded-lex gives, in that order
    for n in range(5):
        for d in range(-1, 7):
            box = [e for e in product(range(d + 1), repeat=n) if sum(e) <= d]
            box.sort(key=lambda e: (sum(e), e))
            assert monomials(n, d) == [Poly(n, {e: 1}) for e in box], (n, d)


def test_section_shape_mismatch():
    q = fixture_d()
    with pytest.raises(ValueError):
        section(q, [q.patch.zero()], [q.patch.zero()] * 3, [q.patch.zero()] * 2)


def test_bracket_and_pairing_shape_guards():
    qd = fixture_d()
    qc = fixture_c()
    foreign = qc.zero_section()
    with pytest.raises(ValueError):
        qd.dorfman(qd.zero_section(), foreign)
    with pytest.raises(ValueError):
        qd.pairing(foreign, qd.zero_section())


def test_check_axioms_rejects_negative_degree():
    with pytest.raises(ValueError):
        fixture_d().check_axioms(-1)


def test_check_axioms_rejects_degree_above_ceiling():
    with pytest.raises(ValueError, match="must be <= %d" % MAX_DEGREE_CAP):
        fixture_d().check_axioms(MAX_DEGREE_CAP + 1)


# -- zero components -----------------------------------------------------------


@st.composite
def sections(draw, nvars=2):
    """Sections of shape (2, 3, 2), each component zero half the time."""

    def component():
        return Poly.zero(nvars) if draw(st.booleans()) else draw(polys(nvars))

    return Section(*([component() for _ in range(k)] for k in (2, 3, 2)))


@settings(max_examples=100, deadline=None)
@given(sections(), sections(), polys(), st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_section_algebra_is_componentwise(s, t, f, c):
    pairs = list(zip(s.components(), t.components()))
    assert (s + t).components() == [a + b for a, b in pairs]
    assert (s - t).components() == [a - b for a, b in pairs]
    assert s.mul(f).components() == [f * a for a in s.components()]
    assert s.scale(c).components() == [a.scale(c) for a in s.components()]
    assert s.is_zero() == (not any(s.components()))


def test_section_mul_checks_the_ring():
    # f * 0 is skipped, but not its variable-count check
    q = fixture_d()
    for s in (q.zero_section(), q.coord(1)):
        for f in (Poly.zero(q.patch.n + 1), Poly.variable(q.patch.n + 1, 1)):
            with pytest.raises(ValueError, match="variable-count mismatch"):
                s.mul(f)


# Poly.__mul__ calls of check_axioms(2), all from the bracket's nonzero
# components; multiplying every component, zeros included, made 21,993
# on fixture C and 19,009 on su2_patch(4, 3), and building f u once per
# (frame pair, f) in both Leibniz stages, not once per (frame, f), made
# 1,688 and 1,930 (2 * 81 * 4 products against 9 * 4)
AXIOM_PRODUCTS = {"C": (fixture_c, 1076), "su2(4,3)": (lambda: su2_patch(4, 3), 1318)}


@pytest.mark.parametrize("name", sorted(AXIOM_PRODUCTS))
def test_axiom_check_product_count(monkeypatch, name):
    build, expected = AXIOM_PRODUCTS[name]
    q = build()
    calls = []
    mul = Poly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    assert q.check_axioms(2).ok
    assert len(calls) == expected
