import random

import pytest

from courant import FForm, QuadAlgebroid, Quintuple, ce_differential, phi_form, standard_three_form
from courant.ample import AForm, aform_keys
from courant.dorfman import naive_differential, naive_matches_ce
from courant.morphism import psi_form
from fixtures import (
    aform_from_fform,
    ample_section,
    fixture_c,
    fixture_d,
    is_horizontal,
    rand_poly,
    seeded_endomorphism_field,
    seeded_gvalued_one_form,
)


def rand_aform(rng, q, degree):
    comps = {}
    for key in aform_keys(q.patch, q.fiber.dim, degree):
        poly = rand_poly(rng, q.patch.n, 2, terms=2)
        if poly:
            comps[key] = poly
    return AForm(q.patch, q.fiber.dim, degree, comps)


def test_a_bracket_frame_formulas():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    zero, one = q.patch.zero(), q.patch.one()
    # [d1, d2] = R_12 = e3
    br = alg.bracket(alg.coord(1), alg.coord(2))
    assert br == ample_section(alg, [zero, zero, one], [zero, zero])
    # [e_i, e_j] restricts to the fiber bracket
    br = alg.bracket(alg.fiber_elem(1), alg.fiber_elem(2))
    assert br == ample_section(alg, [zero, zero, one], [zero, zero])
    # [x, r] = nabla_x r
    br = alg.bracket(alg.coord(1), alg.fiber_elem(2))
    assert br.r == q.nabla(1, alg.fiber_elem(2).r)


def test_a_bracket_jacobi_on_frames():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    frames = [alg.fiber_elem(i) for i in (1, 2, 3)] + [alg.coord(a) for a in (1, 2)]
    for u in frames:
        for v in frames:
            for w in frames:
                jac = (
                    alg.bracket(u, alg.bracket(v, w))
                    - alg.bracket(alg.bracket(u, v), w)
                    - alg.bracket(v, alg.bracket(u, w))
                )
                assert jac.is_zero()


def test_a_bracket_leibniz():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    rng = random.Random(0)
    for _ in range(10):
        u = ample_section(
            alg, [rand_poly(rng, 2, 2) for _ in range(3)], [rand_poly(rng, 2, 2) for _ in range(2)]
        )
        v = ample_section(
            alg, [rand_poly(rng, 2, 2) for _ in range(3)], [rand_poly(rng, 2, 2) for _ in range(2)]
        )
        f = rand_poly(rng, 2, 2)
        fv = ample_section(alg, [f * t for t in v.r], [f * t for t in v.x])
        lhs = alg.bracket(u, fv)
        base = alg.bracket(u, v)
        rf = alg.anchor_apply(u, f)
        rhs = ample_section(
            alg,
            [f * t + rf * s for t, s in zip(base.r, v.r)],
            [f * t + rf * s for t, s in zip(base.x, v.x)],
        )
        assert lhs == rhs


def test_ce_differential_of_function():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    f = q.patch.var(1) * q.patch.var(2)
    w = AForm(q.patch, 3, 0, {((), ()): f})
    dw = ce_differential(alg, w)
    assert dw.comps == {((), (1,)): f.diff(1), ((), (2,)): f.diff(2)}


def test_ce_squares_to_zero_random():
    rng = random.Random(1)
    for q in (fixture_d(), fixture_c()):
        alg = QuadAlgebroid.of(q)
        for degree in (0, 1, 2):
            for _ in range(8):
                w = rand_aform(rng, q, degree)
                assert not ce_differential(alg, ce_differential(alg, w))


def test_ce_of_standard_form_vanishes():
    for q in (fixture_d(), fixture_c()):
        assert not ce_differential(QuadAlgebroid.of(q), standard_three_form(q))


def test_eval_frame_signs():
    q = fixture_d()
    c = standard_three_form(q)
    v1 = c.eval_frame([("g", 1), ("g", 2), ("g", 3)])
    assert v1 == -q.patch.one()
    assert c.eval_frame([("g", 2), ("g", 1), ("g", 3)]) == q.patch.one()
    assert not c.eval_frame([("g", 1), ("g", 1), ("g", 2)])
    # mixed arguments reorder fiber-first with a single transposition sign
    assert c.eval_frame([("f", 1), ("g", 3), ("f", 2)]) == -c.eval_frame(
        [("g", 3), ("f", 1), ("f", 2)]
    )


def test_eval_sections_multilinear():
    q = fixture_d()
    c = standard_three_form(q)
    alg = QuadAlgebroid.of(q)
    rng = random.Random(2)
    u = ample_section(
        alg, [rand_poly(rng, 2, 1) for _ in range(3)], [rand_poly(rng, 2, 1) for _ in range(2)]
    )
    v = alg.fiber_elem(3)
    w = alg.coord(1)
    f = rand_poly(rng, 2, 2)
    fu = ample_section(alg, [f * t for t in u.r], [f * t for t in u.x])
    assert c.eval_sections([fu, v, w]) == f * c.eval_sections([u, v, w])
    assert c.eval_sections([u, v, w]) == -c.eval_sections([v, u, w])


def test_naive_matches_ce_for_standard_form():
    for q in (fixture_d(), fixture_c()):
        assert naive_matches_ce(q, standard_three_form(q)).ok


def test_naive_matches_ce_for_two_forms():
    q = fixture_d()
    j = seeded_gvalued_one_form(7, q)
    form = phi_form(q.patch, 3, j, q.fiber)
    assert naive_matches_ce(q, form).ok
    k = seeded_endomorphism_field(7, q)
    assert naive_matches_ce(q, psi_form(q.patch, 3, k)).ok


def test_naive_table_of_function():
    q = fixture_d()
    f = q.patch.var(1) * q.patch.var(1)
    w = AForm(q.patch, 3, 0, {((), ()): f})
    table = dict(naive_differential(q, w))
    frames = q.frame_sections()
    for idx, sec in enumerate(frames):
        value = table[(idx,)]
        assert value == q.anchor_apply(sec, f)


def test_naive_table_zero_on_delta_wedges():
    # wedges containing a dual-frame covector evaluate to zero for the
    # canonical closed 3-form: its differential is a form on the quotient
    q = fixture_d()
    table = dict(naive_differential(q, standard_three_form(q)))
    for wedge, value in table.items():
        if any(t < q.patch.p for t in wedge):
            assert not value


def test_horizontal_check():
    q = fixture_d()
    j = seeded_gvalued_one_form(3, q)
    assert is_horizontal(phi_form(q.patch, 3, j, q.fiber))
    assert is_horizontal(psi_form(q.patch, 3, seeded_endomorphism_field(3, q)))
    cs = standard_three_form(q)
    assert not is_horizontal(cs)  # nonabelian fiber: pure-fiber part is the Cartan tensor
    qc = fixture_c()
    assert is_horizontal(standard_three_form(qc))  # abelian fiber


def test_coherent_difference_is_horizontal():
    # difference of the canonical form and its shift by d Phi_J
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    j = seeded_gvalued_one_form(11, q)
    shifted = standard_three_form(q) + ce_differential(alg, phi_form(q.patch, 3, j, q.fiber))
    diff = shifted - standard_three_form(q)
    assert is_horizontal(diff)


def test_aform_from_fform():
    q = fixture_c()
    lifted = aform_from_fform(q.patch, q.fiber.dim, q.hform)
    assert lifted.degree == 3
    assert lifted.comps == {((), (2, 3, 4)): q.hform.comps[(2, 3, 4)]}


def test_aform_shape_errors():
    q = fixture_d()
    with pytest.raises(ValueError):
        AForm(q.patch, 3, 2, {((1,), (1, 2)): q.patch.one()})
    with pytest.raises(ValueError):
        AForm(q.patch, 3, 2, {((2, 1), ()): q.patch.one()})


def test_dorfman_projects_to_ample_bracket():
    # the G + F part of the Dorfman bracket is the ample bracket
    from test_dorfman import rand_section

    rng = random.Random(11)
    for q in (fixture_c(), fixture_d()):
        alg = QuadAlgebroid.of(q)
        for _ in range(10):
            e1, e2 = rand_section(rng, q), rand_section(rng, q)
            br = q.dorfman(e1, e2)
            a1, a2 = ample_section(alg, e1.r, e1.x), ample_section(alg, e2.r, e2.x)
            assert ample_section(alg, br.r, br.x) == alg.bracket(a1, a2)


def test_quintuple_equality_includes_hform():
    q = fixture_c()
    other = Quintuple(q.patch, q.fiber, q.conn, q.curv, FForm.zero(q.patch, 3))
    assert q == Quintuple(q.patch, q.fiber, q.conn, q.curv, q.hform)
    assert q != other
    assert QuadAlgebroid.of(q) == QuadAlgebroid.of(other)
