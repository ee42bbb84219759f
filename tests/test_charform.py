import json
import random
from fractions import Fraction

import pytest

from courant import (
    CharPair,
    FConnection,
    FForm,
    GConnection,
    GValuedForm,
    Hoist,
    Patch,
    Poly,
    QuadAlgebroid,
    QuadLieAlgebra,
    Quintuple,
    abelian,
    build_from_pair,
    ce_differential,
    characteristic_pair_of,
    check_coherent,
    e_connection_form,
    find_hoist,
    phi_form,
    standard_three_form,
    su2,
)
from courant.ample import AForm
from courant.ample import hoist_data
from courant.cli import Config, config_to_text, main
from fixtures import (
    ALL_FIXTURES,
    ample_section,
    center,
    direct_sum,
    fixture_b,
    fixture_c,
    fixture_d,
    fixture_d_extended,
    fixture_product,
    fixture_exact,
    rand_poly,
    random_basis,
    rank,
    rebased,
    seeded_gvalued_one_form,
)


def constant_symmetric_fc(patch) -> FConnection:
    p, n = patch.p, patch.n
    gamma = [[[Poly.zero(n) for _ in range(p)] for _ in range(p)] for _ in range(p)]
    for a in range(p):
        for b in range(p):
            for c in range(p):
                gamma[a][b][c] = Poly.const(n, Fraction(1 + ((a + b + c) % 3), 3))
    return FConnection(patch, gamma)


def linear_symmetric_fc(patch) -> FConnection:
    p, n = patch.p, patch.n
    gamma = [[[Poly.zero(n) for _ in range(p)] for _ in range(p)] for _ in range(p)]
    for a in range(p):
        for b in range(p):
            for c in range(p):
                gamma[a][b][c] = (
                    Poly.variable(n, a + 1) + Poly.variable(n, b + 1) + Poly.variable(n, c + 1)
                )
    return FConnection(patch, gamma)


# -- the canonical 3-form -------------------------------------------------------


def test_standard_form_components_fixture_d():
    q = fixture_d()
    c = standard_three_form(q)
    assert c.comps[((1, 2, 3), ())] == -q.patch.one()
    assert c.comps[((3,), (1, 2))] == q.patch.one()
    assert ((2,), (1,)) not in {k for k in c.comps if len(k[0]) == 2}
    assert not [k for k in c.comps if len(k[0]) == 2]  # no mixed (2,1) part


def test_standard_form_point_base_is_cartan():
    q = fixture_b()
    c = standard_three_form(q)
    cartan = q.fiber.cartan_three_form()
    assert c.comps == {((1, 2, 3), ()): Poly.const(0, cartan[0][1][2])}


def test_standard_form_exact_case_is_h():
    q = fixture_exact()
    c = standard_three_form(q)
    assert c.comps == {((), (1, 2, 3)): q.hform.comps[(1, 2, 3)]}


def test_standard_form_term_by_term_oracle():
    # evaluate the displayed sum H(x,y,z) - <[r,s],t> + <R(x,y),t> + cyclic
    q = fixture_d()
    c = standard_three_form(q)
    alg = QuadAlgebroid.of(q)
    rng = random.Random(0)
    for _ in range(10):
        secs = [
            (
                [rand_poly(rng, 2, 1) for _ in range(3)],
                [rand_poly(rng, 2, 1) for _ in range(2)],
            )
            for _ in range(3)
        ]
        (r1, x1), (r2, x2), (r3, x3) = secs
        h12 = q.h_contract(x1, x2)
        expected = q.patch.zero()
        for b in range(2):
            if h12[b] and x3[b]:
                expected = expected + h12[b] * x3[b]
        expected = expected - q.fiber.pairing(q.fiber.bracket(r1, r2), r3)
        expected = expected + q.fiber.pairing(q.curv_contract(x1, x2), r3)
        expected = expected + q.fiber.pairing(q.curv_contract(x2, x3), r1)
        expected = expected + q.fiber.pairing(q.curv_contract(x3, x1), r2)
        got = c.eval_sections([ample_section(alg, r, x) for r, x in secs])
        assert got == expected


# -- the covariant-derivative route ----------------------------------------------


def test_e_connection_form_equals_standard_all_connections():
    for q in (fixture_c(), fixture_d()):
        target = standard_three_form(q)
        for fc in (FConnection.flat(q.patch), constant_symmetric_fc(q.patch), linear_symmetric_fc(q.patch)):
            assert e_connection_form(q, fc) == target


def test_e_connection_form_exact_case():
    q = fixture_exact()
    form = e_connection_form(q, FConnection.flat(q.patch))
    assert form.comps == {((), (1, 2, 3)): q.hform.comps[(1, 2, 3)]}


def test_e_connection_form_rejects_torsion():
    q = fixture_d()
    gamma = [[[Poly.zero(2) for _ in range(2)] for _ in range(2)] for _ in range(2)]
    gamma[0][1][0] = Poly.const(2, 1)  # gamma[1][2][1] != gamma[2][1][1]
    with pytest.raises(ValueError):
        e_connection_form(q, FConnection(q.patch, gamma))


# -- hoists ----------------------------------------------------------------------


def test_hoist_data_standard():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    conn, curv = hoist_data(alg, Hoist.standard(q.patch, 3))
    assert conn == q.conn
    assert curv == q.curv


def test_hoist_data_constant_j_oracle():
    # expand [J_a + d_a, J_b + d_b] by hand for a constant hoist
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    zero, one = q.patch.zero(), q.patch.one()
    j = GValuedForm(q.patch, 3, 1, {(1,): [zero, zero, one]})  # J_1 = e3, J_2 = 0
    conn, curv = hoist_data(alg, Hoist(j))
    # R^kappa(x,y) = [kappa x, kappa y] - kappa[x,y] expands on the frame to
    # R_ab + [J_a,J_b] + nabla_a J_b - nabla_b J_a
    expected = [
        u + v + w - t
        for u, v, w, t in zip(
            q.curv.get((1, 2)),
            q.fiber.bracket(j.get((1,)), j.get((2,))),
            q.conn.apply(1, j.get((2,))),
            q.conn.apply(2, j.get((1,))),
        )
    ]
    assert curv.get((1, 2)) == expected
    # nabla^kappa = nabla + ad(J)
    r = [one, zero, zero]
    assert conn.apply(1, r) == [
        u + v for u, v in zip(q.conn.apply(1, r), q.fiber.bracket(j.get((1,)), r))
    ]


def test_hoist_data_abelian_formula():
    q = fixture_c()
    alg = QuadAlgebroid.of(q)
    rng = random.Random(1)
    comps = {}
    for a in range(1, 5):
        col = [rand_poly(rng, 4, 2)]
        if any(col):
            comps[(a,)] = col
    j = GValuedForm(q.patch, 1, 1, comps)
    conn, curv = hoist_data(alg, Hoist(j))
    for a in range(1, 5):
        for b in range(a + 1, 5):
            expected = [
                u + v - w
                for u, v, w in zip(
                    q.curv.get((a, b)),
                    q.conn.apply(a, j.get((b,))),
                    q.conn.apply(b, j.get((a,))),
                )
            ]
            assert curv.get((a, b)) == expected


# -- coherence ------------------------------------------------------------------


def test_standard_form_is_coherent_for_standard_hoist():
    for name, build in ALL_FIXTURES:
        q = build()
        alg = QuadAlgebroid.of(q)
        report = check_coherent(alg, standard_three_form(q), Hoist.standard(q.patch, q.fiber.dim))
        assert report.ok, (name, [r.name for r in report.failures()])


def test_shifted_form_is_coherent_for_shifted_hoist():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    j = seeded_gvalued_one_form(5, q, max_degree=1)
    shifted = standard_three_form(q) + ce_differential(alg, phi_form(q.patch, 3, j, q.fiber))
    neg = j.scale(-1)
    report = check_coherent(alg, shifted, Hoist(neg))
    assert report.ok, [r.name for r in report.failures()]


def test_coherence_fails_for_broken_cartan_part():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    c = standard_three_form(q)
    broken = AForm(
        q.patch, 3, 3, {k: v for k, v in c.comps.items() if k != ((1, 2, 3), ())}
    )
    report = check_coherent(alg, broken, Hoist.standard(q.patch, 3))
    record = report["coherent_cartan"]
    assert not record.ok
    assert record.witness.indices == (1, 2, 3)


def test_closed_iff_fifth_identity_iff_coherent():
    # three-way equivalence on a rank-4 leaf: deleting H breaks exactly
    # the obstruction identity, closedness and coherence together
    q = fixture_c()
    broken = type(q)(q.patch, q.fiber, q.conn, q.curv, FForm.zero(q.patch, 3))
    assert [r.name for r in broken.validate().failures()] == ["dF_H_equals_RR"]
    c = standard_three_form(broken)
    assert ce_differential(QuadAlgebroid.of(broken), c)
    report = check_coherent(
        QuadAlgebroid.of(broken), c, Hoist.standard(q.patch, q.fiber.dim)
    )
    assert [r.name for r in report.failures()] == ["coherent_closed"]
    # and the intact fixture satisfies all three
    intact = standard_three_form(q)
    assert not ce_differential(QuadAlgebroid.of(q), intact)
    assert check_coherent(QuadAlgebroid.of(q), intact, Hoist.standard(q.patch, 1)).ok


def test_find_hoist_on_standard_form():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    search = find_hoist(alg, standard_three_form(q))
    assert search.hoist is not None
    assert not search.hoist.j  # zero one-form


def test_find_hoist_recovers_shift():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    j0 = seeded_gvalued_one_form(9, q, max_degree=1)
    shifted = standard_three_form(q) + ce_differential(alg, phi_form(q.patch, 3, j0, q.fiber))
    search = find_hoist(alg, shifted)
    assert search.hoist is not None
    # the centerless fiber makes the hoist unique: J = -j0
    assert search.hoist.j == j0.scale(-1)


def test_find_hoist_abelian_obstruction():
    q = fixture_c()
    alg = QuadAlgebroid.of(q)
    c = standard_three_form(q)
    comps = dict(c.comps)
    comps[((1,), (1, 2))] = comps.get(((1,), (1, 2)), q.patch.zero()) + q.patch.one()
    polluted = AForm(q.patch, 1, 3, comps)
    search = find_hoist(alg, polluted)
    assert search.hoist is None


def test_build_from_pair_roundtrip_all_fixtures():
    for name, build in ALL_FIXTURES:
        q = build()
        pair = characteristic_pair_of(q)
        rebuilt = build_from_pair(pair, Hoist.standard(q.patch, q.fiber.dim))
        assert rebuilt.conn == q.conn, name
        assert rebuilt.curv == q.curv, name
        assert rebuilt.hform == q.hform, name
        assert rebuilt.validate().ok, name


def test_build_from_pair_point_base():
    q = fixture_b()
    pair = characteristic_pair_of(q)
    rebuilt = build_from_pair(pair, Hoist.standard(q.patch, 3))
    assert rebuilt.patch.p == 0
    assert rebuilt.conn == q.conn and rebuilt.hform == q.hform


def test_build_from_pair_product_example():
    # product data: flat connection, zero curvature, a closed leafwise H;
    # the pair (Cartan part + H) rebuilds exactly the product quintuple
    q = fixture_product()
    pair = characteristic_pair_of(q)
    c = pair.c
    assert c.comps[((1, 2, 3), ())] == -q.patch.one()
    rebuilt = build_from_pair(pair, Hoist.standard(q.patch, 3))
    assert rebuilt.conn == q.conn and rebuilt.curv == q.curv and rebuilt.hform == q.hform


def test_build_from_pair_rejects_incoherent():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    c = standard_three_form(q)
    comps = dict(c.comps)
    del comps[((1, 2, 3), ())]
    broken = AForm(q.patch, 3, 3, comps)
    with pytest.raises(ValueError):
        build_from_pair(CharPair(alg, broken), Hoist.standard(q.patch, 3))


def test_build_from_shifted_pair_passes_validation():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    j = seeded_gvalued_one_form(13, q, max_degree=1)
    shifted = standard_three_form(q) + ce_differential(alg, phi_form(q.patch, 3, j, q.fiber))
    built = build_from_pair(CharPair(alg, shifted), Hoist(j.scale(-1)))
    assert built.validate().ok
    assert built.check_axioms(1).ok


def test_extended_fiber_quintuple_full_stack():
    # fiber with a central line: validation, axioms, both 3-form routes,
    # and the round trip all hold
    from fixtures import fixture_d_extended

    q = fixture_d_extended()
    assert q.validate().ok
    assert q.check_axioms(1).ok
    cs = standard_three_form(q)
    assert e_connection_form(q, FConnection.flat(q.patch)) == cs
    assert not ce_differential(QuadAlgebroid.of(q), cs)
    pair = characteristic_pair_of(q)
    rebuilt = build_from_pair(pair, Hoist.standard(q.patch, 4))
    assert rebuilt.conn == q.conn and rebuilt.curv == q.curv and rebuilt.hform == q.hform


def test_find_hoist_gauge_fixing_with_center():
    # shifting by a J valued in the non-central part is recovered exactly,
    # with zero center component, on a fiber that has a center
    from fixtures import fixture_d_extended

    q = fixture_d_extended()
    alg = QuadAlgebroid.of(q)
    zero = q.patch.zero()
    j = GValuedForm(q.patch, 4, 1, {(1,): [zero, q.patch.one(), zero, zero]})
    shifted = standard_three_form(q) + ce_differential(alg, phi_form(q.patch, 4, j, q.fiber))
    search = find_hoist(alg, shifted)
    assert search.hoist is not None
    assert search.hoist.j == j.scale(-1)
    report = check_coherent(alg, shifted, search.hoist)
    assert report.ok


@pytest.mark.parametrize("seed", range(5))
def test_find_hoist_with_center_off_the_axes(seed):
    # su(2) + R^2 in a random rational basis: no coordinate axis is
    # central, so the free columns of B are not the center coordinates.
    # The shift is constant, so its central part is curl-free and -J
    # plus any constant central vector is a hoist too.
    q = rebased(fixture_d_extended(2), random_basis(random.Random(seed), 5))
    assert q.validate().ok
    zvecs = center(q.fiber)
    assert len(zvecs) == 2
    units = [[Fraction(int(i == k)) for i in range(5)] for k in range(5)]
    assert all(rank(zvecs + [unit]) == 3 for unit in units)
    alg = QuadAlgebroid.of(q)
    j = seeded_gvalued_one_form(seed, q, max_degree=0)
    shifted = standard_three_form(q) + ce_differential(alg, phi_form(q.patch, 5, j, q.fiber))
    search = find_hoist(alg, shifted)
    assert search.hoist is not None
    assert check_coherent(alg, shifted, search.hoist).ok
    offset = search.hoist.j + j
    assert offset  # the hoist is not -J itself: its center part was moved
    for a in (1, 2):
        assert not any(any(row) for row in q.fiber.ad_matrix(offset.get((a,))))


def _non_invariant_case():
    """R + su(2) (line metric 2) with 1 added to g_12 = g_21, and a
    shifted standard form on it: (quintuple, algebroid, form)."""
    patch = Patch(2, 2)
    valid = direct_sum(abelian(1, [[2]]), su2())
    g = [row[:] for row in valid.g]
    g[0][1] += 1
    g[1][0] += 1
    fiber = QuadLieAlgebra(4, valid.c, g)
    q = Quintuple(patch, fiber, GConnection.flat(patch, 4), GValuedForm.zero(patch, 4, 2), FForm.zero(patch, 3))
    alg = QuadAlgebroid.of(q)
    j = seeded_gvalued_one_form(0, q, max_degree=1)
    return q, alg, standard_three_form(q) + ce_differential(alg, phi_form(patch, 4, j, fiber))


def test_find_hoist_on_non_invariant_metric():
    # The metric of _non_invariant_case stays nondegenerate but is not
    # ad-invariant, and ker B is the line through e_1 - e_2, not the
    # center R e_1.  The hoist solve reports the solution of B J_a = rhs
    # that is zero at the free column e_2; projecting it along the
    # center, as the solve once did,
    # broke B J_a = rhs and moved the curvature witness.  The mixed
    # condition reads the form's Cartan part, which matches -B only on
    # increasing index triples here, so it fails either way.
    q, alg, shifted = _non_invariant_case()
    assert [r.name for r in q.fiber.validate().failures()] == ["fiber_ad_invariance"]
    search = find_hoist(alg, shifted)
    assert search.hoist is None
    assert [(r.name, r.status, r.witness and r.witness.to_dict()) for r in search.report.records] == [
        ("coherent_closed", "pass", None),
        ("coherent_cartan", "pass", None),
        ("hoist_solvable", "pass", None),
        ("coherent_mixed", "fail",
         {"identity": "C(r,s,kappa x)", "indices": [3, 4, 1], "residual": "-1*x2 + 1"}),
        ("coherent_curvature", "fail",
         {"identity": "C(r,kappa x,kappa y) - <r,R^kappa(x,y)>", "indices": [1, 1, 2],
          "residual": "3/2*x1*x2 + 3/2*x1 - 7/3"}),
    ]


@pytest.mark.parametrize("command", ["coherent", "build"])
def test_coherent_and_build_report_an_invalid_fiber_alone(command, tmp_path, capsys):
    # the hoist equations assume an ad-invariant metric, so on this fiber
    # both commands stop at the fiber report, before find_hoist runs
    q, _, shifted = _non_invariant_case()
    cfg = Config(q.patch, q.fiber, q.conn, q.curv, q.hform, cform=shifted)
    path = tmp_path / "cfg.cfg"
    path.write_text(config_to_text(cfg))
    assert main([command, str(path), "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if c["status"] == "fail"] == ["fiber_ad_invariance"]
    assert [c["name"] for c in checks] == [r.name for r in q.fiber.validate().records]

