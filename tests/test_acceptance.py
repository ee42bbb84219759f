"""Acceptance suite: one test per criterion, every check exact over Q.

Each test prints a PASS line with its elapsed time; the stated ceilings
are asserted.  There are no tolerances anywhere: every comparison is an
equality of canonical polynomial data.
"""

import time
from fractions import Fraction
from itertools import permutations

from courant import (
    FConnection,
    FForm,
    GValuedForm,
    Hoist,
    Poly,
    QuadAlgebroid,
    aform_to_str,
    build_from_pair,
    ce_differential,
    characteristic_pair_of,
    central_shift_iso,
    coboundary_identity_check,
    e_connection_form,
    hoist_shift_iso,
    intertwining_report,
    leafwise_d,
    omega_shift_iso,
    phi_form,
    pontryagin_form,
    psi_form,
    standard_three_form,
    transport,
    validate_iso,
)
from fixtures import (
    ALL_FIXTURES,
    fixture_c,
    fixture_d,
    fixture_d_extended,
    fixture_exact,
    intrinsic_form,
    is_horizontal,
    mutate_fixture_d,
    phi_form_differential,
    psi_form_differential,
    seeded_ample_automorphism,
    seeded_endomorphism_field,
    seeded_gvalued_one_form,
    seeded_iso_fixture_d,
)
from test_charform import constant_symmetric_fc, linear_symmetric_fc


def _finish(number, label, t0, ceiling):
    elapsed = time.monotonic() - t0
    print("PASS criterion %d: %s (%.2fs < %ds)" % (number, label, elapsed, ceiling))
    assert elapsed < ceiling


def test_criterion_01_fixture_suite_validity():
    t0 = time.monotonic()
    for name, build in ALL_FIXTURES:
        q = build()
        validation = q.validate()
        assert validation.ok, (name, [r.name for r in validation.failures()])
        axioms = q.check_axioms(2)
        assert axioms.ok, (name, [r.name for r in axioms.failures()])
    _finish(1, "fixtures A-D validate and satisfy all axioms at degree 2", t0, 30)


def test_criterion_02_connection_independence():
    t0 = time.monotonic()
    for q in (fixture_c(), fixture_d()):
        target = standard_three_form(q)
        rendered = []
        for fc in (
            FConnection.flat(q.patch),
            constant_symmetric_fc(q.patch),
            linear_symmetric_fc(q.patch),
        ):
            form = e_connection_form(q, fc)
            assert form == target
            rendered.append(aform_to_str(form))
        assert rendered[0] == rendered[1] == rendered[2] == aform_to_str(target)
    _finish(2, "covariant-derivative 3-form independent of the leaf connection", t0, 10)


def test_criterion_03_pontryagin_identity():
    t0 = time.monotonic()
    q = fixture_c()
    rr = pontryagin_form(q.curv, q.fiber)
    assert rr == leafwise_d(q.hform)
    assert rr.comps == {(1, 2, 3, 4): Poly.const(4, 2)}
    # independent 24-term symmetrized oracle
    total = Poly.zero(4)
    for perm in permutations(range(4)):
        sign = 1
        for i in range(4):
            for j in range(i + 1, 4):
                if perm[i] > perm[j]:
                    sign = -sign
        key = (1, 2, 3, 4)
        r1 = q.curv.get((key[perm[0]], key[perm[1]]))
        r2 = q.curv.get((key[perm[2]], key[perm[3]]))
        total = total + q.fiber.pairing(r1, r2).scale(Fraction(sign, 4))
    assert total == Poly.const(4, 2)
    broken = type(q)(q.patch, q.fiber, q.conn, q.curv, FForm.zero(q.patch, 3))
    report = broken.validate()
    record = report["dF_H_equals_RR"]
    assert not record.ok
    assert record.witness.indices == (1, 2, 3, 4)
    assert record.witness.residual == "2"
    assert all(r.ok for r in report if r.name != "dF_H_equals_RR")
    _finish(3, "Pontryagin identity on fixture C with exact residual 2", t0, 1)


def test_criterion_04_identity_equivalence_under_mutation():
    t0 = time.monotonic()
    for seed in range(20):
        q, cls = mutate_fixture_d(seed)
        validation = q.validate()
        axioms = q.check_axioms(2)
        assert not validation.ok, (seed, cls)
        assert not axioms.ok, (seed, cls)
        # closedness of the canonical 3-form tracks exactly the fifth
        # identity, which is vacuous on a rank-2 leaf: all these mutations
        # leave the form closed, and the fifth identity never breaks
        fifth = validation["dF_H_equals_RR"]
        dcs = ce_differential(QuadAlgebroid.of(q), standard_three_form(q))
        assert bool(dcs) == (not fifth.ok)
        assert fifth.ok and not dcs
    # complementary direction on a rank-4 leaf: breaking only the fifth
    # identity makes the canonical form non-closed
    q = fixture_c()
    broken = type(q)(q.patch, q.fiber, q.conn, q.curv, FForm.zero(q.patch, 3))
    report = broken.validate()
    assert [r.name for r in report.failures()] == ["dF_H_equals_RR"]
    assert ce_differential(QuadAlgebroid.of(broken), standard_three_form(broken))
    _finish(4, "validator and axiom suite fail together on 20 mutations", t0, 60)


def test_criterion_05_naive_matches_algebroid_differential():
    t0 = time.monotonic()
    from courant import naive_matches_ce

    q = fixture_d()
    assert naive_matches_ce(q, standard_three_form(q)).ok
    for seed in range(5):
        j = seeded_gvalued_one_form(seed, q)
        assert naive_matches_ce(q, phi_form(q.patch, 3, j, q.fiber)).ok
        k = seeded_endomorphism_field(seed, q)
        assert naive_matches_ce(q, psi_form(q.patch, 3, k)).ok
    _finish(5, "naive differential tables equal the algebroid differential", t0, 30)


def test_criterion_06_closed_form_differentials():
    t0 = time.monotonic()
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    for seed in range(20):
        j = seeded_gvalued_one_form(seed, q)
        assert ce_differential(alg, phi_form(q.patch, 3, j, q.fiber)) == phi_form_differential(alg, j)
        k = seeded_endomorphism_field(seed, q)
        assert ce_differential(alg, psi_form(q.patch, 3, k)) == psi_form_differential(q.patch, 3, k)
    _finish(6, "closed-form differentials of both 2-form families", t0, 30)


def _transported(seed, q):
    iso = seeded_iso_fixture_d(seed, q)
    return iso, transport(q, iso)


def test_criterion_07_transport_soundness():
    t0 = time.monotonic()
    q = fixture_d()
    for seed in range(20):
        iso, moved = _transported(seed, q)
        assert validate_iso(q.patch, q.fiber, iso).ok, seed
        validation = moved.validate()
        assert validation.ok, (seed, [r.name for r in validation.failures()])
        inter = intertwining_report(q, moved, iso, degree_cap=1)
        assert inter.ok, (seed, [r.name for r in inter.failures()])
    _finish(7, "20 seeded isomorphisms transport to valid quintuples", t0, 120)


def test_criterion_08_coboundary_identity():
    t0 = time.monotonic()
    q = fixture_d()
    for seed in range(20):
        iso = seeded_iso_fixture_d(seed, q)
        report = coboundary_identity_check(q, transport(q, iso), iso)
        assert report.ok, seed
    _finish(8, "pulled-back canonical forms differ by the explicit primitive", t0, 120)


def test_criterion_09_roundtrip():
    t0 = time.monotonic()
    targets = [build() for _, build in ALL_FIXTURES]
    q = fixture_d()
    targets += [_transported(seed, q)[1] for seed in range(20)]
    for idx, target in enumerate(targets):
        pair = characteristic_pair_of(target)
        rebuilt = build_from_pair(pair, Hoist.standard(target.patch, target.fiber.dim))
        assert rebuilt.conn == target.conn, idx
        assert rebuilt.curv == target.curv, idx
        assert rebuilt.hform == target.hform, idx
    _finish(9, "pair extraction and rebuild are mutually inverse, bit-exact", t0, 60)


def test_criterion_10_canned_isomorphisms():
    t0 = time.monotonic()
    # hoist shift on fixture D, constant and polynomial data
    q = fixture_d()
    zero, one = q.patch.zero(), q.patch.one()
    for comps in (
        {(1,): [zero, zero, one]},
        {(2,): [q.patch.var(1), zero, one]},
    ):
        j = GValuedForm(q.patch, 3, 1, comps)
        iso, predicted = hoist_shift_iso(q, j)
        moved = transport(q, iso)
        assert (moved.conn, moved.curv, moved.hform) == (
            predicted.conn,
            predicted.curv,
            predicted.hform,
        )
        assert predicted.validate().ok
    # two-form shift on fixture C
    qc = fixture_c()
    omega = FForm(qc.patch, 2, {(1, 3): qc.patch.var(2)})
    iso, predicted = omega_shift_iso(qc, omega)
    moved = transport(qc, iso)
    assert moved.hform == qc.hform + leafwise_d(omega)
    assert (moved.conn, moved.curv, moved.hform) == (
        predicted.conn,
        predicted.curv,
        predicted.hform,
    )
    # central shift: accepted on the extended fiber, rejected on su(2)
    qe = fixture_d_extended()
    jc = GValuedForm(qe.patch, 4, 1, {(1,): [zero, zero, zero, one]})
    iso, predicted = central_shift_iso(qe, jc)
    moved = transport(qe, iso)
    assert (moved.conn, moved.curv, moved.hform) == (
        predicted.conn,
        predicted.curv,
        predicted.hform,
    )
    rejected = False
    try:
        central_shift_iso(q, GValuedForm(q.patch, 3, 1, {(1,): [zero, zero, one]}))
    except ValueError:
        rejected = True
    assert rejected
    _finish(10, "hoist, two-form and central shifts match their predictions", t0, 30)


def test_criterion_11_intrinsic_forms():
    t0 = time.monotonic()
    q = fixture_d()
    cs = standard_three_form(q)
    for seed in range(5):
        tau, phi = seeded_ample_automorphism(seed, q)
        theta = intrinsic_form(q, tau, phi, cs)
        assert is_horizontal(theta), seed
        assert not ce_differential(QuadAlgebroid.of(q), theta), seed
    _finish(11, "pullback differences along automorphisms are horizontal and closed", t0, 30)


def test_criterion_12_exact_case_sanity():
    t0 = time.monotonic()
    q = fixture_exact()
    pair = characteristic_pair_of(q)
    assert pair.c.comps == {((), (1, 2, 3)): q.hform.comps[(1, 2, 3)]}
    omega = FForm(q.patch, 2, {(1, 2): q.patch.var(3), (2, 3): q.patch.var(1) * q.patch.var(1)})
    iso, predicted = omega_shift_iso(q, omega)
    moved = transport(q, iso)
    assert moved.hform == q.hform + leafwise_d(omega)
    assert moved.hform == predicted.hform
    assert moved.conn == q.conn and moved.curv == q.curv
    _finish(12, "no-fiber case: the pair is the 3-form, shifts change it by exact forms", t0, 30)
