import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from courant import (
    FForm,
    GConnection,
    GValuedForm,
    Patch,
    Poly,
    QuadAlgebroid,
    QuadLieAlgebra,
    Quintuple,
    apply_iso,
    ce_differential,
    central_shift_iso,
    coboundary_identity_check,
    hoist_shift_iso,
    intertwining_report,
    leafwise_d,
    omega_shift_iso,
    phi_form,
    psi_form,
    pullback_aform,
    standard_three_form,
    transport,
    validate_iso,
)
from courant.cli import main, parse_config
from courant.dorfman import MAX_DEGREE_CAP
from courant.morphism import IsoData
from courant.poly import coefficient_vectors
from courant.report import Check, Report
from fixtures import (
    cayley_orthogonal,
    cayley_so3,
    center,
    compose_iso,
    fixture_c,
    fixture_d,
    fixture_d_extended,
    fixture_exact,
    identity_iso,
    intrinsic_form,
    is_ample_automorphism,
    is_horizontal,
    mutate_fixture_d,
    phi_form_differential,
    poly_mat_from_rational,
    psi_form_differential,
    rand_poly,
    rank,
    rank_mutant,
    seeded_ample_automorphism,
    seeded_endomorphism_field,
    seeded_gvalued_one_form,
    seeded_iso_fixture_d,
    su2_patch,
)
from test_dorfman import rand_section
from test_fiber import count_makes
from test_knockouts import KNOCKOUTS

FIXTURE_C_SHIFT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "configs", "fixture_c_shift.cfg"
)


# -- validation -------------------------------------------------------------


def test_identity_iso_valid():
    q = fixture_d()
    iso = identity_iso(q.patch, 3)
    assert validate_iso(q.patch, q.fiber, iso).ok


def test_skew_beta_iso_valid():
    q = fixture_d()
    iso = identity_iso(q.patch, 3)
    skew = rand_poly(random.Random(0), 2, 1)
    iso.beta[1][0] = skew
    iso.beta[0][1] = -skew
    assert validate_iso(q.patch, q.fiber, iso).ok


def test_rotation_tau_valid():
    q = fixture_d()
    for seed in range(5):
        tau = poly_mat_from_rational(2, cayley_so3(random.Random(seed)))
        iso = identity_iso(q.patch, 3)
        iso.tau = tau
        assert validate_iso(q.patch, q.fiber, iso).ok


def test_phi_without_beta_fails_pairing_condition():
    q = fixture_d()
    iso = identity_iso(q.patch, 3)
    comps = {(1,): [q.patch.one(), q.patch.zero(), q.patch.zero()]}
    iso.phi = GValuedForm(q.patch, 3, 1, comps)
    report = validate_iso(q.patch, q.fiber, iso)
    record = report["iso_pairing_condition"]
    assert not record.ok
    assert record.witness.residual == "1"  # <phi x, phi x> survives


def test_nonorthogonal_tau_fails():
    q = fixture_d()
    iso = identity_iso(q.patch, 3)
    iso.tau[0][0] = Poly.const(2, 2)
    report = validate_iso(q.patch, q.fiber, iso)
    assert not report["tau_metric_automorphism"].ok
    assert not report["tau_bracket_automorphism"].ok


# -- the section map ---------------------------------------------------------


def test_apply_iso_fixes_covectors():
    q = fixture_d()
    rng = random.Random(1)
    for seed in range(3):
        iso = seeded_iso_fixture_d(seed, q)
        e = rand_section(rng, q)
        e.r = [q.patch.zero()] * 3
        e.x = [q.patch.zero()] * 2
        assert apply_iso(q.patch, q.fiber, iso, e) == e


def test_apply_identity_iso():
    q = fixture_d()
    iso = identity_iso(q.patch, 3)
    rng = random.Random(2)
    e = rand_section(rng, q)
    assert apply_iso(q.patch, q.fiber, iso, e) == e


def test_apply_iso_preserves_pairing():
    q = fixture_d()
    rng = random.Random(3)
    for seed in range(5):
        iso = seeded_iso_fixture_d(seed, q)
        e1 = rand_section(rng, q)
        e2 = rand_section(rng, q)
        t1 = apply_iso(q.patch, q.fiber, iso, e1)
        t2 = apply_iso(q.patch, q.fiber, iso, e2)
        assert q.pairing(t1, t2) == q.pairing(e1, e2)


def test_beta_only_iso_on_vectors():
    q = fixture_d()
    iso = identity_iso(q.patch, 3)
    skew = q.patch.var(1)
    iso.beta[1][0] = skew
    iso.beta[0][1] = -skew
    image = apply_iso(q.patch, q.fiber, iso, q.coord(1))
    assert image.x == q.coord(1).x
    assert image.xi == [iso.beta[0][0], iso.beta[1][0]]


# -- transport ----------------------------------------------------------------


def test_transport_identity_is_identity():
    for q in (fixture_d(), fixture_c()):
        iso = identity_iso(q.patch, q.fiber.dim)
        moved = transport(q, iso)
        assert moved.conn == q.conn and moved.curv == q.curv and moved.hform == q.hform


def test_transport_seeded_isos_sound():
    q = fixture_d()
    for seed in range(6):
        iso = seeded_iso_fixture_d(seed, q)
        assert validate_iso(q.patch, q.fiber, iso).ok
        moved = transport(q, iso)
        assert moved.validate().ok
        report = intertwining_report(q, moved, iso, degree_cap=1)
        assert report.ok, [r.name for r in report.failures()]


def test_transport_intertwines_at_degree_two():
    q = fixture_d()
    for seed in (0, 1):
        iso = seeded_iso_fixture_d(seed, q)
        moved = transport(q, iso)
        report = intertwining_report(q, moved, iso, degree_cap=2)
        assert report.ok, [r.name for r in report.failures()]


def test_apply_iso_commutes_with_anchor():
    q = fixture_d()
    rng = random.Random(9)
    for seed in range(4):
        iso = seeded_iso_fixture_d(seed, q)
        e = rand_section(rng, q)
        assert apply_iso(q.patch, q.fiber, iso, e).x == e.x


def test_transport_rejects_nonconstant_det():
    q = fixture_c()
    iso = identity_iso(q.patch, 1)
    iso.tau = [[q.patch.one() + q.patch.var(1)]]
    with pytest.raises(ValueError):
        transport(q, iso)


def test_exact_case_beta_shift_adds_exact_form():
    # no fiber: a skew beta acts as a two-form shift of H
    q = fixture_exact()
    omega = FForm(q.patch, 2, {(1, 2): q.patch.var(3), (1, 3): q.patch.var(1)})
    iso, predicted = omega_shift_iso(q, omega)
    moved = transport(q, iso)
    assert moved.hform == q.hform + leafwise_d(omega)
    assert moved.hform == predicted.hform


def test_coboundary_identity_identity_iso():
    q = fixture_d()
    iso = identity_iso(q.patch, 3)
    assert coboundary_identity_check(q, transport(q, iso), iso).ok


def test_coboundary_identity_seeded():
    q = fixture_d()
    for seed in range(6):
        iso = seeded_iso_fixture_d(seed, q)
        assert coboundary_identity_check(q, transport(q, iso), iso).ok, seed


def test_coboundary_identity_exact_case():
    q = fixture_exact()
    omega = FForm(q.patch, 2, {(2, 3): q.patch.var(1) * q.patch.var(2)})
    iso, _ = omega_shift_iso(q, omega)
    assert coboundary_identity_check(q, transport(q, iso), iso).ok


def test_composition_matches_iterated_transport():
    q = fixture_d()
    rng = random.Random(4)
    for seed in range(4):
        i1 = seeded_iso_fixture_d(seed, q)
        i2 = seeded_iso_fixture_d(seed + 50, q)
        q1 = transport(q, i1)
        q12 = transport(q1, i2)
        comp = compose_iso(q.patch, q.fiber, i2, i1)
        assert validate_iso(q.patch, q.fiber, comp).ok
        direct = transport(q, comp)
        assert q12.conn == direct.conn
        assert q12.curv == direct.curv
        assert q12.hform == direct.hform
        # composition agrees at section level
        e = rand_section(rng, q)
        via_two = apply_iso(q.patch, q.fiber, i2, apply_iso(q.patch, q.fiber, i1, e))
        assert via_two == apply_iso(q.patch, q.fiber, comp, e)


# -- the exact two-forms -------------------------------------------------------


def test_phi_zero():
    q = fixture_d()
    j = GValuedForm.zero(q.patch, 3, 1)
    assert not phi_form(q.patch, 3, j, q.fiber)
    assert not phi_form_differential(QuadAlgebroid.of(q), j)


def test_phi_psi_closed_forms_match_ce():
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    for seed in range(8):
        j = seeded_gvalued_one_form(seed, q)
        assert ce_differential(alg, phi_form(q.patch, 3, j, q.fiber)) == phi_form_differential(alg, j)
        k = seeded_endomorphism_field(seed, q)
        assert ce_differential(alg, psi_form(q.patch, 3, k)) == psi_form_differential(q.patch, 3, k)


def test_psi_constant_skew_closed_iff_flat_frame():
    # constant K on an abelian flat quintuple: dPsi_K = 0
    q = fixture_c()
    k = [[Poly.const(4, (a + 1) * (b + 2)) for b in range(4)] for a in range(4)]
    alg = QuadAlgebroid.of(q)
    assert not ce_differential(alg, psi_form(q.patch, 1, k))
    # non-constant K picks up derivative terms
    k[0][1] = q.patch.var(3)
    assert ce_differential(alg, psi_form(q.patch, 1, k))


# -- canned isomorphisms ---------------------------------------------------------


def test_hoist_shift_constant_and_polynomial():
    q = fixture_d()
    zero, one = q.patch.zero(), q.patch.one()
    for comps in (
        {(1,): [zero, zero, one]},
        {(1,): [q.patch.var(1), zero, zero], (2,): [zero, one, q.patch.var(2)]},
    ):
        j = GValuedForm(q.patch, 3, 1, comps)
        iso, predicted = hoist_shift_iso(q, j)
        assert validate_iso(q.patch, q.fiber, iso).ok
        moved = transport(q, iso)
        assert moved.conn == predicted.conn
        assert moved.curv == predicted.curv
        assert moved.hform == predicted.hform
        assert predicted.validate().ok


def test_hoist_shift_agrees_with_pair_construction():
    from courant import CharPair, Hoist, build_from_pair

    q = fixture_d()
    j = seeded_gvalued_one_form(21, q, max_degree=1)
    iso, predicted = hoist_shift_iso(q, j)
    alg = QuadAlgebroid.of(q)
    shifted = standard_three_form(q) + ce_differential(alg, phi_form(q.patch, 3, j, q.fiber))
    built = build_from_pair(CharPair(alg, shifted), Hoist(j.scale(-1)))
    assert built.conn == predicted.conn
    assert built.curv == predicted.curv
    assert built.hform == predicted.hform


def test_omega_shift_end_to_end():
    q = fixture_c()
    omega = FForm(q.patch, 2, {(1, 3): q.patch.var(2)})
    iso, predicted = omega_shift_iso(q, omega)
    moved = transport(q, iso)
    assert moved.conn == predicted.conn
    assert moved.curv == predicted.curv
    assert moved.hform == predicted.hform == q.hform + leafwise_d(omega)
    assert predicted.validate().ok


def test_central_shift_accepts_central_j():
    q = fixture_d_extended()
    zero = q.patch.zero()
    j = GValuedForm(q.patch, 4, 1, {(1,): [zero] * 3 + [q.patch.one()], (2,): [zero] * 3 + [Poly.const(2, 2)]})
    iso, predicted = central_shift_iso(q, j)
    moved = transport(q, iso)
    assert moved.conn == predicted.conn
    assert moved.curv == predicted.curv
    assert moved.hform == predicted.hform
    assert predicted.validate().ok


def test_central_shift_rejects_noncentral_j():
    q = fixture_d()
    j = GValuedForm(q.patch, 3, 1, {(1,): [q.patch.zero(), q.patch.zero(), q.patch.one()]})
    with pytest.raises(ValueError):
        central_shift_iso(q, j)


def test_central_shift_rejects_curl():
    q = fixture_d_extended()
    zero = q.patch.zero()
    j = GValuedForm(q.patch, 4, 1, {(1,): [zero] * 3 + [q.patch.var(2)]})
    with pytest.raises(ValueError):
        central_shift_iso(q, j)


# -- the shifts against their closed forms ---------------------------------------


def literal_hoist_shift(q, j):
    """Gamma_a - ad(J_a) and R_ab + [J_a, J_b] - nabla_a J_b + nabla_b J_a,
    the closed forms of a hoist shift: the oracle of ``hoist_shift_iso``."""
    patch, fiber = q.patch, q.fiber
    m, p = fiber.dim, patch.p
    gamma = []
    for a in range(1, p + 1):
        ad_j, base = fiber.ad_matrix(j.get((a,))), q.conn.gamma[a - 1]
        gamma.append([[base[i][l] - ad_j[i][l] for l in range(m)] for i in range(m)])
    comps = {}
    for a, b in combinations(range(1, p + 1), 2):
        ja, jb = j.get((a,)), j.get((b,))
        comps[(a, b)] = [
            r + s - u + v
            for r, s, u, v in zip(q.curv.get((a, b)), fiber.bracket(ja, jb), q.conn.apply(a, jb), q.conn.apply(b, ja))
        ]
    return GConnection(patch, m, gamma), GValuedForm(patch, m, 2, comps)


def literal_central_rejection(q, j):
    """The message that rejects a central shift by J, or None: first a
    coefficient vector of some J_a outside the span of the fiber center
    (by rank), then a nonzero curl.  The oracle of ``central_shift_iso``."""
    zvecs = center(q.fiber)
    p = q.patch.p
    for a in range(1, p + 1):
        for _, vec in coefficient_vectors(j.get((a,))):
            if any(vec) and (not zvecs or rank(zvecs + [vec]) != rank(zvecs)):
                return "central shift rejected: J(d_%d) is not valued in the fiber center" % a
    for a, b in combinations(range(1, p + 1), 2):
        curl = [u - v for u, v in zip(q.conn.apply(a, j.get((b,))), q.conn.apply(b, j.get((a,))))]
        if any(curl):
            return "central shift rejected: nabla_%d J_%d - nabla_%d J_%d is nonzero" % (a, b, b, a)
    return None


def _quintuple(patch, fiber, gamma, curv):
    return Quintuple(patch, fiber, GConnection(patch, fiber.dim, gamma), curv, FForm.zero(patch, 3))


def skew_center_fiber_quintuple():
    """Invalid fiber ([e1, e1] = e2 = -[e2, e1]) whose center is the line
    through e1 + e2, over a rank-3 leaf with a flat connection."""
    patch = Patch(3, 3)
    fiber = QuadLieAlgebra(2, [[[0, 1], [0, 0]], [[0, -1], [0, 0]]], [[1, 0], [0, 1]])
    zero = [[patch.zero()] * 2 for _ in range(2)]
    curv = GValuedForm(patch, 2, 2, {(1, 2): [patch.var(3), patch.zero()]})
    return _quintuple(patch, fiber, [zero] * 3, curv)


def curved_line_quintuple():
    """Fixture C with Gamma_1 = x2 on its line fiber (not metric): the
    connection acts on the center, so it enters the curl."""
    q = fixture_c()
    zero = [[q.patch.zero()]]
    return _quintuple(q.patch, q.fiber, [[[q.patch.var(2)]], zero, zero, zero], q.curv)


SHIFT_QUINTUPLES = {
    "C": fixture_c,
    "D": fixture_d,
    "D_extended": fixture_d_extended,
    "su2(4,3)": lambda: su2_patch(4, 3),
    "mut_d_0": lambda: mutate_fixture_d(0)[0],
    "mut_d_1": lambda: mutate_fixture_d(1)[0],
    "mut_c_2": lambda: rank_mutant("mut_c", 2)[0],
    "mut_s_1": lambda: rank_mutant("mut_s", 1)[0],
    "skew_center_fiber": skew_center_fiber_quintuple,
    "curved_line": curved_line_quintuple,
}
J_KINDS = ("random", "central", "gradient", "gradient+noise")


def random_shift_form(q, kind, rng):
    """A fiber-valued 1-form J: generic, valued in the center, or a
    gradient d F times a central vector (curl-free under a connection
    that kills the center), optionally with a generic term on one d_a."""
    patch, m, p = q.patch, q.fiber.dim, q.patch.p
    zvecs = center(q.fiber)
    z = [sum((rng.randint(-2, 2) * v for v in vec), Fraction(0)) for vec in zip(*zvecs)] if zvecs else [0] * m
    if kind == "random":
        cols = [[rand_poly(rng, patch.n, 2, terms=2) for _ in range(m)] for _ in range(p)]
    elif kind == "central":
        cols = [[f.scale(c) for c in z] for f in (rand_poly(rng, patch.n, 2, terms=2) for _ in range(p))]
    else:
        potential = rand_poly(rng, patch.n, 3, terms=3)
        cols = [[potential.diff(a).scale(c) for c in z] for a in range(1, p + 1)]
    if kind == "gradient+noise":
        a = rng.randrange(p)
        cols[a] = [u + rand_poly(rng, patch.n, 1, terms=1) for u in cols[a]]
    return GValuedForm(patch, m, 1, {(a,): col for a, col in enumerate(cols, start=1)})


def shift_outcome(q, j):
    """Compare both shifts with their oracles; the central rejection
    message, or None when the central shift is accepted."""
    _, predicted = hoist_shift_iso(q, j)
    assert (predicted.conn, predicted.curv) == literal_hoist_shift(q, j)
    expected = literal_central_rejection(q, j)
    try:
        iso, target = central_shift_iso(q, j)
    except ValueError as exc:
        assert str(exc) == expected
        return expected
    assert expected is None
    half = {key: [v.scale(Fraction(1, 2)) for v in vec] for key, vec in j.comps.items()}
    assert iso.phi == GValuedForm(q.patch, q.fiber.dim, 1, half)
    assert (target.conn, target.curv) == (q.conn, q.curv)
    return None


@settings(max_examples=150, deadline=None)
@given(
    name=st.sampled_from(sorted(SHIFT_QUINTUPLES)),
    kind=st.sampled_from(J_KINDS),
    seed=st.integers(0, 10**6),
)
def test_shifts_match_their_closed_forms(name, kind, seed):
    q = SHIFT_QUINTUPLES[name]()
    shift_outcome(q, random_shift_form(q, kind, random.Random(seed)))


def test_shift_oracle_sweep_reaches_every_outcome():
    outcomes = set()
    for name in sorted(SHIFT_QUINTUPLES):
        q = SHIFT_QUINTUPLES[name]()
        for kind in J_KINDS:
            for seed in range(3):
                outcomes.add(shift_outcome(q, random_shift_form(q, kind, random.Random(seed))))
    center = "central shift rejected: J(d_%d) is not valued in the fiber center"
    curl = "central shift rejected: nabla_%d J_%d - nabla_%d J_%d is nonzero"
    assert outcomes == {None, center % 1, center % 2, center % 3} | {
        curl % (a, b, b, a) for a, b in ((1, 2), (1, 3), (1, 4), (2, 4))
    }


# -- intrinsic forms -------------------------------------------------------------


def test_intrinsic_form_identity_is_zero():
    q = fixture_d()
    from courant.linalg import poly_mat_identity

    theta = intrinsic_form(
        q, poly_mat_identity(2, 3), GValuedForm.zero(q.patch, 3, 1), standard_three_form(q)
    )
    assert not theta


def test_intrinsic_forms_horizontal_and_closed():
    q = fixture_d()
    for seed in range(5):
        tau, phi = seeded_ample_automorphism(seed, q)
        assert is_ample_automorphism(q, tau, phi).ok
        theta = intrinsic_form(q, tau, phi, standard_three_form(q))
        assert is_horizontal(theta)
        assert not ce_differential(QuadAlgebroid.of(q), theta)


def test_intrinsic_rejects_non_automorphism():
    q = fixture_d()
    tau, _ = seeded_ample_automorphism(1, q)
    with pytest.raises(ValueError):
        intrinsic_form(q, tau, GValuedForm.zero(q.patch, 3, 1), standard_three_form(q))


def test_pullback_of_identity():
    q = fixture_d()
    from courant.linalg import poly_mat_identity

    c = standard_three_form(q)
    assert pullback_aform(q.patch, q.fiber, c, poly_mat_identity(2, 3), GValuedForm.zero(q.patch, 3, 1)) == c


def test_transport_on_fiber_with_center():
    # block rotation (su(2) part) + identity on the central line
    from fixtures import fixture_d_extended

    q = fixture_d_extended()
    rng = random.Random(17)
    rot = cayley_so3(rng)
    block = [[rot[i][j] if i < 3 and j < 3 else (1 if i == j else 0) for j in range(4)] for i in range(4)]
    tau = poly_mat_from_rational(2, block)
    phi = GValuedForm(q.patch, 4, 1, {(1,): [q.patch.zero()] * 3 + [q.patch.var(2)]})
    beta = [[Poly.zero(2) for _ in range(2)] for _ in range(2)]
    for a in (1, 2):
        for b in (1, 2):
            beta[b - 1][a - 1] = -q.fiber.pairing(phi.get((a,)), phi.get((b,)))
    iso = IsoData(tau, phi, beta)
    assert validate_iso(q.patch, q.fiber, iso).ok
    moved = transport(q, iso)
    assert moved.validate().ok
    assert intertwining_report(q, moved, iso, degree_cap=1).ok
    assert coboundary_identity_check(q, moved, iso).ok


def test_intertwining_rejects_negative_degree():
    q = fixture_d()
    iso = identity_iso(q.patch, q.fiber.dim)
    with pytest.raises(ValueError):
        intertwining_report(q, transport(q, iso), iso, degree_cap=-1)


def test_intertwining_rejects_degree_above_ceiling():
    q = fixture_d()
    iso = identity_iso(q.patch, q.fiber.dim)
    with pytest.raises(ValueError, match="must be <= %d" % MAX_DEGREE_CAP):
        intertwining_report(q, transport(q, iso), iso, degree_cap=MAX_DEGREE_CAP + 1)


# -- the intertwining certificate against the literal all-pairs loop ----------


def literal_intertwining_report(q1, q2, iso, degree_cap):
    """Reference: every pair of the family, which ``intertwining_report``
    restricts to coefficient degrees summing to <= 1."""
    family, _ = q1.axiom_family(degree_cap)
    patch, fiber = q1.patch, q1.fiber
    pairing = Check("pairing_preserved", "<e1,e2> - <Theta e1, Theta e2>")
    bracket = Check("dorfman_intertwined", "Theta[[e1,e2]]_1 - [[Theta e1,Theta e2]]_2")
    images = [apply_iso(patch, fiber, iso, e) for e in family]
    for i, e1 in enumerate(family):
        for j, e2 in enumerate(family):
            if not pairing.failed:
                pairing.add((i + 1, j + 1), q1.pairing(e1, e2) - q2.pairing(images[i], images[j]))
            if not bracket.failed:
                lhs = apply_iso(patch, fiber, iso, q1.dorfman(e1, e2))
                rhs = q2.dorfman(images[i], images[j])
                bracket.add_section((i + 1, j + 1), lhs - rhs)
    return Report([pairing.record(), bracket.record()])


def assert_matches_literal(q1, q2, iso, caps=(1, 2)):
    for cap in caps:
        expected = literal_intertwining_report(q1, q2, iso, cap).to_json()
        assert intertwining_report(q1, q2, iso, cap).to_json() == expected, cap


def fixture_c_shift():
    cfg = parse_config(FIXTURE_C_SHIFT)
    return cfg.quintuple(), cfg.iso


def with_beta(iso, a, b, delta):
    """A copy of the isomorphism with beta[b][a] shifted by delta."""
    beta = [list(row) for row in iso.beta]
    beta[b][a] = beta[b][a] + delta
    return IsoData(iso.tau, iso.phi, beta)


def broken_cases():
    """(q1, q2, iso) where the intertwining can fail: a degree-1 term added
    to one Gamma or one R entry of the target, a perturbed diagonal beta
    entry (breaks the pairing), and a skew change of beta."""
    q = fixture_d()
    patch, fiber = q.patch, q.fiber
    lin = patch.var(1) + Poly.const(patch.n, 2)
    for seed in (0, 1):
        iso = seeded_iso_fixture_d(seed, q)
        moved = transport(q, iso)
        gamma = [[list(row) for row in mat] for mat in moved.conn.gamma]
        gamma[0][0][1] = gamma[0][0][1] + lin
        conn = GConnection(patch, fiber.dim, gamma)
        yield q, Quintuple(patch, fiber, conn, moved.curv, moved.hform), iso
        comps = {(1, 2): [u + lin if k == 2 else u for k, u in enumerate(moved.curv.get((1, 2)))]}
        curv = GValuedForm(patch, fiber.dim, 2, comps)
        yield q, Quintuple(patch, fiber, moved.conn, curv, moved.hform), iso
        yield q, moved, with_beta(iso, 0, 0, Poly.const(patch.n, 1))
        yield q, moved, with_beta(with_beta(iso, 0, 1, lin), 1, 0, -lin)
    qc, iso = fixture_c_shift()
    moved = transport(qc, iso)
    yield qc, moved, iso
    yield qc, moved, with_beta(iso, 2, 2, qc.patch.var(4))
    skew = qc.patch.var(1) * qc.patch.var(2)
    yield qc, moved, with_beta(with_beta(iso, 1, 3, skew), 3, 1, -skew)


@pytest.mark.parametrize("seed", range(20))
def test_intertwining_certificate_matches_literal_loop(seed):
    q = fixture_d()
    iso = seeded_iso_fixture_d(seed, q)
    assert_matches_literal(q, transport(q, iso), iso)


def test_intertwining_certificate_matches_literal_loop_on_broken_data():
    outcomes = []
    for q1, q2, iso in broken_cases():
        assert_matches_literal(q1, q2, iso)
        outcomes.append(intertwining_report(q1, q2, iso, 1).ok)
    assert outcomes.count(True) and outcomes.count(False)


@pytest.mark.parametrize("knockout", sorted(KNOCKOUTS))
def test_intertwining_certificate_matches_literal_loop_under_knockouts(monkeypatch, knockout):
    name, broken = KNOCKOUTS[knockout]
    monkeypatch.setattr(Quintuple, name, broken)
    q = fixture_d()
    iso = seeded_iso_fixture_d(0, q)
    assert_matches_literal(q, transport(q, iso), iso)
    # the rank-4 leaf of fixture C sees the H-contraction; cap 2 runs there
    # in the broken-data test
    qc, iso = fixture_c_shift()
    assert_matches_literal(qc, transport(qc, iso), iso, caps=(1,))


_pairing = Quintuple.pairing


def _pairing_without_half(self, e1, e2):
    # <xi|y> + <eta|x> + <r, s>: the 1/2 of the dual part dropped
    return _pairing(self, e1, e2).scale(2) - self.fiber.pairing(e1.r, e2.r, self.patch.n)


def _pairing_fiber_flipped(self, e1, e2):
    return _pairing(self, e1, e2) - self.fiber.pairing(e1.r, e2.r, self.patch.n).scale(2)


PAIRING_KNOCKOUTS = {"pairing-half": _pairing_without_half, "pairing-fiber*-1": _pairing_fiber_flipped}


@pytest.mark.parametrize("knockout", sorted(PAIRING_KNOCKOUTS))
def test_intertwining_pairing_knockouts_match_literal_loop(monkeypatch, knockout):
    # pairing_preserved runs on frame pairs only; under a broken pairing it
    # fails, with the witness of the literal all-pairs loop
    monkeypatch.setattr(Quintuple, "pairing", PAIRING_KNOCKOUTS[knockout])
    q = fixture_d()
    iso = seeded_iso_fixture_d(0, q)
    moved = transport(q, iso)
    assert_matches_literal(q, moved, iso)
    record = intertwining_report(q, moved, iso, 1)["pairing_preserved"]
    assert not record.ok
    assert max(record.witness.indices) <= len(q.frame_sections())
    qc, iso = fixture_c_shift()
    assert_matches_literal(qc, transport(qc, iso), iso, caps=(1,))


# Poly objects built by intertwining_report(q, transport(q, iso), iso, 1)
# on fixture D with seeded_iso_fixture_d(0)
INTERTWINING_POLYS = 5490


def test_intertwining_poly_count(monkeypatch):
    # each contraction builds one Poly per output entry; per-term
    # accumulation would raise this count
    q = fixture_d()
    iso = seeded_iso_fixture_d(0, q)
    moved = transport(q, iso)
    calls = count_makes(monkeypatch)
    assert intertwining_report(q, moved, iso, 1).ok
    assert len(calls) == INTERTWINING_POLYS


def test_lie_covector_dx_knockout_fails_off_the_frame(monkeypatch):
    # cap 0 is the frame x frame check, which this knockout passes; the
    # degree-1 coefficients catch it
    monkeypatch.setattr(Quintuple, *KNOCKOUTS["lie_covector-dx"])
    q = fixture_d()
    iso = seeded_iso_fixture_d(0, q)
    moved = transport(q, iso)
    assert intertwining_report(q, moved, iso, 0).ok
    record = intertwining_report(q, moved, iso, 1)["dorfman_intertwined"]
    assert not record.ok
    assert max(record.witness.indices) > len(q.frame_sections())


def test_intertwining_bracket_count(monkeypatch):
    calls = []
    dorfman = Quintuple.dorfman

    def counted(self, e1, e2):
        calls.append(1)
        return dorfman(self, e1, e2)

    monkeypatch.setattr(Quintuple, "dorfman", counted)
    q = fixture_d()
    iso = seeded_iso_fixture_d(0, q)
    moved = transport(q, iso)
    for cap in (1, 2):
        calls.clear()
        assert intertwining_report(q, moved, iso, cap).ok
        assert len(calls) <= 490, cap


def test_transport_on_a_dense_dim_12_fiber(tmp_path, capsys):
    # the determinant and inverse of tau by Laplace expansion ran for
    # minutes here; by Berkowitz the whole command takes seconds
    m = 12
    tau = cayley_orthogonal(random.Random(12), m)
    lines = ["[base]", "base.n = 2", "base.p = 2", "[fiber]", "fiber.dim = %d" % m]
    lines += ['fiber.metric.%d.%d = "1"' % (i, i) for i in range(1, m + 1)]
    lines += ["[iso]"] + [
        'iso.tau.%d.%d = "%s"' % (i, j, v)
        for i, row in enumerate(tau, 1)
        for j, v in enumerate(row, 1)
        if v
    ]
    path = tmp_path / "dim12.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert main(["transport", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out
