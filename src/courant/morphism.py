"""Isomorphisms of standard Courant structures and structure transport.

An isomorphism over the identity of the base is a triple (tau, phi,
beta): a fiber automorphism, a fiber-valued 1-form and an F -> F* map,
subject to one pairing condition; it acts on sections by

    xi + r + x  |->  (xi + beta(x) - 2 phi^* tau(r)) + (tau(r) + phi(x)) + x.

``transport`` solves the three intertwining conditions for the target
data (connection, curvature, leafwise 3-form), inverting tau through
its adjugate, which stays polynomial exactly when det(tau) is a
nonzero constant.  The canned shifts (hoist, two-form, central) build
specific isomorphisms together with their predicted targets, and the
coboundary check verifies that pulled-back canonical 3-forms differ by
an explicit exact form.  The intertwining check certifies the section
map for all polynomial sections from pairs whose coefficient degrees sum
to <= 1, assuming the bracket has total order <= 1 (see
``intertwining_report``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from typing import List, Tuple

from . import linalg
from .ample import AForm, Hoist, Section, aform_keys, ce_differential, frame_wedge, hoist_data, live
from .dorfman import HALF, IsoData, Quintuple, check_degree_cap, standard_three_form
from .fiber import QuadLieAlgebra
from .geometry import FForm, GConnection, GValuedForm, Patch, leafwise_d
from .poly import Poly, sum_products
from .report import Check, Report


def validate_iso(patch: Patch, fiber: QuadLieAlgebra, iso: IsoData) -> Report:
    report = Report()
    m, p, n = fiber.dim, patch.p, patch.n
    tau, beta = iso.tau, iso.beta

    pairing = Check("iso_pairing_condition", "<beta x|y>/2 + <x|beta y>/2 + <phi x,phi y>")
    for a in range(1, p + 1):
        for b in range(a, p + 1):
            residual = (beta[b - 1][a - 1] + beta[a - 1][b - 1]).scale(HALF) + fiber.pairing(
                iso.phi.get((a,)), iso.phi.get((b,)), n
            )
            pairing.add((a, b), residual)
    report.add(pairing.record())

    one = Poly.const(n, 1)
    bracket = Check("tau_bracket_automorphism", "tau[e_i,e_j] - [tau e_i, tau e_j]")
    for i, j, k in product(range(m), repeat=3):
        cij = fiber.c[i][j]
        terms = [(cij[l], tau[k][l], one) for l in range(m) if cij[l]]
        terms += [(-c, tau[l][i], tau[s][j]) for c, l, s in fiber.c_terms[k]]
        bracket.add((i + 1, j + 1, k + 1), sum_products(n, terms))
    report.add(bracket.record())

    metric = Check("tau_metric_automorphism", "tau^T g tau - g")
    for i, j in product(range(m), repeat=2):
        terms = [(g, tau[l][i], tau[s][j]) for g, l, s in fiber.g_terms]
        terms.append((-fiber.g[i][j], one, one))
        metric.add((i + 1, j + 1), sum_products(n, terms))
    report.add(metric.record())

    constant = Check("tau_det_constant", "det(tau)")
    if m:
        det = linalg.poly_mat_det(tau)
        if not (det.is_constant() and det.constant_value() != 0):
            constant.add((), str(det))  # text, so that det = 0 still fails
    report.add(constant.record())
    return report


def apply_iso(patch: Patch, fiber: QuadLieAlgebra, iso: IsoData, e: Section) -> Section:
    """Image of a section; preserves the pseudo-metric exactly.  The map
    is linear in the section, so a zero part r or x is skipped."""
    n = patch.n
    parts = [(x, iso.phi.get((a,)), [row[a - 1] for row in iso.beta]) for a, x in enumerate(e.x, 1) if x]
    xi, r = e.xi, e.r
    if parts:  # + beta(x)
        xi = [u + sum_products(n, [(1, x, col[a]) for x, _, col in parts]) for a, u in enumerate(xi)]
    if live(r):
        r = linalg.poly_mat_vec(iso.tau, r)
        # - 2 phi^* tau(r), with (phi^* s)_a = <s, phi(d_a)>
        xi = [u - fiber.pairing(r, iso.phi.get((a,)), n).scale(2) for a, u in enumerate(xi, 1)]
    if parts:  # + phi(x)
        r = [u + sum_products(n, [(1, x, col[k]) for x, col, _ in parts]) for k, u in enumerate(r)]
    return Section(list(xi), list(r), list(e.x))


def transport(q1: Quintuple, iso: IsoData) -> Quintuple:
    """Target quintuple intertwined with q1 by the isomorphism."""
    patch, fiber = q1.patch, q1.fiber
    m, p, n = fiber.dim, patch.p, patch.n

    tau = iso.tau
    tau_inv = linalg.poly_mat_inverse_constant_det(tau) if m else []
    phi = [iso.phi.get((a,)) for a in range(1, p + 1)]
    jcols = [linalg.poly_mat_vec(tau_inv, col) for col in phi]  # tau^-1 phi(d_a)

    gamma2 = []
    for a in range(1, p + 1):
        d_tau_inv = [[patch.d(entry, a) for entry in row] for row in tau_inv]
        mat = linalg.poly_mat_mul(tau, d_tau_inv)
        conj = linalg.poly_mat_mul(tau, linalg.poly_mat_mul(q1.conn.gamma[a - 1], tau_inv))
        ad_phi = fiber.ad_matrix(phi[a - 1])
        gamma2.append([[u + v - w for u, v, w in zip(*rows)] for rows in zip(mat, conj, ad_phi)])
    conn2 = GConnection(patch, m, gamma2)

    curv_comps = {}
    for a, b in combinations(range(1, p + 1), 2):
        inner = [
            r + u - v
            for r, u, v in zip(
                q1.curv.get((a, b)), q1.conn.apply(b, jcols[a - 1]), q1.conn.apply(a, jcols[b - 1])
            )
        ]
        br = fiber.bracket(phi[a - 1], phi[b - 1])
        curv_comps[(a, b)] = [u + v for u, v in zip(linalg.poly_mat_vec(tau, inner), br)]
    curv2 = GValuedForm(patch, m, 2, curv_comps)

    h_comps = {}
    for key in combinations(range(1, p + 1), 3):
        a, b, c = key
        br = fiber.bracket(phi[b - 1], phi[c - 1])
        value = q1.hform.get(key) - fiber.pairing(phi[a - 1], br, n).scale(2)
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            inner = [u - v for u, v in zip(q1.conn.apply(y, jcols[z - 1]), q1.curv.get((y, z)))]
            value = value + fiber.pairing(phi[x - 1], linalg.poly_mat_vec(tau, inner), n).scale(2)
            value = value + patch.d(iso.beta[y - 1][z - 1], x)
        h_comps[key] = value
    hform2 = FForm(patch, 3, h_comps)
    return Quintuple(patch, fiber, conn2, curv2, hform2)


def intertwining_report(q1: Quintuple, q2: Quintuple, iso: IsoData, degree_cap: int = 1) -> Report:
    """Check that the section map takes the bracket of q1 to that of q2.

    Only family pairs (f u, g v) with deg f + deg g <= 1 are evaluated
    (u, v frame sections), which certifies both identities for all
    polynomial sections at any cap >= 1.  Assumption, as in
    ``axioms.reduced``: ``Quintuple.dorfman`` is a
    bidifferential operator of total order <= 1.  ``apply_iso`` is
    linear over functions, so the defect D(e1, e2) = Theta[[e1,e2]]_1 -
    [[Theta e1, Theta e2]]_2 is one too:

        D(f u, g v) = f g D(u,v) + g sum_a (d_a f) S'_a(u,v) + f sum_a (d_a g) S_a(u,v)

    with D(u,v), S'_a = D(x_a u, v) - x_a D(u,v) and S_a = D(u, x_a v) -
    x_a D(u,v) tensorial.  So a failing pair with deg f + deg g >= 2
    implies a failing pair among (u, v), (x_a u, v), (u, x_a v), which
    comes earlier in family order: the witness is that of the literal
    all-pairs loop.

    ``pairing_preserved`` runs on frame pairs only.  Its defect
    P(e1, e2) = <e1,e2>_1 - <Theta e1, Theta e2>_2 is function-bilinear,
    since both pairings are and ``apply_iso`` is linear over functions:
    P(f u, g v) = f g P(u, v).  So a failing pair (f u, g v) implies that
    the frame pair (u, v) fails, and (u, v) comes no later in family order
    (the frames are the family members with f = 1, and the index of f u
    is at least that of u); the first failing pair of the literal loop is
    a frame pair, with the same residual.
    """
    check_degree_cap(degree_cap, "intertwining")
    family, _ = q1.axiom_family(min(degree_cap, 1))
    nu = len(q1.frame_sections())
    patch, fiber = q1.patch, q1.fiber
    pairing = Check("pairing_preserved", "<e1,e2> - <Theta e1, Theta e2>")
    bracket = Check("dorfman_intertwined", "Theta[[e1,e2]]_1 - [[Theta e1,Theta e2]]_2")
    images = [apply_iso(patch, fiber, iso, e) for e in family]
    for i, j in product(range(nu), repeat=2):
        if pairing.add((i + 1, j + 1), q1.pairing(family[i], family[j]) - q2.pairing(images[i], images[j])):
            break
    for (i, e1), (j, e2) in product(enumerate(family), repeat=2):
        if i >= nu and j >= nu:
            continue  # deg f + deg g = 2: certified by the pairs above
        lhs = apply_iso(patch, fiber, iso, q1.dorfman(e1, e2))
        if bracket.add_section((i + 1, j + 1), lhs - q2.dorfman(images[i], images[j])):
            break
    return Report([pairing.record(), bracket.record()])


# -- the two exact 2-forms and their closed-form differentials -------------


def phi_form(patch: Patch, dim: int, j: GValuedForm, fiber: QuadLieAlgebra) -> AForm:
    """Phi_J(r+x, s+y) = <r, J y> - <s, J x>."""
    comps = {}
    cols = [j.get((a,)) for a in range(1, patch.p + 1)]
    for i in range(1, dim + 1):
        row = fiber.g[i - 1]
        for a, ja in enumerate(cols, start=1):
            # <e_i, J_a> = sum_l g_il J_a^l, from row i of the metric
            value = sum((v.scale(g) for g, v in zip(row, ja) if g and v), Poly.zero(patch.n))
            comps[((i,), (a,))] = value
    return AForm(patch, dim, 2, comps)


def psi_form(patch: Patch, dim: int, k: List[List[Poly]]) -> AForm:
    """Psi_K(r+x, s+y) = <x|K y> - <y|K x> with k[a][b] = <d_a|K d_b>."""
    comps = {}
    for a in range(1, patch.p + 1):
        for b in range(a + 1, patch.p + 1):
            comps[((), (a, b))] = k[a - 1][b - 1] - k[b - 1][a - 1]
    return AForm(patch, dim, 2, comps)


# -- canned isomorphisms ------------------------------------------------------


def hoist_shift_iso(q: Quintuple, j: GValuedForm) -> Tuple[IsoData, Quintuple]:
    """Shift by a fiber-valued 1-form: tau = id, phi = J, beta = -J^* J.

    The target changes the hoist by x -> x - J(x): its connection and
    curvature are ``hoist_data`` of the hoist -J through the ample
    bracket of ``q`` itself, so a fault in that bracket shows up as a
    mismatch with ``transport``.  The H formula is an independent closed form.
    """
    patch, fiber = q.patch, q.fiber
    m, p, n = fiber.dim, patch.p, patch.n
    cols = [j.get((a,)) for a in range(1, p + 1)]
    beta = [[-fiber.pairing(ja, jb, n) for ja in cols] for jb in cols]
    iso = IsoData(linalg.poly_mat_identity(n, m), j, beta)
    conn2, curv2 = hoist_data(q, Hoist(j.scale(-1)))

    h_comps = {}
    for key in combinations(range(1, p + 1), 3):
        a, b, c = key
        br = fiber.bracket(cols[b - 1], cols[c - 1])
        value = q.hform.get(key) - fiber.pairing(cols[a - 1], br, n).scale(2)
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            dy, dz = q.conn.apply(y, cols[z - 1]), q.conn.apply(z, cols[y - 1])
            vec = [u - v - w.scale(2) for u, v, w in zip(dy, dz, q.curv.get((y, z)))]
            value = value + fiber.pairing(cols[x - 1], vec, n)
        h_comps[key] = value
    hform2 = FForm(patch, 3, h_comps)
    return iso, Quintuple(patch, fiber, conn2, curv2, hform2)


def omega_shift_iso(q: Quintuple, omega: FForm) -> Tuple[IsoData, Quintuple]:
    """Shift of the leafwise 3-form by an exact form: beta = -omega-flat."""
    if omega.degree != 2 or omega.patch != q.patch:
        raise ValueError("omega must be a leafwise 2-form on the patch")
    patch, fiber = q.patch, q.fiber
    m, p, n = fiber.dim, patch.p, patch.n
    beta = [[Poly.zero(n)] * p for _ in range(p)]
    for a in range(1, p + 1):
        for b in range(1, p + 1):
            beta[b - 1][a - 1] = -omega.get((a, b))
    iso = IsoData(linalg.poly_mat_identity(n, m), GValuedForm.zero(patch, m, 1), beta)
    target = Quintuple(patch, fiber, q.conn, q.curv, q.hform + leafwise_d(omega))
    return iso, target


def central_shift_iso(q: Quintuple, j: GValuedForm) -> Tuple[IsoData, Quintuple]:
    """Same-hoist shift: requires J centered in the fiber and curl-free.

    Both hypotheses are read off ``hoist_data`` of the hoist -J/2 through
    the ample bracket of ``q``: its connection is Gamma_a - ad(J_a)/2,
    and the fiber center is the kernel of r -> ad r for valid and invalid
    fibers alike, so ad(J_a) = 0 exactly when every coefficient vector of
    J_a is central.  Then [J_a, J_b] = 0 and its curvature is
    R_ab - (nabla_a J_b - nabla_b J_a)/2.  The H formula is an
    independent closed form.  Raises ValueError with a witness when the
    hypotheses fail.
    """
    patch, fiber = q.patch, q.fiber
    m, p, n = fiber.dim, patch.p, patch.n
    conn2, curv2 = hoist_data(q, Hoist(j.scale(-HALF)))
    for a in range(1, p + 1):
        if conn2.gamma[a - 1] != q.conn.gamma[a - 1]:
            raise ValueError("central shift rejected: J(d_%d) is not valued in the fiber center" % a)
    for a, b in combinations(range(1, p + 1), 2):
        if curv2.get((a, b)) != q.curv.get((a, b)):
            raise ValueError(
                "central shift rejected: nabla_%d J_%d - nabla_%d J_%d is nonzero"
                % (a, b, b, a)
            )
    cols = [j.get((a,)) for a in range(1, p + 1)]
    beta = [[fiber.pairing(ja, jb, n).scale(Fraction(-1, 4)) for ja in cols] for jb in cols]
    iso = IsoData(linalg.poly_mat_identity(n, m), j.scale(HALF), beta)
    h_comps = {}
    for key in combinations(range(1, p + 1), 3):
        a, b, c = key
        value = q.hform.get(key) - (
            fiber.pairing(cols[a - 1], q.curv.get((b, c)), n)
            + fiber.pairing(cols[b - 1], q.curv.get((c, a)), n)
            + fiber.pairing(cols[c - 1], q.curv.get((a, b)), n)
        )
        h_comps[key] = value
    target = Quintuple(patch, fiber, q.conn, q.curv, FForm(patch, 3, h_comps))
    return iso, target


# -- pullbacks and the coboundary identity -----------------------------------


def pullback_aform(
    patch: Patch, fiber: QuadLieAlgebra, c: AForm, tau: List[List[Poly]], phi: GValuedForm
) -> AForm:
    """Pull back a form along r + x -> tau(r) + phi(x) + x."""
    m = fiber.dim
    zero = [Poly.zero(patch.n)] * patch.p
    # the image of the A-frame element at each position
    images = [Section(zero, [tau[l][i] for l in range(m)], zero) for i in range(m)]
    for a in range(1, patch.p + 1):
        x = list(zero)
        x[a - 1] = patch.one()
        images.append(Section(zero, phi.get((a,)), x))
    comps = {}
    for key in aform_keys(patch, m, c.degree):
        comps[key] = c.eval_sections([images[t] for t in frame_wedge(m, key)])
    return AForm(patch, m, c.degree, comps)


def coboundary_identity_check(q1: Quintuple, q2: Quintuple, iso: IsoData) -> Report:
    """Pulled-back canonical forms differ by d(Psi_beta/2 + Phi_{tau^-1 phi}),
    for the quintuple q2 = transport(q1, iso)."""
    patch, fiber = q1.patch, q1.fiber
    m = fiber.dim
    c1 = standard_three_form(q1)
    c2 = standard_three_form(q2)
    lhs = pullback_aform(patch, fiber, c2, iso.tau, iso.phi) - c1

    tau_inv = linalg.poly_mat_inverse_constant_det(iso.tau) if m else []
    j_comps = {}
    for a in range(1, patch.p + 1):
        j_comps[(a,)] = linalg.poly_mat_vec(tau_inv, iso.phi.get((a,)))
    jform = GValuedForm(patch, m, 1, j_comps)
    primitive = psi_form(patch, m, iso.beta).scale(HALF) + phi_form(patch, m, jform, fiber)
    rhs = ce_differential(q1, primitive)

    check = Check("coboundary_identity", "iota^* C2 - C1 - d(Psi/2 + Phi)")
    check.add_form(lhs - rhs)
    return Report([check.record()])
