"""Characteristic 3-forms, coherence, hoists and the pair correspondence.

The canonical closed 3-form of a quintuple lives on the ample algebroid
and has bigraded components: the fiber Cartan tensor, a vanishing
(2,1) part, the curvature pairing in bidegree (1,2) and the leafwise
3-form in bidegree (0,3).  The same form arises from any torsion-free
leaf connection through a metric covariant derivative; both routes are
implemented and must agree exactly.

A hoist (a right inverse of the anchor, encoded by its fiber-valued
1-form) turns a closed coherent 3-form back into quintuple data; this
is the constructive direction of the correspondence between standard
Courant structures and coherent pairs, realized by ``build_from_pair``
and inverted by ``characteristic_pair_of``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from . import linalg
from .ample import AForm, Hoist, QuadAlgebroid, Section, aform_keys, ce_differential, frame_wedge, hoist_data
from .dorfman import HALF, FrameBrackets, Quintuple, standard_three_form
from .geometry import FConnection, FForm, GValuedForm
from .poly import Poly, coefficient_vectors
from .report import Check, Record, Report

THIRD = Fraction(1, 3)


class CharPair(Record):
    """Ample algebroid data together with a coherent closed 3-form."""

    _fields = ("alg", "c")

    def __init__(self, alg: QuadAlgebroid, c: AForm):
        self.alg = alg
        self.c = c


def _e_connection(q: Quintuple, fc: FConnection, e1: Section, e2: Section) -> Section:
    """Metric covariant derivative along e1 of e2 built from the quintuple
    and a torsion-free leaf connection."""
    # F* part: dual leaf derivative minus one third of the H contraction
    h = q.h_contract(e1.x, e2.x)
    xi = [u - v.scale(THIRD) for u, v in zip(fc.on_covectors.along(e1.x, e2.xi), h)]
    # G part
    br = q.fiber.bracket(e1.r, e2.r)
    r = [u + v.scale(Fraction(2, 3)) for u, v in zip(q.nabla_along(e1.x, e2.r), br)]
    # F part: leaf connection derivative
    return Section(xi, r, fc.on_vectors.along(e1.x, e2.x))


def e_connection_form(q: Quintuple, fc: FConnection, table: Optional[FrameBrackets] = None) -> AForm:
    """Chern-Weil style 3-form from a metric covariant derivative.

    Computed on all frame triples of the split bundle and reassembled
    as a form on the ample algebroid; equals ``standard_three_form`` for
    every torsion-free leaf connection.  The value on a frame triple is
    a cyclic sum over its ordered pairs (u, v) of <[u, v], w>/3 -
    <nabla_u v - nabla_v u, w>/2, so the skew bracket (from a
    ``FrameBrackets`` table) and the antisymmetrised E-connection are
    computed once per ordered frame pair, not once per triple.  Triples
    that hold a dual-frame covector are checked first, in wedge order,
    and the first nonzero one raises ValueError.  ``table`` defaults to
    a fresh ``q.frame_brackets()``; ``chernweil`` passes one table to
    every leaf connection, since the skew bracket does not depend on it.
    """
    if fc.patch != q.patch:
        raise ValueError("leaf connection lives on a different patch")
    if not fc.is_torsion_free():
        raise ValueError("leaf connection must be torsion-free")
    if table is None:
        table = q.frame_brackets()
    frames = table.frames
    p, m = q.patch.p, q.fiber.dim
    asyms: Dict[Tuple[int, int], Section] = {}

    def value_on(wedge: Tuple[int, int, int]) -> Poly:
        total = q.zero_poly()
        for i, j, k in (0, 1, 2), (1, 2, 0), (2, 0, 1):
            s, t = wedge[i], wedge[j]
            e3 = frames[wedge[k]]
            total = total + q.pairing(table.courant(s, t), e3).scale(THIRD)
            asym = asyms.get((s, t))
            if asym is None:
                e1, e2 = frames[s], frames[t]
                asym = asyms[(s, t)] = _e_connection(q, fc, e1, e2) - _e_connection(q, fc, e2, e1)
            total = total - q.pairing(asym, e3).scale(HALF)
        return total

    # triples containing a dual-frame covector must evaluate to zero,
    # otherwise the form does not descend to the ample algebroid
    for wedge in combinations(range(len(frames)), 3):
        if all(t >= p for t in wedge):
            continue
        value = value_on(wedge)
        if value:
            raise ValueError(
                "connection 3-form does not descend: nonzero on frame wedge %r" % (wedge,)
            )

    comps: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Poly] = {}
    for key in aform_keys(q.patch, m, 3):
        comps[key] = value_on(tuple(p + t for t in frame_wedge(m, key)))
    return AForm(q.patch, m, 3, comps)


def _coherent_closed(alg: QuadAlgebroid, c: AForm) -> Check:
    check = Check("coherent_closed", "dC")
    check.add_form(ce_differential(alg, c))
    return check


def _coherent_cartan(alg: QuadAlgebroid, c: AForm) -> Check:
    n, m = alg.patch.n, alg.fiber.dim
    cartan = alg.fiber.cartan_three_form()
    check = Check("coherent_cartan", "C(r,s,t) + <[r,s],t>")
    for gidx in combinations(range(1, m + 1), 3):
        i, j, k = gidx
        expected = Poly.const(n, cartan[i - 1][j - 1][k - 1])
        check.add(gidx, c.eval_frame(frame_wedge(m, (gidx, ()))) - expected)
    return check


def _hoist_conditions(alg: QuadAlgebroid, c: AForm, h: Hoist) -> Tuple[Check, Check]:
    """The mixed and curvature coherence conditions for a hoist."""
    patch, fiber = alg.patch, alg.fiber
    m, p = fiber.dim, patch.p
    kappa = [h.section(alg, a) for a in range(1, p + 1)]

    mixed = Check("coherent_mixed", "C(r,s,kappa x)")
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            for a in range(1, p + 1):
                mixed.add(
                    (i, j, a),
                    c.eval_sections([alg.fiber_elem(i), alg.fiber_elem(j), kappa[a - 1]]),
                )

    _, curv_k = hoist_data(alg, h)
    curvature = Check("coherent_curvature", "C(r,kappa x,kappa y) - <r,R^kappa(x,y)>")
    for k in range(1, m + 1):
        ek = alg.fiber_elem(k)
        for a in range(1, p + 1):
            for b in range(a + 1, p + 1):
                lhs = c.eval_sections([ek, kappa[a - 1], kappa[b - 1]])
                rhs = fiber.pairing(ek.r, curv_k.get((a, b)))
                curvature.add((k, a, b), lhs - rhs)
    return mixed, curvature


def check_coherent(alg: QuadAlgebroid, c: AForm, h: Hoist) -> Report:
    """The three hoist conditions plus closedness, all exact."""
    mixed, curvature = _hoist_conditions(alg, c, h)
    checks = (_coherent_cartan(alg, c), mixed, curvature, _coherent_closed(alg, c))
    return Report([check.record() for check in checks])


class HoistSearch(Record):
    """Outcome of the hoist solve: a hoist or a refusal witness."""

    _fields = ("hoist", "report")

    def __init__(self, hoist: Optional[Hoist], report: Report):
        self.hoist = hoist
        self.report = report


def find_hoist(alg: QuadAlgebroid, c: AForm) -> HoistSearch:
    """Solve the mixed coherence condition for a hoist, if one exists.

    The (2,1) components must lie in the image of the pairing-contracted
    structure constants B[(ij)][k] = <[e_i,e_j],e_k>, monomial by
    monomial; the curvature condition is then verified.  ``solve`` sets
    the free columns of B to zero, which on a valid fiber is the unique
    solution with no component along the fiber center z(g):

    - ker B = z(g): <[e_i,e_j], x> = <e_i, [e_j,x]> by ad-invariance,
      and the metric is nondegenerate.
    - The pivot columns of B are exactly the greedy complement of z(g):
      column c is a pivot iff e_c is independent of e_0..e_{c-1} modulo
      ker B.
    - So the free-columns-zero solution is the unique solution supported
      on that complement, which is the projection along z(g).

    On an invalid fiber ker B may differ from z(g); the solution found
    still satisfies B J_a = rhs.
    """
    patch, fiber = alg.patch, alg.fiber
    m, p = fiber.dim, patch.p
    report = Report()

    for check in (_coherent_closed(alg, c), _coherent_cartan(alg, c)):
        report.add(check.record())
        if check.failed:
            return HoistSearch(None, report)

    pairs = list(combinations(range(1, m + 1), 2))
    bmat = [[fiber.b[i - 1][j - 1][k] for k in range(m)] for i, j in pairs]
    solvable = Check("hoist_solvable", "B J_a = C(e_i,e_j,d_a) has no solution")

    columns: List[List[Poly]] = []
    for a in range(1, p + 1):
        rhs_polys = [c.eval_frame(frame_wedge(m, (pair, (a,)))) for pair in pairs]
        col = [Poly.zero(patch.n) for _ in range(m)]
        for exp, rhs in coefficient_vectors(rhs_polys):
            mono = Poly(patch.n, {exp: 1})
            sol = linalg.solve(bmat, rhs)
            if sol is None:
                solvable.add((a,) + exp, mono)
                report.add(solvable.record())
                return HoistSearch(None, report)
            col = [acc + mono.scale(v) if v else acc for acc, v in zip(col, sol)]
        columns.append(col)

    comps = {(a,): col for a, col in enumerate(columns, start=1)}
    hoist = Hoist(GValuedForm(patch, m, 1, comps))
    report.add(solvable.record())
    for check in _hoist_conditions(alg, c, hoist):
        report.add(check.record())
    return HoistSearch(hoist if report.ok else None, report)


def build_from_pair(pair: CharPair, h: Hoist) -> Quintuple:
    """Quintuple induced by a coherent pair and a hoist for it.

    Raises ValueError when the coherence conditions fail for (C, h).
    """
    alg, c = pair.alg, pair.c
    coh = check_coherent(alg, c, h)
    if not coh.ok:
        failing = coh.failures()[0]
        raise ValueError("pair is not coherent for this hoist: %s" % failing.name)
    conn, curv = hoist_data(alg, h)
    patch = alg.patch
    kappa = [h.section(alg, a) for a in range(1, patch.p + 1)]
    comps = {}
    for key in combinations(range(1, patch.p + 1), 3):
        a, b, cc = key
        comps[key] = c.eval_sections([kappa[a - 1], kappa[b - 1], kappa[cc - 1]])
    hform = FForm(patch, 3, comps)
    return Quintuple(patch, alg.fiber, conn, curv, hform)


def characteristic_pair_of(q: Quintuple) -> CharPair:
    """The canonical pair of a quintuple; a standard hoist rebuilds q."""
    return CharPair(QuadAlgebroid.of(q), standard_three_form(q))
