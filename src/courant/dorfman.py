"""The standard split Courant algebroid E = F* + A over a patch.

This is the second layer: E = F* + G + F extends the ample Lie
algebroid A = G + F of :mod:`courant.ample` by the dual of F.  A
quintuple (patch, fiber; connection, curvature 2-form, leafwise
3-form) is the ample algebroid data plus the leafwise 3-form H, and
``Quintuple`` extends ``QuadAlgebroid`` accordingly: anchor =
projection to F, pseudo-metric = duality pairing plus the fiber metric,
and a Dorfman bracket given in closed form on sections with polynomial
components, whose G + F part is the ample bracket.  The closed-form
bracket below is valid for arbitrary polynomial sections, and each of
its terms differentiates at most one factor, at most once; the axiom
checker relies on that to certify both Leibniz rules from finitely
many instances.

Two verification layers:

* ``validate`` checks the five compatibility identities of the data
  exactly (connection invariances, Bianchi, curvature matching, and
  the Pontryagin identity d^F H = <R wedge R>).
* ``check_axioms`` verifies the six Courant axioms.  The checks and the
  argument that frame tuples suffice live in :mod:`courant.axioms`, a
  lazy layer that only ``check`` and ``axioms`` compile;
  ``axiom_family``, ``monomials`` and ``check_degree_cap`` stay here,
  since the intertwining check of :mod:`courant.morphism` reads them
  too.

Zero components are skipped.  A section the axiom check brackets is
a frame section, or one times x_a, with one nonzero component of
2p + m, so most bracket terms have a zero factor.  The +, -, ``mul``
and ``scale`` of ``Section`` (in :mod:`courant.ample`, the one section
type of E and of A) and the bracket terms read ``Poly.num`` and skip a
zero operand, factor or derivative.  That is exact: a + 0, a - 0 and
0 * f already return a canonical Poly equal to the one kept, so every
report is the same and only the work changes.

``FrameBrackets`` brackets each ordered pair of frame sections at most
once per table: the axiom check and the naive differential build one
per call, and ``chernweil`` one per command, since all of them read
frame brackets many times over; ``axioms.direct`` builds one on its
family of sections.

The naive differential lives here too.  Naive cohomology is the Lie
algebroid cohomology of A, so the naive differential is
``ample.frame_differential`` on the Courant frame with the skew bracket
of a ``FrameBrackets`` table, as ``ce_differential`` is on the frame of
A with the ample bracket; ``naive_matches_ce`` compares the two, which
shows a Dorfman bracket whose A-part differs from the ample bracket.
``standard_three_form`` (C_s, the canonical 3-form that ``charform``,
``naive`` and the coboundary check of :mod:`courant.morphism` read)
and ``IsoData``, an isomorphism of quintuples, live here so that those
commands and the parsing of a config's ``[iso]`` block load no command
layer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

from . import axioms, linalg
from .ample import AForm, QuadAlgebroid, Section, add_live, ce_differential, frame_differential, frame_symbols, live, sub_live
from .fiber import QuadLieAlgebra
from .geometry import FForm, GConnection, GValuedForm, Patch, leafwise_d, pontryagin_form, validate_connection
from .poly import Poly
from .report import Check, Record, Report

HALF = Fraction(1, 2)

# Largest accepted degree cap.  The direct axiom check enumerates family
# tuples with coefficients up to degree 2 * cap, whose count grows like
# cap^(3n), so an unbounded cap could exhaust memory; the reduced check
# uses the cap only after a Leibniz failure.
MAX_DEGREE_CAP = 4


def check_degree_cap(degree_cap: int, what: str) -> None:
    """Raise ValueError unless 0 <= degree_cap <= MAX_DEGREE_CAP."""
    if degree_cap < 0:
        raise ValueError("%s degree cap must be >= 0, got %d" % (what, degree_cap))
    if degree_cap > MAX_DEGREE_CAP:
        raise ValueError(
            "%s degree cap must be <= %d, got %d" % (what, MAX_DEGREE_CAP, degree_cap)
        )


def monomials(nvars: int, max_degree: int) -> List[Poly]:
    """All monomials of total degree <= max_degree, graded-lex ascending."""
    out = []
    for degree in range(max_degree + 1):
        exps = sorted(
            tuple(combo.count(v) for v in range(nvars))
            for combo in combinations_with_replacement(range(nvars), degree)
        )
        out.extend(Poly(nvars, {e: 1}) for e in exps)
    return out


class Quintuple(QuadAlgebroid):
    """Standard Courant algebroid data over a polynomial patch: the ample
    algebroid data plus the leafwise 3-form H."""

    _fields = QuadAlgebroid._fields + ("hform",)

    def __init__(
        self,
        patch: Patch,
        fiber: QuadLieAlgebra,
        conn: GConnection,
        curv: GValuedForm,
        hform: FForm,
    ):
        super().__init__(patch, fiber, conn, curv)
        if hform.patch != patch or hform.degree != 3:
            raise ValueError("H must be a leafwise 3-form on the patch")
        self.hform = hform
        p = patch.p
        # dense antisymmetric lookup for the bracket hot path
        self._h = [
            [[hform.get((a, b, c)) for c in range(1, p + 1)] for b in range(1, p + 1)]
            for a in range(1, p + 1)
        ]

    # -- basic sections ---------------------------------------------------

    def delta(self, a: int) -> Section:
        """The dual frame covector section delta^a."""
        s = self.zero_section()
        s.xi[a - 1] = self.patch.one()
        return s

    def frame_sections(self) -> List[Section]:
        """delta^1..delta^p, e_1..e_m, d/dx_1..d/dx_p in this order."""
        p, m = self.patch.p, self.fiber.dim
        return (
            [self.delta(a) for a in range(1, p + 1)]
            + [self.fiber_elem(i) for i in range(1, m + 1)]
            + [self.coord(a) for a in range(1, p + 1)]
        )

    # -- structure maps -----------------------------------------------------

    def _check_section(self, e: Section) -> None:
        p, m = self.patch.p, self.fiber.dim
        if len(e.xi) != p or len(e.r) != m or len(e.x) != p:
            raise ValueError("section shape mismatch for this quintuple")

    def anchor(self, e: Section) -> List[Poly]:
        return list(e.x)

    def pairing(self, e1: Section, e2: Section) -> Poly:
        self._check_section(e1)
        self._check_section(e2)
        acc = self._zero
        for xi1, x1, xi2, x2 in zip(e1.xi, e1.x, e2.xi, e2.x):
            if xi1.num and x2.num:
                acc = acc + xi1 * x2
            if xi2.num and x1.num:
                acc = acc + xi2 * x1
        acc = acc.scale(HALF)
        if self.fiber.dim:
            acc = acc + self.fiber.pairing(e1.r, e2.r)
        return acc

    def d_operator(self, f: Poly) -> Section:
        s = self.zero_section()
        for a in range(1, self.patch.p + 1):
            s.xi[a - 1] = self.patch.d(f, a)
        return s

    def p_form(self, r1: Sequence[Poly], r2: Sequence[Poly]) -> List[Poly]:
        """F*-components of P(r1, r2): <P(r1,r2)|y> = 2<r2, nabla_y r1>."""
        out = []
        for b in range(1, self.patch.p + 1):
            nabla = self.nabla(b, r1)
            out.append(self.fiber.pairing(r2, nabla).scale(2) if live(nabla) else self._zero)
        return out

    def q_form(self, x: Sequence[Poly], r: Sequence[Poly]) -> List[Poly]:
        """F*-components of Q(x, r): <Q(x,r)|y> = <r, R(x,y)>."""
        p = self.patch.p
        out = []
        for b in range(p):
            acc = self._zero
            for a in range(p):
                if x[a].num and self._r_terms[a][b]:
                    pairing = self.fiber.pairing(r, self._r[a][b])
                    if pairing.num:
                        acc = acc + x[a] * pairing
            out.append(acc)
        return out

    # -- brackets ------------------------------------------------------------

    def lie_covector(self, x: Sequence[Poly], xi: Sequence[Poly]) -> List[Poly]:
        """(L_x xi)_b = x(xi_b) + sum_a xi_a d_b x^a."""
        patch = self.patch
        out = []
        for b, xib in enumerate(xi, start=1):
            acc = patch.along(x, xib)
            for xa, xia in zip(x, xi):
                if xia.num and xa.num:
                    d = patch.d(xa, b)
                    if d.num:
                        acc = acc + xia * d
            out.append(acc)
        return out

    def h_contract(self, x1: Sequence[Poly], x2: Sequence[Poly]) -> List[Poly]:
        """H(x1, x2, -) as an F*-vector."""
        p = self.patch.p
        out = []
        for b in range(p):
            acc = self._zero
            for a in range(p):
                if not x1[a].num:
                    continue
                for c in range(p):
                    if x2[c].num and self._h[a][c][b].num:
                        acc = acc + x1[a] * x2[c] * self._h[a][c][b]
            out.append(acc)
        return out

    def dorfman(self, e1: Section, e2: Section) -> Section:
        """Dorfman bracket of two arbitrary polynomial sections: the ample
        bracket on the G + F part, plus the F* part."""
        self._check_section(e1)
        self._check_section(e2)
        p = self.patch.p
        zero = self._zero
        x1_live, x2_live, r1_live, r2_live = live(e1.x), live(e2.x), live(e1.r), live(e2.r)
        r, x = self._bracket(e1, e2, x1_live, x2_live, r1_live, r2_live)

        # F* part
        out = [zero] * p
        if x1_live and x2_live:
            out = self.h_contract(e1.x, e2.x)
        if x1_live and live(e2.xi):
            out = add_live(out, self.lie_covector(e1.x, e2.xi))
        if x2_live and live(e1.xi):
            out = sub_live(out, self.lie_covector(e2.x, e1.xi))
            dual = zero
            for xi1, x2 in zip(e1.xi, e2.x):
                if xi1.num and x2.num:
                    dual = dual + xi1 * x2
            if dual.num:
                out = add_live(out, [self.patch.d(dual, b) for b in range(1, p + 1)])
        if r1_live and r2_live:
            out = add_live(out, self.p_form(e1.r, e2.r))
        if x1_live and r2_live:
            out = sub_live(out, [b.scale(2) for b in self.q_form(e1.x, e2.r)])
        if x2_live and r1_live:
            out = add_live(out, [b.scale(2) for b in self.q_form(e2.x, e1.r)])
        return Section(out, r, x)

    def frame_brackets(self) -> "FrameBrackets":
        """A table of the brackets of the frame sections, for one call."""
        return FrameBrackets(self, self.frame_sections())

    # -- data validation -------------------------------------------------------

    def validate(self) -> Report:
        report = Report()
        report.extend(validate_connection(self.conn, self.fiber))
        p, m = self.patch.p, self.fiber.dim

        bianchi = Check("bianchi_identity", "nabla_a R_bc + nabla_b R_ca + nabla_c R_ab")
        for a, b, c in combinations(range(1, p + 1), 3):
            vec = [
                u + v + w
                for u, v, w in zip(
                    self.nabla(a, self.curv.get((b, c))),
                    self.nabla(b, self.curv.get((c, a))),
                    self.nabla(c, self.curv.get((a, b))),
                )
            ]
            for k, entry in enumerate(vec):
                bianchi.add((a, b, c, k + 1), entry)
        report.add(bianchi.record())

        curvid = Check(
            "curvature_identity", "d_a Gamma_b - d_b Gamma_a + [Gamma_a,Gamma_b] - ad(R_ab)"
        )
        d = self.patch.d
        for a, b in combinations(range(1, p + 1), 2):
            ga = self.conn.gamma[a - 1]
            gb = self.conn.gamma[b - 1]
            ad_r = self.fiber.ad_matrix(self.curv.get((a, b)))
            ab, ba = linalg.poly_mat_mul(ga, gb), linalg.poly_mat_mul(gb, ga)
            for i in range(m):
                for j in range(m):
                    acc = d(gb[i][j], a) - d(ga[i][j], b) - ad_r[i][j] + ab[i][j] - ba[i][j]
                    curvid.add((a, b, i + 1, j + 1), acc)
        report.add(curvid.record())

        report.add(self.pontryagin_identity()[1].record())
        return report

    def pontryagin_identity(self) -> Tuple[FForm, Check]:
        """The 4-form <R wedge R> and the check of d^F H = <R wedge R>."""
        rr = pontryagin_form(self.curv, self.fiber)
        check = Check("dF_H_equals_RR", "<R wedge R> - dF_H")
        check.add_form(rr - leafwise_d(self.hform))
        return rr, check

    # -- axiom suite -------------------------------------------------------------

    def axiom_family(self, degree_cap: int) -> Tuple[List[Section], List[Poly]]:
        """Sections {f * u} for frame u and monomial f of degree <= cap."""
        monos = monomials(self.patch.n, degree_cap)
        frames = self.frame_sections()
        family = [u.mul(f) for f in monos for u in frames]
        return family, monos

    def check_axioms(self, degree_cap: int = 2) -> Report:
        """The six Courant axioms, by the frame-level certificate
        ``axioms.reduced``."""
        check_degree_cap(degree_cap, "axiom")
        return axioms.reduced(self, degree_cap)


class IsoData(Record):
    """An isomorphism (tau, phi, beta) of quintuples over the identity,
    which :mod:`courant.morphism` applies and transports along: tau: m x
    m, phi: fiber-valued 1-form, beta[b][a] = <beta(d_a)|d_b>."""

    _fields = ("tau", "phi", "beta")

    def __init__(self, tau: List[List[Poly]], phi: GValuedForm, beta: List[List[Poly]]):
        self.tau = tau
        self.phi = phi
        self.beta = beta

    def phi_col(self, a: int) -> List[Poly]:
        return self.phi.get((a,))

    def beta_col(self, a: int) -> List[Poly]:
        """Components of beta(d_a) in the dual frame."""
        return [row[a - 1] for row in self.beta]


class FrameBrackets(dict):
    """The Dorfman brackets [[u_i, u_j]] of a fixed list of sections u,
    keyed by (i, j) and bracketed on first lookup: the frame sections
    (``Quintuple.frame_brackets``) or the family of ``axioms.direct``.

    Exact: the sections are fixed and the bracket is deterministic, so a
    lookup returns what ``q.dorfman(u_i, u_j)`` would.  A table serves
    one call of its caller, or one ``chernweil`` command, and is never
    kept beyond it, so a patched bracket method is seen by the next
    table.
    """

    def __init__(self, q: Quintuple, frames: List[Section]):
        super().__init__()
        self.q = q
        self.frames = frames
        self._courant: Dict[Tuple[int, int], Section] = {}

    def __missing__(self, key: Tuple[int, int]) -> Section:
        i, j = key
        value = self[key] = self.q.dorfman(self.frames[i], self.frames[j])
        return value

    def courant(self, i: int, j: int) -> Section:
        """The skew bracket [[u_i, u_j]] - D<u_i, u_j>, the Dorfman
        bracket minus D of the pairing, once per (i, j)."""
        key = (i, j)
        value = self._courant.get(key)
        if value is None:
            q, u, v = self.q, self.frames[i], self.frames[j]
            value = self._courant[key] = self[key] - q.d_operator(q.pairing(u, v))
        return value


def standard_three_form(q: Quintuple) -> AForm:
    """The canonical 3-form of a quintuple on its ample algebroid."""
    patch, fiber = q.patch, q.fiber
    m, p = fiber.dim, patch.p
    comps: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Poly] = {}
    cartan = fiber.cartan_three_form()
    for gidx in combinations(range(1, m + 1), 3):
        i, j, k = gidx
        comps[(gidx, ())] = Poly.const(patch.n, cartan[i - 1][j - 1][k - 1])
    for k in range(1, m + 1):
        ek = q.fiber_elem(k).r
        for fidx in combinations(range(1, p + 1), 2):
            a, b = fidx
            comps[((k,), fidx)] = fiber.pairing(q.curv.get((a, b)), ek)
    for fidx in combinations(range(1, p + 1), 3):
        comps[((), fidx)] = q.hform.get(fidx)
    return AForm(patch, m, 3, comps)


def naive_differential(q: Quintuple, s: AForm) -> List[Tuple[Tuple[int, ...], Poly]]:
    """Tabulate the degenerate-pairing differential of a naive cochain.

    ``s`` is read as a naive cochain through the projection E -> A, to
    the r and x parts.  The table lists, for every strictly increasing
    (k+1)-wedge of the Courant frame, the ``frame_differential`` sum with
    the skew bracket of one ``FrameBrackets`` table.
    """
    table = q.frame_brackets()
    wedges = combinations(range(len(table.frames)), s.degree + 1)
    return frame_differential(q, s, table.frames, table.courant, wedges)


def naive_matches_ce(q: Quintuple, s: AForm) -> Report:
    """Compare the naive-differential table with the algebroid differential."""
    ds = ce_differential(q, s)
    syms = frame_symbols(q, q.frame_sections())
    check = Check("naive_matches_ce", "naive table minus algebroid differential")
    for wedge, value in naive_differential(q, s):
        args = [syms[t] for t in wedge]
        expected = q.zero_poly() if None in args else ds.eval_frame(args)
        check.add(tuple(t + 1 for t in wedge), value - expected)
    return Report([check.record()])
