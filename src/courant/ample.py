"""The ample Lie algebroid A = G + F and its form calculus.

This module is the first layer of the split Courant algebroid
E = F* + A (see :mod:`courant.dorfman`, which builds on it): the
quadratic Lie algebroid A = G + F is fixed by the patch, the fiber, a
connection on G and the curvature 2-form.  ``QuadAlgebroid`` owns the
whole A-structure: the vector field bracket, the anchor action,
nabla along a vector field, the R-contraction and the shape checks of
the data.  ``Quintuple`` extends it with the leafwise 3-form and the
F* part.

``Section`` (xi, r, x) is the one section type of E = F* + G + F; a
section of A is one with xi = 0, and A's structure maps read only r and
x.  The bracket is determined by the connection, the curvature 2-form
and the fiber bracket; the anchor projects to the x part, and a
``Hoist`` x -> J(x) + x splits it.  ``hoist_data`` reads the connection
and curvature that a hoist induces off the ample bracket; it lives
here, beside ``Hoist``, so that the shifts of :mod:`courant.morphism`
do not compile :mod:`courant.charform`.

Forms on A are stored by bigraded components: the value on
(e_{i_1},..,e_{i_s}, d/dx_{a_1},..,d/dx_{a_t}) with both index groups
strictly increasing and fiber arguments first; ``AForm`` shares the
container ``geometry.Form`` with ``FForm`` and ``GValuedForm``, and
adds the bigraded key check.  Evaluation on any
argument order resolves the permutation sign, and evaluation on
general sections expands multilinearly over the frame.
``frame_differential`` is the one Chevalley-Eilenberg sum on wedges of
frame sections: ``ce_differential`` runs it on the frame of A with the
ample bracket, the naive differential of :mod:`courant.dorfman` on the
Courant frame with the skew Dorfman bracket.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, List, Mapping, Sequence, Tuple

from .fiber import QuadLieAlgebra
from .geometry import Form, GConnection, GValuedForm, Patch, sort_with_sign
from .poly import Poly
from .report import Record


def live(u: Sequence[Poly]) -> bool:
    """True iff some component of ``u`` is nonzero."""
    for a in u:
        if a.num:
            return True
    return False


def add_live(u: Sequence[Poly], v: Sequence[Poly]) -> List[Poly]:
    """u + v componentwise; a zero entry of v leaves u's entry as it is."""
    return [a + b if b.num else a for a, b in zip(u, v)]


def sub_live(u: Sequence[Poly], v: Sequence[Poly]) -> List[Poly]:
    """u - v componentwise; a zero entry of v leaves u's entry as it is."""
    return [a - b if b.num else a for a, b in zip(u, v)]


class Section(Record):
    """A section xi + r + x of F* + G + F with polynomial components; a
    section of A is one with xi = 0."""

    __slots__ = _fields = ("xi", "r", "x")

    def __init__(self, xi: List[Poly], r: List[Poly], x: List[Poly]):
        self.xi = xi
        self.r = r
        self.x = x

    def __add__(self, other: "Section") -> "Section":
        return Section(
            add_live(self.xi, other.xi), add_live(self.r, other.r), add_live(self.x, other.x)
        )

    def __sub__(self, other: "Section") -> "Section":
        return Section(
            sub_live(self.xi, other.xi), sub_live(self.r, other.r), sub_live(self.x, other.x)
        )

    def scale(self, c) -> "Section":
        return Section(
            [a.scale(c) if a.num else a for a in self.xi],
            [a.scale(c) if a.num else a for a in self.r],
            [a.scale(c) if a.num else a for a in self.x],
        )

    def mul(self, f: Poly) -> "Section":
        comps = self.xi or self.r or self.x
        if comps:
            f._check_compat(comps[0])  # the ring check of the skipped f * 0
        return Section(
            [f * a if a.num else a for a in self.xi],
            [f * a if a.num else a for a in self.r],
            [f * a if a.num else a for a in self.x],
        )

    def is_zero(self) -> bool:
        return not (live(self.xi) or live(self.r) or live(self.x))

    def components(self) -> List[Poly]:
        return list(self.xi) + list(self.r) + list(self.x)


class QuadAlgebroid(Record):
    """Quadratic Lie algebroid data (patch, fiber, connection, curvature).

    The structure maps read only the ``r`` and ``x`` parts of their
    arguments, the projection of a section of E to A.
    """

    _fields = ("patch", "fiber", "conn", "curv")

    def __init__(
        self, patch: Patch, fiber: QuadLieAlgebra, conn: GConnection, curv: GValuedForm
    ):
        if conn.patch != patch or conn.dim != fiber.dim:
            raise ValueError("connection shape does not match patch/fiber")
        if curv.patch != patch or curv.dim != fiber.dim or curv.degree != 2:
            raise ValueError("curvature must be a fiber-valued 2-form on the patch")
        self.patch = patch
        self.fiber = fiber
        self.conn = conn
        self.curv = curv
        p = patch.p
        # dense antisymmetric lookup for the bracket hot path
        self._r = [
            [curv.get((a, b)) for b in range(1, p + 1)] for a in range(1, p + 1)
        ]
        # the nonzero entries (k, R_ab^k) of each R_ab
        self._r_terms = [[[(k, v) for k, v in enumerate(vec) if v] for vec in row] for row in self._r]
        self._zero = Poly.zero(patch.n)

    @staticmethod
    def of(q: "QuadAlgebroid") -> "QuadAlgebroid":
        """The ample algebroid alone, e.g. of a quintuple."""
        return QuadAlgebroid(q.patch, q.fiber, q.conn, q.curv)

    # -- sections -----------------------------------------------------------

    def zero_poly(self) -> Poly:
        return self._zero

    def zero_section(self) -> Section:
        z = self._zero
        return Section([z] * self.patch.p, [z] * self.fiber.dim, [z] * self.patch.p)

    def fiber_elem(self, i: int):
        s = self.zero_section()
        s.r[i - 1] = self.patch.one()
        return s

    def coord(self, a: int):
        """The frame vector section d/dx_a."""
        s = self.zero_section()
        s.x[a - 1] = self.patch.one()
        return s

    # -- structure maps -----------------------------------------------------

    def anchor_apply(self, u, f: Poly) -> Poly:
        """rho(u) f = sum_a x^a d_a f."""
        acc = self._zero
        if not f.num:
            return acc
        for a, xa in enumerate(u.x, start=1):
            if xa.num:
                d = f.diff(a)
                if d.num:
                    acc = acc + xa * d
        return acc

    def nabla(self, a: int, r: Sequence[Poly]) -> List[Poly]:
        return self.conn.apply(a, r)

    def nabla_along(self, x: Sequence[Poly], r: Sequence[Poly]) -> List[Poly]:
        """nabla_x r for a leafwise vector field x."""
        return self.conn.along(x, r)

    def vf_bracket(self, x1: Sequence[Poly], x2: Sequence[Poly]) -> List[Poly]:
        """[x1, x2]^b = sum_a x1^a d_a x2^b - x2^a d_a x1^b."""
        out = []
        for f1, f2 in zip(x1, x2):
            acc = self._zero
            for a, (g1, g2) in enumerate(zip(x1, x2), start=1):
                if g1.num and f2.num:
                    d = f2.diff(a)
                    if d.num:
                        acc = acc + g1 * d
                if g2.num and f1.num:
                    d = f1.diff(a)
                    if d.num:
                        acc = acc - g2 * d
            out.append(acc)
        return out

    def curv_contract(self, x1: Sequence[Poly], x2: Sequence[Poly]) -> List[Poly]:
        """R(x1, x2) as an m-vector."""
        out = [self._zero] * self.fiber.dim
        for f1, row in zip(x1, self._r_terms):
            if not f1.num:
                continue
            for f2, terms in zip(x2, row):
                if f2.num and terms:
                    coeff = f1 * f2
                    for k, v in terms:
                        out[k] = out[k] + coeff * v
        return out

    # -- bracket -----------------------------------------------------------

    def bracket(self, u, v) -> Section:
        """[r1 + x1, r2 + x2] = [r1,r2] + R(x1,x2) + nabla_{x1} r2 - nabla_{x2} r1
        on the fiber side and the vector field bracket on the leaf side."""
        r, x = self._bracket(u, v, live(u.x), live(v.x), live(u.r), live(v.r))
        return Section([self._zero] * self.patch.p, r, x)

    def _bracket(self, u, v, x1_live, x2_live, r1_live, r2_live) -> Tuple[List[Poly], List[Poly]]:
        """The (r, x) parts of the bracket, given which of x1, x2, r1, r2
        are nonzero.

        This is also the G + F part of the Dorfman bracket, its hot path:
        the caller computes the flags once for both parts, and terms with
        a zero factor are skipped rather than computed.
        """
        zero = self._zero
        if x1_live or x2_live:
            x_out = self.vf_bracket(u.x, v.x)
        else:
            x_out = [zero] * self.patch.p
        if r1_live and r2_live:
            r_out = self.fiber.bracket(u.r, v.r)
        else:
            r_out = [zero] * self.fiber.dim
        if x1_live and x2_live:
            r_out = add_live(r_out, self.curv_contract(u.x, v.x))
        if x1_live and r2_live:
            r_out = add_live(r_out, self.nabla_along(u.x, v.r))
        if x2_live and r1_live:
            r_out = sub_live(r_out, self.nabla_along(v.x, u.r))
        return r_out, x_out


class Hoist(Record):
    """A splitting x -> J(x) + x of A's anchor, encoded by the fiber-valued
    1-form J."""

    _fields = ("j",)

    def __init__(self, j: GValuedForm):
        if j.degree != 1:
            raise ValueError("hoist data must be a fiber-valued 1-form")
        self.j = j

    @staticmethod
    def standard(patch: Patch, dim: int) -> "Hoist":
        return Hoist(GValuedForm.zero(patch, dim, 1))

    def column(self, a: int) -> List[Poly]:
        return self.j.get((a,))

    def section(self, alg: QuadAlgebroid, a: int) -> Section:
        s = alg.coord(a)
        s.r = self.column(a)
        return s


def hoist_data(alg: QuadAlgebroid, h: Hoist) -> Tuple[GConnection, GValuedForm]:
    """Connection and curvature induced by a hoist via the ample bracket.

    The one source for what a hoist induces: the coherence conditions,
    ``build_from_pair`` and the hoist and central shifts all read it."""
    patch, m = alg.patch, alg.fiber.dim
    p = patch.p
    gamma = []
    for a in range(1, p + 1):
        ja = h.column(a)
        ad_j = alg.fiber.ad_matrix(ja)
        base = alg.conn.gamma[a - 1]
        gamma.append([[base[i][j] + ad_j[i][j] for j in range(m)] for i in range(m)])
    conn = GConnection(patch, m, gamma)
    comps = {}
    for a, b in combinations(range(1, p + 1), 2):
        # R(d_a, d_b) is the fiber part of [kappa d_a, kappa d_b]: [d_a, d_b] = 0
        comps[(a, b)] = alg.bracket(h.section(alg, a), h.section(alg, b)).r
    curv = GValuedForm(patch, m, 2, comps)
    return conn, curv


FrameSym = Tuple[str, int]


class AForm(Form):
    """k-form on the ample algebroid, stored by bigraded components.

    Keys are (fiber index tuple, leaf index tuple), both strictly
    increasing and 1-based; the stored value is the form evaluated on
    the corresponding frame elements with all fiber arguments first.
    """

    def __init__(
        self,
        patch: Patch,
        dim: int,
        degree: int,
        comps: Mapping[Tuple[Tuple[int, ...], Tuple[int, ...]], Poly] = (),
    ):
        self.dim = dim
        super().__init__(patch, degree, comps)

    def _check(self, key, value):
        gidx, fidx = key
        gidx, fidx = tuple(gidx), tuple(fidx)
        if len(gidx) + len(fidx) != self.degree:
            raise ValueError("component %r has wrong arity" % ((gidx, fidx),))
        if list(gidx) != sorted(set(gidx)) or list(fidx) != sorted(set(fidx)):
            raise ValueError("component keys must be strictly increasing")
        if any(not 1 <= i <= self.dim for i in gidx) or any(
            not 1 <= a <= self.patch.p for a in fidx
        ):
            raise ValueError("component index out of range")
        return (gidx, fidx), value

    def eval_frame(self, args: Sequence[FrameSym]) -> Poly:
        """Value on frame symbols in any order; repeats give zero."""
        if len(args) != self.degree:
            raise ValueError("wrong number of arguments")
        ranked = [(0, idx) if kind == "g" else (1, idx) for kind, idx in args]
        key, sign = sort_with_sign(ranked)
        gidx = tuple(idx for rank, idx in key if rank == 0)
        fidx = tuple(idx for rank, idx in key if rank == 1)
        return self._signed((gidx, fidx), sign)

    def eval_sections(self, args: Sequence[Section]) -> Poly:
        """Multilinear evaluation on sections with Poly components, through
        their r and x parts."""
        if len(args) != self.degree:
            raise ValueError("wrong number of arguments")
        return self._expand(args, 0, [])

    def _expand(self, args, pos, frame_args) -> Poly:
        if pos == len(args):
            return self.eval_frame(frame_args)
        total = self.patch.zero()
        sec = args[pos]
        for i, coeff in enumerate(sec.r, start=1):
            if coeff:
                sub = self._expand(args, pos + 1, frame_args + [("g", i)])
                if sub:
                    total = total + coeff * sub
        for a, coeff in enumerate(sec.x, start=1):
            if coeff:
                sub = self._expand(args, pos + 1, frame_args + [("f", a)])
                if sub:
                    total = total + coeff * sub
        return total

    def _label(self, key) -> str:
        gidx, fidx = key
        return "^".join(["e%d" % i for i in gidx] + ["dx%d" % a for a in fidx])


def aform_keys(patch: Patch, dim: int, degree: int):
    """All bigraded component keys of a given degree, in sorted order."""
    keys = []
    for gcount in range(min(dim, degree), -1, -1):
        fcount = degree - gcount
        if fcount > patch.p:
            continue
        for gidx in combinations(range(1, dim + 1), gcount):
            for fidx in combinations(range(1, patch.p + 1), fcount):
                keys.append((gidx, fidx))
    return sorted(keys)


def _asyms(alg: QuadAlgebroid) -> List[FrameSym]:
    """The frame symbols of A in the order of the r and x parts."""
    m, p = alg.fiber.dim, alg.patch.p
    return [("g", i) for i in range(1, m + 1)] + [("f", a) for a in range(1, p + 1)]


def frame_symbols(alg: QuadAlgebroid, frames: Sequence) -> List:
    """Each frame's symbol, its one nonzero r or x component (a unit), or
    None for a frame with neither (delta^a): every form on A vanishes there."""
    asyms = _asyms(alg)
    return [next((sym for coeff, sym in zip(u.r + u.x, asyms) if coeff.num), None) for u in frames]


def frame_differential(
    alg: QuadAlgebroid, w: AForm, frames: Sequence, bracket: Callable, wedges
) -> List[Tuple[Sequence[int], Poly]]:
    """[(wedge, value)] of the Chevalley-Eilenberg sum of ``w`` on each
    wedge (u_0, .., u_k) of ``frames``, given by increasing frame indices:

        sum_pos (-1)^pos rho(u_pos) w(.., u_pos omitted, ..)
        + sum_{i<j} (-1)^(i+j) w([u_i, u_j], .., u_i, u_j omitted, ..).

    ``w`` reads a frame through ``eval_frame`` at its ``frame_symbols``
    entry; a frame without one gives zero.  ``bracket(s, t)``
    is called once per increasing pair of frame indices, and its result
    enters through its r and x parts, its projection to A.
    """
    if w.patch != alg.patch or w.dim != alg.fiber.dim:
        raise ValueError("form does not live on this algebroid")
    asyms = _asyms(alg)
    syms = frame_symbols(alg, frames)
    brackets = {}
    for s, t in combinations(range(len(frames)), 2):
        br = bracket(s, t)
        terms = [(coeff, sym) for coeff, sym in zip(br.r + br.x, asyms) if coeff.num]
        if terms:
            brackets[(s, t)] = terms
    # every wedge has degree + 1 frames: its pairs (i, j) and the other positions
    pairs = [(i, j, [k for k in range(w.degree + 1) if k != i and k != j])
             for i, j in combinations(range(w.degree + 1), 2)]
    zero = alg.zero_poly()
    out = []
    for wedge in wedges:
        args = [syms[k] for k in wedge]
        total = zero
        # a frame without a symbol has zero anchor, and w vanishes on it
        if None not in args:
            for pos, k in enumerate(wedge):
                value = alg.anchor_apply(frames[k], w.eval_frame(args[:pos] + args[pos + 1:]))
                if value.num:
                    total = total + value if pos % 2 == 0 else total - value
        for i, j, others in pairs:
            terms = brackets.get((wedge[i], wedge[j]))
            if terms is None:
                continue
            rest = [args[k] for k in others]
            if None in rest:
                continue
            acc = zero
            for coeff, sym in terms:
                sub = w.eval_frame([sym] + rest)
                if sub.num:
                    acc = acc + coeff * sub
            if acc.num:
                total = total + acc if (i + j) % 2 == 0 else total - acc
        out.append((wedge, total))
    return out


def ce_differential(alg: QuadAlgebroid, w: AForm) -> AForm:
    """Lie algebroid differential of a form on A: ``frame_differential``
    on the frame e_1..e_m, d/dx_1..d/dx_p with the ample bracket, so the
    differential uses the same A-structure as the Dorfman bracket."""
    m, p = alg.fiber.dim, alg.patch.p
    frames = [alg.fiber_elem(i) for i in range(1, m + 1)] + [alg.coord(a) for a in range(1, p + 1)]
    keys = aform_keys(alg.patch, m, w.degree + 1)
    wedges = [[i - 1 for i in gidx] + [m + a - 1 for a in fidx] for gidx, fidx in keys]
    table = frame_differential(alg, w, frames, lambda s, t: alg.bracket(frames[s], frames[t]), wedges)
    # zero values skip the constructor's key checks
    return AForm(alg.patch, m, w.degree + 1, {key: v for key, (_, v) in zip(keys, table) if v})

