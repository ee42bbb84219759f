"""Command line interface: config parsing, command dispatch, reporting.

The config format is a flat key-value text file with section headers.
Every key is fully dotted and must live under its own section header;
unspecified components are zero.  Polynomial values use the expression
grammar of :mod:`courant.poly` and may be double-quoted.  See the
README for the complete key reference.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 input
error (I/O, syntax, shape or a missing config block).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from .ample import AForm, QuadAlgebroid, ce_differential
from .charform import (
    CharPair,
    Hoist,
    build_from_pair,
    characteristic_pair_of,
    e_connection_form,
    find_hoist,
    standard_three_form,
)
from .dorfman import Quintuple, naive_matches_ce
from .fiber import QuadLieAlgebra
from .geometry import FConnection, FForm, GConnection, GValuedForm, Patch
from .morphism import (
    IsoData,
    central_shift_iso,
    coboundary_identity_check,
    hoist_shift_iso,
    intertwining_report,
    omega_shift_iso,
    transport,
    validate_iso,
)
from .poly import Poly, PolyParseError, parse_poly
from .report import Check, Record, Report, Witness

SECTIONS = (
    "base",
    "fiber",
    "connection",
    "curvature",
    "hform",
    "nabla_f",
    "iso",
    "hoist",
    "omega",
    "cform",
)

COMMANDS = (
    "check",
    "axioms",
    "charform",
    "chernweil",
    "pontryagin",
    "coherent",
    "build",
    "roundtrip",
    "transport",
    "shift",
    "naive",
)

# Shape ceilings of a config, above every shipped or tested config
# (n <= 4, m <= 3).  Without them a long integer escapes as OverflowError
# and fiber.dim = 3000 exhausts memory on the m^3 bracket table.
MAX_BASE_DIM = 8
MAX_FIBER_DIM = 16


class ConfigError(ValueError):
    """Input error with a file location; maps to exit code 2."""

    def __init__(self, message: str, line: Optional[int] = None, key: Optional[str] = None):
        loc = []
        if line is not None:
            loc.append("line %d" % line)
        if key is not None:
            loc.append("key %s" % key)
        suffix = (" (%s)" % ", ".join(loc)) if loc else ""
        super().__init__(message + suffix)
        self.line = line
        self.key = key


class Config(Record):
    """A parsed config; each optional block is None when its section is absent."""

    _fields = ("patch", "fiber", "conn", "curv", "hform", "nabla_f", "iso", "hoist", "omega", "cform")

    def __init__(
        self,
        patch: Patch,
        fiber: QuadLieAlgebra,
        conn: GConnection,
        curv: GValuedForm,
        hform: FForm,
        nabla_f: Optional[FConnection] = None,
        iso: Optional[IsoData] = None,
        hoist: Optional[Hoist] = None,
        omega: Optional[FForm] = None,
        cform: Optional[AForm] = None,
    ):
        self.patch = patch
        self.fiber = fiber
        self.conn = conn
        self.curv = curv
        self.hform = hform
        self.nabla_f = nabla_f
        self.iso = iso
        self.hoist = hoist
        self.omega = omega
        self.cform = cform

    def quintuple(self) -> Quintuple:
        return Quintuple(self.patch, self.fiber, self.conn, self.curv, self.hform)


def _parse_entries(text: str) -> Tuple[Dict[str, Tuple[str, int]], Set[str]]:
    """Key -> (raw value, line number), enforcing section membership, and
    the names of the sections present, empty ones included."""
    entries: Dict[str, Tuple[str, int]] = {}
    sections: Set[str] = set()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise ConfigError("unknown section [%s]" % name, lineno)
            section = name
            sections.add(name)
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            raise ConfigError("key outside any section", lineno)
        if not key.startswith(section + "."):
            raise ConfigError(
                "key does not belong to section [%s]" % section, lineno, key
            )
        if len(value) >= 2 and value[0] == '"' and value[-1] == '"':
            value = value[1:-1]
        if key in entries:
            raise ConfigError("duplicate key", lineno, key)
        entries[key] = (value, lineno)
    return entries, sections


def _key_parts(key: str, expected: int, lineno: int) -> List[int]:
    parts = key.split(".")
    idx = parts[-expected:]
    try:
        return [int(t) for t in idx]
    except ValueError:
        raise ConfigError("expected integer indices", lineno, key)


def _parse_poly_value(value: str, nvars: int, lineno: int, key: str) -> Poly:
    try:
        return parse_poly(value, nvars)
    except PolyParseError as exc:
        raise ConfigError("bad polynomial %r: %s" % (value, exc), lineno, key)


def _parse_rational_value(value: str, lineno: int, key: str) -> Fraction:
    poly = _parse_poly_value(value, 0, lineno, key)
    return poly.constant_value()


def _parse_int(entries, key: str) -> int:
    if key not in entries:
        raise ConfigError("missing required key", None, key)
    value, lineno = entries[key]
    try:
        return int(value)
    except ValueError:
        raise ConfigError("expected an integer, got %r" % value, lineno, key)


def parse_config_text(text: str) -> Config:
    entries, saw = _parse_entries(text)
    n = _parse_int(entries, "base.n")
    if not 0 <= n <= MAX_BASE_DIM:
        raise ConfigError("need 0 <= n <= %d" % MAX_BASE_DIM, None, "base.n")
    p = _parse_int(entries, "base.p")
    if not 0 <= p <= n:
        raise ConfigError("need 0 <= p <= n", None, "base.p")
    patch = Patch(n, p)
    m = _parse_int(entries, "fiber.dim")
    if not 0 <= m <= MAX_FIBER_DIM:
        raise ConfigError("need 0 <= fiber.dim <= %d" % MAX_FIBER_DIM, None, "fiber.dim")

    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    g = [[Fraction(0)] * m for _ in range(m)]
    gamma = [[[Poly.zero(n) for _ in range(m)] for _ in range(m)] for _ in range(p)]
    curv_comps: Dict[Tuple[int, ...], List[Poly]] = {}
    h_comps: Dict[Tuple[int, ...], Poly] = {}
    fc_gamma = [[[Poly.zero(n) for _ in range(p)] for _ in range(p)] for _ in range(p)]
    tau = None
    phi_comps: Dict[Tuple[int, ...], List[Poly]] = {}
    beta = None
    hoist_comps: Dict[Tuple[int, ...], List[Poly]] = {}
    omega_comps: Dict[Tuple[int, ...], Poly] = {}
    cform_comps: Dict[Tuple[Tuple[int, ...], Tuple[int, ...]], Poly] = {}

    def want(idx: int, upper: int, key: str, lineno: int, what: str) -> None:
        if not 1 <= idx <= upper:
            raise ConfigError("%s index %d out of range 1..%d" % (what, idx, upper), lineno, key)

    for key, (value, lineno) in entries.items():
        if key in ("base.n", "base.p", "fiber.dim"):
            continue
        if key.startswith("fiber.bracket."):
            i, j, k = _key_parts(key, 3, lineno)
            for t in (i, j, k):
                want(t, m, key, lineno, "fiber")
            c[i - 1][j - 1][k - 1] = _parse_rational_value(value, lineno, key)
        elif key.startswith("fiber.metric."):
            i, j = _key_parts(key, 2, lineno)
            for t in (i, j):
                want(t, m, key, lineno, "fiber")
            g[i - 1][j - 1] = _parse_rational_value(value, lineno, key)
        elif key.startswith("connection.gamma."):
            a, i, j = _key_parts(key, 3, lineno)
            want(a, p, key, lineno, "leaf")
            want(i, m, key, lineno, "fiber")
            want(j, m, key, lineno, "fiber")
            gamma[a - 1][i - 1][j - 1] = _parse_poly_value(value, n, lineno, key)
        elif key.startswith("curvature.R."):
            a, b, k = _key_parts(key, 3, lineno)
            want(a, p, key, lineno, "leaf")
            want(b, p, key, lineno, "leaf")
            want(k, m, key, lineno, "fiber")
            if a >= b:
                raise ConfigError(
                    "curvature component requires a < b; diagonal or descending "
                    "components must be absent (antisymmetry stores a < b only)",
                    lineno,
                    key,
                )
            vec = curv_comps.setdefault((a, b), [Poly.zero(n)] * m)
            vec[k - 1] = _parse_poly_value(value, n, lineno, key)
        elif key.startswith("hform.H."):
            a, b, cc = _key_parts(key, 3, lineno)
            for t in (a, b, cc):
                want(t, p, key, lineno, "leaf")
            if not a < b < cc:
                raise ConfigError("component requires a < b < c", lineno, key)
            h_comps[(a, b, cc)] = _parse_poly_value(value, n, lineno, key)
        elif key.startswith("nabla_f.gamma."):
            a, b, cc = _key_parts(key, 3, lineno)
            for t in (a, b, cc):
                want(t, p, key, lineno, "leaf")
            fc_gamma[a - 1][b - 1][cc - 1] = _parse_poly_value(value, n, lineno, key)
        elif key.startswith("iso.tau."):
            i, j = _key_parts(key, 2, lineno)
            want(i, m, key, lineno, "fiber")
            want(j, m, key, lineno, "fiber")
            if tau is None:
                tau = [[Poly.zero(n) for _ in range(m)] for _ in range(m)]
            tau[i - 1][j - 1] = _parse_poly_value(value, n, lineno, key)
        elif key.startswith("iso.phi."):
            a, k = _key_parts(key, 2, lineno)
            want(a, p, key, lineno, "leaf")
            want(k, m, key, lineno, "fiber")
            vec = phi_comps.setdefault((a,), [Poly.zero(n)] * m)
            vec[k - 1] = _parse_poly_value(value, n, lineno, key)
        elif key.startswith("iso.beta."):
            a, b = _key_parts(key, 2, lineno)
            want(a, p, key, lineno, "leaf")
            want(b, p, key, lineno, "leaf")
            if beta is None:
                beta = [[Poly.zero(n) for _ in range(p)] for _ in range(p)]
            # iso.beta.a.b is <beta(d_a)|d_b>, stored at row b, column a
            beta[b - 1][a - 1] = _parse_poly_value(value, n, lineno, key)
        elif key.startswith("hoist.J."):
            a, k = _key_parts(key, 2, lineno)
            want(a, p, key, lineno, "leaf")
            want(k, m, key, lineno, "fiber")
            vec = hoist_comps.setdefault((a,), [Poly.zero(n)] * m)
            vec[k - 1] = _parse_poly_value(value, n, lineno, key)
        elif key.startswith("omega.w."):
            a, b = _key_parts(key, 2, lineno)
            want(a, p, key, lineno, "leaf")
            want(b, p, key, lineno, "leaf")
            if not a < b:
                raise ConfigError("component requires a < b", lineno, key)
            omega_comps[(a, b)] = _parse_poly_value(value, n, lineno, key)
        elif key.startswith("cform."):
            kind = key.split(".")[1]
            if kind == "ggg":
                i, j, k = _key_parts(key, 3, lineno)
                for t in (i, j, k):
                    want(t, m, key, lineno, "fiber")
                if not i < j < k:
                    raise ConfigError("component requires i < j < k", lineno, key)
                cform_comps[((i, j, k), ())] = _parse_poly_value(value, n, lineno, key)
            elif kind == "ggf":
                i, j, a = _key_parts(key, 3, lineno)
                want(i, m, key, lineno, "fiber")
                want(j, m, key, lineno, "fiber")
                want(a, p, key, lineno, "leaf")
                if not i < j:
                    raise ConfigError("component requires i < j", lineno, key)
                cform_comps[((i, j), (a,))] = _parse_poly_value(value, n, lineno, key)
            elif kind == "gff":
                i, a, b = _key_parts(key, 3, lineno)
                want(i, m, key, lineno, "fiber")
                want(a, p, key, lineno, "leaf")
                want(b, p, key, lineno, "leaf")
                if not a < b:
                    raise ConfigError("component requires a < b", lineno, key)
                cform_comps[((i,), (a, b))] = _parse_poly_value(value, n, lineno, key)
            elif kind == "fff":
                a, b, cc = _key_parts(key, 3, lineno)
                for t in (a, b, cc):
                    want(t, p, key, lineno, "leaf")
                if not a < b < cc:
                    raise ConfigError("component requires a < b < c", lineno, key)
                cform_comps[((), (a, b, cc))] = _parse_poly_value(value, n, lineno, key)
            else:
                raise ConfigError("unknown cform component group %r" % kind, lineno, key)
        else:
            raise ConfigError("unknown key", lineno, key)

    fiber = QuadLieAlgebra(m, c, g)
    conn = GConnection(patch, m, gamma)
    curv = GValuedForm(patch, m, 2, curv_comps)
    hform = FForm(patch, 3, h_comps)
    cfg = Config(patch, fiber, conn, curv, hform)
    if "nabla_f" in saw:
        cfg.nabla_f = FConnection(patch, fc_gamma)
    if "iso" in saw:
        if tau is None:
            tau = [
                [Poly.const(n, 1 if i == j else 0) for j in range(m)] for i in range(m)
            ]
        if beta is None:
            beta = [[Poly.zero(n) for _ in range(p)] for _ in range(p)]
        cfg.iso = IsoData(tau, GValuedForm(patch, m, 1, phi_comps), beta)
    if "hoist" in saw:
        cfg.hoist = Hoist(GValuedForm(patch, m, 1, hoist_comps))
    if "omega" in saw:
        cfg.omega = FForm(patch, 2, omega_comps)
    if "cform" in saw:
        cfg.cform = AForm(patch, m, 3, cform_comps)
    return cfg


def parse_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    return parse_config_text(text)


def config_to_text(cfg: Config) -> str:
    """Canonical config serialization; parse(config_to_text(c)) == c."""
    n, p, m = cfg.patch.n, cfg.patch.p, cfg.fiber.dim
    out = ["[base]", "base.n = %d" % n, "base.p = %d" % p, "", "[fiber]", "fiber.dim = %d" % m]

    def rat(v) -> str:
        f = Fraction(v)
        return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)

    for i in range(m):
        for j in range(m):
            for k in range(m):
                if cfg.fiber.c[i][j][k]:
                    out.append(
                        'fiber.bracket.%d.%d.%d = "%s"' % (i + 1, j + 1, k + 1, rat(cfg.fiber.c[i][j][k]))
                    )
    for i in range(m):
        for j in range(m):
            if cfg.fiber.g[i][j]:
                out.append('fiber.metric.%d.%d = "%s"' % (i + 1, j + 1, rat(cfg.fiber.g[i][j])))
    rows = []
    for a in range(p):
        for i in range(m):
            for j in range(m):
                if cfg.conn.gamma[a][i][j]:
                    rows.append('connection.gamma.%d.%d.%d = "%s"' % (a + 1, i + 1, j + 1, cfg.conn.gamma[a][i][j]))
    if rows:
        out += ["", "[connection]"] + rows
    rows = []
    for key in cfg.curv.keys():
        vec = cfg.curv.comps[key]
        for k in range(m):
            if vec[k]:
                rows.append('curvature.R.%d.%d.%d = "%s"' % (key[0], key[1], k + 1, vec[k]))
    if rows:
        out += ["", "[curvature]"] + rows
    rows = []
    for key in cfg.hform.keys():
        rows.append('hform.H.%d.%d.%d = "%s"' % (key[0], key[1], key[2], cfg.hform.comps[key]))
    if rows:
        out += ["", "[hform]"] + rows
    if cfg.nabla_f is not None:
        rows = []
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    if cfg.nabla_f.christoffel[a][b][c]:
                        rows.append('nabla_f.gamma.%d.%d.%d = "%s"' % (a + 1, b + 1, c + 1, cfg.nabla_f.christoffel[a][b][c]))
        out += ["", "[nabla_f]"] + rows
    if cfg.iso is not None:
        rows = []
        for i in range(m):
            for j in range(m):
                if cfg.iso.tau[i][j]:
                    rows.append('iso.tau.%d.%d = "%s"' % (i + 1, j + 1, cfg.iso.tau[i][j]))
        for a in range(1, p + 1):
            col = cfg.iso.phi_col(a)
            for k in range(m):
                if col[k]:
                    rows.append('iso.phi.%d.%d = "%s"' % (a, k + 1, col[k]))
        for a in range(1, p + 1):
            for b in range(1, p + 1):
                if cfg.iso.beta[b - 1][a - 1]:
                    rows.append('iso.beta.%d.%d = "%s"' % (a, b, cfg.iso.beta[b - 1][a - 1]))
        out += ["", "[iso]"] + rows
    if cfg.hoist is not None:
        rows = []
        for a in range(1, p + 1):
            col = cfg.hoist.column(a)
            for k in range(m):
                if col[k]:
                    rows.append('hoist.J.%d.%d = "%s"' % (a, k + 1, col[k]))
        out += ["", "[hoist]"] + rows
    if cfg.omega is not None:
        rows = []
        for key in cfg.omega.keys():
            rows.append('omega.w.%d.%d = "%s"' % (key[0], key[1], cfg.omega.comps[key]))
        out += ["", "[omega]"] + rows
    if cfg.cform is not None:
        rows = []
        for gidx, fidx in cfg.cform.keys():
            kind = "g" * len(gidx) + "f" * len(fidx)
            idx = ".".join(str(t) for t in gidx + fidx)
            rows.append('cform.%s.%s = "%s"' % (kind, idx, cfg.cform.comps[(gidx, fidx)]))
        out += ["", "[cform]"] + rows
    return "\n".join(out) + "\n"


# -- commands ----------------------------------------------------------------


def _emit(report: Report, prefix: str, entries) -> None:
    """A passing record ``prefix.i.j..`` per nonzero (indices, value)."""
    for indices, value in entries:
        if value:
            name = "%s.%s" % (prefix, ".".join(str(t) for t in indices))
            report.add_pass(name, Witness("component", indices, str(value)))


def _emit_aform(report: Report, prefix: str, form: AForm) -> None:
    for gidx, fidx in form.keys():
        kind = "g" * len(gidx) + "f" * len(fidx)
        _emit(report, "%s.%s" % (prefix, kind), [(gidx + fidx, form.comps[(gidx, fidx)])])


def _emit_fform(report: Report, prefix: str, form: FForm) -> None:
    _emit(report, prefix, ((key, form.comps[key]) for key in form.keys()))


def _require(cfg_piece, what: str):
    if cfg_piece is None:
        raise ConfigError("command requires the [%s] config block" % what)
    return cfg_piece


def _linear_symmetric_fconnection(patch: Patch) -> FConnection:
    p, n = patch.p, patch.n
    gamma = [[[Poly.zero(n) for _ in range(p)] for _ in range(p)] for _ in range(p)]
    for a in range(p):
        for c in range(p):
            gamma[a][a][c] = Poly.variable(n, c + 1)
    return FConnection(patch, gamma)


def run_command(cmd: str, cfg: Config, degree: int = 2, seed: int = 0, kind: str = "") -> Report:
    """Execute one verification command; deterministic for fixed inputs.

    ``seed`` is accepted for interface stability; the shipped commands
    are fully deterministic and do not sample.
    """
    del seed
    q = cfg.quintuple()
    report = Report()

    if cmd == "check":
        report.extend(cfg.fiber.validate())
        report.extend(q.validate())
        report.extend(q.check_axioms(degree))
    elif cmd == "axioms":
        report.extend(q.check_axioms(degree))
    elif cmd == "charform":
        form = standard_three_form(q)
        closed = Check("charform_closed", "dC_s")
        closed.add_form(ce_differential(q, form))
        report.add(closed.record())
        _emit_aform(report, "C_s", form)
    elif cmd == "chernweil":
        target = standard_three_form(q)
        plans = [("gamma_zero", FConnection.flat(cfg.patch)), ("gamma_linear", _linear_symmetric_fconnection(cfg.patch))]
        if cfg.nabla_f is not None:
            if not cfg.nabla_f.is_torsion_free():
                raise ConfigError("nabla_f must be torsion-free", None, "nabla_f.gamma")
            plans.append(("nabla_f", cfg.nabla_f))
        for label, fc in plans:
            match = Check("chernweil_matches_standard_%s" % label, "C_nablaE - C_s")
            match.add_form(e_connection_form(q, fc) - target)
            report.add(match.record())
        _emit_aform(report, "C_nablaE", e_connection_form(q, FConnection.flat(cfg.patch)))
    elif cmd == "pontryagin":
        rr, check = q.pontryagin_identity()
        report.add(check.record())
        _emit_fform(report, "RR", rr)
    elif cmd == "coherent":
        cform = _require(cfg.cform, "cform")
        alg = QuadAlgebroid.of(q)
        search = find_hoist(alg, cform)
        report.extend(search.report)
        if search.hoist is not None:
            cols = [(a, search.hoist.column(a)) for a in range(1, cfg.patch.p + 1)]
            _emit(report, "hoist.J", [((a, k + 1), v) for a, col in cols for k, v in enumerate(col)])
    elif cmd == "build":
        cform = _require(cfg.cform, "cform")
        alg = QuadAlgebroid.of(q)
        if cfg.hoist is not None:
            hoist = cfg.hoist
        else:
            search = find_hoist(alg, cform)
            if search.hoist is None:
                report.extend(search.report)
                return report
            hoist = search.hoist
        try:
            built = build_from_pair(CharPair(alg, cform), hoist)
        except ValueError as exc:
            report.add_fail("build_coherent", Witness(str(exc), (), "1"))
            return report
        report.add_pass("build_coherent")
        report.extend(built.validate().renamed("built_%s"))
        m = cfg.fiber.dim
        gamma = [((a + 1, i + 1, j + 1), built.conn.gamma[a][i][j])
                 for a in range(cfg.patch.p) for i in range(m) for j in range(m)]
        _emit(report, "built.gamma", gamma)
        curv = [(key + (k + 1,), v) for key in built.curv.keys() for k, v in enumerate(built.curv.comps[key])]
        _emit(report, "built.R", curv)
        _emit_fform(report, "built.H", built.hform)
    elif cmd == "roundtrip":
        pair = characteristic_pair_of(q)
        rebuilt = build_from_pair(pair, Hoist.standard(cfg.patch, cfg.fiber.dim))
        for label, same in (
            ("roundtrip_connection", rebuilt.conn == q.conn),
            ("roundtrip_curvature", rebuilt.curv == q.curv),
            ("roundtrip_hform", rebuilt.hform == q.hform),
        ):
            if same:
                report.add_pass(label)
            else:
                report.add_fail(label, Witness("component mismatch", (), "1"))
    elif cmd == "transport":
        iso = _require(cfg.iso, "iso")
        report.extend(validate_iso(cfg.patch, cfg.fiber, iso))
        if not report.ok:
            return report
        moved = transport(q, iso)
        report.extend(moved.validate().renamed("target_%s"))
        report.extend(intertwining_report(q, moved, iso, degree_cap=degree))
        report.extend(coboundary_identity_check(q, iso))
    elif cmd == "shift":
        if kind == "hoist":
            hoist = _require(cfg.hoist, "hoist")
            iso, predicted = hoist_shift_iso(q, hoist.j)
        elif kind == "omega":
            omega = _require(cfg.omega, "omega")
            iso, predicted = omega_shift_iso(q, omega)
        elif kind == "central":
            hoist = _require(cfg.hoist, "hoist")
            try:
                iso, predicted = central_shift_iso(q, hoist.j)
            except ValueError as exc:
                report.add_fail("shift_hypotheses", Witness(str(exc), (), "1"))
                return report
        else:
            raise ConfigError("unknown shift kind %r" % kind)
        report.add_pass("shift_hypotheses")
        moved = transport(q, iso)
        for label, same in (
            ("shift_connection_matches", moved.conn == predicted.conn),
            ("shift_curvature_matches", moved.curv == predicted.curv),
            ("shift_hform_matches", moved.hform == predicted.hform),
        ):
            if same:
                report.add_pass(label)
            else:
                report.add_fail(label, Witness("transport differs from prediction", (), "1"))
        report.extend(predicted.validate().renamed("target_%s"))
    elif cmd == "naive":
        forms = [("C_s", standard_three_form(q))]
        if cfg.cform is not None:
            forms.append(("cform", cfg.cform))
        for label, form in forms:
            report.extend(naive_matches_ce(q, form).renamed("%s_" + label))
    else:
        raise ConfigError("unknown command %r" % cmd)
    return report


def emit_report(report: Report, fmt: str = "text") -> str:
    if fmt == "json":
        return report.to_json()
    if fmt == "text":
        return report.to_text()
    raise ConfigError("unknown format %r" % fmt)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="courant",
        description="Exact verification of split-form regular Courant algebroids.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--degree", type=int, default=2)
    parser.add_argument("--kind", choices=("hoist", "omega", "central"), help="shift only, required there")
    args = parser.parse_args(argv)
    if args.command == "shift" and args.kind is None:
        parser.error("shift requires --kind")
    if args.command != "shift" and args.kind is not None:
        parser.error("--kind applies to shift only")
    try:
        cfg = parse_config(args.config)
        report = run_command(
            args.command,
            cfg,
            degree=args.degree,
            seed=args.seed,
            kind=args.kind or "",
        )
    except ConfigError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report, args.format))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
