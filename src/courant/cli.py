"""Command line interface: argv and config parsing, command dispatch, reporting.

The config format is a flat key-value text file with section headers.
Every key is fully dotted and must live under its own section header;
unspecified components are zero.  Polynomial values use the expression
grammar of :mod:`courant.poly` and may be double-quoted.  ``FAMILIES``
holds every indexed key, for the parser and the writer alike; the
README documents each one.

``parse_args`` reads COMMAND CONFIG and full ``--option value`` pairs
itself (``_plain``) and imports argparse (~2 ms) only for other argv.

Exit codes: 0 all checks pass, 1 at least one check fails, 2 input
error (I/O, syntax, shape or a missing config block).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from . import charform, morphism
from .ample import AForm, Hoist, QuadAlgebroid, ce_differential
from .dorfman import IsoData, Quintuple, naive_matches_ce, standard_three_form
from .fiber import QuadLieAlgebra
from .geometry import FConnection, FForm, GConnection, GValuedForm, Patch
from .poly import Poly, PolyParseError, parse_poly
from .report import Check, CheckRecord, Record, Report

# The key families of the config format, in the order config_to_text
# writes them, each with its index names as the README spells them and
# the positions of the indices that must strictly increase.  An index
# i, j or k runs over the fiber 1..fiber.dim, and a, b or c over the
# leaf 1..base.p.  fiber.* values are rational constants; all others
# are polynomials in x1..xn.
FAMILIES = {
    "fiber.bracket": ("ijk", ()),
    "fiber.metric": ("ij", ()),
    "connection.gamma": ("aij", ()),
    "curvature.R": ("abk", (0, 1)),
    "hform.H": ("abc", (0, 1, 2)),
    "nabla_f.gamma": ("abc", ()),
    "iso.tau": ("ij", ()),
    "iso.phi": ("ak", ()),
    "iso.beta": ("ab", ()),
    "hoist.J": ("ak", ()),
    "omega.w": ("ab", (0, 1)),
    "cform.ggg": ("ijk", (0, 1, 2)),
    "cform.ggf": ("ija", (0, 1)),
    "cform.gff": ("iab", (1, 2)),
    "cform.fff": ("abc", (0, 1, 2)),
}
FIBER_INDICES = "ijk"
SHAPE_KEYS = ("base.n", "base.p", "fiber.dim")
SECTIONS = ("base",) + tuple(dict.fromkeys(family.split(".")[0] for family in FAMILIES))
# Sections that parse to None when absent, named as their Config field.
OPTIONAL = ("nabla_f", "iso", "hoist", "omega", "cform")

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


def _parse_dim(entries, key: str, upper: int) -> int:
    """The value of the shape key ``key``, an integer in 0..upper."""
    if key not in entries:
        raise ConfigError("missing required key", None, key)
    value, lineno = entries[key]
    try:
        dim = int(value)
    except ValueError:
        raise ConfigError("expected an integer, got %r" % value, lineno, key)
    if not 0 <= dim <= upper:
        raise ConfigError("need 0 <= %s <= %d" % (key, upper), lineno, key)
    return dim


def _bigrade(names: str, indices: Tuple[int, ...]):
    """The AForm key (fiber indices, leaf indices) of a cform component,
    whose fiber indices come first."""
    fiber = tuple(t for t, name in zip(indices, names) if name in FIBER_INDICES)
    return fiber, indices[len(fiber):]


def _dense(comps, shape, fill):
    """Nested lists of ``shape`` holding comps[(i, j, ..)] at [i - 1][j - 1].., else ``fill``."""
    if len(shape) == 1:
        array = [fill] * shape[0]
    else:
        array = [_dense({}, shape[1:], fill) for _ in range(shape[0])]
    for key, value in comps.items():
        row = array
        for i in key[:-1]:
            row = row[i - 1]
        row[key[-1] - 1] = value
    return array


def _sparse(array, prefix=()):
    """The inverse of _dense: {(i, j, ..): entry} of the nonzero entries, in index order."""
    comps = {}
    for i, entry in enumerate(array, 1):
        if isinstance(entry, (list, tuple)):
            comps.update(_sparse(entry, prefix + (i,)))
        elif entry:
            comps[prefix + (i,)] = entry
    return comps


def _vectors(comps, dim: int, zero: Poly):
    """{(a.., k): v} -> GValuedForm components {(a..): [v_1, .., v_dim]}."""
    vectors: Dict[Tuple[int, ...], List[Poly]] = {}
    for key, value in comps.items():
        vectors.setdefault(key[:-1], [zero] * dim)[key[-1] - 1] = value
    return vectors


def _unvectors(form: GValuedForm):
    """The inverse of _vectors, in index order."""
    return {key + (k,): v for key in form.keys() for k, v in enumerate(form.comps[key], 1) if v}


def parse_config_text(text: str) -> Config:
    entries, saw = _parse_entries(text)
    n = _parse_dim(entries, "base.n", MAX_BASE_DIM)
    p = _parse_dim(entries, "base.p", n)
    m = _parse_dim(entries, "fiber.dim", MAX_FIBER_DIM)

    # the one accepted spelling of each index, so that no two keys that
    # differ as text (say 1 and 01) name the same component
    fiber_span = {str(t): t for t in range(1, m + 1)}
    leaf_span = {str(t): t for t in range(1, p + 1)}
    data: Dict[str, Dict[Tuple[int, ...], object]] = {family: {} for family in FAMILIES}
    for key, (value, lineno) in entries.items():
        parts = key.split(".")
        family = parts[0] + "." + parts[1]  # every key starts with its section and a dot
        if family not in FAMILIES:
            if key in SHAPE_KEYS:
                continue
            raise ConfigError("unknown key", lineno, key)
        names, increasing = FAMILIES[family]
        if len(parts) != 2 + len(names):
            raise ConfigError("expected the %d indices of %s.%s" % (len(names), family, ".".join(names)), lineno, key)
        indices = []
        for name, part in zip(names, parts[2:]):
            span = fiber_span if name in FIBER_INDICES else leaf_span
            if part not in span:
                kind = "fiber" if span is fiber_span else "leaf"
                message = "%s index %r is not a plain decimal in 1..%d" % (kind, part, len(span))
                raise ConfigError(message, lineno, key)
            indices.append(span[part])
        for s, t in zip(increasing, increasing[1:]):
            if indices[s] >= indices[t]:
                raise ConfigError("component requires " + " < ".join(names[s] for s in increasing), lineno, key)
        rational = parts[0] == "fiber"
        try:
            poly = parse_poly(value, 0 if rational else n)
        except PolyParseError as exc:
            raise ConfigError("bad polynomial %r: %s" % (value, exc), lineno, key)
        data[family][tuple(indices)] = poly.constant_value() if rational else poly
    return _build(Patch(n, p), m, data, saw)


def _build(patch: Patch, m: int, data, saw: Set[str]) -> Config:
    """The records of the components ``data`` that parse_config_text collects."""
    n, p = patch.n, patch.p
    zero = Poly.zero(n)
    cfg = Config(
        patch,
        QuadLieAlgebra(m, _dense(data["fiber.bracket"], (m, m, m), 0), _dense(data["fiber.metric"], (m, m), 0)),
        GConnection(patch, m, _dense(data["connection.gamma"], (p, m, m), zero)),
        GValuedForm(patch, m, 2, _vectors(data["curvature.R"], m, zero)),
        FForm(patch, 3, data["hform.H"]),
    )
    if "nabla_f" in saw:
        cfg.nabla_f = FConnection(patch, _dense(data["nabla_f.gamma"], (p, p, p), zero))
    if "iso" in saw:
        tau = data["iso.tau"] or {(i, i): Poly.const(n, 1) for i in range(1, m + 1)}
        # iso.beta.a.b is <beta(d_a)|d_b>, stored at row b, column a
        beta = {(b, a): v for (a, b), v in data["iso.beta"].items()}
        phi = GValuedForm(patch, m, 1, _vectors(data["iso.phi"], m, zero))
        cfg.iso = IsoData(_dense(tau, (m, m), zero), phi, _dense(beta, (p, p), zero))
    if "hoist" in saw:
        cfg.hoist = Hoist(GValuedForm(patch, m, 1, _vectors(data["hoist.J"], m, zero)))
    if "omega" in saw:
        cfg.omega = FForm(patch, 2, data["omega.w"])
    if "cform" in saw:
        cforms = [family for family in FAMILIES if family.startswith("cform.")]
        comps = {_bigrade(FAMILIES[f][0], idx): v for f in cforms for idx, v in data[f].items()}
        cfg.cform = AForm(patch, m, 3, comps)
    return cfg


def _components(cfg: Config):
    """Family -> {indices: value} of the nonzero components of ``cfg`` in
    index order, the inverse of _build; absent blocks have no families."""
    data = {
        "fiber.bracket": _sparse(cfg.fiber.c),
        "fiber.metric": _sparse(cfg.fiber.g),
        "connection.gamma": _sparse(cfg.conn.gamma),
        "curvature.R": _unvectors(cfg.curv),
        "hform.H": {key: cfg.hform.comps[key] for key in cfg.hform.keys()},
    }
    if cfg.nabla_f is not None:
        data["nabla_f.gamma"] = _sparse(cfg.nabla_f.christoffel)
    if cfg.iso is not None:
        data["iso.tau"] = _sparse(cfg.iso.tau)
        data["iso.phi"] = _unvectors(cfg.iso.phi)
        data["iso.beta"] = dict(sorted(((a, b), v) for (b, a), v in _sparse(cfg.iso.beta).items()))
    if cfg.hoist is not None:
        data["hoist.J"] = _unvectors(cfg.hoist.j)
    if cfg.omega is not None:
        data["omega.w"] = {key: cfg.omega.comps[key] for key in cfg.omega.keys()}
    if cfg.cform is not None:
        for gidx, fidx in cfg.cform.keys():
            family = "cform." + "g" * len(gidx) + "f" * len(fidx)
            data.setdefault(family, {})[gidx + fidx] = cfg.cform.comps[(gidx, fidx)]
    return data


def parse_config(path: str) -> Config:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc)
    return parse_config_text(text)


def config_to_text(cfg: Config) -> str:
    """Canonical config serialization; parse(config_to_text(c)) == c."""
    data = _components(cfg)
    shape = {"base": ["base.n = %d" % cfg.patch.n, "base.p = %d" % cfg.patch.p],
             "fiber": ["fiber.dim = %d" % cfg.fiber.dim]}
    out = []
    for section in SECTIONS:
        rows = [
            (names, family, indices, value)
            for family, (names, _) in FAMILIES.items()
            if family.startswith(section + ".")
            for indices, value in data.get(family, {}).items()
        ]
        if section == "cform":
            # AForm.keys() order, which interleaves the bigrades
            rows.sort(key=lambda row: _bigrade(row[0], row[2]))
        lines = shape.get(section, []) + [
            '%s.%s = "%s"' % (family, ".".join(map(str, indices)), Fraction(value) if section == "fiber" else value)
            for _, family, indices, value in rows
        ]
        if lines or section in OPTIONAL and getattr(cfg, section) is not None:
            out += ["", "[%s]" % section] + lines
    return "\n".join(out[1:]) + "\n"


# -- commands ----------------------------------------------------------------


def _emit_aform(report: Report, prefix: str, form: AForm) -> None:
    for gidx, fidx in form.keys():
        kind = "g" * len(gidx) + "f" * len(fidx)
        report.add_components("%s.%s" % (prefix, kind), [(gidx + fidx, form.comps[(gidx, fidx)])])


def _emit_fform(report: Report, prefix: str, form: FForm) -> None:
    report.add_components(prefix, ((key, form.comps[key]) for key in form.keys()))


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


def _verdict(name: str, refusal: Optional[str] = None) -> CheckRecord:
    """The record ``name``: PASS, or FAIL with witness ``refusal`` and
    residual 1 when a refusal is given."""
    check = Check(name, refusal or "")
    if refusal is not None:
        check.add((), 1)
    return check.record()


def _compare(report: Report, name: str, got: Quintuple, want: Quintuple, mismatch: str) -> None:
    """A record ``name % part`` per part connection, curvature and hform:
    PASS where ``got`` and ``want`` agree, else FAIL with ``mismatch``."""
    for part, attr in (("connection", "conn"), ("curvature", "curv"), ("hform", "hform")):
        report.add(_verdict(name % part, None if getattr(got, attr) == getattr(want, attr) else mismatch))


def run_command(cmd: str, cfg: Config, degree: int = 2, kind: str = "") -> Report:
    """Execute one verification command; deterministic for fixed inputs."""
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
        forms = {}
        table = q.frame_brackets()  # the skew bracket does not depend on the leaf connection
        for label, fc in plans:
            forms[label] = charform.e_connection_form(q, fc, table)
            match = Check("chernweil_matches_standard_%s" % label, "C_nablaE - C_s")
            match.add_form(forms[label] - target)
            report.add(match.record())
        _emit_aform(report, "C_nablaE", forms["gamma_zero"])
    elif cmd == "pontryagin":
        rr, check = q.pontryagin_identity()
        report.add(check.record())
        _emit_fform(report, "RR", rr)
    elif cmd == "coherent":
        cform = _require(cfg.cform, "cform")
        fiber_report = cfg.fiber.validate()
        if not fiber_report.ok:
            return fiber_report  # the hoist equations assume an ad-invariant metric
        alg = QuadAlgebroid.of(q)
        search = charform.find_hoist(alg, cform)
        report.extend(search.report)
        if search.hoist is not None:
            report.add_components("hoist.J", _unvectors(search.hoist.j).items())
    elif cmd == "build":
        cform = _require(cfg.cform, "cform")
        fiber_report = cfg.fiber.validate()
        if not fiber_report.ok:
            return fiber_report
        alg = QuadAlgebroid.of(q)
        if cfg.hoist is not None:
            hoist = cfg.hoist
        else:
            search = charform.find_hoist(alg, cform)
            if search.hoist is None:
                report.extend(search.report)
                return report
            hoist = search.hoist
        try:
            built = charform.build_from_pair(charform.CharPair(alg, cform), hoist)
        except ValueError as exc:
            report.add(_verdict("build_coherent", str(exc)))
            return report
        report.add(_verdict("build_coherent"))
        report.extend(built.validate().renamed("built_%s"))
        report.add_components("built.gamma", _sparse(built.conn.gamma).items())
        report.add_components("built.R", _unvectors(built.curv).items())
        _emit_fform(report, "built.H", built.hform)
    elif cmd == "roundtrip":
        pair = charform.characteristic_pair_of(q)
        try:
            rebuilt = charform.build_from_pair(pair, Hoist.standard(cfg.patch, cfg.fiber.dim))
        except ValueError as exc:
            # invalid data: the canonical pair is not coherent, as in ``build``
            report.add(_verdict("roundtrip_coherent", str(exc)))
            return report
        _compare(report, "roundtrip_%s", rebuilt, q, "component mismatch")
    elif cmd == "transport":
        iso = _require(cfg.iso, "iso")
        report.extend(morphism.validate_iso(cfg.patch, cfg.fiber, iso))
        if not report.ok:
            return report
        moved = morphism.transport(q, iso)
        report.extend(moved.validate().renamed("target_%s"))
        report.extend(morphism.intertwining_report(q, moved, iso, degree_cap=degree))
        report.extend(morphism.coboundary_identity_check(q, moved, iso))
    elif cmd == "shift":
        if kind == "hoist":
            hoist = _require(cfg.hoist, "hoist")
            iso, predicted = morphism.hoist_shift_iso(q, hoist.j)
        elif kind == "omega":
            omega = _require(cfg.omega, "omega")
            iso, predicted = morphism.omega_shift_iso(q, omega)
        elif kind == "central":
            hoist = _require(cfg.hoist, "hoist")
            try:
                iso, predicted = morphism.central_shift_iso(q, hoist.j)
            except ValueError as exc:
                report.add(_verdict("shift_hypotheses", str(exc)))
                return report
        else:
            raise ConfigError("unknown shift kind %r" % kind)
        report.add(_verdict("shift_hypotheses"))
        moved = morphism.transport(q, iso)
        _compare(report, "shift_%s_matches", moved, predicted, "transport differs from prediction")
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


USAGE = "usage: courant COMMAND CONFIG [--format {text,json}] [--degree INT] [--kind {hoist,omega,central}]"
# Option -> the choices of its value; --degree takes an int.
OPTIONS = {"--format": ("text", "json"), "--degree": None, "--kind": ("hoist", "omega", "central")}


def _plain(argv: List[str]) -> Optional[Dict[str, object]]:
    """The values of ``argv``, as argparse reads them, if it is COMMAND
    CONFIG and ``--option value`` pairs, each option in full, each value
    valid and none of them or CONFIG starting with '-'; else None."""
    if len(argv) < 2 or len(argv) % 2 or argv[0] not in COMMANDS or argv[1].startswith("-"):
        return None
    args: Dict[str, object] = {"command": argv[0], "config": argv[1], "format": "text", "degree": 2, "kind": None}
    for option, value in zip(argv[2::2], argv[3::2]):
        if option not in OPTIONS or value.startswith("-"):
            return None
        if option == "--degree":
            try:
                value = int(value)
            except ValueError:
                return None
        elif value not in OPTIONS[option]:
            return None
        args[option[2:]] = value
    return args


def _parser():
    """The argparse parser of the whole grammar, for the argv that _plain
    leaves; its errors, like the kind rule's, write USAGE first."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="courant",
        usage=USAGE[len("usage: "):],
        description="Exact verification of split-form regular Courant algebroids.",
    )
    parser.add_argument("command", choices=COMMANDS, help="what to check, emit or build")
    parser.add_argument("config", help="the config file")
    parser.add_argument("--format", choices=OPTIONS["--format"], default="text", help="report format (default: %(default)s)")
    parser.add_argument("--degree", type=int, default=2, metavar="INT", help="degree cap (default: %(default)s)")
    parser.add_argument("--kind", choices=OPTIONS["--kind"], help="shift only, required there")
    return parser


def parse_args(argv: List[str]) -> Dict[str, object]:
    """The command, config, format, degree and kind that ``argv`` gives,
    by _plain or else by argparse.  ``-h`` prints the help and raises
    SystemExit(0); a usage error, shift without --kind or --kind on any
    other command included, writes USAGE and the error to stderr and
    raises SystemExit(2)."""
    args = _plain(argv)
    if args is None:
        args = vars(_parser().parse_args(argv))
        if args["config"] == []:
            # argparse drops the "--" it hands to a positional, so a
            # second "--" after the first reaches the config as []
            args["config"] = "--"
    if args["command"] == "shift" and args["kind"] is None:
        _parser().error("shift requires --kind")
    if args["command"] != "shift" and args["kind"] is not None:
        _parser().error("--kind applies to shift only")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_config(args["config"])
        report = run_command(args["command"], cfg, degree=args["degree"], kind=args["kind"] or "")
    except ValueError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(emit_report(report, args["format"]))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
