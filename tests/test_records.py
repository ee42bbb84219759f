"""The plain record classes: dataclass semantics without ``dataclasses``.

Each record compares field by field with records of its own class and
prints as ``Class(field=value, ...)``; the forms, connections, fibers
and algebroids are records too.  ``Patch``, ``Witness`` and
``CheckRecord`` are frozen and hashable; the others are mutable and
unhashable.  A fresh ``import courant.cli`` must not load
``dataclasses`` (nor ``inspect`` or ``ast``, which it pulls in).
"""

import os
import subprocess
import sys

import pytest

from courant.ample import AForm, ASection, QuadAlgebroid
from courant.charform import CharPair, Hoist, HoistSearch, standard_three_form
from courant.cli import Config, config_to_text, parse_config_text
from courant.dorfman import Quintuple, Section
from courant.fiber import QuadLieAlgebra
from courant.geometry import FConnection, FForm, GConnection, GValuedForm, Patch
from courant.morphism import IsoData
from courant.report import CheckRecord, Report, Witness

from fixtures import fixture_d, identity_iso

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
CONFIGS = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")
LAYERS = ("poly", "fiber", "geometry", "linalg", "dorfman", "ample", "charform", "morphism", "report", "cli")


def test_import_cli_loads_every_layer_but_not_dataclasses():
    # bench/tracing.py wraps all ten layers right after `import courant.cli`
    # and reads them from sys.modules, so every layer must stay loaded by it
    code = (
        "import sys, courant.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect', 'ast') if m in sys.modules)); "
        "print(sorted(m[8:] for m in sys.modules if m.startswith('courant.')))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out == ["[]", repr(sorted(LAYERS))]


def _config_text(name: str) -> str:
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as handle:
        return handle.read()


def _cases():
    """(class, make) pairs; make(k) builds equal records for equal k."""
    q = fixture_d()
    patch, one = q.patch, q.patch.one()
    alg = QuadAlgebroid.of(q)

    def form(k, degree=1):
        return GValuedForm(patch, 3, degree, {tuple(range(1, degree + 1)): [one.scale(k), one, one]})

    def christoffel(k):
        return [[[one.scale(k) if a == b == c == 0 else patch.zero() for c in range(2)]
                 for b in range(2)] for a in range(2)]

    return [
        (Witness, lambda k: Witness("id", (1, k), str(k))),
        (CheckRecord, lambda k: CheckRecord("c", "fail", Witness("id", (k,), "1"))),
        (Patch, lambda k: Patch(k + 1, 1)),
        (Report, lambda k: Report([CheckRecord("r%d" % k, "pass")])),
        (Section, lambda k: Section([one.scale(k)], [one], [one])),
        (ASection, lambda k: ASection([one.scale(k)], [one])),
        (Hoist, lambda k: Hoist(form(k))),
        (CharPair, lambda k: CharPair(alg, standard_three_form(q).scale(k))),
        (HoistSearch, lambda k: HoistSearch(Hoist(form(k)), Report())),
        (IsoData, lambda k: IsoData(identity_iso(patch, 3).tau, form(k), identity_iso(patch, 3).beta)),
        (Config, lambda k: parse_config_text(_config_text("fixture_d.cfg" if k == 1 else "fixture_c.cfg"))),
        (FForm, lambda k: FForm(patch, 1, {(2,): one.scale(k)})),
        (GValuedForm, form),
        (AForm, lambda k: AForm(patch, 3, 2, {((1,), (2,)): one.scale(k)})),
        (GConnection, lambda k: GConnection(patch, 1, [[[one.scale(k)]], [[one]]])),
        (FConnection, lambda k: FConnection(patch, christoffel(k))),
        (QuadLieAlgebra, lambda k: QuadLieAlgebra(1, [[[0]]], [[k]])),
        (QuadAlgebroid, lambda k: QuadAlgebroid(patch, q.fiber, q.conn, form(k, 2))),
        (Quintuple, lambda k: Quintuple(patch, q.fiber, q.conn, form(k, 2), q.hform)),
    ]


CASES = _cases()


@pytest.mark.parametrize("cls, make", CASES, ids=[cls.__name__ for cls, _ in CASES])
def test_record_equality_repr_and_hash(cls, make):
    a, b, other = make(1), make(1), make(2)
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != (a,) and a != object()
    fields = cls._fields
    assert repr(a) == "%s(%s)" % (cls.__name__, ", ".join("%s=%r" % (f, getattr(a, f)) for f in fields))
    if cls in (Patch, Witness, CheckRecord):
        assert hash(a) == hash(b) and {a, b, other} == {a, other}
        with pytest.raises(AttributeError):
            setattr(a, fields[0], getattr(other, fields[0]))
        with pytest.raises(AttributeError):
            a.extra = 1
        assert a == b
    else:
        assert cls.__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
        setattr(a, fields[0], getattr(other, fields[0]))
        assert getattr(a, fields[0]) is getattr(other, fields[0])


def test_gconnection_memo_is_not_compared():
    q = fixture_d()
    a, b = GConnection(q.patch, 3, q.conn.gamma), GConnection(q.patch, 3, q.conn.gamma)
    a.apply(1, [q.patch.var(2), q.patch.one(), q.patch.zero()])
    assert a._memo and not b._memo
    assert a == b


def test_ample_part_of_a_quintuple_differs_from_it():
    # records of different classes never compare equal, even when the
    # shared fields agree
    q = fixture_d()
    alg = QuadAlgebroid.of(q)
    assert alg != q and q != alg
    assert alg == QuadAlgebroid.of(q)


def test_record_reprs_in_dataclass_format():
    w = Witness("id", (1, 2), "5")
    assert repr(w) == "Witness(identity='id', indices=(1, 2), residual='5')"
    assert repr(CheckRecord("c", "pass")) == "CheckRecord(name='c', status='pass', witness=None)"
    assert repr(Report([CheckRecord("c", "fail", w)])) == (
        "Report(records=[CheckRecord(name='c', status='fail', "
        "witness=Witness(identity='id', indices=(1, 2), residual='5'))])"
    )
    assert repr(Patch(2, 1)) == "Patch(n=2, p=1)"
    one = Patch(1, 1).one()
    assert repr(ASection([one], [one])) == "ASection(r=[Poly(1, 1)], x=[Poly(1, 1)])"


def test_section_records_have_slots():
    one = Patch(1, 1).one()
    for s in (Section([one], [one], [one]), ASection([one], [one])):
        assert not hasattr(s, "__dict__")
        with pytest.raises(AttributeError):
            s.extra = one


def test_record_validation():
    with pytest.raises(ValueError):
        Patch(1, 2)
    with pytest.raises(ValueError):
        Patch(-1, 0)
    with pytest.raises(ValueError):
        Hoist(GValuedForm(Patch(2, 2), 1, 2))


def test_config_roundtrip_equality_on_demo_configs():
    names = sorted(os.listdir(CONFIGS))
    assert len(names) >= 5
    for name in names:
        cfg = parse_config_text(_config_text(name))
        assert parse_config_text(config_to_text(cfg)) == cfg, name
    # an optional block with no keys holds zero data (tau = identity), and
    # config_to_text writes such a block as a bare section header
    text = _config_text("fixture_d.cfg")
    for section in ("nabla_f", "iso", "hoist", "omega", "cform"):
        cfg = parse_config_text(text + "\n[%s]\n" % section)
        assert getattr(cfg, section) is not None
        assert parse_config_text(config_to_text(cfg)) == cfg
        assert cfg != parse_config_text(text)
