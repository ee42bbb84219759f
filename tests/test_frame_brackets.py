"""The frame-bracket table against the literal per-triple and per-wedge loops.

``e_connection_form`` and ``naive_differential`` read the skew bracket
of a frame pair from one ``Quintuple.frame_brackets()`` table per call
(``chernweil`` passes one table to all its leaf connections), so each
pair is bracketed once instead of once per triple or wedge that holds
it.  The literal loops they replaced are kept here as
oracles: both must give equal forms and tables, on valid data and on
a perturbed bracket, and raise the same error at the same wedge when
the form does not descend.
"""

import os
from itertools import combinations

import pytest

from courant import FConnection, Quintuple, e_connection_form, standard_three_form
from courant.ample import AForm, aform_keys
from courant.charform import HALF, THIRD, _e_connection
from courant.cli import _linear_symmetric_fconnection, parse_config, run_command
from courant.dorfman import naive_differential, naive_matches_ce
from fixtures import COCHAIN_FIXTURES, courant

POOL = os.path.join(os.path.dirname(__file__), "..", "bench", "pool")
POOL_FORMS = ["form_%s_%d" % (f, k) for f in "cs" for k in range(4)] + ["form_d_hoist", "form_d_cform"]


def literal_e_connection_form(q, fc):
    """The Chern-Weil form with every bracket recomputed per (triple,
    cyclic order): the oracle of ``e_connection_form``."""
    if not fc.is_torsion_free():
        raise ValueError("leaf connection must be torsion-free")
    frames = q.frame_sections()
    p, m = q.patch.p, q.fiber.dim

    def value_on(triple):
        total = q.zero_poly()
        for i, j, k in (0, 1, 2), (1, 2, 0), (2, 0, 1):
            e1, e2, e3 = triple[i], triple[j], triple[k]
            total = total + q.pairing(courant(q, e1, e2), e3).scale(THIRD)
            asym = _e_connection(q, fc, e1, e2) - _e_connection(q, fc, e2, e1)
            total = total - q.pairing(asym, e3).scale(HALF)
        return total

    for wedge in combinations(range(len(frames)), 3):
        if all(t >= p for t in wedge):
            continue
        if value_on(tuple(frames[t] for t in wedge)):
            raise ValueError(
                "connection 3-form does not descend: nonzero on frame wedge %r" % (wedge,)
            )
    comps = {}
    for key in aform_keys(q.patch, m, 3):
        gidx, fidx = key
        triple = [frames[p + i - 1] for i in gidx] + [frames[p + m + a - 1] for a in fidx]
        value = value_on(triple)
        if value:
            comps[key] = value
    return AForm(q.patch, m, 3, comps)


def literal_naive_differential(q, s):
    """The naive table with the skew bracket recomputed per (wedge, pair):
    the oracle of ``naive_differential``."""
    frames = q.frame_sections()
    k = s.degree
    table = []
    for wedge in combinations(range(len(frames)), k + 1):
        secs = [frames[t] for t in wedge]
        total = q.zero_poly()
        for pos in range(k + 1):
            value = s.eval_sections(secs[:pos] + secs[pos + 1:])
            if value:
                term = q.anchor_apply(secs[pos], value)
                if term:
                    total = total + term if pos % 2 == 0 else total - term
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                rest = [secs[t] for t in range(k + 1) if t != i and t != j]
                value = s.eval_sections([courant(q, secs[i], secs[j])] + rest)
                if value:
                    total = total + value if (i + j) % 2 == 0 else total - value
        table.append((wedge, total))
    return table


class PerturbedBracket(Quintuple):
    """A Dorfman bracket with a spurious d/dx_1 component x^1 += r1_1 x2_p:
    it is nonzero on (e_1, d/dx_p), so <[[e_1, d/dx_p]], delta^1> != 0 and
    the Chern-Weil form no longer descends."""

    def dorfman(self, e1, e2):
        out = super().dorfman(e1, e2)
        extra = e1.r[0] * e2.x[-1]
        if extra:
            out.x = [out.x[0] + extra] + out.x[1:]
        return out


def perturbed(q):
    return PerturbedBracket(q.patch, q.fiber, q.conn, q.curv, q.hform)


def pool_config(name):
    return parse_config(os.path.join(POOL, name + ".cfg"))


CASES = ["fixture:" + name for name in sorted(COCHAIN_FIXTURES)] + ["pool:" + name for name in POOL_FORMS]


def quintuple_and_extras(case):
    """The quintuple of a case, its extra cochain and leaf connection."""
    kind, name = case.split(":")
    if kind == "fixture":
        return COCHAIN_FIXTURES[name](), None, None
    cfg = pool_config(name)
    return cfg.quintuple(), cfg.cform, cfg.nabla_f


@pytest.mark.parametrize("case", CASES)
def test_e_connection_form_matches_per_triple_loop(case):
    q, _, nabla_f = quintuple_and_extras(case)
    connections = [FConnection.flat(q.patch), _linear_symmetric_fconnection(q.patch)]
    if nabla_f is not None:
        connections.append(nabla_f)
    for fc in connections:
        assert e_connection_form(q, fc) == literal_e_connection_form(q, fc)


@pytest.mark.parametrize("case", CASES)
def test_naive_differential_matches_per_wedge_loop(case):
    q, cform, _ = quintuple_and_extras(case)
    forms = [standard_three_form(q)] + ([cform] if cform is not None else [])
    for s in forms:
        assert naive_differential(q, s) == literal_naive_differential(q, s)
    # a broken bracket is read from the table just as the literal loop reads it
    broken = perturbed(q)
    assert naive_differential(broken, forms[0]) == literal_naive_differential(broken, forms[0])


@pytest.mark.parametrize("fixture", sorted(COCHAIN_FIXTURES))
def test_non_descending_form_raises_at_the_same_wedge(fixture):
    q = perturbed(COCHAIN_FIXTURES[fixture]())
    fc = FConnection.flat(q.patch)
    with pytest.raises(ValueError) as expected:
        literal_e_connection_form(q, fc)
    with pytest.raises(ValueError) as got:
        e_connection_form(q, fc)
    assert str(got.value) == str(expected.value)
    p, m = q.patch.p, q.fiber.dim
    # (delta^1, e_1, d/dx_p) is the first wedge that holds the spurious term
    assert str(got.value).endswith("wedge %r" % ((0, p, 2 * p + m - 1),))


# naive_matches_ce under PerturbedBracket: the naive table reads the
# Dorfman bracket and ce_differential the ample one, so the spurious
# d/dx_1 term of [[e_1, d/dx_p]] shows where a nonzero C_s component
# meets it.  On su(2)(4,3) that is the wedge (e_1, e_3, d/dx_2, d/dx_3):
# C_s(d/dx_1, e_3, d/dx_2) = -<R_12, e_3>.  On C, D and D_transported no
# component meets it, and the check passes.
PERTURBED_NAIVE_WITNESS = {"C": None, "D": None, "D_transported": None, "su2(4,3)": ((4, 6, 8, 9), "1")}


@pytest.mark.parametrize("fixture", sorted(COCHAIN_FIXTURES))
def test_naive_matches_ce_sees_a_dorfman_bracket_off_the_ample_one(fixture):
    q = COCHAIN_FIXTURES[fixture]()
    (record,) = naive_matches_ce(perturbed(q), standard_three_form(q)).records
    expected = PERTURBED_NAIVE_WITNESS[fixture]
    assert record.ok == (expected is None)
    if expected is not None:
        assert (record.witness.indices, record.witness.residual) == expected


def count_dorfman(monkeypatch):
    calls = []
    dorfman = Quintuple.dorfman

    def counted(self, e1, e2):
        calls.append(1)
        return dorfman(self, e1, e2)

    monkeypatch.setattr(Quintuple, "dorfman", counted)
    return calls


# Dorfman calls of one command.  With nu frames, a cyclic triple visits
# each increasing pair but (0, nu - 1) and each decreasing pair of gap
# >= 2, nu^2 - 2 nu ordered pairs, and chernweil brackets them once for
# all its leaf connections, through one shared table: 63 at nu = 9
# (form_c, form_s) and 35 at nu = 7 (form_d); one table per
# e_connection_form call made twice that.  naive brackets the C(nu, 2)
# increasing pairs once per form: 36 at nu = 9, 21 at nu = 7.  The
# per-triple loop and a third e_connection_form call for the emitted
# form made 756 (form_c, form_s) and 315 (form_d); the per-wedge loop
# made 756 per form at nu = 9 and 210 at nu = 7.
COMMAND_DORFMAN_CALLS = {
    ("chernweil", "form_c_0"): 63,
    ("chernweil", "form_s_0"): 63,
    ("chernweil", "form_d_hoist"): 35,
    ("naive", "form_c_0"): 36,
    ("naive", "form_s_0"): 72,
    ("naive", "form_d_cform"): 42,
}


@pytest.mark.parametrize("command, config", sorted(COMMAND_DORFMAN_CALLS))
def test_command_dorfman_calls(monkeypatch, command, config):
    cfg = pool_config(config)
    calls = count_dorfman(monkeypatch)
    run_command(command, cfg)
    assert len(calls) == COMMAND_DORFMAN_CALLS[(command, config)]


@pytest.mark.parametrize("fixture", sorted(COCHAIN_FIXTURES))
def test_shared_table_gives_the_forms_of_fresh_tables(monkeypatch, fixture):
    q = COCHAIN_FIXTURES[fixture]()
    connections = [FConnection.flat(q.patch), _linear_symmetric_fconnection(q.patch)]
    fresh = [e_connection_form(q, fc) for fc in connections]
    table = q.frame_brackets()
    calls = count_dorfman(monkeypatch)
    assert [e_connection_form(q, fc, table) for fc in connections] == fresh
    nu = len(table.frames)
    assert len(calls) == nu * nu - 2 * nu


@pytest.mark.parametrize("fixture", sorted(COCHAIN_FIXTURES))
def test_fixture_dorfman_calls(monkeypatch, fixture):
    q = COCHAIN_FIXTURES[fixture]()
    nu = len(q.frame_sections())
    s = standard_three_form(q)
    calls = count_dorfman(monkeypatch)
    e_connection_form(q, FConnection.flat(q.patch))
    assert len(calls) == nu * nu - 2 * nu
    calls.clear()
    naive_differential(q, s)
    assert len(calls) == nu * (nu - 1) // 2
