"""Code knockouts: the axiom check catches bugs in the bracket itself.

Each knockout replaces one helper of ``Quintuple``/``QuadAlgebroid`` by a
broken variant: one of the two terms of the Lie derivative dropped, or
the H-contraction, the Q-form, nabla along a vector field, the
R-contraction, the P-form, the vector field bracket or the anchor
zeroed or sign-flipped.  The data stay
valid, so every failure below comes from the implementation.  The full
failing records of ``check_axioms(1)`` (name, witness indices, residual)
are pinned, so a change to the checker that moves a witness shows up
here.  An empty list is a knockout the fixture cannot see: fixture A has
no fiber, and on a rank-2 leaf (A and D) every 3-form vanishes, so the
H-contraction is invisible there; fixture C (rank 4) catches it.

On the cochain path, closedness of the canonical 3-form and
``naive_matches_ce`` must between them flag every knockout of the ample
bracket that either can see.
"""

import os

import pytest

from courant import Quintuple, ce_differential, standard_three_form
from courant.cli import parse_config, run_command
from courant.axioms import direct
from courant.dorfman import naive_matches_ce
from fixtures import COCHAIN_FIXTURES, fixture_a, fixture_c, fixture_d

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _lie_covector_without_transport(self, x, xi):
    """(L_x xi)_b with the x^a d_a xi_b term dropped."""
    p = self.patch.p
    out = []
    for b in range(1, p + 1):
        acc = self._zero
        for a in range(1, p + 1):
            if xi[a - 1]:
                acc = acc + xi[a - 1] * x[a - 1].diff(b)
        out.append(acc)
    return out


def _lie_covector_without_dx(self, x, xi):
    """(L_x xi)_b with the xi_a d_b x^a term dropped."""
    p = self.patch.p
    out = []
    for b in range(1, p + 1):
        acc = self._zero
        for a in range(1, p + 1):
            if x[a - 1]:
                acc = acc + x[a - 1] * xi[b - 1].diff(a)
        out.append(acc)
    return out


def _zeroed(name):
    """The helper with every value zero: a zero vector, or a zero Poly
    for ``anchor_apply``."""
    orig = getattr(Quintuple, name)

    def broken(self, *args):
        value = orig(self, *args)
        return [self._zero] * len(value) if isinstance(value, list) else self._zero

    return broken


def _flipped(name):
    orig = getattr(Quintuple, name)

    def broken(self, *args):
        value = orig(self, *args)
        return [-v for v in value] if isinstance(value, list) else -value

    return broken


KNOCKOUTS = {
    "lie_covector-transport": ("lie_covector", _lie_covector_without_transport),
    "lie_covector-dx": ("lie_covector", _lie_covector_without_dx),
    "h_contract=0": ("h_contract", _zeroed("h_contract")),
    "h_contract*-1": ("h_contract", _flipped("h_contract")),
    "q_form=0": ("q_form", _zeroed("q_form")),
    "q_form*-1": ("q_form", _flipped("q_form")),
    "nabla_along=0": ("nabla_along", _zeroed("nabla_along")),
    "nabla_along*-1": ("nabla_along", _flipped("nabla_along")),
    "curv_contract=0": ("curv_contract", _zeroed("curv_contract")),
    "curv_contract*-1": ("curv_contract", _flipped("curv_contract")),
    "p_form=0": ("p_form", _zeroed("p_form")),
    "p_form*-1": ("p_form", _flipped("p_form")),
    "vf_bracket=0": ("vf_bracket", _zeroed("vf_bracket")),
    "vf_bracket*-1": ("vf_bracket", _flipped("vf_bracket")),
    "anchor_apply=0": ("anchor_apply", _zeroed("anchor_apply")),
    "anchor_apply*-1": ("anchor_apply", _flipped("anchor_apply")),
}


def failing(report):
    return [(r.name, r.witness.indices, r.witness.residual) for r in report.failures()]


# failing records of check_axioms(1) under each knockout; where a Leibniz
# rule fails, the records of axioms 1, 2, 4, 5 and 6 that pass on frame
# tuples are those of the literal enumeration ``axioms.direct``
EXPECTED_A = {
    "lie_covector-transport": [
        ("axiom_1", (3, 5, 11), "-1"),
        ("axiom_3", (3, 1, 3), "-1"),
        ("axiom_5", (4, 4), "2"),
        ("axiom_6", (3, 3, 9), "1/2"),
        ("leibniz_left_rule", (1, 3, 3), "1"),
    ],
    "lie_covector-dx": [
        ("axiom_1", (1, 7, 8), "-2"),
        ("axiom_3", (1, 3, 2), "1"),
        ("axiom_5", (2, 8), "1"),
        ("axiom_6", (1, 3, 11), "-1/2"),
        ("leibniz_left_rule", (3, 1, 2), "-1"),
    ],
    "h_contract=0": [],
    "h_contract*-1": [],
    "q_form=0": [],
    "q_form*-1": [],
    "nabla_along=0": [],
    "nabla_along*-1": [],
    "curv_contract=0": [],
    "curv_contract*-1": [],
    "p_form=0": [],
    "p_form*-1": [],
    "vf_bracket=0": [
        ("axiom_1", (3, 5, 11), "1"),
        ("axiom_3", (3, 3, 3), "-1"),
        ("axiom_6", (3, 1, 11), "1/2"),
        ("leibniz_left_rule", (3, 3, 3), "1"),
    ],
    "vf_bracket*-1": [
        ("axiom_1", (3, 5, 11), "2"),
        ("axiom_3", (3, 3, 3), "-2"),
        ("axiom_6", (3, 1, 11), "1"),
        ("leibniz_left_rule", (3, 3, 3), "2"),
    ],
    "anchor_apply=0": [
        ("axiom_3", (3, 1, 3), "1"),
        ("axiom_6", (3, 1, 11), "-1/2"),
        ("leibniz_left_rule", (1, 3, 3), "-1"),
    ],
    "anchor_apply*-1": [
        ("axiom_3", (3, 1, 3), "2"),
        ("axiom_6", (3, 1, 11), "-1"),
        ("leibniz_left_rule", (1, 3, 3), "-2"),
    ],
}

EXPECTED_D = {
    "lie_covector-transport": [
        ("axiom_1", (3, 6, 19), "-2"),
        ("axiom_3", (6, 1, 3), "-1"),
        ("axiom_5", (4, 7), "2"),
        ("axiom_6", (6, 6, 15), "1/2"),
        ("leibniz_left_rule", (1, 6, 3), "1"),
    ],
    "lie_covector-dx": [
        ("axiom_1", (1, 13, 14), "-2"),
        ("axiom_3", (1, 6, 2), "1"),
        ("axiom_5", (2, 14), "1"),
        ("axiom_6", (1, 6, 20), "-1/2"),
        ("leibniz_left_rule", (6, 1, 2), "-1"),
    ],
    "h_contract=0": [],
    "h_contract*-1": [],
    "q_form=0": [("axiom_1", (3, 4, 6), "2"), ("axiom_6", (6, 5, 7), "-1")],
    "q_form*-1": [("axiom_1", (3, 4, 6), "4"), ("axiom_6", (6, 5, 7), "-2")],
    "nabla_along=0": [
        ("axiom_1", (3, 4, 6), "-2"),
        ("axiom_3", (6, 3, 3), "-1"),
        ("axiom_6", (3, 5, 7), "1"),
        ("leibniz_left_rule", (3, 6, 3), "1"),
    ],
    "nabla_along*-1": [
        ("axiom_1", (3, 4, 6), "-4"),
        ("axiom_3", (6, 3, 3), "-2"),
        ("axiom_6", (3, 5, 7), "2"),
        ("leibniz_left_rule", (3, 6, 3), "2"),
    ],
    "curv_contract=0": [("axiom_1", (3, 6, 7), "2"), ("axiom_6", (6, 5, 7), "1")],
    "curv_contract*-1": [("axiom_1", (3, 6, 7), "4"), ("axiom_6", (6, 5, 7), "2")],
    "p_form=0": [
        ("axiom_1", (3, 4, 6), "-2"),
        ("axiom_4", (3, 10), "-2"),
        ("axiom_6", (3, 5, 7), "-1"),
        ("leibniz_left_rule", (3, 3, 2), "-2"),
    ],
    "p_form*-1": [
        ("axiom_1", (3, 4, 6), "-4"),
        ("axiom_4", (3, 10), "-4"),
        ("axiom_6", (3, 5, 7), "-2"),
        ("leibniz_left_rule", (3, 3, 2), "-4"),
    ],
    "vf_bracket=0": [
        ("axiom_1", (3, 6, 21), "-1"),
        ("axiom_3", (6, 6, 3), "-1"),
        ("axiom_6", (6, 1, 20), "1/2"),
        ("leibniz_left_rule", (6, 6, 3), "1"),
    ],
    "vf_bracket*-1": [
        ("axiom_1", (3, 6, 21), "-2"),
        ("axiom_3", (6, 6, 3), "-2"),
        ("axiom_6", (6, 1, 20), "1"),
        ("leibniz_left_rule", (6, 6, 3), "2"),
    ],
    "anchor_apply=0": [
        ("axiom_3", (6, 1, 3), "1"),
        ("axiom_6", (6, 1, 20), "-1/2"),
        ("leibniz_left_rule", (1, 6, 3), "-1"),
    ],
    "anchor_apply*-1": [
        ("axiom_3", (6, 1, 3), "2"),
        ("axiom_6", (6, 1, 20), "-1"),
        ("leibniz_left_rule", (1, 6, 3), "-2"),
    ],
}

# fixture C (rank-4 leaf, line fiber) under the knockouts of the leaf
# calculus, the vector field bracket and the anchor
EXPECTED_C = {
    "vf_bracket=0": [
        ("axiom_1", (5, 6, 42), "-2"),
        ("axiom_3", (6, 6, 5), "-1"),
        ("axiom_6", (6, 1, 42), "1/2"),
        ("leibniz_left_rule", (6, 6, 5), "1"),
    ],
    "vf_bracket*-1": [
        ("axiom_1", (5, 6, 42), "-4"),
        ("axiom_3", (6, 6, 5), "-2"),
        ("axiom_6", (6, 1, 42), "1"),
        ("leibniz_left_rule", (6, 6, 5), "2"),
    ],
    "anchor_apply=0": [
        ("axiom_3", (6, 1, 5), "1"),
        ("axiom_6", (6, 1, 42), "-1/2"),
        ("leibniz_left_rule", (1, 6, 5), "-1"),
    ],
    "anchor_apply*-1": [
        ("axiom_3", (6, 1, 5), "2"),
        ("axiom_6", (6, 1, 42), "-1"),
        ("leibniz_left_rule", (1, 6, 5), "-2"),
    ],
}


@pytest.mark.parametrize("knockout", sorted(KNOCKOUTS))
@pytest.mark.parametrize("build, expected", [(fixture_a, EXPECTED_A), (fixture_d, EXPECTED_D)])
def test_knockout_witnesses(monkeypatch, knockout, build, expected):
    name, broken = KNOCKOUTS[knockout]
    monkeypatch.setattr(Quintuple, name, broken)
    assert failing(build().check_axioms(1)) == expected[knockout]


@pytest.mark.parametrize("knockout", sorted(EXPECTED_C))
def test_leaf_calculus_knockout_witnesses_on_fixture_c(monkeypatch, knockout):
    monkeypatch.setattr(Quintuple, *KNOCKOUTS[knockout])
    assert failing(fixture_c().check_axioms(1)) == EXPECTED_C[knockout]


@pytest.mark.parametrize("knockout", ["h_contract=0", "h_contract*-1"])
def test_h_knockouts_fail_jacobiator_on_rank_4_leaf(monkeypatch, knockout):
    name, broken = KNOCKOUTS[knockout]
    monkeypatch.setattr(Quintuple, name, broken)
    record = fixture_c().check_axioms(1)["axiom_1"]
    assert not record.ok
    assert record.witness.indices == (6, 7, 8)



def test_leibniz_failure_takes_axiom_passes_from_direct(monkeypatch):
    monkeypatch.setattr(Quintuple, *KNOCKOUTS["lie_covector-transport"])
    q = fixture_a()
    reduced, literal = q.check_axioms(1), direct(q, 1)
    for name, indices in (("axiom_1", (3, 5, 11)), ("axiom_6", (3, 3, 9))):
        assert reduced[name] == literal[name]
        assert reduced[name].witness.indices == indices


def test_axiom_5_not_vacuous_at_degree_0(monkeypatch):
    monkeypatch.setattr(Quintuple, *KNOCKOUTS["lie_covector-transport"])
    assert not fixture_a().check_axioms(0)["axiom_5"].ok


@pytest.mark.parametrize("build, indices", [(fixture_a, (4, 4)), (fixture_d, (4, 7))])
def test_both_methods_fail_second_order_axiom_5(monkeypatch, build, indices):
    # [[D f, e]] has order 2 in f: at cap 1 only coefficients of degree 2 see it
    monkeypatch.setattr(Quintuple, *KNOCKOUTS["lie_covector-transport"])
    q = build()
    for report in (q.check_axioms(1), direct(q, 1)):
        record = report["axiom_5"]
        assert not record.ok
        assert record.witness.indices == indices


def test_leibniz_failure_recomputes_only_replaced_records(monkeypatch):
    # only the frame-level passes (axioms 2, 4 and 6 here) come from the
    # literal enumeration; running all of it took 31,018 brackets
    monkeypatch.setattr(Quintuple, *KNOCKOUTS["lie_covector-transport"])
    calls = []
    dorfman = Quintuple.dorfman

    def counted(self, e1, e2):
        calls.append(1)
        return dorfman(self, e1, e2)

    monkeypatch.setattr(Quintuple, "dorfman", counted)
    assert failing(fixture_c().check_axioms(1)) == [
        ("axiom_1", (6, 7, 8), "-2"),
        ("axiom_3", (6, 1, 5), "-1"),
        ("axiom_5", (6, 9), "2"),
        ("axiom_6", (6, 6, 37), "1/2"),
        ("leibniz_left_rule", (1, 6, 5), "1"),
    ]
    assert len(calls) <= 4000


# Whether dC_s != 0 and whether naive_matches_ce fails, for the canonical
# 3-form C_s.  ce_differential takes its frame brackets from the
# algebroid, so a broken R-contraction breaks dC_s = 0 on every fixture:
# C_s(r, x, y) = <r, R(x, y)> no longer matches the bracket.  Its anchor
# terms differentiate the coefficients of C_s, so a broken anchor breaks
# dC_s = 0 on fixture C only, where H = 2 x1 dx2^dx3^dx4 gives d_1 H_234
# = 2; on D and su2(4,3) every coefficient of C_s is constant, and on
# D_transported (rank-2 leaf) the nonconstant ones, on (e_k, dx1, dx2),
# only meet a fourth frame that is a fiber frame, whose anchor is zero.
# The vector field bracket vanishes on the coordinate frames.
# naive_matches_ce reads only the G + F part of the skew bracket and the
# anchor, which the algebroid differential shares, so it passes under
# every knockout; the other knockouts leave dC_s = 0 on these fixtures.
CLOSEDNESS_CAUGHT = {
    "curv_contract=0": set(COCHAIN_FIXTURES),
    "curv_contract*-1": set(COCHAIN_FIXTURES),
    "anchor_apply=0": {"C"},
    "anchor_apply*-1": {"C"},
}


@pytest.mark.parametrize("knockout", sorted(KNOCKOUTS))
@pytest.mark.parametrize("fixture", sorted(COCHAIN_FIXTURES))
def test_knockouts_on_the_cochain_path(monkeypatch, knockout, fixture):
    q = COCHAIN_FIXTURES[fixture]()
    c = standard_three_form(q)
    monkeypatch.setattr(Quintuple, *KNOCKOUTS[knockout])
    not_closed = bool(ce_differential(q, c))
    naive_fails = not naive_matches_ce(q, c).ok
    assert (not_closed, naive_fails) == (fixture in CLOSEDNESS_CAUGHT.get(knockout, ()), False)


# -- the shift path ----------------------------------------------------------

# Both shifts take their predicted connection and curvature from
# ``hoist_data`` of the shifted hoist, read off the ample bracket of the
# quintuple itself, while ``transport`` stays formula-based; so a
# knockout of the G + F bracket makes the two disagree.  Under
# ``nabla_along`` the curvature of a hoist shift moves wherever nabla J
# is nonzero (fixture D's adjoint connection); under ``curv_contract``
# R itself moves.  The central shift on fixture C (abelian fiber) reads
# that moved R as a curl, so under ``curv_contract`` its rejection
# message names nabla_1 J_2 - nabla_2 J_1 although J is curl-free; on
# fixture D the central shift is rejected with or without a knockout (J
# is not central).  The knockouts outside the G + F bracket cannot reach
# the shift path, and neither can the vector field bracket, which
# vanishes on the hoist sections (their leaf parts are constant).
SHIFT_CONFIGS = {
    "fixture_d_hoist": os.path.join(ROOT, "demos", "configs", "fixture_d_hoist.cfg"),
    "form_d_hoist": os.path.join(ROOT, "bench", "pool", "form_d_hoist.cfg"),
}
SHIFT_CONFIGS.update(
    ("form_c_%d" % k, os.path.join(ROOT, "bench", "pool", "form_c_%d.cfg" % k)) for k in range(4)
)
NOT_CENTRAL = "central shift rejected: J(d_1) is not valued in the fiber center"
CURL = "central shift rejected: nabla_1 J_2 - nabla_2 J_1 is nonzero"
CURVATURE_MISMATCH = [("shift_curvature_matches", "transport differs from prediction")]
FIXTURE_C_SHIFTS = {
    ("form_c_%d" % k, kind): value
    for k in range(4)
    for kind, value in (("hoist", CURVATURE_MISMATCH), ("central", [("shift_hypotheses", CURL)]))
}
D_HOIST = {(name, "hoist"): CURVATURE_MISMATCH for name in ("fixture_d_hoist", "form_d_hoist")}
# (config, kind) -> failing shift_* records (name, witness identity), where
# they differ from the unbroken code
EXPECTED_SHIFT = {knockout: {} for knockout in KNOCKOUTS}
EXPECTED_SHIFT.update({
    "nabla_along=0": D_HOIST,
    "nabla_along*-1": D_HOIST,
    "curv_contract=0": {**D_HOIST, **FIXTURE_C_SHIFTS},
    "curv_contract*-1": {**D_HOIST, **FIXTURE_C_SHIFTS},
})


def shift_failures():
    out = {}
    for name, path in sorted(SHIFT_CONFIGS.items()):
        cfg = parse_config(path)
        for kind in ("hoist", "central"):
            report = run_command("shift", cfg, kind=kind)
            out[(name, kind)] = [
                (r.name, r.witness.identity) for r in report.failures() if r.name.startswith("shift_")
            ]
    return out


def test_shift_records_without_knockout():
    got = shift_failures()
    expected = {key: [] for key in got}
    for name in ("fixture_d_hoist", "form_d_hoist"):
        expected[(name, "central")] = [("shift_hypotheses", NOT_CENTRAL)]
    assert got == expected


@pytest.mark.parametrize("knockout", sorted(KNOCKOUTS))
def test_knockouts_on_the_shift_path(monkeypatch, knockout):
    baseline = shift_failures()
    monkeypatch.setattr(Quintuple, *KNOCKOUTS[knockout])
    moved = {key: fails for key, fails in shift_failures().items() if fails != baseline[key]}
    assert moved == EXPECTED_SHIFT[knockout]
