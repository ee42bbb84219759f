"""Every check in ``src/courant`` records its verdict through ``report.Check``.

Only ``report.py`` builds ``Witness`` and ``CheckRecord`` values; the
checkers feed instances to a ``Check``, whose ``add*`` methods return
whether it has failed, so a first-witness loop stops with ``if
check.add(...): break``.  An ``ast`` scan keeps the other recorders out
of ``src/courant``, and the Dorfman-call pins below (taken before the
loops were rewritten) show that each loop evaluates the same instances.
"""

import ast
from itertools import product
from pathlib import Path

import pytest

from courant import FForm, Patch, Poly, Quintuple
from courant.ample import AForm, Section
from courant.morphism import intertwining_report
from courant.report import Check, Witness
from fixtures import fixture_d
from test_frame_brackets import count_dorfman
from test_knockouts import KNOCKOUTS
from test_morphism import broken_cases

SRC = Path(__file__).resolve().parent.parent / "src" / "courant"

BUILT_IN_REPORT_ONLY = {"Witness", "CheckRecord"}
GONE = {"first_witness", "add_pass", "add_fail"}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.alias)):
        return node.name
    return None


def _reads_failed(test) -> bool:
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        test = test.operand
    return isinstance(test, ast.Attribute) and test.attr == "failed"


def _recorder_bypasses(tree: ast.Module):
    """(what, line) for each way around ``Check``: a call of ``Witness`` or
    ``CheckRecord``, any use of a removed recorder name, and, inside a
    loop, an ``if X.failed: break`` or an ``if not X.failed:`` in place
    of the value that ``X.add*`` returns."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _name(node.func) in BUILT_IN_REPORT_ONLY:
            found.add((_name(node.func), node.lineno))
        elif _name(node) in GONE:
            found.add((_name(node), node.lineno))
        elif isinstance(node, (ast.For, ast.While)):
            for sub in ast.walk(node):
                if not (isinstance(sub, ast.If) and _reads_failed(sub.test)):
                    continue
                if isinstance(sub.test, ast.UnaryOp) or all(isinstance(s, ast.Break) for s in sub.body):
                    found.add(("failed", sub.lineno))
    return sorted(found, key=lambda item: (item[1], item[0]))


def test_only_report_builds_records():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "report.py":
            for what, line in _recorder_bypasses(ast.parse(path.read_text(), str(path))):
                outside.append("%s:%d %s" % (path.name, line, what))
    assert outside == []


def test_report_has_no_second_recorder():
    tree = ast.parse((SRC / "report.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & GONE == set()


def test_bypass_scan_sees_each_bypass():
    sample = (
        "from .report import first_witness\n"
        "def f(report, check, xs):\n"
        "    report.add_pass('a')\n"
        "    report.add(CheckRecord('b', 'pass'))\n"
        "    w = Witness('id', (), '1')\n"
        "    for x in xs:\n"
        "        check.add((x,), x)\n"
        "        if check.failed:\n"
        "            break\n"
        "    for x in xs:\n"
        "        if not check.failed:\n"
        "            check.add((x,), x)\n"
        "    for x in xs:\n"
        "        if check.add((x,), x):\n"
        "            break\n"
        "    for c in xs:\n"
        "        if c.failed:\n"
        "            return c\n"
        "    return first_witness('n', 'i', {})\n"
        "def add_fail():\n"
        "    pass\n"
    )
    assert _recorder_bypasses(ast.parse(sample)) == [
        ("first_witness", 1),
        ("add_pass", 3),
        ("CheckRecord", 4),
        ("Witness", 5),
        ("failed", 8),
        ("failed", 11),
        ("first_witness", 19),
        ("add_fail", 20),
    ]


# -- what the add methods return --------------------------------------------


def test_add_returns_failed_from_the_first_nonzero_residual():
    check = Check("c", "id")
    returned = [check.add((k,), Poly.const(1, v)) for k, v in enumerate((0, 0, 3, 0, 5), start=1)]
    assert returned == [False, False, True, True, True]
    assert check.witness == Witness("id", (3,), "3")


def test_add_section_returns_failed_from_the_first_nonzero_section():
    zero, one = Poly.zero(1), Poly.const(1, 1)
    check = Check("s", "id")
    sections = [
        Section([zero], [zero], [zero]),
        Section([zero], [one.scale(2)], [zero]),
        Section([zero], [zero], [zero]),
        Section([one], [zero], [zero]),
    ]
    assert [check.add_section((k,), s) for k, s in enumerate(sections, start=1)] == [False, True, True, True]
    assert check.witness == Witness("id", (2,), "2")


def test_add_form_returns_failed_from_the_first_nonzero_form():
    patch = Patch(4, 4)
    x1 = patch.var(1)
    check = Check("f", "id")
    assert check.add_form(FForm.zero(patch, 2)) is False
    assert check.add_form(AForm(patch, 1, 3, {})) is False
    assert check.add_form(FForm(patch, 2, {(2, 3): x1})) is True
    assert check.add_form(FForm.zero(patch, 2)) is True
    assert check.add_form(FForm(patch, 2, {(1, 2): x1.scale(3)})) is True
    assert check.witness == Witness("id", (2, 3), "x1")


def _dense(residuals, shape):
    check = Check("d", "id")
    for key in product(*map(range, shape)):
        if check.add(tuple(t + 1 for t in key), residuals.get(key, 0)):
            break
    return check


def test_add_sparse_gives_the_witness_of_the_dense_loop():
    # zero-valued entries, inserted out of lexicographic order
    residuals = {(2, 0, 1): 4, (0, 2, 2): 0, (1, 0, 0): 0, (1, 2, 0): -7, (1, 1, 3): 2, (0, 0, 0): 0}
    sparse = Check("d", "id")
    assert sparse.add_sparse(residuals) is True
    assert sparse.witness == _dense(residuals, (3, 3, 4)).witness == Witness("id", (2, 2, 4), "2")
    assert sparse.record() == _dense(residuals, (3, 3, 4)).record()


def test_add_sparse_of_zero_residuals_passes():
    check = Check("d", "id")
    assert check.add_sparse({(1, 0): 0, (0, 1): Poly.zero(2)}) is False
    assert check.add_sparse({}) is False
    assert check.record().ok


# -- the loops evaluate the instances they did before the rewrite ----------

# Dorfman calls of check_axioms(1) on fixture D under a knockout, where a
# Leibniz, axiom 1, 5 or 6 loop stops at its first witness
AXIOM_DORFMAN_CALLS = {
    "curv_contract=0": 679,
    "h_contract=0": 364,
    "lie_covector-dx": 2448,
    "lie_covector-transport": 4642,
    "nabla_along=0": 1121,
    "p_form*-1": 1136,
    "q_form=0": 634,
    "vf_bracket=0": 4847,
}

# Dorfman calls of intertwining_report at cap 1 on each of broken_cases()
INTERTWINING_DORFMAN_CALLS = [90, 96, 376, 490, 90, 96, 376, 490, 1458, 646, 464]


@pytest.mark.parametrize("knockout", sorted(AXIOM_DORFMAN_CALLS))
def test_axiom_loops_stop_where_they_did(monkeypatch, knockout):
    monkeypatch.setattr(Quintuple, *KNOCKOUTS[knockout])
    calls = count_dorfman(monkeypatch)
    fixture_d().check_axioms(1)
    assert len(calls) == AXIOM_DORFMAN_CALLS[knockout]


def test_intertwining_loops_stop_where_they_did(monkeypatch):
    cases = list(broken_cases())
    calls = count_dorfman(monkeypatch)
    counts = []
    for q1, q2, iso in cases:
        calls.clear()
        intertwining_report(q1, q2, iso, 1)
        counts.append(len(calls))
    assert counts == INTERTWINING_DORFMAN_CALLS
