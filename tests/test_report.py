from courant import FForm, Patch, Poly
from courant.ample import AForm, Section
from courant.report import Check, CheckRecord, Report, Witness


def test_check_keeps_first_nonzero_witness():
    check = Check("name", "identity")
    assert check.record().ok and check.record().witness is None
    check.add((1,), Poly.zero(1))
    check.add((2, 3), Poly.const(1, 5))
    check.add((4,), Poly.const(1, 7))
    assert check.failed
    record = check.record()
    assert record.status == "fail"
    assert record.witness == Witness("identity", (2, 3), "5")


def test_check_section_rule_takes_first_nonzero_component():
    zero, one = Poly.zero(1), Poly.const(1, 1)
    check = Check("s", "id")
    check.add_section((1,), Section([zero], [zero], [zero]))
    assert not check.failed
    check.add_section((2,), Section([zero], [one.scale(3)], [one]))
    assert check.witness == Witness("id", (2,), "3")


def test_check_form_rule_takes_first_key():
    patch = Patch(4, 4)
    x1 = patch.var(1)
    f = Check("f", "id")
    f.add_form(FForm(patch, 2, {(2, 3): x1, (1, 4): x1.scale(2)}))
    assert f.witness == Witness("id", (1, 4), "2*x1")
    a = Check("a", "id")
    a.add_form(AForm(patch, 1, 3, {((1,), (3, 4)): x1, ((1,), (2, 3)): x1.scale(-1)}))
    assert a.witness == Witness("id", (1, 2, 3), "-1*x1")
    empty = Check("e", "id")
    empty.add_form(FForm.zero(patch, 3))
    assert not empty.failed


def test_report_renamed():
    report = Report()
    report.add(CheckRecord("a", "pass"))
    report.add(CheckRecord("b", "fail", Witness("id", (1,), "2")))
    renamed = report.renamed("target_%s")
    assert [r.name for r in renamed] == ["target_a", "target_b"]
    assert [r.status for r in renamed] == ["pass", "fail"]
    assert renamed["target_b"].witness == report["b"].witness
    assert [r.name for r in report] == ["a", "b"]
