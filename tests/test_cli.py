import json
import os
import re

import pytest

from courant.cli import (
    FAMILIES,
    MAX_BASE_DIM,
    MAX_FIBER_DIM,
    SHAPE_KEYS,
    ConfigError,
    config_to_text,
    emit_report,
    main,
    parse_config,
    parse_config_text,
    run_command,
)
from courant.dorfman import MAX_DEGREE_CAP

ROOT = os.path.join(os.path.dirname(__file__), "..")

FIXTURE_D_TEXT = """
[base]
base.n = 2
base.p = 2

[fiber]
fiber.dim = 3
fiber.bracket.1.2.3 = "1"
fiber.bracket.2.1.3 = "-1"
fiber.bracket.2.3.1 = "1"
fiber.bracket.3.2.1 = "-1"
fiber.bracket.3.1.2 = "1"
fiber.bracket.1.3.2 = "-1"
fiber.metric.1.1 = "1"
fiber.metric.2.2 = "1"
fiber.metric.3.3 = "1"

[connection]
connection.gamma.1.2.3 = "-1"
connection.gamma.1.3.2 = "1"
connection.gamma.2.1.3 = "1"
connection.gamma.2.3.1 = "-1"

[curvature]
curvature.R.1.2.3 = "1"
"""

FIXTURE_C_TEXT = """
[base]
base.n = 4
base.p = 4

[fiber]
fiber.dim = 1
fiber.metric.1.1 = "1"

[curvature]
curvature.R.1.2.1 = "1"
curvature.R.3.4.1 = "1"

[hform]
hform.H.2.3.4 = "2*x1"
"""


def write(tmp_path, text, name="cfg.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_fixture_d():
    cfg = parse_config_text(FIXTURE_D_TEXT)
    assert cfg.patch.n == 2 and cfg.patch.p == 2
    assert cfg.fiber.dim == 3
    assert cfg.fiber.c[0][1][2] == 1
    q = cfg.quintuple()
    assert q.validate().ok


def test_diagonal_curvature_key_rejected():
    bad = FIXTURE_C_TEXT.replace('curvature.R.1.2.1 = "1"', 'curvature.R.1.1.1 = "1"')
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert "a < b" in str(err.value)


def test_descending_curvature_key_rejected():
    bad = FIXTURE_C_TEXT.replace('curvature.R.1.2.1 = "1"', 'curvature.R.2.1.1 = "1"')
    with pytest.raises(ConfigError):
        parse_config_text(bad)


def test_out_of_range_variable_rejected():
    bad = FIXTURE_D_TEXT.replace('curvature.R.1.2.3 = "1"', 'curvature.R.1.2.3 = "x3"')
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad)
    assert "curvature.R.1.2.3" in str(err.value)


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("[base]\nfiber.dim = 1\n")


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(FIXTURE_D_TEXT + "\n[hoist]\nhoist.K.1.1 = \"1\"\n")


def test_config_roundtrip():
    cfg = parse_config_text(FIXTURE_D_TEXT)
    text = config_to_text(cfg)
    cfg2 = parse_config_text(text)
    assert config_to_text(cfg2) == text
    assert cfg2 == cfg
    assert cfg2.fiber.c == cfg.fiber.c
    assert cfg2.fiber.g == cfg.fiber.g
    assert cfg2.conn == cfg.conn
    assert cfg2.curv == cfg.curv
    assert cfg2.hform == cfg.hform


def test_check_command_passes(tmp_path):
    cfg = parse_config_text(FIXTURE_C_TEXT)
    report = run_command("check", cfg, degree=1)
    assert report.ok
    assert report.exit_code == 0


def test_check_command_detects_missing_h():
    stripped = FIXTURE_C_TEXT.replace('hform.H.2.3.4 = "2*x1"', "")
    cfg = parse_config_text(stripped)
    report = run_command("check", cfg, degree=1)
    assert not report.ok
    record = report["dF_H_equals_RR"]
    assert record.witness.indices == (1, 2, 3, 4)
    assert record.witness.residual == "2"
    assert report.exit_code == 1


def test_roundtrip_command():
    for text in (FIXTURE_C_TEXT, FIXTURE_D_TEXT):
        report = run_command("roundtrip", parse_config_text(text))
        assert report.ok


def test_emit_report_text_and_json():
    cfg = parse_config_text(FIXTURE_C_TEXT)
    report = run_command("pontryagin", cfg)
    text = emit_report(report, "text")
    assert text.splitlines()[0] == "PASS dF_H_equals_RR"
    payload = json.loads(emit_report(report, "json"))
    assert payload["version"] == 1
    assert payload["exit"] == 0
    names = [c["name"] for c in payload["checks"]]
    assert names == ["dF_H_equals_RR", "RR.1.2.3.4"]
    assert payload["checks"][1]["witness"]["residual"] == "2"
    for record in payload["checks"]:
        assert set(record) == {"name", "status", "witness"}
        assert record["status"] in ("pass", "fail")


def test_empty_report_renders():
    from courant.report import Report

    assert emit_report(Report(), "text") == ""
    payload = json.loads(emit_report(Report(), "json"))
    assert payload == {"version": 1, "checks": [], "exit": 0}


def test_reports_byte_identical_across_runs():
    for fmt in ("text", "json"):
        a = emit_report(run_command("check", parse_config_text(FIXTURE_D_TEXT), degree=1), fmt)
        b = emit_report(run_command("check", parse_config_text(FIXTURE_D_TEXT), degree=1), fmt)
        assert a.encode() == b.encode()


def test_main_exit_codes(tmp_path, capsys):
    good = write(tmp_path, FIXTURE_C_TEXT, "c.cfg")
    assert main(["pontryagin", good]) == 0
    capsys.readouterr()
    broken = write(tmp_path, FIXTURE_C_TEXT.replace('2*x1', 'x1'), "broken.cfg")
    assert main(["pontryagin", broken]) == 1
    capsys.readouterr()
    syntax = write(tmp_path, "[base]\nbase.n == 2\n", "syntax.cfg")
    assert main(["check", syntax]) == 2
    capsys.readouterr()
    assert main(["check", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()
    # missing required block
    assert main(["transport", good]) == 2
    capsys.readouterr()


def test_main_charform_output(tmp_path, capsys):
    path = write(tmp_path, FIXTURE_D_TEXT)
    assert main(["charform", path]) == 0
    out = capsys.readouterr().out
    assert "PASS charform_closed" in out
    assert "C_s.ggg.1.2.3" in out and "-1" in out


def test_main_axioms_and_degree(tmp_path, capsys):
    path = write(tmp_path, FIXTURE_D_TEXT)
    assert main(["axioms", path, "--degree", "1"]) == 0
    out = capsys.readouterr().out
    assert "PASS axiom_1" in out and "PASS axiom_6" in out


def test_main_naive(tmp_path, capsys):
    path = write(tmp_path, FIXTURE_D_TEXT)
    assert main(["naive", path]) == 0
    out = capsys.readouterr().out
    assert "PASS naive_matches_ce_C_s" in out


def test_main_chernweil(tmp_path, capsys):
    path = write(tmp_path, FIXTURE_D_TEXT)
    assert main(["chernweil", path]) == 0
    out = capsys.readouterr().out
    assert "PASS chernweil_matches_standard_gamma_zero" in out
    assert "PASS chernweil_matches_standard_gamma_linear" in out


def test_main_transport_and_shift(tmp_path, capsys):
    iso_text = FIXTURE_D_TEXT + """
[iso]
iso.tau.1.1 = "1"
iso.tau.2.2 = "1"
iso.tau.3.3 = "1"
iso.beta.1.2 = "x1"
iso.beta.2.1 = "-1*x1"
"""
    path = write(tmp_path, iso_text)
    assert main(["transport", path]) == 0
    out = capsys.readouterr().out
    assert "PASS dorfman_intertwined" in out
    assert "PASS coboundary_identity" in out

    hoist_text = FIXTURE_D_TEXT + "\n[hoist]\nhoist.J.1.3 = \"1\"\n"
    path = write(tmp_path, hoist_text, "hoist.cfg")
    assert main(["shift", path, "--kind", "hoist"]) == 0
    capsys.readouterr()
    # central shift must be gated on the trivial-center fiber
    assert main(["shift", path, "--kind", "central"]) == 1
    out = capsys.readouterr().out
    assert "FAIL shift_hypotheses" in out


EXACT_TEXT = """
[base]
base.n = 3
base.p = 3

[fiber]
fiber.dim = 0

[hform]
hform.H.1.2.3 = "1 + x1"

[iso]
iso.beta.1.2 = "x3"
iso.beta.2.1 = "-1*x3"

[hoist]
"""


@pytest.mark.parametrize("argv", [["transport"], ["shift", "--kind", "hoist"], ["shift", "--kind", "central"]])
def test_exact_algebroid_transport_and_shift(tmp_path, capsys, argv):
    # fiber.dim = 0 (an exact Courant algebroid): the fiber pairing must
    # land among polynomials in the base variables
    path = write(tmp_path, EXACT_TEXT)
    assert main(argv[:1] + [path] + argv[1:]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_main_coherent_and_build(tmp_path, capsys):
    cform_text = FIXTURE_D_TEXT + """
[cform]
cform.ggg.1.2.3 = "-1"
cform.gff.3.1.2 = "1"
"""
    path = write(tmp_path, cform_text)
    assert main(["coherent", path]) == 0
    out = capsys.readouterr().out
    assert "PASS hoist_solvable" in out
    assert "PASS coherent_closed" in out
    assert main(["build", path]) == 0
    out = capsys.readouterr().out
    assert "PASS build_coherent" in out
    assert "built.R.1.2.3" in out


@pytest.mark.parametrize("name", ["mut_c_0", "mut_s_1", "mut_s_2"])
def test_roundtrip_on_invalid_data_is_a_failing_record(capsys, name):
    # well-formed config, invalid data: the canonical pair is not coherent;
    # that is a check failure (exit 1), as in ``build``, not an input error
    path = os.path.join(ROOT, "bench", "pool", name + ".cfg")
    assert main(["roundtrip", path, "--format", "json"]) == 1
    out = capsys.readouterr()
    assert out.err == ""
    checks = json.loads(out.out)["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [("roundtrip_coherent", "fail")]
    assert checks[0]["witness"]["identity"] == "pair is not coherent for this hoist: coherent_closed"


def test_cli_demos_configs_exist_and_pass():
    root = os.path.join(ROOT, "demos", "configs")
    for name in ("fixture_c.cfg", "fixture_d.cfg"):
        cfg = parse_config(os.path.join(root, name))
        assert run_command("check", cfg, degree=1).ok


def test_main_rejects_deep_nesting_and_negative_degree(tmp_path, capsys):
    deep = "(" * 5000 + "x1" + ")" * 5000
    path = write(tmp_path, FIXTURE_C_TEXT.replace("2*x1", deep), "deep.cfg")
    assert main(["check", path]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "nested deeper than 100" in out.err
    path = write(tmp_path, FIXTURE_D_TEXT)
    for cmd in ("check", "axioms"):
        assert main([cmd, path, "--degree", "-1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "degree cap must be >= 0" in out.err


def test_main_rejects_degree_above_ceiling(tmp_path, capsys):
    path = write(tmp_path, FIXTURE_D_TEXT)
    for cmd in ("check", "axioms"):
        assert main([cmd, path, "--degree", str(MAX_DEGREE_CAP + 1)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "degree cap must be <= %d" % MAX_DEGREE_CAP in out.err


def test_main_rejects_polynomial_above_size_ceiling(tmp_path, capsys):
    path = write(tmp_path, FIXTURE_C_TEXT.replace('"2*x1"', '"2*x1^17"'), "big.cfg")
    assert main(["check", path]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "exponent 17 above 16" in out.err


def test_main_rejects_shapes_above_ceiling(tmp_path, capsys):
    # without a ceiling a 20-digit fiber.dim escaped main as OverflowError
    # and fiber.dim = 3000 raised MemoryError, both with exit status 1
    big = "9" * 20
    cases = [
        ("base.n = 4", "base.n = %d" % (MAX_BASE_DIM + 1), "base.n"),
        ("base.n = 4", "base.n = " + big, "base.n"),
        ("fiber.dim = 1", "fiber.dim = %d" % (MAX_FIBER_DIM + 1), "fiber.dim"),
        ("fiber.dim = 1", "fiber.dim = " + big, "fiber.dim"),
    ]
    for old, new, key in cases:
        path = write(tmp_path, FIXTURE_C_TEXT.replace(old, new), "shape.cfg")
        assert main(["check", path]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "key %s" % key in out.err


@pytest.mark.parametrize("argv", [["shift", "{path}"], ["check", "{path}", "--kind", "omega"]])
def test_kind_is_required_by_shift_and_refused_elsewhere(tmp_path, capsys, argv):
    path = write(tmp_path, FIXTURE_D_TEXT)
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(path=path) for arg in argv])
    assert exit_info.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--kind" in out.err


@pytest.mark.parametrize(
    "line",
    [
        'fiber.metric.7.1.1 = "5"',  # an extra index part
        'fiber.metric.1 = "5"',  # a missing one
        'fiber.metric.01.1 = "0"',  # the same component spelled differently
        'fiber.metric.+1.1 = "0"',
        'fiber.metric.1. 1 = "0"',
        'fiber.metric.1_0.1 = "0"',
        'fiber.metric.\u0661.1 = "0"',  # ARABIC-INDIC DIGIT ONE, which int() reads as 1
    ],
)
def test_index_parts_must_be_exact_and_canonical(tmp_path, capsys, line):
    # each of these used to parse: the extra part and the respelled index
    # overwrote fiber.metric.1.1 = "1" past the duplicate-key check
    path = write(tmp_path, FIXTURE_C_TEXT.replace('fiber.metric.1.1 = "1"', 'fiber.metric.1.1 = "1"\n' + line))
    assert main(["check", path]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "key %s" % line.split(" = ")[0] in out.err


def test_seed_is_not_an_option(tmp_path, capsys):
    path = write(tmp_path, FIXTURE_D_TEXT)
    with pytest.raises(SystemExit) as exit_info:
        main(["check", path, "--seed", "1"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().out == ""


def test_writer_reproduces_every_pool_config():
    # bench/pool files are config_to_text output after a one-line header;
    # the bad_* members are malformed on purpose
    pool = os.path.join(ROOT, "bench", "pool")
    names = sorted(name for name in os.listdir(pool) if name.endswith(".cfg"))
    written = 0
    for name in names:
        path = os.path.join(pool, name)
        if name.startswith("bad_"):
            with pytest.raises(ConfigError):
                parse_config(path)
            continue
        with open(path, encoding="utf-8") as handle:
            header, _, body = handle.read().partition("\n")
        assert header.startswith("#"), name
        assert config_to_text(parse_config(path)) == body, name
        written += 1
    assert written >= 100


def test_readme_names_exactly_the_key_families():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    block = readme.split("### Config format", 1)[1].split("```ini", 1)[1].split("```", 1)[0]
    keys = re.findall(r"^([\w.]+) =", block, re.MULTILINE)
    assert len(keys) == len(set(keys))
    table = {family + "." + ".".join(names) for family, (names, _) in FAMILIES.items()}
    assert set(keys) == table | set(SHAPE_KEYS)
