"""No config text crashes the command line tool.

Mutations of the shipped ``demos/configs`` files (a line deleted,
duplicated or re-keyed, an index part inserted or respelled with a
leading zero, a value replaced by a hostile token, or a shape key set to
one) must end in exit 0, 1 or 2, never in an exception escaping
``main``, and an input error (exit 2) must print no report.  The first
property runs the quick commands on many mutants; the second runs every
other command on fewer.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from courant.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), "..", "demos", "configs")
NAMES = sorted(os.listdir(CONFIGS))
TOKENS = ("1/0", "2^17", "(", "x9", "9" * 20, "", "-1", "0", "1/2", "x1*x2")
KEY_PARTS = ("0", "1", "2", "3", "5", "9" * 20, "x", "")
SHAPE_KEYS = ("base.n", "base.p", "fiber.dim")


def _lines(name: str):
    with open(os.path.join(CONFIGS, name), encoding="utf-8") as handle:
        return handle.read().splitlines()


LINES = {name: _lines(name) for name in NAMES}


@st.composite
def mutated_configs(draw):
    lines = list(LINES[draw(st.sampled_from(NAMES))])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("delete", "duplicate", "rekey", "reindex", "revalue", "reshape")))
        if op == "reshape":
            shape = draw(st.sampled_from(SHAPE_KEYS))
            i = next((j for j, line in enumerate(lines) if line.startswith(shape)), i)
        key, eq, value = lines[i].partition("=")
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "rekey" and eq:
            parts = key.strip().split(".")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(KEY_PARTS))
            lines[i] = "%s = %s" % (".".join(parts), value.strip())
        elif op == "reindex" and eq and key.count(".") >= 2:
            # an extra index part, or an index spelled with a leading zero
            parts = key.strip().split(".")
            at = draw(st.integers(2, len(parts) - 1))
            if draw(st.booleans()):
                parts.insert(at, draw(st.sampled_from(KEY_PARTS)))
            else:
                parts[at] = "0" + parts[at]
            lines[i] = "%s = %s" % (".".join(parts), value.strip())
        elif op in ("revalue", "reshape") and eq:
            lines[i] = '%s= "%s"' % (key, draw(st.sampled_from(TOKENS)))
        if not lines:
            break
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "mutant.cfg")


def _run_all(config_path, text, argvs):
    with open(config_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([argv[0], config_path, "--degree", "0"] + argv[1:])
        assert code in (0, 1, 2), (argv, code)
        if code == 2:
            assert out.getvalue() == "", argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=mutated_configs())
def test_mutated_configs_exit_0_1_or_2(config_path, text):
    _run_all(config_path, text, [["check"], ["pontryagin"], ["charform"]])


OTHER_COMMANDS = [
    ["axioms"],
    ["chernweil"],
    ["coherent"],
    ["build"],
    ["roundtrip"],
    ["transport"],
    ["naive"],
] + [["shift", "--kind", kind] for kind in ("hoist", "omega", "central")]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(text=mutated_configs())
def test_mutated_configs_exit_0_1_or_2_on_every_command(config_path, text):
    _run_all(config_path, text, OTHER_COMMANDS)
