"""Golden reports: every demo config x every command, text and JSON.

The reports under ``tests/golden/`` pin the full output of
``run_command`` + ``emit_report``, witnesses included, so a refactor of
the checkers must reproduce them byte for byte.  Combinations that are
input errors (a missing config block, an unsupported shift kind) are
listed in ``tests/golden/config_errors.txt`` and must raise
``ConfigError``.  The failing ``check --degree 1`` reports of the seeded
fixture D mutants pin real failure witnesses.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import os

import pytest

from courant.cli import Config, ConfigError, emit_report, parse_config, run_command
from fixtures import mutate_fixture_d

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
CONFIGS = os.path.join(os.path.dirname(HERE), "demos", "configs")
FORMATS = (("text", "txt"), ("json", "json"))
COMMANDS = (
    ("check", {"degree": 1}),
    ("charform", {}),
    ("chernweil", {}),
    ("pontryagin", {}),
    ("coherent", {}),
    ("build", {}),
    ("roundtrip", {}),
    ("transport", {}),
    ("shift_hoist", {"kind": "hoist"}),
    ("shift_omega", {"kind": "omega"}),
    ("shift_central", {"kind": "central"}),
    ("naive", {}),
)
MUTANT_SEEDS = range(6)


def _cases():
    """(case id, zero-argument report thunk) for every golden case."""
    cases = []
    for fname in sorted(os.listdir(CONFIGS)):
        if not fname.endswith(".cfg"):
            continue
        stem = fname[:-4]
        for label, kwargs in COMMANDS:
            cmd = label.split("_")[0]

            def run(path=os.path.join(CONFIGS, fname), cmd=cmd, kwargs=kwargs):
                return run_command(cmd, parse_config(path), **kwargs)

            cases.append(("%s/%s" % (stem, label), run))
    for seed in MUTANT_SEEDS:

        def run(seed=seed):
            q, _ = mutate_fixture_d(seed)
            cfg = Config(q.patch, q.fiber, q.conn, q.curv, q.hform)
            return run_command("check", cfg, degree=1)

        cases.append(("mutant_d/seed%d_check" % seed, run))
    return cases


def _config_errors():
    with open(os.path.join(GOLDEN, "config_errors.txt"), encoding="utf-8") as handle:
        return set(handle.read().split())


CASES = _cases()


@pytest.mark.parametrize("case,run", CASES, ids=[c for c, _ in CASES])
def test_golden_report(case, run):
    if case in _config_errors():
        with pytest.raises(ConfigError):
            run()
        return
    report = run()
    for fmt, ext in FORMATS:
        path = os.path.join(GOLDEN, "%s.%s" % (case, ext))
        with open(path, encoding="utf-8") as handle:
            assert emit_report(report, fmt) == handle.read(), path


def test_golden_mutants_fail():
    # the mutant reports pin failure witnesses, so they must not pass
    for seed in MUTANT_SEEDS:
        path = os.path.join(GOLDEN, "mutant_d", "seed%d_check.txt" % seed)
        with open(path, encoding="utf-8") as handle:
            assert "\nFAIL " in "\n" + handle.read()


def _regenerate():
    errors = []
    for case, run in CASES:
        try:
            report = run()
        except ConfigError:
            errors.append(case)
            continue
        os.makedirs(os.path.join(GOLDEN, os.path.dirname(case)), exist_ok=True)
        for fmt, ext in FORMATS:
            with open(os.path.join(GOLDEN, "%s.%s" % (case, ext)), "w", encoding="utf-8") as handle:
                handle.write(emit_report(report, fmt))
    with open(os.path.join(GOLDEN, "config_errors.txt"), "w", encoding="utf-8") as handle:
        handle.write("".join(case + "\n" for case in errors))


if __name__ == "__main__":
    _regenerate()
