"""``cli.parse_args`` against a table of argv shapes and against argparse.

``main`` reads argv without argparse, whose import costs every command
about 2 ms.  ``argparse_reference`` is the argparse parser that ``main``
used to build; every argv must give the same exit code, the same parsed
values and the same error line from both.
"""

import argparse
import contextlib
import io
import random

import pytest

from courant.cli import COMMANDS, USAGE, main, parse_args


def argparse_reference(argv):
    parser = argparse.ArgumentParser(
        prog="courant",
        description="Exact verification of split-form regular Courant algebroids.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("config")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--degree", type=int, default=2)
    parser.add_argument("--kind", choices=("hoist", "omega", "central"), help="shift only, required there")
    args = parser.parse_args(argv)
    if args.command == "shift" and args.kind is None:
        parser.error("shift requires --kind")
    if args.command != "shift" and args.kind is not None:
        parser.error("--kind applies to shift only")
    return vars(args)


def outcome(parse, argv):
    """(exit code, parsed values or None, stdout, stderr lines) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, values = 0, parse(list(argv))
        except SystemExit as exc:
            code, values = exc.code, None
    return code, values, out.getvalue(), err.getvalue().splitlines()


def values(command="check", config="a.cfg", format="text", degree=2, kind=None):
    return {"command": command, "config": config, "format": format, "degree": degree, "kind": kind}


# argv -> (exit code, parsed values); None where the parse exits
SHAPES = [
    (["check", "a.cfg"], 0, values()),
    (["check", "a.cfg", "--format=json"], 0, values(format="json")),
    (["--degree", "3", "--format", "json", "axioms", "a.cfg"], 0, values("axioms", format="json", degree=3)),
    (["check", "--deg", "1", "a.cfg"], 0, values(degree=1)),
    (["check", "a.cfg", "--f=json", "--d=0"], 0, values(format="json", degree=0)),
    (["check", "a.cfg", "--=json"], 2, None),  # "--" is a prefix of every option
    (["check", "a.cfg", "--format", "json", "--format", "text"], 0, values()),
    (["check", "a.cfg", "--degree", "1", "--degree=3"], 0, values(degree=3)),
    (["check", "a.cfg", "--degree", "-1"], 0, values(degree=-1)),  # a negative number is a value
    (["check", "-1"], 0, values(config="-1")),
    (["check", "--", "-a.cfg"], 0, values(config="-a.cfg")),
    (["shift", "a.cfg", "--k=central"], 0, values("shift", kind="central")),
    (["shift", "--kind", "hoist", "a.cfg", "--format", "json"], 0, values("shift", format="json", kind="hoist")),
    (["-h"], 0, None),
    (["check", "a.cfg", "--he"], 0, None),
    (["check", "a.cfg", "--seed", "1"], 2, None),
    (["check", "a.cfg", "-x"], 2, None),
    (["check"], 2, None),
    ([], 2, None),
    (["bogus", "a.cfg"], 2, None),
    (["check", "a.cfg", "extra"], 2, None),
    (["check", "a.cfg", "--degree", "two"], 2, None),
    (["check", "a.cfg", "--degree"], 2, None),
    (["check", "a.cfg", "--degree", "--format", "json"], 2, None),
    (["check", "a.cfg", "--degree", "--", "3"], 2, None),
    (["check", "a.cfg", "--format", "xml"], 2, None),
    (["check", "a.cfg", "--format="], 2, None),
    (["check", "a.cfg", "--kind", "omega"], 2, None),
    (["shift", "a.cfg"], 2, None),
    (["shift", "a.cfg", "--kind", "twist"], 2, None),
    (["check", "a.cfg", "-hx"], 2, None),
]


@pytest.mark.parametrize("argv, code, parsed", SHAPES, ids=[" ".join(s[0]) or "(empty)" for s in SHAPES])
def test_argv_shape(argv, code, parsed):
    got, want = outcome(parse_args, argv), outcome(argparse_reference, argv)
    assert got[:2] == want[:2] == (code, parsed)
    assert got[3][-1:] == want[3][-1:]  # the same error line
    if code == 2:
        assert got[2] == "" and got[3][0] == USAGE and got[3][1].startswith("courant: error: ")
    elif parsed is None:  # help
        assert got[2].startswith(USAGE) and got[3] == []


TOKENS = [
    "check", "shift", "axioms", "bogus", "a.cfg", "-1", "-1.5", "-x", "-", "", "--", "--format", "--form",
    "--f=json", "--format=", "json", "text", "xml", "--degree", "--deg=3", "3", " 4", "two", "--kind", "--k",
    "omega", "--kind=central", "--seed", "-h", "--help", "--he", "--=x", "-h=", "-hx", "-hh", "a b", "-a b",
    "--f y", "-h=x", "---x",
]


def test_random_argv_parse_as_argparse_does():
    rng = random.Random(7)
    for _ in range(3000):
        argv = [rng.choice(TOKENS) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.7:
            argv += [rng.choice(("check", "shift", "axioms")), "a.cfg"]
            rng.shuffle(argv)
        got, want = outcome(parse_args, argv), outcome(argparse_reference, argv)
        assert (got[:2], got[3][-1:]) == (want[:2], want[3][-1:]), argv


def test_main_exits_before_reading_the_config(tmp_path):
    # a usage error never opens the config, which here does not exist
    with pytest.raises(SystemExit) as exit_info:
        with contextlib.redirect_stderr(io.StringIO()):
            main(["check", str(tmp_path / "missing.cfg"), "--degree", "x"])
    assert exit_info.value.code == 2


def test_a_second_separator_is_the_config(capsys):
    # argparse drops every "--" it hands to a positional, so it parsed the
    # config as [] here and main crashed in open() with a TypeError
    assert parse_args(["check", "--", "--"]) == values(config="--")
    assert main(["check", "--", "--"]) == 2
    assert "input error: cannot read config" in capsys.readouterr().err
