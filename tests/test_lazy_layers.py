"""The lazy command layers: ``charform`` and ``morphism`` run on first use.

``courant/__init__.py`` registers both in ``sys.modules`` at import
time and executes each on its first attribute access, so a command
compiles only the layers it calls.  Each load test runs in a fresh
interpreter, since this test process has loaded everything already.
``type()`` reads a module's class without forcing the load; any
attribute access forces it.
"""

import ast
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import courant

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "demos" / "configs"
LAZY = ("charform", "morphism")
EAGER = ("poly", "fiber", "linalg", "geometry", "ample", "dorfman", "report")


def _fresh(code: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["check", "fixture_d.cfg"], []),
        (["axioms", "fixture_c.cfg", "--degree", "1"], []),
        (["pontryagin", "fixture_d.cfg"], []),
        (["check", "fixture_c_shift.cfg"], []),
        (["pontryagin", "fixture_d_hoist.cfg"], []),
        (["naive", "fixture_d.cfg"], ["charform"]),
        (["transport", "fixture_c_shift.cfg", "--degree", "0"], ["charform", "morphism"]),
    ],
    ids=["check", "axioms", "pontryagin", "check-iso", "pontryagin-hoist", "naive", "transport"],
)
def test_a_command_runs_only_the_lazy_layers_it_uses(argv, loaded):
    argv = [argv[0], str(CONFIGS / argv[1])] + argv[2:]
    code = (
        "import contextlib, io, sys, types\n"
        "from courant.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    main(%r)\n"
        "print([m for m in %r if type(sys.modules['courant.' + m]) is types.ModuleType])\n"
    ) % (argv, LAZY)
    assert _fresh(code) == [repr(loaded)]


def test_import_cli_loads_no_json_and_no_lazy_layer():
    code = (
        "import sys, types, courant.cli\n"
        "print('json' in sys.modules)\n"
        "print([m for m in %r if type(sys.modules['courant.' + m]) is types.ModuleType])\n"
    ) % (LAZY,)
    assert _fresh(code) == ["False", "[]"]


def test_reading_a_lazy_module_dict_loads_it():
    # bench/tracing.py wraps each layer through vars(module)
    code = (
        "import sys, types, courant.cli\n"
        "print(type(vars(sys.modules['courant.morphism'])['transport']) is types.FunctionType)\n"
    )
    assert _fresh(code) == ["True"]


def _package_names() -> set:
    """The names the demos, the README's Python blocks and the pool
    builder (``cr.<name>``) take from ``courant``."""
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("0*.py"))]
    sources += re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    names = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "courant":
                names.update(alias.name for alias in node.names)
    names.update(re.findall(r"\bcr\.(\w+)", (ROOT / "bench" / "make_pool.py").read_text()))
    return names


def test_package_serves_every_export():
    names = _package_names()
    assert {"Quintuple", "transport", "standard_three_form", "su2"} <= names
    for name in sorted(names):
        obj = getattr(courant, name)
        assert obj is getattr(sys.modules[obj.__module__], name)
    with pytest.raises(AttributeError):
        courant.no_such_name


def test_package_exports_only_what_demos_readme_and_pool_use():
    # tests import everything else from the module that defines it
    eager = {
        name for name, obj in vars(courant).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert eager | set(courant._LAZY_EXPORTS) == _package_names()
    assert not hasattr(courant, "__all__")


def _module_level_imports(tree: ast.Module):
    """The dotted names each top-level import statement mentions."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            yield base
            yield from ("%s.%s" % (base, alias.name) for alias in node.names)


@pytest.mark.parametrize("layer", EAGER)
def test_eager_layers_never_import_a_lazy_one(layer):
    tree = ast.parse((SRC / "courant" / (layer + ".py")).read_text())
    assert [name for name in _module_level_imports(tree) if set(name.split(".")) & set(LAZY)] == []
