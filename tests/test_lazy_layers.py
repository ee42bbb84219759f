"""The lazy layers: ``linalg``, ``axioms``, ``charform`` and ``morphism``
run on first use.

``courant/__init__.py`` registers each in ``sys.modules`` at import
time and executes it on its first attribute access, so a command
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
LAZY = ("linalg", "axioms", "charform", "morphism")


def _fresh(code: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["check", "fixture_d.cfg"], ["linalg", "axioms"]),
        (["axioms", "fixture_c.cfg", "--degree", "1"], ["axioms"]),
        (["pontryagin", "fixture_d.cfg"], []),
        (["check", "fixture_c_shift.cfg"], ["linalg", "axioms"]),
        (["pontryagin", "fixture_d_hoist.cfg"], []),
        (["charform", "fixture_d.cfg"], []),
        (["naive", "fixture_d.cfg"], []),
        (["chernweil", "fixture_d.cfg"], ["charform"]),
        (["shift", "fixture_d_hoist.cfg", "--kind", "hoist"], ["linalg", "morphism"]),
        (["transport", "fixture_c_shift.cfg", "--degree", "0"], ["linalg", "morphism"]),
    ],
    ids=[
        "check", "axioms", "pontryagin", "check-iso", "pontryagin-hoist", "charform", "naive", "chernweil",
        "shift", "transport",
    ],
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
        "print([m for m in ('json', 'argparse', 'gettext') if m in sys.modules])\n"
        "print([m for m in %r if type(sys.modules['courant.' + m]) is types.ModuleType])\n"
    ) % (LAZY,)
    assert _fresh(code) == ["[]", "[]"]


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


def _runs_at_import(node: ast.AST):
    """``node`` and every node under it that runs when its module is
    imported: not the bodies of functions and lambdas (their decorators
    and defaults do run), and not annotations, which ``from __future__
    import annotations`` leaves unevaluated."""
    yield node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        children = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
        children += getattr(node, "decorator_list", [])
    else:
        children = []
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                children += [v for v in (value if isinstance(value, list) else [value]) if isinstance(v, ast.AST)]
    for child in children:
        yield from _runs_at_import(child)


def lazy_bindings(source: str) -> list:
    """The lines of ``source`` that would run a lazy layer at import: a
    name imported from it, or an attribute read off its module object.
    ``from . import linalg`` binds the module object without running it."""
    found = []
    for node in _runs_at_import(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[-1] in LAZY and module[:-1] in ([], ["courant"]):
                found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in LAZY:
            found.append(node.lineno)
    return found


def test_lazy_layers_are_those_the_package_registers():
    init = (SRC / "courant" / "__init__.py").read_text()
    assert re.findall(r'_register_lazy\(__name__ \+ "\.(\w+)"\)', init) == list(LAZY)


def test_lazy_bindings_finds_what_runs_at_import():
    source = (
        "from . import linalg\n"  # 1: the module object only
        "from .linalg import solve\n"  # 2
        "from courant.morphism import transport\n"  # 3
        "ONE = linalg.ONE\n"  # 4
        "def f(x=charform.HALF, *, y: linalg.Row = None) -> axioms.Report:\n"  # 5: the default
        "    return linalg.solve(x)\n"
        "class C:\n"
        "    z = morphism.HALF\n"  # 8: a class body runs at import
        "    g = lambda self: linalg.solve(self)\n"
    )
    assert lazy_bindings(source) == [2, 3, 4, 5, 8]


@pytest.mark.parametrize("layer", sorted(path.stem for path in (SRC / "courant").glob("*.py")))
def test_eager_layers_never_import_a_lazy_one(layer):
    # every module, lazy ones too: importing it binds each lazy layer as a
    # module object, so no lazy layer runs before a command calls it
    assert lazy_bindings((SRC / "courant" / (layer + ".py")).read_text()) == []
