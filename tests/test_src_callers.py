"""Every public function and method in ``src/courant`` has a caller there.

Scans ``src/courant/*.py`` (without ``__init__.py``, which only
re-exports) with ``ast``: each public top-level function and each public
method of a top-level class must be referenced, as a name or an
attribute, somewhere in those files outside its own definition.  A
helper that only tests use belongs in ``tests/fixtures.py``.  The
allowlist names the entry points that only demos, the README or
``bench/`` call.

Names are matched bare, so a method whose name another public method
shares counts as called when the other one is.  That blind spot kept
``Quintuple.section``, ``QuadAlgebroid.section`` and
``Quintuple.courant`` in ``src/`` while only tests called them: the
calls of ``Hoist.section`` and ``FrameBrackets.courant`` covered them.
They are now ``section``, ``ample_section`` and ``courant`` in
``tests/fixtures.py``.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "courant"

ALLOWED = {"su2", "abelian", "aform_to_str", "config_to_text", "Patch.var"}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) for each public function and method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield "%s.%s" % (node.name, item.name), item.name, item


def _references(node: ast.AST) -> Counter:
    """How often each name or attribute name is used under ``node``."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def test_every_public_function_and_method_has_a_caller_in_src():
    trees = [
        (path.name, ast.parse(path.read_text(), str(path)))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    ]
    used = sum((_references(tree) for _, tree in trees), Counter())
    uncalled, allowed_but_called = [], []
    for fname, tree in trees:
        for qualname, name, node in _definitions(tree):
            called = used[name] > _references(node)[name]
            if qualname in ALLOWED:
                if called:
                    allowed_but_called.append(qualname)
            elif not called:
                uncalled.append("%s:%s" % (fname, qualname))
    assert uncalled == []
    assert allowed_but_called == []
