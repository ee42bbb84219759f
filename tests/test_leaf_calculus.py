"""The leaf calculus lives in ``geometry.Patch``.

``Patch.d(f, a)`` is the one leaf derivative and ``Patch.along(x, f)``
the one directional derivative sum_a x^a d_a f: the anchor, the vector
field bracket and the Lie derivative of a covector are written through
them, and an ``ast`` scan keeps every other ``diff`` call out of
``src/courant``.  The formulas are checked here against the literal
coordinate sums they replaced.
"""

import ast
import random
from pathlib import Path

from courant import Patch, Poly
from fixtures import fixture_c, rand_poly

SRC = Path(__file__).resolve().parent.parent / "src" / "courant"


def _diff_calls(tree: ast.Module):
    """(enclosing class or None, function name, line) of each call of an
    attribute named ``diff``."""
    found = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, fn)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, cls, child.name)
            else:
                if (
                    isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "diff"
                ):
                    found.append((cls, fn, child.lineno))
                visit(child, cls, fn)

    visit(tree, None, None)
    return found


def test_only_patch_methods_call_diff():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for cls, fn, line in _diff_calls(ast.parse(path.read_text(), str(path))):
            if (path.name, cls) != ("geometry.py", "Patch"):
                outside.append("%s:%d (%s.%s)" % (path.name, line, cls, fn))
    assert outside == []


def test_diff_scan_sees_a_call_outside_patch():
    sample = "class Patch:\n    def d(self, f, a):\n        return f.diff(a)\n\ndef g(f):\n    return f.diff(1)\n"
    assert _diff_calls(ast.parse(sample)) == [("Patch", "d", 3), (None, "g", 6)]


def test_linalg_has_no_matrix_derivative():
    tree = ast.parse((SRC / "linalg.py").read_text())
    assert "poly_mat_diff" not in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def literal_along(x, f):
    return sum((xa * f.diff(a) for a, xa in enumerate(x, start=1)), Poly.zero(f.nvars))


def test_along_is_the_directional_derivative():
    rng = random.Random(24)
    patch = Patch(4, 3)
    for _ in range(40):
        x = [rand_poly(rng, 4, 2, terms=rng.randint(0, 2)) for _ in range(3)]
        f = rand_poly(rng, 4, 3, terms=rng.randint(0, 3))
        assert patch.along(x, f) == literal_along(x, f)
        for a in range(1, 4):
            assert patch.d(f, a) == f.diff(a)


def test_along_skips_zero_operands(monkeypatch):
    patch = Patch(3, 3)
    x1, x3 = patch.var(1), patch.var(3)
    calls = []
    diff = Poly.diff
    monkeypatch.setattr(Poly, "diff", lambda f, a: calls.append(a) or diff(f, a))
    assert patch.along([x1, patch.zero(), x1], patch.zero()) == patch.zero()
    assert calls == []  # a zero f
    assert patch.along([x1, patch.zero(), x3], x3 * x3) == (x3 * x3).scale(2)
    assert calls == [1, 3]  # a zero x^2


def test_structure_maps_match_the_literal_coordinate_sums():
    q = fixture_c()
    rng = random.Random(7)
    p, n = q.patch.p, q.patch.n
    for _ in range(10):
        x1, x2, xi = ([rand_poly(rng, n, 2, terms=rng.randint(0, 2)) for _ in range(p)] for _ in range(3))
        u = q.zero_section()
        u.x = x1
        f = rand_poly(rng, n, 3)
        assert q.anchor_apply(u, f) == literal_along(x1, f)
        assert q.vf_bracket(x1, x2) == [literal_along(x1, g2) - literal_along(x2, g1) for g1, g2 in zip(x1, x2)]
        lie = [
            literal_along(x1, xib) + sum((xia * xa.diff(b) for xa, xia in zip(x1, xi)), q.zero_poly())
            for b, xib in enumerate(xi, start=1)
        ]
        assert q.lie_covector(x1, xi) == lie
