"""One frame index for forms on A.

A frame element of A = G + F is named by its position t in a section's
``r + x``: e_{t+1} for t < m and d/dx_{t+1-m} after that.
``ample.frame_wedge`` is the one key -> position formula,
``AForm.eval_frame`` the one position -> key split, and
``ample.frame_positions`` reads a frame's position off its sections.
An ``ast`` scan keeps ("g", i) / ("f", a) frame symbols, a second name
for the same frame element, out of ``src/courant``.
"""

import ast
from pathlib import Path

import pytest

from courant.ample import frame_positions
from courant.dorfman import standard_three_form
from fixtures import fixture_a, fixture_c, fixture_d

SRC = Path(__file__).resolve().parent.parent / "src" / "courant"


def _frame_symbols(tree: ast.Module):
    """Line of each 2-tuple literal whose first element is "g" or "f"."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 2
        and isinstance(node.elts[0], ast.Constant)
        and node.elts[0].value in ("g", "f")
    ]


def test_src_names_no_frame_symbol():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += ["%s:%d" % (path.name, line) for line in _frame_symbols(ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_frame_symbol_scan_sees_a_symbol():
    sample = 'x = [("g", i) for i in r]\ny = ("f", 2)\nlabel = "g" * 3\nz = ("h", 1)\nw = ("g", 1, 2)\n'
    assert sorted(_frame_symbols(ast.parse(sample))) == [1, 2]


def test_frame_positions_of_the_courant_frame():
    # delta^a has no position; e_i and d/dx_a follow in r + x order
    for q in (fixture_a(), fixture_c(), fixture_d()):
        m, p = q.fiber.dim, q.patch.p
        assert frame_positions(q.frame_sections()) == [None] * p + list(range(m + p))


def test_eval_sections_checks_section_shape():
    q = fixture_d()
    c = standard_three_form(q)
    e1, e2, e3 = q.fiber_elem(1), q.fiber_elem(2), q.fiber_elem(3)
    assert c.eval_sections([e1, e2, e3]) == c.eval_frame([0, 1, 2])
    # a longer r would shift every leaf position by one
    long_r = q.fiber_elem(1)
    long_r.r = long_r.r + [q.patch.one()]
    short_x = q.coord(1)
    short_x.x = short_x.x[:-1]
    for bad in (long_r, short_x):
        with pytest.raises(ValueError, match="section shape"):
            c.eval_sections([bad, e2, e3])
