"""Value types in ``src/courant`` compare through ``report.Record``.

Scans ``src/courant/*.py`` with ``ast``: no class defines ``__eq__``
except ``poly.Poly``, which compares by value and hashes, and
``report.Record``, whose field-by-field ``==`` every other value type
inherits by declaring ``_fields``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "courant"

ALLOWED = {"poly.Poly", "report.Record"}


def hand_written_eq(src: Path = SRC):
    """Qualified names of the classes in ``src`` that define ``__eq__``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "__eq__" for item in node.body
            ):
                found.append("%s.%s" % (path.stem, node.name))
    return found


def test_only_poly_and_record_define_eq():
    assert sorted(hand_written_eq()) == sorted(ALLOWED)
