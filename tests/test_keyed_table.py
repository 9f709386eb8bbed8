"""unification decides its label table on stored part keys alone: it reads
no view of a keyed value (``entries``, ``slices``, ``steps``) and calls no
focal method (``issuperset``, ``issubset``, ``intersects``). truth_cell is
library-only, so the view counter over the golden CLI matrix
(tests/test_golden.py) cannot see it; this check reads the source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fdist"
VIEWS = {"entries", "slices", "steps"}
FOCAL_METHODS = {"issuperset", "issubset", "intersects"}


def focal_reads(source: str) -> list:
    """(line, name) of each view attribute that source reads and each focal
    method it calls, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in VIEWS:
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in FOCAL_METHODS):
            found.append((node.lineno, node.func.attr))
    return sorted(found)


def test_finds_views_and_focal_methods():
    source = "m.entries\ns.slices[0]\nlen(f.steps)\na.issuperset(b)\na.intersects\nx.issubset(y)\n"
    assert focal_reads(source) == [
        (1, "entries"), (2, "slices"), (3, "steps"), (4, "issuperset"), (6, "issubset"),
    ]


def test_unification_reads_keys_alone():
    assert focal_reads((SRC / "unification.py").read_text(encoding="utf-8")) == []
