"""No module of the package keeps a module-level import it never uses. A
name that the traced benchmark wraps at a module (``hook_points()`` in
``perfbench/spans.py``) is exempt there: it must stay that module's
attribute even where the module itself no longer calls it."""

import ast
from pathlib import Path

from helpers import perfbench_module

SRC = Path(__file__).resolve().parent.parent / "src" / "fdist"


def unused_imports(source: str) -> set:
    """Names bound by the module-level imports of source that no name
    expression in it reads."""
    tree = ast.parse(source)
    bound = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_finds_an_unused_import():
    source = "import os.path\nfrom x import a, b as c\nfrom . import d\n\nc(d)\n"
    assert unused_imports(source) == {"os", "a"}


def test_no_module_keeps_an_unused_import():
    hooks = perfbench_module("spans").hook_points()
    wrapped = {(module.__name__, attr) for module, attr, _, _ in hooks}
    modules = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert modules
    unused = [
        f"fdist.{path.stem}.{name}"
        for path in modules
        for name in sorted(unused_imports(path.read_text(encoding="utf-8")))
        if (f"fdist.{path.stem}", name) not in wrapped
    ]
    assert unused == []
