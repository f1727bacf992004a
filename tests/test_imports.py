"""Every module in src/fragbox (the package __init__ aside) uses what it
imports, and every module-level private function has a reference in the
package."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fragbox"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by import statements (at any depth) that no Name node reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_imports_detected():
    src = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.zeros(c)\n"
    assert unused_imports(src) == [(1, "os"), (3, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_functions(sources):
    """(module, name) of module-level _private functions that no Name or
    Attribute node in any of the sources (module name -> text) reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((mod, node.name) for mod, tree in trees.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                  and not node.name.startswith("__") and node.name not in used)


def test_unreferenced_private_functions_detected():
    sources = {"a": "def _used():\n    pass\n\ndef _dead():\n    pass\n",
               "b": "from a import _used\n\ndef pub():\n    return _used()\n\n"
                    "def _via_attr():\n    pass\n\nx = obj._via_attr\n"}
    assert unreferenced_private_functions(sources) == [("a", "_dead")]


def test_no_unreferenced_private_functions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_functions(sources) == []
