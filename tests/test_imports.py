"""Every module in src/fragbox (the package __init__ aside), tests/, demos/
and bench/ uses what it imports, every module-level private function and
class in the package has a reference in it, every module-level constant of
the package is read somewhere in src, tests, bench or demos, no cache in the
package grows without bound unless allow-listed, no size is checked by hand
instead of by errors._check_count, and nothing in the package imports scipy,
a test-only dependency whose `scipy.stats` takes several times as long to
import as fragbox."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fragbox"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
LINTED = MODULES + [p for folder in ("tests", "demos", "bench")
                    for p in sorted(ROOT.glob(f"{folder}/*.py"))]


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


@pytest.mark.parametrize("path", LINTED, ids=lambda p: p.name if p.parent == SRC
                         else f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreferenced_private_definitions(sources):
    """(module, name) of module-level _private functions and classes that no
    Name or Attribute node in any of the sources (module name -> text) reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((mod, node.name) for mod, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and not node.name.startswith("__")
                  and node.name not in used)


def test_unreferenced_private_functions_detected():
    sources = {"a": "def _used():\n    pass\n\ndef _dead():\n    pass\n",
               "b": "from a import _used\n\ndef pub():\n    return _used()\n\n"
                    "def _via_attr():\n    pass\n\nx = obj._via_attr\n"}
    assert unreferenced_private_definitions(sources) == [("a", "_dead")]


def test_unreferenced_private_classes_detected():
    # a private class with methods is flagged like a function; a class
    # read by name or attribute, or a public one, is not
    sources = {"a": "class _Dead:\n    def close(self):\n        pass\n\n"
                    "class _Used:\n    pass\n\nclass Public:\n    pass\n",
               "b": "import a\n\nclass _ViaName:\n    pass\n\n"
                    "x = [a._Used(), _ViaName]\n"}
    assert unreferenced_private_definitions(sources) == [("a", "_Dead")]


def test_no_unreferenced_private_functions():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_definitions(sources) == []


def unread_constants(sources, readers):
    """(module, name) of module-level UPPER_CASE names bound in the sources
    (module name -> text) that no Name or Attribute node in the readers
    (a list of texts) loads."""
    read = set()
    for text in readers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    bound = set()
    for mod, text in sources.items():
        for node in ast.parse(text).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            bound.update((mod, t.id) for t in targets if isinstance(t, ast.Name)
                         and t.id.lstrip("_").isupper())
    return sorted((mod, name) for mod, name in bound if name not in read)


def test_unread_constants_detected():
    sources = {"a": "LIMIT = 3\n_TOL = 1e-9\nDEAD = 1\nlower = 2\n",
               "b": "from a import LIMIT\nimport a\nx = LIMIT + a._TOL\nDEAD_TOO: int = 0\n"}
    readers = list(sources.values()) + ["DEAD = 2\n"]
    assert unread_constants(sources, readers) == [("a", "DEAD"), ("b", "DEAD_TOO")]


def test_no_unread_constants():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    readers = list(sources.values()) + [p.read_text() for p in LINTED if p not in MODULES]
    assert unread_constants(sources, readers) == []


def unbounded_caches(source):
    """(line, function) of every lru_cache(maxsize=None), lru_cache(None) or
    cache, as a decorator or a call, functools-qualified or not; the
    function is the def it decorates, or None for a bare call."""
    def is_none(node):
        return isinstance(node, ast.Constant) and node.value is None

    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    def unbounded(node):
        if isinstance(node, ast.Call) and name(node.func) == "lru_cache":
            return (bool(node.args) and is_none(node.args[0])) or any(
                kw.arg == "maxsize" and is_none(kw.value) for kw in node.keywords)
        return name(node.func if isinstance(node, ast.Call) else node) == "cache"

    tree = ast.parse(source)
    found, decorators = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                decorators.add(id(dec))
                if unbounded(dec):
                    found.add((dec.lineno, node.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in decorators and unbounded(node.func):
            found.add((node.lineno, None))
    return sorted(found, key=lambda f: f[0])


def test_unbounded_caches_detected():
    src = ("import functools\nfrom functools import cache, lru_cache\n"
           "@lru_cache(maxsize=None)\ndef a(): pass\n"
           "@functools.lru_cache(None)\ndef b(): pass\n"
           "@cache\ndef c(): pass\n"
           "@functools.cache\ndef d(): pass\n"
           "@lru_cache(maxsize=64)\ndef e(): pass\n"
           "@lru_cache\ndef f(): pass\n"
           "g = lru_cache(maxsize=None)(len)\n")
    assert unbounded_caches(src) == [(3, "a"), (5, "b"), (7, "c"), (9, "d"), (15, None)]


# (module, function) -> why its cache may grow without bound.  all_partitions
# keeps Bell(n) partitions per n for the process: 30.6 MB at n = 10, about
# 1.1 GB at its cap n = 12 (a FOUND line of CHANGES.md); ROADMAP item 8
# bounds it or drops it now that rates and residuals are keyed by (class,
# block sizes) and only splitting_rule and the exchangeability checks expand.
UNBOUNDED_CACHE_ALLOWED = {("partitions.py", "all_partitions"): "ROADMAP item 8"}


def test_no_unbounded_caches():
    found = {(p.name, fn) for p in MODULES for _, fn in unbounded_caches(p.read_text())}
    assert found == set(UNBOUNDED_CACHE_ALLOWED)


SIZE_NAMES = {"n", "b", "k", "m", "j", "reps"}


def hand_written_size_checks(source):
    """Lines of the ifs whose body raises ArgumentError and whose test
    compares a size name (SIZE_NAMES) with < or <= to an int literal, on
    either side, anywhere in the test: size checks that let a float such as
    4.0 through, where errors._check_count does not."""
    def raises_argument_error(stmt):
        return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                   and getattr(node.exc.func, "id", None) == "ArgumentError"
                   for node in ast.walk(stmt))

    def size_vs_literal(a, b):
        return (isinstance(a, ast.Name) and a.id in SIZE_NAMES
                and isinstance(b, ast.Constant) and type(b.value) is int)

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.If) and any(map(raises_argument_error, node.body)):
            for cmp in ast.walk(node.test):
                if isinstance(cmp, ast.Compare):
                    sides = [cmp.left] + cmp.comparators
                    if any(isinstance(op, (ast.Lt, ast.LtE))
                           and (size_vs_literal(a, b) or size_vs_literal(b, a))
                           for op, a, b in zip(cmp.ops, sides, sides[1:])):
                        lines.append(node.lineno)
                        break
    return sorted(lines)


def test_hand_written_size_checks_detected():
    src = ("def f(n, k, x, reps, t):\n"
           "    if n < 2:\n        raise ArgumentError('n')\n"
           "    if not (1 <= k <= t) or x < 1:\n        raise ArgumentError('k')\n"
           "    if x < 1 or t.n < 2:\n        raise ArgumentError('x')\n"
           "    if reps < 1:\n        raise ValueError('reps')\n"
           "    if n > 10:\n        raise ArgumentError('cap')\n"
           "    if k < 2.5:\n        raise ArgumentError('float')\n"
           "    if t:\n        if reps <= 0:\n            raise ArgumentError('reps')\n")
    assert hand_written_size_checks(src) == [2, 4, 15]


def test_no_hand_written_size_checks():
    found = {(p.name, line) for p in MODULES for line in hand_written_size_checks(p.read_text())}
    assert found == set()


def imported_modules(source):
    """Absolute module names named by the import statements, at any depth."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return names


def test_imported_modules_detected():
    src = "import os.path\nfrom . import x\ndef f():\n    from scipy import stats\n"
    assert imported_modules(src) == {"os.path", "scipy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_scipy_import(path):
    assert not {m for m in imported_modules(path.read_text())
                if m.split(".")[0] == "scipy"}


def test_import_loads_no_scipy():
    code = ("import sys, fragbox\n"
            "print(sorted(m for m in ('scipy', 'scipy.stats') if m in sys.modules))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       cwd=SRC.parent)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
