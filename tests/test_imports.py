"""Every top-level import of a library module is used, every module-level
constant is read, every name a module exports exists, and no function or
method carries a functools cache.

Parses src/mgrid/*.py with ast: a name bound by a module-level import must
appear as a name somewhere else in the module or in its __all__.  The
package __init__ (which imports to re-export) and __future__ imports are
exempt.  A name bound by a module-level assignment (dunders exempt) must be
read in its module, listed in its __all__, or imported by another library
module.  A module-level private function or class (one leading underscore)
must be referenced by some library module outside its own body.  Every
name in a module's __all__ must be an attribute of the imported module.
A cache decorator (lru_cache, cache, cached_property) would keep
process-global state, so two identical calls could do different work and
memory would grow with the calls made.
"""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mgrid"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
EXPORTERS = [p for p in MODULES if "__all__" in p.read_text()]


def unused_imports(source: str) -> list:
    """Names bound by module-level imports that the module never uses."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import math\nimport os\n\nx = math.pi\n") == ["os"]
    assert unused_imports("from a import b, c\n__all__ = ['c']\nb()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


def unread_constants(sources: dict) -> list:
    """(module, name) of every module-level constant in sources (module stem
    -> source) that nothing reads: no load of it in its own module, no entry
    in that module's __all__, no `from .module import name` elsewhere."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    imported = {(node.module.rpartition(".")[2], alias.name)
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                for alias in node.names}
    found = []
    for mod, tree in trees.items():
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        bound = []
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            if names == ["__all__"]:
                read.update(ast.literal_eval(node.value))
            bound += names
        found += [(mod, name) for name in bound if not name.startswith("__")
                  and name not in read and (mod, name) not in imported]
    return sorted(found)


def test_checker_flags_an_unread_constant():
    sources = {"a": "X = 1\nY, _Z = 2, 3\n__all__ = ['Y']\n__version__ = '0'\n",
               "b": "from .a import X\nW = 4\n\ndef f():\n    return W\n"}
    assert unread_constants(sources) == [("a", "_Z")]
    assert unread_constants({"a": sources["a"]}) == [("a", "X"), ("a", "_Z")]


def test_every_module_level_constant_is_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_constants(sources) == []


def unreferenced_private_defs(sources: dict) -> list:
    """(module, name) of every module-level private function or class in
    sources (module stem -> source) that no top-level statement of any
    module but its own definition names: as a name, an attribute or an
    imported name."""
    statements = [(mod, node) for mod, src in sources.items() for node in ast.parse(src).body]
    names = [{n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
              else n.name for n in ast.walk(node)
              if isinstance(n, (ast.Name, ast.Attribute, ast.alias))} for _mod, node in statements]
    found = []
    for i, (mod, node) in enumerate(statements):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and not any(node.name in used for k, used in enumerate(names) if k != i)):
            found.append((mod, node.name))
    return sorted(found)


def test_checker_flags_an_unreferenced_private_def():
    sources = {"a": "def _f(n):\n    return _f(n - 1)\n\ndef _g():\n    pass\n\n"
                    "class _C:\n    pass\n\nclass _D:\n    pass\n\n"
                    "def __getattr__(name):\n    pass\n\nX = _g\n",
               "b": "from .a import _C\nfrom . import a\n\ndef h():\n    return a._D\n"}
    assert unreferenced_private_defs(sources) == [("a", "_f")]
    assert unreferenced_private_defs({"a": sources["a"]}) == [("a", "_C"), ("a", "_D"), ("a", "_f")]


def test_every_private_def_is_referenced():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_defs(sources) == []


CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}


def cache_decorators(source: str) -> list:
    """(line, name) of every functools cache decorator in the source, bare
    (@lru_cache), called (@lru_cache(maxsize=8)) or qualified
    (@functools.cache)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for dec in node.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name in CACHE_DECORATORS:
                found.append((dec.lineno, name))
    return sorted(found)


def test_checker_flags_a_cache_decorator():
    src = ("@lru_cache(maxsize=None)\ndef f(x):\n    return x\n\n"
           "class A:\n    @functools.cached_property\n    def g(self):\n        return 1\n\n"
           "@cache\ndef h():\n    pass\n\n@dataclass(frozen=True)\nclass B:\n    pass\n")
    assert cache_decorators(src) == [(1, "lru_cache"), (6, "cached_property"), (10, "cache")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_cache_decorator(path):
    assert cache_decorators(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", EXPORTERS, ids=lambda p: p.name)
def test_every_exported_name_resolves(path):
    module = importlib.import_module(f"mgrid.{path.stem}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
