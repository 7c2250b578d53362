"""Every module of the package reads each name it imports, every function
each local name it stores, and the package each private module-level
function, class and constant it defines.  The module-level relative
imports of the package form an acyclic graph.

No module defines or imports the X^n-quotient oracle of the orbit engine
(``tests/xn_reference.py``), and none is named ``reference``.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.  A name counts as read when the syntax tree loads it
anywhere: in the module for an import, in the function or a function nested
in it for a local, in any module of the package (or an import of it by
name) for a private name.  Locals whose names start with ``_`` are exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finsub"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def unread_locals(source: str) -> list[tuple[int, str, str]]:
    """(line, function, name) of each local a function stores and never reads."""
    out = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for n in ast.walk(func) if isinstance(n, ast.Name)]
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
        stored = {}
        for n in names:
            if isinstance(n.ctx, ast.Store) and not n.id.startswith("_"):
                stored.setdefault(n.id, n.lineno)
        out += [(line, func.name, name) for name, line in stored.items() if name not in read]
    return sorted(out)


def unread_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of each private module-level function, class or
    constant that no module of ``sources`` (name to source) reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(module, node.lineno, t.id) for t in targets
                            if isinstance(t, ast.Name)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    return sorted((module, line, name) for module, line, name in defined
                  if name.startswith("_") and not name.startswith("__") and name not in read)


def import_cycle(sources: dict[str, str]) -> list[str]:
    """A cycle of module-level relative imports among ``sources`` (module
    name to source), as the modules along it with the first repeated at
    the end, or [] when there is none.  Imports inside functions are not
    edges: they run after every module has loaded."""
    graph = {}
    for module, source in sources.items():
        targets = set()
        for node in ast.parse(source).body:
            if isinstance(node, ast.ImportFrom) and node.level:
                targets.update([node.module] if node.module else
                               [alias.name for alias in node.names])
        graph[module] = sorted(targets & set(sources))
    done, path = set(), []

    def visit(module):
        path.append(module)
        for target in graph[module]:
            if target in path:
                return path[path.index(target):] + [target]
            if target not in done and (cycle := visit(target)):
                return cycle
        done.add(path.pop())
        return []

    for module in sorted(graph):
        if module not in done and (cycle := visit(module)):
            return cycle
    return []


ORACLE = {"power", "quotient", "sub_object", "collapse", "compose_maps", "SSetMap",
          "reference"}


def oracle_names(source: str) -> list[str]:
    """Names of the oracle that a module defines at its top level, or
    imports (a module named ``reference`` counts, from any package)."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, ast.Assign):
            found += [t.id for t in node.targets if isinstance(t, ast.Name)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [part for alias in node.names for part in alias.name.split(".")]
        if isinstance(node, ast.ImportFrom) and node.module:
            found += node.module.split(".")
    return sorted(set(found) & ORACLE)


def test_oracle_names_are_found():
    source = ("import numpy.reference\n"
              "from .simplicial import power as p, cell_cap\n"
              "def f():\n"
              "    from .reference import engine_mismatches\n"
              "    quotient = 1\n"
              "class SSetMap:\n"
              "    pass\n"
              "collapse = None\n")
    assert oracle_names(source) == ["SSetMap", "collapse", "power", "reference"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_keeps_the_xn_oracle_out(path):
    assert path.stem not in ORACLE
    assert oracle_names(path.read_text()) == []


def test_import_cycles_are_found():
    sources = {"a": "from .b import f\n",
               "b": ("import os\n"
                     "from .c import g\n"
                     "def f():\n"
                     "    from .a import h\n"),
               "c": "from . import a\n"}
    assert import_cycle(sources) == ["a", "b", "c", "a"]
    sources["c"] = "def g():\n    from . import a\n"
    assert import_cycle(sources) == []


def test_package_imports_are_acyclic():
    assert import_cycle({p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []


def test_unread_private_names_are_found():
    sources = {"a": ("_LIMIT = 3\n"
                     "_unused: int = 4\n"
                     "__all__ = []\n"
                     "def _used():\n"
                     "    return _LIMIT\n"
                     "def _left():\n"
                     "    pass\n"
                     "class _Gone:\n"
                     "    pass\n"),
               "b": "from a import _used\n"}
    assert unread_private_names(sources) == [("a", 2, "_unused"), ("a", 6, "_left"),
                                             ("a", 8, "_Gone")]


def test_unread_locals_are_found():
    source = ("def f(rows):\n"
              "    total, _skip = 0, 1\n"
              "    pos = {c: j for j, c in enumerate(rows)}\n"
              "    for i, r in enumerate(rows):\n"
              "        total += r\n"
              "    def g():\n"
              "        return total\n"
              "    return g\n")
    assert unread_locals(source) == [(3, "f", "pos"), (4, "f", "i")]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from dataclasses import dataclass, field\n"
              "from math import gcd as g\n"
              "def f(x: int) -> dataclass:\n"
              "    return os.path.sep\n")
    assert unused_imports(source) == [(3, "field"), (4, "g")]


def test_modules_exist():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_functions_read_every_local_they_store(path):
    assert unread_locals(path.read_text()) == []


def test_package_reads_every_private_name_it_defines():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []
