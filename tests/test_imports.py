"""Every module of the package reads each name it imports, and every
function each local name it stores.

``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.  A name counts as read when the syntax tree loads it
anywhere: in the module for an import, in the function or a function nested
in it for a local.  Locals whose names start with ``_`` are exempt.
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
