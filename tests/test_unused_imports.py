"""Every name a module under src/perimetric or tests imports, or defines as private, is used there.

A name left behind by a deletion (an `lcm`, an `Iterable`) still costs its
import on every run, and its module's compile too wherever no bytecode
cache is written. `__init__.py` imports names only to export them, and
`from __future__` imports are compiler switches, so both are skipped.
A module-level private name (`_x`: a function, a class or an assignment)
is there for its own module only, so one that module never reads is a
helper a change left behind. So is a public function of tests/helpers.py
that neither a test module nor helpers.py itself reads.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "perimetric"
MODULES = sorted(path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py") + sorted(TESTS.rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement anywhere in `source` and never read there."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    # an attribute chain starts at a Name, so `kernels.SCALE` reads `kernels`
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def unread_private_names(source: str) -> list[str]:
    """Module-level `_x` functions, classes and assigned names that `source` never reads."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in defined - read if name.startswith("_") and not name.startswith("__"))


def unread_public_functions(source: str, readers: list[str]) -> list[str]:
    """Module-level public functions of `source` that neither it nor any of `readers` reads."""
    defined = {
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    }
    read = {
        node.id
        for text in (source, *readers)
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(defined - read)


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_every_public_helper_is_read():
    readers = [path.read_text(encoding="utf-8") for path in sorted(TESTS.rglob("test_*.py"))]
    assert unread_public_functions((TESTS / "helpers.py").read_text(encoding="utf-8"), readers) == []


def test_the_check_finds_a_name_left_behind():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from math import gcd, lcm\n"
        "from typing import Iterable as It, Sequence\n"
        "def f(x: Sequence) -> int:\n"
        "    import json\n"
        "    return gcd(x, 2) + len(os.sep)\n"
    )
    assert unused_imports(source) == ["It", "json", "lcm"]


def test_the_check_finds_a_private_helper_left_behind():
    source = (
        "__all__ = ['f']\n"
        "_KEPT = 1\n"
        "_LEFT, (_PAIR, kept) = 2, (3, 4)\n"
        "_typed: int = 5\n"
        "def _helper():\n"
        "    _local = 6\n"
        "    return _KEPT\n"
        "class _Unused:\n"
        "    pass\n"
        "def f():\n"
        "    return _helper()\n"
    )
    assert unread_private_names(source) == ["_LEFT", "_PAIR", "_Unused", "_typed"]


def test_the_check_finds_a_public_helper_left_behind():
    source = (
        "def kept():\n"
        "    return inner()\n"
        "def inner():\n"
        "    return 1\n"
        "def left(x):\n"
        "    return x\n"
        "def _private():\n"
        "    pass\n"
        "class Record:\n"
        "    def method(self):\n"
        "        pass\n"
    )
    reader = "from helpers import kept, left\nkept()\ndef left():\n    pass\n"
    assert unread_public_functions(source, [reader]) == ["left"]
