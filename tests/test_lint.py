"""No module of minkbill and no test module imports a name that it never uses,
no _private helper of minkbill outlives its last caller, and every name in
minkbill.__all__ exists.  The test environment ships no linter, so this
reads each module's syntax tree.  An imported name counts as used where the
module reads it, where __all__ lists it (the re-exports of __init__.py) and
where a string annotation names it (the TYPE_CHECKING imports)."""

import ast
import types
from pathlib import Path

import pytest

import minkbill

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "minkbill"


def _imports(tree):
    """(bound name, line) of each import but those from __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name.partition(".")[0], node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((a.asname or a.name, node.lineno) for a in node.names)


def _used(tree):
    """The names the module reads, lists in __all__ or names in a string
    annotation."""
    annotations = [node.annotation for node in ast.walk(tree)
                   if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation]
    annotations += [node.returns for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns]
    strings = [ast.parse(node.value, mode="eval") for a in annotations for node in ast.walk(a)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    used = {node.id for t in (tree, *strings) for node in ast.walk(t)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                 for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    assert [(name, line) for name, line in _imports(tree) if name not in used] == []


def test_unused_import_is_found():
    tree = ast.parse("from __future__ import annotations\nimport math\n"
                     "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n"
                     "    from .a import B\nfrom .c import D as E, F\n"
                     "x: 'B' = E\n__all__ = ['F']\n")
    used = _used(tree)
    assert [name for name, _ in _imports(tree) if name not in used] == ["math"]


def _orphans(trees):
    """The module-level _private functions and classes of the modules trees
    (name -> syntax tree) that no module reads, by name or as an attribute."""
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or (isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store))}
    return sorted(f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_") and node.name not in read)


def test_no_orphan_helper():
    """Every module-level _private function or class of minkbill is read
    somewhere in the package, so that no helper outlives its last caller."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert _orphans(trees) == []


def test_orphan_helper_is_found():
    trees = {"a": ast.parse("def _used():\n    pass\n\ndef _orphan():\n    pass\n\n"
                            "class _Kept:\n    def _method(self):\n        pass\n"),
             "b": ast.parse("from .a import _Kept\nimport a\nx = a._used()\n"
                            "def f(_orphan=1):\n    return _Kept\n")}
    assert _orphans(trees) == ["a._orphan"]


def _missing_exports(module):
    """The names that module.__all__ lists but module does not have."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_every_export_exists():
    """Every name in minkbill.__all__ is an attribute of the package, so that
    `from minkbill import *` cannot fail on a stale entry."""
    assert _missing_exports(minkbill) == []


def test_missing_export_is_found():
    module = types.ModuleType("m")
    exec("from math import pi\nx = 1\n__all__ = ['pi', 'x', 'Gone']\n", vars(module))
    assert _missing_exports(module) == ["Gone"]
