"""No module of minkbill and no test module imports a name that it never uses,
no _private helper of minkbill outlives its last caller, every name in
minkbill.__all__ exists, and every stack that minkbill cuts into blocks takes
its block length from its module's one constant _BLOCK, which no function
takes as a parameter.  The test environment ships no linter, so this
reads each module's syntax tree.  An imported name counts as used where the
module reads it, where __all__ lists it (the re-exports of __init__.py) and
where a string annotation names it (the TYPE_CHECKING imports)."""

import ast
import re
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


def _names(node):
    """The names that an expression reads."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _carriers(function):
    """The names of a function (nested functions included) whose value is
    computed from _BLOCK, directly or through another such name."""
    flows = []  # (target names, names the value reads)
    for node in ast.walk(function):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and node.value:
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple)
                         and len(target.elts) == len(node.value.elts)
                         else [(target, node.value)])
                flows += [(_names(t), _names(v)) for t, v in pairs]
    carried = {"_BLOCK"}
    while True:
        more = set().union(*(t for t, v in flows if v & carried)) - carried
        if not more:
            return carried
        carried |= more


def _cuts(function):
    """The length expressions of the block cuts in a function: the step of
    each range(start, stop, step), and k of each slice [s:s + k] in a loop."""
    for node in ast.walk(function):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range"
                and len(node.args) == 3):
            yield node.args[2]
        if isinstance(node, (ast.For, ast.While, ast.comprehension, ast.GeneratorExp,
                             ast.ListComp)):
            for sl in ast.walk(node):
                if (isinstance(sl, ast.Slice) and isinstance(sl.upper, ast.BinOp)
                        and isinstance(sl.upper.op, ast.Add)
                        and ast.dump(sl.upper.left) == ast.dump(sl.lower or sl.upper)):
                    yield sl.upper.right


def _block_readers(trees):
    """(readers, stray cuts, block parameters) of the modules trees: the
    module-level functions that read _BLOCK; each cut whose length is not
    computed from _BLOCK, as module.function:line; and each parameter named
    as a block, chunk, batch or step length, as module.function(parameter)."""
    functions = {f"{module}.{node.name}": node for module, tree in trees.items()
                 for node in tree.body if isinstance(node, ast.FunctionDef)}
    readers = {name for name, f in functions.items() if "_BLOCK" in _names(f)}
    stray = sorted(f"{name}:{length.lineno}" for name, f in functions.items()
                   for length in _cuts(f) if not _names(length) & _carriers(f))
    params = sorted(f"{module}.{getattr(node, 'name', 'lambda')}({a.arg})"
                    for module, tree in trees.items() for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.Lambda))
                    for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                    if re.search(r"block|chunk|batch|step", a.arg, re.I))
    return readers, stray, params


def test_every_block_reads_the_block_constant():
    """A module that cuts stacks into blocks assigns _BLOCK once, at module
    level (bounce3's counts inbody LP rows, verify's the oracle's lengths),
    and no module imports another's; every stack cut into blocks in minkbill
    takes its length from it, and these are the blocked stacks; and no
    function takes a block length as a parameter, so that no caller can
    choose one."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assigned = [module for module, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
                and "_BLOCK" in set().union(*map(_names, getattr(node, "targets",
                                                                 [getattr(node, "target", None)])))]
    imported = [module for module, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and any(a.name == "_BLOCK" for a in node.names)]
    assert assigned == ["bounce3", "verify"] and imported == []
    readers, stray, params = _block_readers(trees)
    assert readers == {"bounce3._blocks", "verify.brute_force_min"}
    assert stray == [] and params == []


def test_stray_block_is_found():
    tree = ast.parse("_BLOCK = 8\n\ndef good(x):\n    step = max(1, _BLOCK // len(x))\n"
                     "    return [x[s:s + step] for s in range(0, len(x), step)]\n\n"
                     "def bad(x, block_size=4):\n    out = []\n"
                     "    for s in range(0, len(x), 4):\n"
                     "        out.append(x[s:s + block_size])\n"
                     "    return out\n\nf = lambda batch: batch\n")
    readers, stray, params = _block_readers({"m": tree})
    assert readers == {"m.good"}
    assert stray == ["m.bad:10", "m.bad:9"]
    assert params == ["m.bad(block_size)", "m.lambda(batch)"]
