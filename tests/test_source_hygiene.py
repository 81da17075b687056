"""Leftovers of a deletion fail here: an import no code uses, a private
function, class or method nothing in src/ calls, a private attribute that
is written but never read, and a module-level constant nothing in src/
reads.

Each src/sfcsim/*.py module is parsed, not imported; __init__.py only
re-exports, so its imports are exempt. A name counts as used when it is
read anywhere in src/: as a bare name, or as the attribute of any object.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sfcsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TREES = {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _reads(tree) -> set[str]:
    """Every name the tree reads: bare names, and attributes in load context
    or in an augmented assignment (which reads before it writes)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            names.add(node.target.attr)
    return names


SRC_READS = set().union(*(_reads(tree) for tree in TREES.values()))


def _defined_privates(tree):
    """(line, name) of each private top-level function or class and each
    private method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and _private(node.name):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and _private(item.name):
                    yield item.lineno, f"{node.name}.{item.name}"


def _targets(node):
    """The names and attributes an assignment node stores to, tuple targets
    unpacked; nothing for any other node."""
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    stack = list(targets)
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        else:
            yield target


def _module_constants(tree):
    """(line, name) of each name a module binds by assignment at its top level."""
    for node in tree.body:
        for target in _targets(node):
            if isinstance(target, ast.Name):
                yield target.lineno, target.id


def _self_writes(tree):
    """(line, attr) of each `self._x = ...` write, tuple targets included."""
    for node in ast.walk(tree):
        for target in _targets(node):
            if isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name) \
                    and target.value.id == "self" and _private(target.attr):
                yield target.lineno, target.attr


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = TREES[path]
    used = _reads(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"line {node.lineno}: {bound}")
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    dead = [f"line {line}: {name}" for line, name in _defined_privates(TREES[path])
            if name.rpartition(".")[2] not in SRC_READS]
    assert not dead, f"{path.name} defines private names nothing in src/ references: {dead}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_constant_is_read(path):
    unread = [f"line {line}: {name}" for line, name in _module_constants(TREES[path])
              if name not in SRC_READS]
    assert not unread, f"{path.name} defines constants nothing in src/ reads: {unread}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_attribute_written_is_read(path):
    unread = sorted({f"self.{attr}" for _, attr in _self_writes(TREES[path])
                     if attr not in SRC_READS})
    assert not unread, f"{path.name} writes attributes nothing in src/ reads: {unread}"


def test_the_checks_see_a_leftover():
    """Each check flags a planted leftover of the kind it looks for."""
    planted = ast.parse(
        "from functools import cache\n"
        "ALLOCATE = \"AllocateVnf\"\n"
        "IDLE_WAIT = \"IdleWait\"\n"
        "KINDS = (ALLOCATE,)\n"
        "def _orphan():\n    pass\n"
        "class Net:\n"
        "    def __init__(self):\n        self._memo_of = None\n"
        "    def _unused(self):\n        pass\n")
    assert "cache" not in _reads(planted)
    assert [name for _, name in _defined_privates(planted)] == ["_orphan", "Net._unused"]
    reads = _reads(planted)
    assert [name for _, name in _module_constants(planted) if name not in reads] \
        == ["IDLE_WAIT", "KINDS"]
    assert [attr for _, attr in _self_writes(planted)] == ["_memo_of"]
    assert "_memo_of" not in _reads(planted)
