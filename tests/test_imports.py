"""Every module of the package uses each name it imports, imports only at
module level, and every private module-level function and class is
referenced somewhere in it.

``__init__.py`` re-exports, so its imports are not checked for use; a line
marked ``# noqa: F401`` keeps its import on purpose.
"""

import ast
import collections
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "powerdex"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    # bound name -> line of its import, skipping the lines marked noqa: F401
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                names[alias.asname or alias.name.split(".")[0]] = alias.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_package_has_modules_to_check():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported(tree, source.splitlines()).items()
        if name not in used
    )
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports_inside_its_body(path):
    # an import run at call time would hide a cycle between the package's
    # modules, and its cost from the time ``import powerdex`` takes
    tree = ast.parse(path.read_text())
    lazy = sorted({
        f"{function.name} (line {node.lineno})"
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })
    assert not lazy, f"{path.name} imports inside functions: {', '.join(lazy)}"


def _references(node: ast.AST) -> collections.Counter:
    # the names read below ``node``: as names, attributes and imports
    found = collections.Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found[child.id] += 1
        elif isinstance(child, ast.Attribute):
            found[child.attr] += 1
        elif isinstance(child, ast.alias):
            found[child.name] += 1
    return found


def test_every_private_helper_is_referenced_somewhere_in_the_package():
    trees = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    helpers = [
        node
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert helpers, "the package defines private helpers"
    everywhere = sum((_references(tree) for tree in trees), collections.Counter())
    # a helper's references to itself, as in a recursion, do not count
    dead = sorted(h.name for h in helpers if everywhere[h.name] == _references(h)[h.name])
    assert not dead, f"private helpers that nothing in src/ references: {', '.join(dead)}"
