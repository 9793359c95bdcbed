"""Every public module-level function and class in ``src/refta`` has a caller
outside the tests: somewhere in ``src/refta`` or ``perfbench/`` names it
outside its own definition. An entry point that only a test reaches lives
with the tests instead."""

from __future__ import annotations

import ast
import tomllib

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "refta"
CALLERS = (SRC, REPO_ROOT / "perfbench")


def _references(node) -> set:
    """The names ``node`` reads, as a name, an attribute or an import."""
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def test_every_public_definition_in_src_has_a_caller_outside_the_tests():
    scripts = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    entry_points = {target.rpartition(":")[2]
                    for target in scripts["project"]["scripts"].values()}
    modules = {path: ast.parse(path.read_text(encoding="utf-8"))
               for root in CALLERS for path in sorted(root.rglob("*.py"))}
    definitions = [(path, top) for path, tree in modules.items() if SRC in path.parents
                   for top in tree.body
                   if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                   and not top.name.startswith("_") and not top.decorator_list
                   and top.name not in entry_points]
    uncalled = []
    for path, definition in definitions:
        # every top-level statement of every module but the definition itself
        others = (top for tree in modules.values() for top in tree.body if top is not definition)
        if not any(definition.name in _references(top) for top in others):
            uncalled.append(f"{path.relative_to(REPO_ROOT)}:{definition.name}")
    assert not uncalled, f"public names no supported caller reaches: {uncalled}"
