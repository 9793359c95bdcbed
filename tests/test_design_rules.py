"""The design rules that keep ``src/refta`` one path per job. Every file of
``src/refta`` and ``perfbench/`` is read and parsed once, and each rule names
the files that break it."""

from __future__ import annotations

import ast
import re
import tomllib
from collections import Counter

from conftest import REPO_ROOT

SRC = REPO_ROOT / "src" / "refta"
TEXTS = {path: path.read_text(encoding="utf-8")
         for root in (SRC, REPO_ROOT / "perfbench") for path in sorted(root.rglob("*.py"))}
TREES = {path: ast.parse(text) for path, text in TEXTS.items()}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*SCOPES, ast.ClassDef)


def _matching(pattern: str, *allowed: str) -> list[str]:
    """Each ``file:line: match`` of ``pattern`` in ``src/refta`` outside the
    ``allowed`` files."""
    return [f"{path.relative_to(REPO_ROOT)}:{line_no}: {match.group(0).strip()}"
            for path, text in TEXTS.items()
            if SRC in path.parents and path.relative_to(SRC).as_posix() not in allowed
            for line_no, line in enumerate(text.splitlines(), 1)
            for match in re.finditer(pattern, line)]


def test_only_backends_imports_concurrent_futures():
    found = _matching(r"^\s*(import|from) concurrent\b", "backends.py")
    assert not found, ("send backend requests through backends.send_batches; "
                       f"these import concurrent.futures: {found}")


def test_only_artifacts_opens_writes_or_maps_files():
    found = _matching(r"(read_text|read_bytes|write_text|write_bytes|\bopen|os\.replace)\("
                      r"|\bmmap\b", "artifacts.py")
    assert not found, f"read, write and map files through refta.artifacts; these do not: {found}"


def test_only_backends_and_index_name_send_batches():
    found = _matching(r"\bsend_batches\b", "backends.py", "index.py")
    assert not found, ("send per-item requests through backends.map_batches; "
                       f"these name send_batches: {found}")


def test_no_percentile_or_quantile():
    found = _matching(r"\b(np|numpy)\.(nan)?(percentile|quantile)\b")
    assert not found, ("np.percentile, np.quantile, np.nanpercentile and np.nanquantile import "
                       "numpy.ma lazily on NumPy 2; take percentiles as bootstrap._interval "
                       f"does, from one np.partition. These call them: {found}")


def _adds(node) -> bool:
    return any(isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "add"
               for n in ast.walk(node))


def test_only_map_batches_own_body_stores_a_reply():
    for name in ("backends.py", "pipeline.py"):
        tree = TREES[SRC / name]
        stores = {top.name for top in tree.body if isinstance(top, DEFINITIONS)
                  and top.name != "map_batches" and _adds(top)}
        # a function or lambda nested in map_batches may run on a worker thread
        stores |= {f"map_batches (line {node.lineno})" for top in tree.body
                   if getattr(top, "name", None) == "map_batches" for node in ast.walk(top)
                   if node is not top and isinstance(node, (*SCOPES, ast.Lambda))
                   and _adds(node)}
        assert not stores, ("store replies in backends.map_batches' own body; in "
                            f"src/refta/{name} these call .add: {sorted(stores)}")


def test_pipeline_names_map_batches_once_in_send():
    uses = []  # (line, innermost enclosing function) of every use of the name map_batches

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if getattr(child, "id", getattr(child, "attr", None)) == "map_batches":
                uses.append((child.lineno, scope))
            visit(child, child.name if isinstance(child, SCOPES) else scope)

    visit(TREES[SRC / "pipeline.py"], None)
    assert [scope for _, scope in uses] == ["send"], (
        "send every paid stage through translate_corpus' one send step, which alone calls "
        f"map_batches; src/refta/pipeline.py names it at (line, function) {uses}")


def _references(node) -> Counter:
    """How often ``node`` reads each name, as a name, an attribute or an import."""
    names = Counter()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names[child.id] += 1
        elif isinstance(child, ast.Attribute):
            names[child.attr] += 1
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def test_every_public_definition_in_src_has_a_caller_outside_the_tests():
    """A public module-level function or class, or a public method, classmethod
    or property of a public class, is named in ``src/refta`` or ``perfbench/``
    outside its own definition; one that only a test reaches lives with the tests."""
    scripts = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    entry_points = {target.rpartition(":")[2]
                    for target in scripts["project"]["scripts"].values()}
    named = sum(map(_references, TREES.values()), Counter())
    definitions = [(path, top.name, top) for path, tree in TREES.items() if SRC in path.parents
                   for top in tree.body if isinstance(top, DEFINITIONS)
                   and not top.name.startswith("_") and not top.decorator_list
                   and top.name not in entry_points]
    definitions += [(path, f"{top.name}.{method.name}", method)
                    for path, tree in TREES.items() if SRC in path.parents for top in tree.body
                    if isinstance(top, ast.ClassDef) and not top.name.startswith("_")
                    for method in top.body
                    if isinstance(method, DEFINITIONS) and not method.name.startswith("_")]
    uncalled = [f"{path.relative_to(REPO_ROOT)}:{name}" for path, name, node in definitions
                if named[node.name] == _references(node)[node.name]]
    assert not uncalled, f"public names no supported caller reaches: {uncalled}"
