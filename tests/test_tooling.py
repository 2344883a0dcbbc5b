"""Checks on the package source itself rather than on its results."""

from __future__ import annotations

import ast
from collections import defaultdict

from conftest import REPO

PACKAGE = REPO / "src" / "lanefair"
TESTS = REPO / "tests"
BENCHMARKS = REPO / "benchmarks"

# Paper analyses that README documents but no command reaches yet; ROADMAP
# direction 7 gives them routes (meta --heterogeneity and --correlate).
UNROUTED = {"predict_range", "cross_group_correlation"}


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level or module == "lanefair" or module.startswith("lanefair."):
                found += [f"{path.relative_to(REPO)}: {'.' * node.level}{module} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found, found


def _sources() -> tuple[dict, defaultdict]:
    """The parsed package and benchmark modules, and every Name or Attribute
    node in them by the name it reads."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCHMARKS.glob("*.py"))}
    uses = defaultdict(set)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].add(node)
            elif isinstance(node, ast.Attribute):
                uses[node.attr].add(node)
    return trees, uses


def _public_functions(body: list) -> list[ast.FunctionDef]:
    return [node for node in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_every_public_function_has_a_caller_outside_the_tests():
    """A public module-level function is named (as a Name or an Attribute)
    somewhere in the package or the benchmarks other than its own body."""
    trees, uses = _sources()
    unreached = [f"{path.stem}.{node.name}"
                 for path, tree in trees.items() if path.parent == PACKAGE
                 for node in _public_functions(tree.body)
                 if node.name not in UNROUTED and not uses[node.name] - set(ast.walk(node))]
    assert not unreached, unreached


def test_every_public_member_has_a_caller_outside_the_tests():
    """A public method or property of a package class is read as an Attribute
    somewhere in the package or the benchmarks other than its own body."""
    trees, uses = _sources()
    unreached = [f"{path.stem}.{cls.name}.{node.name}"
                 for path, tree in trees.items() if path.parent == PACKAGE
                 for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in _public_functions(cls.body)
                 if not {use for use in uses[node.name] if isinstance(use, ast.Attribute)}
                 - set(ast.walk(node))]
    assert not unreached, unreached
