"""Checks on the package source itself rather than on its results."""

from __future__ import annotations

import ast

from conftest import REPO

PACKAGE = REPO / "src" / "lanefair"
TESTS = REPO / "tests"


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
