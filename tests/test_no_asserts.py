"""The package never relies on `assert` for a runtime check: `python -O`
strips assert statements, so every such check must be an explicit raise."""

import ast
from pathlib import Path

import polarkit

PACKAGE = Path(polarkit.__file__).resolve().parent


def test_no_assert_statements_in_package():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
