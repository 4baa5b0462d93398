"""Every float product of the package runs in _linalg, under the one
exactness rule proved in its docstring: no other module may name a float
dtype or round a float."""

import ast
from pathlib import Path

import polarkit

PACKAGE = Path(polarkit.__file__).resolve().parent
FLOAT_NAMES = {"rint", "floor", "float32", "float64"}


def test_no_float_dtype_or_rounding_outside_linalg():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "_linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.relative_to(PACKAGE)}:{node.lineno} np.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES
                  and isinstance(node.value, ast.Name)
                  and node.value.id in ("np", "numpy")]
    assert found == []
