"""_linalg has one scalar vector helper left, vec_mat, and one caller of it:
Semisimilarity.apply, which images one vector.  Everything else works on
code arrays through _linalg.mat_mul_np and _linalg.rref_np: the tuple
Gauss-Jordan and the scalar form loops are gone."""

import ast
from pathlib import Path

import polarkit
from polarkit import _linalg, forms

PACKAGE = Path(polarkit.__file__).resolve().parent
SCALAR_HELPERS = {"vec_mat", "dot", "scale", "add_vec"}
ALLOWED = {("group.py", "Semisimilarity.apply")}


def _callers(tree):
    """The qualified names of the defs that call la.<helper> or
    _linalg.<helper> for one of the scalar helpers."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr in SCALAR_HELPERS
                    and isinstance(child.func.value, ast.Name)
                    and child.func.value.id in ("la", "_linalg")):
                found.add(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_scalar_vector_helpers_have_two_callers():
    callers = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "_linalg.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        callers |= {(path.name, scope) for scope in _callers(tree)}
    assert callers == ALLOWED
    gone = {"rref", "nullspace", "identity", "dot", "scale", "add_vec"}
    assert not gone & set(vars(_linalg))
    assert not hasattr(forms, "_eval_upper")
