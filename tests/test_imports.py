"""Every name a package module imports is used in that module.

A stand-in for a linter's unused-import rule.  A name counts as used when
it appears anywhere else in the module: in code, in an annotation (quoted
ones included), or, for the package's __init__, in __all__.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "taxicassini"


def imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def quoted_names(node) -> set[str]:
    # Names inside the string constants of an annotation or of __all__.
    names = set()
    for const in ast.walk(node):
        if isinstance(const, ast.Constant) and isinstance(const.value, str):
            expr = ast.parse(const.value, mode="eval")
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= quoted_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= quoted_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= quoted_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= quoted_names(node.value)
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in imported_names(tree).items()
        if name not in used_names(tree)
    ]
    assert unused == []
