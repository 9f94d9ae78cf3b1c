"""Every package module imports only from the package modules below it,
every name a package or test module imports is used in that module, every
module-level private name is used somewhere in the package, and every public
module-level function or class is called by the package itself.

A stand-in for a linter's unused-import and dead-code rules.  A name counts
as used when it appears anywhere else in the module: in code, in an
annotation (quoted ones included), or, for the package's __init__, in
__all__.  A private name (one leading underscore) defined at module level
counts as used when a package module mentions it outside the statement that
defines it; a public one must be mentioned so by a module other than
__init__, or be on a short list that gives its reason.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "taxicassini"


# Per package module, the package modules it may import from.  The
# construction (cassini) and its two witnesses (characterization and the
# oracle) share only core, so agreement between them is evidence.
LAYERS = {
    "core": set(),
    "cassini": {"core"},
    "characterization": {"core"},
    "oracle": {"core", "characterization"},
    "campaign": {"core", "cassini", "characterization", "oracle"},
    "svg": {"core", "cassini", "oracle"},
    "cli": {"core", "cassini", "characterization", "campaign", "svg"},
}
# The only names a module may take from a module it may import from, where
# it may not take them all: the oracle takes only the sampling-box grid.
TAKEN_NAMES = {("oracle", "characterization"): {"grid_points"}}


def package_imports(tree: ast.Module) -> list[tuple[str, list[str]]]:
    # (module, names) per import of a package module, relative or absolute,
    # with "*" for a whole module.  The package itself, or a module above it,
    # keeps its full name or its dots, which no layer allows.
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((alias.name, ["*"]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.level == 1:
                base = "taxicassini" + (f".{node.module}" if node.module else "")
            else:
                base = "." * node.level + (node.module or "")
            if base == "taxicassini":
                found.extend((f"taxicassini.{name}", ["*"]) for name in names)
            else:
                found.append((base, names))
    return [
        (module.removeprefix("taxicassini."), names)
        for module, names in found
        if module == "taxicassini" or module.startswith(("taxicassini.", "."))
    ]


def test_package_layers():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)
    breaches = []
    for module in sorted(modules):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for source, names in package_imports(tree):
            if source not in LAYERS[module]:
                breaches.append(f"{module} imports {source}")
            allowed = TAKEN_NAMES.get((module, source))
            if allowed is not None:
                breaches.extend(
                    f"{module} takes {name} from {source}" for name in names if name not in allowed
                )
    assert breaches == []


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


@pytest.mark.parametrize(
    "path",
    sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}",
)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = [
        f"{path.name}:{line} {name}"
        for name, line in imported_names(tree).items()
        if name not in used_names(tree)
    ]
    assert unused == []


def defined_private_names(tree: ast.Module) -> dict[str, ast.stmt]:
    # Module-level functions, classes and assignment targets named _x, but
    # not dunders such as __all__.
    names = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = stmt
    return names


def mentioned_names(tree: ast.Module) -> set[str]:
    # used_names plus attribute names and imported names.
    names = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def statement_mentions(trees) -> list[tuple[ast.stmt, set[str]]]:
    # The names each module-level statement of the given modules mentions.
    return [
        (stmt, mentioned_names(ast.Module(body=[stmt], type_ignores=[])))
        for tree in trees.values()
        for stmt in tree.body
    ]


def test_no_dead_private_names():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")
    }
    mentions = statement_mentions(trees)
    dead = [
        f"{name}:{stmt.lineno} {private}"
        for name, tree in sorted(trees.items())
        for private, stmt in defined_private_names(tree).items()
        if not any(private in names for other, names in mentions if other is not stmt)
    ]
    assert dead == []


# Public names kept though no package module calls them, each with its reason.
UNCALLED_PUBLIC_NAMES = {
    # The oracle's measure: criterion 5 and the benchmark call it.
    "hausdorff",
    # The benchmark's tracer rebinds these two by name until it spans the
    # fused entry points (ROADMAP item 7).
    "verify_identity",
    "run_identity_campaign",
    # The scalar product at one Point: the residual campaign evaluates its
    # samples on arrays through core.distance_product, and the benchmark's
    # tracer counts this name's calls.
    "product_value",
}


def test_no_test_only_public_names():
    # Every public module-level function or class is mentioned by a package
    # statement other than its definition; __init__'s re-exports do not
    # count, so a name only the tests call belongs in the tests.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
    }
    mentions = statement_mentions(trees)
    uncalled = [
        f"{name}:{stmt.lineno} {stmt.name}"
        for name, tree in sorted(trees.items())
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in UNCALLED_PUBLIC_NAMES
        and not any(stmt.name in names for other, names in mentions if other is not stmt)
    ]
    assert uncalled == []


def test_no_test_only_public_methods():
    # The same rule for the public methods and properties of the public
    # classes: each is mentioned by a package statement other than its
    # definition, where a class counts as the statements of its body, so a
    # method that only a sibling method calls still counts as called.
    # Mentions are matched by name alone, so a method that shares its name
    # with one the package calls is not caught.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
    }
    mentions = [
        (stmt, mentioned_names(ast.Module(body=[stmt], type_ignores=[])))
        for tree in trees.values()
        for top in tree.body
        for stmt in (top.body if isinstance(top, ast.ClassDef) else [top])
    ]
    uncalled = [
        f"{name}:{stmt.lineno} {cls.name}.{stmt.name}"
        for name, tree in sorted(trees.items())
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for stmt in cls.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not stmt.name.startswith("_")
        and not any(stmt.name in names for other, names in mentions if other is not stmt)
    ]
    assert uncalled == []
