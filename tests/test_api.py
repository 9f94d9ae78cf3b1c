"""The public API: the README library example and the package's __all__."""

import ast
import re
from pathlib import Path

import taxicassini
from taxicassini import PointLocation, Topology

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "README has no python block under 'Library example'"
    return match.group(1)


def test_readme_library_example_runs_as_written():
    # Run each statement in turn and keep the values of the bare
    # expressions, whose trailing comments state what they return.
    namespace: dict = {}
    values = []
    for stmt in ast.parse(library_example()).body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README", "exec"), namespace)
    assert values == [Topology.ONE_CURVE, PointLocation.INSIDE]
    curves = namespace["curves"]
    assert len(curves) == 1
    assert len(curves[0].pieces) == 8


def test_all_names_resolve_once():
    names = taxicassini.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(taxicassini, name) is not None, name
    namespace: dict = {}
    exec("from taxicassini import *", namespace)
    assert set(names) <= set(namespace)
