"""The public API: the README's library and CLI examples and the package's
__all__."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import taxicassini
from taxicassini import PointLocation, Topology
from taxicassini.cli import main

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
    assert len(curves[0]) == 8


def cli_examples() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## CLI", 1)[1]
    match = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert match, "README has no sh block under 'CLI'"
    commands = [shlex.split(line) for line in match.group(1).splitlines()]
    commands = [argv for argv in commands if argv and not argv[0].startswith("#")]
    assert all(argv[0] == "taxicassini" for argv in commands)
    return [argv[1:] for argv in commands]


@pytest.mark.parametrize("argv", cli_examples(), ids=" ".join)
def test_readme_cli_example_runs_as_written(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    assert capsys.readouterr().err == ""
    assert code == 0


def test_all_names_resolve_once():
    names = taxicassini.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(taxicassini, name) is not None, name
    namespace: dict = {}
    exec("from taxicassini import *", namespace)
    assert set(names) <= set(namespace)
