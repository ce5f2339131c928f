"""Declared runtime dependencies are exactly what the package imports."""

import ast
import importlib
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _declared():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}


def _imported():
    names = set()
    for path in (ROOT / "src" / "sdlab").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {n for n in names
            if n not in sys.stdlib_module_names and n != "sdlab"}


def test_declared_dependencies_are_the_third_party_imports():
    assert _declared() == _imported()


def test_every_declared_dependency_imports():
    for name in sorted(_declared()):
        importlib.import_module(name)
