"""Declared metadata and runtime dependencies match the package."""

import ast
import importlib
import pathlib
import re
import sys
import warnings

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _project():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)


def _declared():
    deps = _project()["project"]["dependencies"]
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


def test_the_distribution_is_sdlab_with_the_package_version():
    import sdlab

    doc = _project()
    assert doc["project"]["name"] == "sdlab"
    assert "version" not in doc["project"]
    assert doc["project"]["dynamic"] == ["version"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "sdlab.__version__"}
    try:
        from setuptools.config.pyprojecttoml import read_configuration
    except ImportError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is "beta"
        resolved = read_configuration(ROOT / "pyproject.toml")
    assert resolved["project"]["version"] == sdlab.__version__


def test_declared_dependencies_are_the_third_party_imports():
    assert _declared() == _imported()


def test_every_declared_dependency_imports():
    for name in sorted(_declared()):
        importlib.import_module(name)


def _exporting_modules():
    """Every sdlab module the package re-exports: all but cli and _kernels."""
    stems = sorted(p.stem for p in (ROOT / "src" / "sdlab").glob("*.py"))
    return [importlib.import_module(f"sdlab.{s}") for s in stems
            if s not in ("__init__", "cli", "_kernels")]


def test_package_names_are_the_module_lists_joined():
    import sdlab

    modules = _exporting_modules()
    joined = []
    for module in modules:
        assert hasattr(module, "__all__"), module.__name__
        for name in module.__all__:
            assert getattr(sdlab, name) is getattr(module, name), name
        joined.extend(module.__all__)
    assert len(set(joined)) == len(joined)  # no star import shadows another
    assert sdlab.__all__[0] == "__version__"
    # the rest is the module lists, each whole and once, one after another
    rest, blocks = sdlab.__all__[1:], [m.__all__ for m in modules]
    while rest:
        block = next(b for b in blocks if rest[:len(b)] == b)
        blocks.remove(block)
        rest = rest[len(block):]
    assert blocks == []


def test_every_name_a_demo_imports_is_public():
    # two demos are too slow for the quick suite; a public name removed
    # or renamed under them must still fail here, not in a demo run
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        imported = 0
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module.split(".")[0] == "sdlab"):
                public = importlib.import_module(node.module).__all__
                for alias in node.names:
                    assert alias.name in public, (path.name, alias.name)
                    imported += 1
        assert imported, path.name


def test_every_traced_benchmark_layer_exists(monkeypatch):
    # perfbench patches these attributes by module; a refactor that
    # renames one must fail here, not only in the benchmark's smoke test
    import inspect

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracing = importlib.import_module("tracing")
    assert tracing.WRAPS
    for module, path, _name, _count in tracing.WRAPS:
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = inspect.getattr_static(owner, part)


def test_every_kernels_name_perfbench_reads_exists():
    # perfbench/run.py labels its records from these sdlab._kernels names;
    # a cleanup that deletes one must fail here, not in the benchmark
    from sdlab import _kernels

    run = (ROOT / "perfbench" / "run.py").read_text()
    names = set(re.findall(r"sdlab\._kernels\.(\w+)", run))
    assert names
    for name in sorted(names):
        assert hasattr(_kernels, name), name


def test_package_source_stays_under_the_line_cap():
    # the cap on src/sdlab/*.py in ROADMAP.md, counted as wc -l counts
    lines = sum(p.read_bytes().count(b"\n")
                for p in (ROOT / "src" / "sdlab").glob("*.py"))
    assert lines <= 3000
