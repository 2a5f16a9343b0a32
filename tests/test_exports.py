"""Every exported name exists: module __all__ lists and the package's
re-exports."""

from __future__ import annotations

import ast
import importlib
import pathlib

import pytest

import gseqa

PACKAGE = pathlib.Path(gseqa.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"gseqa.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_exposes_every_name_it_imports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    assert [n for n in imported if not hasattr(gseqa, n)] == []


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_the_environment():
    """Behaviour comes from arguments, never from environment variables."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ENVIRONMENT_READS
                and isinstance(node.value, ast.Name)
                and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom)
                and node.module == "os"
                and any(a.name in ENVIRONMENT_READS for a in node.names)
            ):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def test_every_traced_layer_exists():
    """The benchmark tracer wraps gseqa functions by name; read its LAYERS
    table as text, without importing the benchmark, and check each one."""
    tracer = PACKAGE.parents[1] / "perfbench" / "tracer.py"
    (layers,) = [
        node.value
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]
    ]
    layers = ast.literal_eval(layers)
    assert layers
    missing = []
    for module, function, sites in layers:
        for name in (module, *(sites or ())):
            if not (PACKAGE / f"{name}.py").exists():
                missing.append(name)
        if not hasattr(importlib.import_module(f"gseqa.{module}"), function):
            missing.append(f"{module}.{function}")
    assert missing == []
