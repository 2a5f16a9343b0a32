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
