"""The package's public names: every ``__all__`` entry exists, and the
package imports only names its modules export."""

import ast
import importlib
from pathlib import Path

import pytest

import grainkit

PACKAGE = Path(grainkit.__file__).resolve().parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"grainkit.{name}")
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"grainkit.{name}.__all__ names missing {attr!r}"


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imported
    for module_name, attr in imported:
        module = importlib.import_module(f"grainkit.{module_name}")
        assert attr in module.__all__, f"grainkit imports {attr!r}, not in {module_name}.__all__"
        assert getattr(grainkit, attr) is getattr(module, attr)
