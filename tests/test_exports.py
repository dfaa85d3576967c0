"""Export lists: every listed name exists, and the package re-exports only listed names."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import kcof


def _modules():
    for info in pkgutil.iter_modules(kcof.__path__):
        yield importlib.import_module(f"kcof.{info.name}")


def test_every_listed_name_resolves():
    listed = 0
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"
            listed += 1
    assert listed >= 47


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(kcof.__file__).read_text(encoding="utf-8"))
    imported = 0
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"kcof.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, f"{alias.name} is not in {module.__name__}.__all__"
                assert getattr(kcof, alias.name) is getattr(module, alias.name)
                imported += 1
    assert imported == 45
