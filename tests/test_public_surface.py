"""Each module's __all__ names what it defines, and the package re-exports only those."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import wavetank

MODULES = sorted(m.name for m in pkgutil.iter_modules(wavetank.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    mod = importlib.import_module(f"wavetank.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_reexports_are_in_module_all():
    tree = ast.parse(Path(wavetank.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"wavetank.{node.module}")
        assert [a.name for a in node.names if a.name not in mod.__all__] == [], node.module
