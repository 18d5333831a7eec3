"""Each module's __all__ names what it defines; the package root holds only __version__; src imports only numpy;
_writer alone writes files and holds the CSV row format."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import wavetank

MODULES = sorted(m.name for m in pkgutil.iter_modules(wavetank.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    mod = importlib.import_module(f"wavetank.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_package_root_binds_only_version():
    docstring, *rest = ast.parse(Path(wavetank.__file__).read_text()).body
    assert isinstance(docstring, ast.Expr)
    assert [ast.unparse(node) for node in rest] == [f"__version__ = {wavetank.__version__!r}"]


def test_src_imports_only_stdlib_numpy_and_wavetank():
    allowed = set(sys.stdlib_module_names) | {"numpy", "wavetank"}
    foreign = {}
    for path in sorted(Path(wavetank.__file__).parent.glob("*.py")):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
        if imported - allowed:
            foreign[path.name] = sorted(imported - allowed)
    assert foreign == {}


def test_only_writer_opens_files_or_holds_the_row_format():
    found = {}
    for path in sorted(Path(wavetank.__file__).parent.glob("*.py")):
        if path.stem == "_writer":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            call = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
            # a format spec such as f"{m:.17g}" is the constant ".17g", which has no '%'
            row_format = isinstance(node, ast.Constant) and isinstance(node.value, str) and "%.17g" in node.value
            if call in ("open", "os.replace") or call.endswith(".open") or row_format:
                found.setdefault(path.name, []).append(f"line {node.lineno}: {ast.unparse(node)}")
    assert found == {}
