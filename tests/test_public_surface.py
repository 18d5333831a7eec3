"""Each module's __all__ names what it defines, and together they hold the pinned public names; the package root
holds only __version__; src imports only numpy; _writer alone writes files and holds the CSV row format; every
function in src runs under some command; no command imports a numpy or wavetank module once wavetank.cli is
imported."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import wavetank

MODULES = sorted(m.name for m in pkgutil.iter_modules(wavetank.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    mod = importlib.import_module(f"wavetank.{name}")
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


# every public name of the package, the modules' __all__ together; a change to the public surface shows here
PUBLIC_NAMES = [
    "ConfigError", "DEFAULT_MU_GRID", "GAP_MU_GRID", "KernelAudit", "KernelAuditRow", "RunConfig", "SweepReport",
    "audit_kernels", "bmu_rate_table", "comparison_kernels", "dirichlet_extension", "dispatch", "fit_rate",
    "kernel_H_sum", "main", "neumann_extension", "parse_config", "run_sweep", "sobolev_weights", "sweep_summary",
    "water_system", "write_field_csv", "write_sweep_csv",
]

def test_public_names_are_the_pinned_list():
    names = [n for name in MODULES for n in getattr(importlib.import_module(f"wavetank.{name}"), "__all__", ())]
    assert sorted(names) == PUBLIC_NAMES


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



def _src_functions():
    """(file, name, first line of the def or its first decorator) -> module-qualified name, for every def in src."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if isinstance(child, ast.FunctionDef):
                    line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    found[(path, child.name, line)] = f"{path.stem}.{name}"
                visit(child, path, f"{name}.")

    for path in sorted(Path(wavetank.__file__).resolve().parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return found


# every def in src that no command runs, with the reason it stays
NOT_RUN_BY_A_COMMAND = {
    "basis._phi": "the general-point path of dirichlet_extension, which only the field-physics tests drive; field's regular grid takes the FFT",
    "cli.RunConfig.to_text": "the config round trip property proves that a resolved config reproduces the run",
    "fields._psi": "the general-point path of neumann_extension, which only the field-physics tests drive; field's regular grid takes the FFT",
}


def test_every_src_function_runs_under_a_command(tmp_path):
    from wavetank._writer import _digit_table, _exponent_table
    from wavetank.cli import main

    for table in (_digit_table, _exponent_table):
        table.cache_clear()  # built once per process: let the traced commands build it
    small = ["--k-modes", "4", "--tau", "0.1", "--dt", "0.05", "--k-max", "10", "--l-modes", "10"]
    runs = [
        ["simulate", *small],
        ["simulate", *small, "--mu", "0", "--init", "cos1", "--init1", "zero", "--signal", "zero"],
        ["simulate", *small, "--init", "mode:1:0.5+mode:2:1", "--init1", "smooth8", "--signal", "const:1"],
        ["sweep", *small, "--mu-list", "1e-1,1e-2,1e-3"],
        ["verify", *small],
        ["field", *small, "--grid", "3,3"],
        ["field", "--mu", "0"],  # a config error
        ["simulate", "--k-modes", "4", "--tau", "10", "--dt", "0.05", "--signal", "const:1e308"],  # a run error
        ["sweep", *small, "--mu-list", "1e-1"],  # an output error: summary.txt is a directory
        ["--help"],
    ]
    (tmp_path / "8" / "summary.txt").mkdir(parents=True)
    called = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        exits = [main([*argv, "--out", str(tmp_path / str(i))]) for i, argv in enumerate(runs)]
    finally:
        sys.setprofile(None)
    assert exits == [0, 0, 0, 0, 0, 0, 1, 1, 1, 0]
    entered = {(Path(code.co_filename).resolve(), code.co_name, code.co_firstlineno) for code in called}
    never_run = {name for key, name in _src_functions().items() if key not in entered}
    assert sorted(never_run) == sorted(NOT_RUN_BY_A_COMMAND)


# runs one command in a fresh process and prints its exit code, then every numpy or wavetank module it imported
_IMPORTS_DURING_MAIN = """
import sys
import wavetank.cli
before = set(sys.modules)
code = wavetank.cli.main(sys.argv[1:])
print(code, *sorted(m for m in set(sys.modules) - before if m.split(".")[0] in ("numpy", "wavetank")))
"""


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["sweep", "--mu-list", "1e-1,1e-2,1e-3"], ["verify"], ["field", "--grid", "3,3"]],
    ids=lambda argv: argv[0],
)
def test_commands_import_nothing_after_cli(argv, tmp_path):
    # the first np.unique of a process imports numpy.ma on numpy 2.x, inside the command's run
    small = ["--k-modes", "4", "--tau", "0.1", "--dt", "0.05", "--k-max", "10", "--l-modes", "10"]
    env = {**os.environ, "PYTHONPATH": str(Path(wavetank.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-c", _IMPORTS_DURING_MAIN, *argv, *small, "--out", str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.splitlines()[-1] == "0"


def test_importing_the_cli_loads_neither_argparse_nor_gettext():
    # argparse's first parse in a process costs milliseconds of gettext and locale lookups, paid by every command
    code = "import sys, wavetank.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(Path(wavetank.__file__).resolve().parents[1])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
