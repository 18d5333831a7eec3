"""The golden runs: small command lines that together reach every output file and every branch that writes one,
and the platform their outputs were recorded on.

`tests/test_golden.py` reruns each and compares its files with those under `tests/golden/RUN/`.  Run this script
to rewrite them after a change that moves an output on purpose, and say in CHANGES.md what moved and by how much:

    PYTHONPATH=src python tests/golden_runs.py
"""

import contextlib
import io
import platform
import shutil
from pathlib import Path

import numpy as np

from wavetank.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# the file under GOLDEN that names the recording platform
PLATFORM_FILE = "PLATFORM"

_SIMULATE = ["simulate", "--k-modes", "8", "--tau", "1", "--dt", "0.05", "--init", "mode:0:0.5+mode:2:1+mode:7:-0.25",
             "--init1", "cos1", "--signal", "const:1"]
_FIELD = ["field", "--k-modes", "16", "--grid", "5,4", "--init", "mode:1:1+mode:4:-0.5+mode:16:0.125"]

# run name: the command line, less --out
RUNS = {
    "simulate_string": [*_SIMULATE, "--mu", "0"],
    "simulate_tank": [*_SIMULATE, "--mu", "0.01"],
    "sweep": ["sweep", "--k-modes", "64", "--mu-list", "1e-1,1e-2,1e-3", "--tau", "2", "--dt", "0.01",
              "--k-max", "100", "--l-modes", "100"],
    "verify": ["verify", "--k-max", "100", "--l-modes", "100", "--k-modes", "16"],
    "field_shallow": [*_FIELD, "--mu", "0.01"],
    "field_deep": [*_FIELD, "--mu", "1"],
}


def platform_key() -> str:
    """The machine, numpy's major version, and the SIMD targets of numpy's dispatched loops that this CPU runs.

    Outputs are compared byte for byte only on the platform they were recorded on: numpy's loops for another
    machine, another major version or another SIMD target may round the last bit differently (a one-element
    in-place complex multiply, for one, skips the fused multiply-add of the vector loop).
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    simd = [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]
    return f"{platform.machine()} numpy {np.__version__.split('.')[0]} simd {','.join(simd) or 'none'}"


def run(name: str, out: Path) -> int:
    """Run one golden command line with its outputs under `out`, its stdout discarded; the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return main([*RUNS[name], "--out", str(out)])


def record():
    """Rewrite every golden run's files and the platform file."""
    if GOLDEN.exists():
        shutil.rmtree(GOLDEN)
    for name in RUNS:
        if run(name, GOLDEN / name):
            raise SystemExit(f"golden run {name} failed")
    (GOLDEN / PLATFORM_FILE).write_text(platform_key() + "\n")


if __name__ == "__main__":
    record()
