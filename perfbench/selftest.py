"""Self-test of the benchmark: `python3 perfbench/selftest.py` from the checkout root.

1. BENCHMARK.json lists workloads run.py defines and the metrics it reports; every
   workload's argv is a pure function of the seed.
2. A tiny-size run of each workload, untraced and traced, succeeds and prints
   every end-to-end and per-layer metric with its unit.
3. Every checker accepts the tiny run's real output and rejects a perturbed
   copy: a flipped digit in trajectory.csv, a dropped sweep row, a FAIL line,
   a shifted field value.

Exits 0 when all of it holds, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import spans
import workloads
from run import END_TO_END_UNITS, WORK_DIR

HERE = Path(__file__).resolve().parent
SEED = 1


def _run_tiny(name: str, trace: int) -> list:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        return [f"{name} trace {trace}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    units = spans.LAYER_UNITS if trace else dict(END_TO_END_UNITS, fail_frac="fraction")
    problems = []
    if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
        problems.append(f"{name} trace {trace}: tiny run not correct: {lines[-1][:300]}")
    for key, unit in units.items():
        if not any(re.match(rf"\s+{re.escape(key)}\s+\S+ {re.escape(unit)}\b", ln) for ln in lines):
            problems.append(f"{name} trace {trace}: no printed line for {key} in {unit}")
        if key != "fail_frac" and result["metrics"].get(key, {}).get("unit") != unit:
            problems.append(f"{name} trace {trace}: JSON lacks {key} in {unit}")
    return problems


def _flip_digit(path: Path) -> None:
    """Change the first significant digit of zeta_1 in the final row."""
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cell = cells[2]
    i = next(j for j, ch in enumerate(cell) if ch in "123456789")
    cells[2] = cell[:i] + ("2" if cell[i] == "1" else "1") + cell[i + 1 :]
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _drop_last_line(path: Path) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")


def _pass_to_fail(path: Path) -> None:
    text = path.read_text()
    path.write_text(text.replace("PASS", "FAIL", 1))


def _shift_surface_value(path: Path, ny: int) -> None:
    lines = path.read_text().splitlines()
    row = 1 + 3 * ny + ny - 1  # the surface point of the fourth x column
    x, y, v = lines[row].split(",")
    lines[row] = f"{x},{y},{float(v) + 1e-6:.17g}"
    path.write_text("\n".join(lines) + "\n")


PERTURBATIONS = {
    "simulate_k256": [("flipped digit", "trajectory.csv", _flip_digit)],
    "sweep_k1024": [("dropped sweep row", "sweep.csv", _drop_last_line),
                    ("FAIL line", "summary.txt", _pass_to_fail)],
    "verify_default": [("FAIL line", "audit.txt", _pass_to_fail),
                       ("missing verdict", "audit.txt", _drop_last_line)],
    "field_k1024": [("shifted field value", "field_dirichlet.csv",
                     lambda p: _shift_surface_value(p, workloads.SIZES["field_k1024"]["tiny"]["ny"])),
                    ("dropped field row", "field_neumann.csv", _drop_last_line)],
}


def _check_checkers(name: str) -> list:
    src = Path(WORK_DIR) / name / "out"
    problems = []
    clean = workloads.check(workloads.build(name, SEED, str(src), "tiny"))
    if clean:
        problems.append(f"{name}: checker rejects the real output: {clean[0]}")
    for label, filename, perturb in PERTURBATIONS[name]:
        copy = Path(WORK_DIR) / "selftest" / name
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(src, copy)
        perturb(copy / filename)
        found = workloads.check(workloads.build(name, SEED, str(copy), "tiny"))
        if not found:
            problems.append(f"{name}: checker accepts a {label} in {filename}")
        else:
            print(f"  {name}: {label} rejected: {found[0]}")
    return problems


def _check_seeding() -> list:
    problems = []
    for name in workloads.NAMES:
        a = workloads.build(name, 7, "o").argv
        if a != workloads.build(name, 7, "o").argv:
            problems.append(f"{name}: the same seed gives different argv")
        if a == workloads.build(name, 8, "o").argv:
            problems.append(f"{name}: seeds 7 and 8 give the same argv")
    return problems


def _check_manifest() -> list:
    """BENCHMARK.json names defined workloads and exactly the metrics run.py reports."""
    bench = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    if not {w["name"] for w in bench["workloads"]} <= set(workloads.NAMES):
        problems.append("BENCHMARK.json names a workload workloads.py does not define")
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", spans.LAYER_UNITS)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        if listed != units:
            problems.append(f"BENCHMARK.json {key} differs from what run.py reports")
    return problems


def main() -> int:
    if not (Path("src") / "wavetank" / "cli.py").is_file():
        print("selftest: run from the root of a wavetank checkout", file=sys.stderr)
        return 1
    problems = _check_manifest() + _check_seeding()
    for name in workloads.NAMES:
        print(f"{name}: tiny runs")
        problems += _run_tiny(name, 1)
        problems += _run_tiny(name, 0)  # last, so its outputs feed the checker test
        problems += _check_checkers(name)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
