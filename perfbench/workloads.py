"""Seeded workloads of the wavetank benchmark and the checks of their outputs.

A workload turns (seed, size) into the argv that `wavetank.cli.main` receives
plus the generated inputs its checker needs.  The seed draws inputs only
(initial amplitudes, pulse window, probe seed); the work size depends on the
workload and on `size` ("full" for measurement, "tiny" for the self-test).
The same seed always gives byte-identical argv.

Each checker reads the files the run wrote and returns a list of problems;
an empty list means the output is correct.  The reference values are computed
here, independently of the package, from the closed forms of the model.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# sup_k error of the truncated lateral series for f_k at L lateral modes is
# FORCING_TAIL / (2L - 1); the CLI default truncation is L = 10^4.
FORCING_TAIL = 8.0 * math.sqrt(2.0) / (math.sqrt(math.pi) * math.pi**2)
DEFAULT_L_MODES = 10_000
SWEEP_MU_LIST = "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6"
VERIFY_FINAL_LINE = "verify: all proven bounds hold"

# Work sizes per workload.  "full" is what the benchmark measures; "tiny" only
# proves that every path runs and every checker works.
SIZES = {
    "simulate_k256": {
        "full": {"mu": 0.01, "K": 256, "tau": 10.0, "dt": 1e-2},
        "tiny": {"mu": 0.01, "K": 16, "tau": 1.0, "dt": 1e-2},
    },
    "sweep_k1024": {
        "full": {"mu_list": SWEEP_MU_LIST, "K": 1024, "tau": 20.0, "dt": 1e-2, "k_max": 1000},
        "tiny": {"mu_list": "1e-1,1e-2,1e-3", "K": 32, "tau": 2.0, "dt": 1e-2, "k_max": 100},
    },
    "verify_default": {
        "full": {},
        "tiny": {"k_modes": 32, "k_max": 100, "l_modes": 1000},
    },
    "field_k1024": {
        "full": {"K": 1024, "nx": 300, "ny": 300},
        "tiny": {"K": 32, "nx": 20, "ny": 20},
    },
}
NAMES = tuple(SIZES)


@dataclass(frozen=True)
class Spec:
    """One generated workload instance: the CLI argv and what its checker needs."""

    name: str
    out: str
    argv: tuple
    inputs: dict


def _num(x: float) -> str:
    """Short decimal form of a drawn number; the program and checker both read it back."""
    return f"{x:.6g}"


def _mode_terms(amps) -> str:
    return "+".join(f"mode:{k}:{a}" for k, a in amps)


def build(name: str, seed: int, out: str, size: str = "full") -> Spec:
    """Generate the argv of workload `name` from `seed`, writing under `out`."""
    if name not in SIZES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    p = SIZES[name][size]
    rng = random.Random(f"{name}/{seed}")
    if name == "simulate_k256":
        # pulse edges at half steps, so the step grid decides them without
        # rounding ambiguity; an early start keeps the share of all-zero rows
        # (which format faster) small and the same for every seed
        n = round(p["tau"] / p["dt"])
        i0 = rng.randint(1, max(1, n // 50))
        i1 = i0 + rng.randint(n // 20, 3 * n // 20)
        amp = _num(rng.uniform(0.5, 2.0))
        modes = [(k, _num(rng.gauss(0.0, 1.0) / k**2)) for k in range(1, 9)]
        signal = f"pulse:{(i0 - 0.5) * p['dt']:.10g}:{(i1 - 0.5) * p['dt']:.10g}:{amp}"
        argv = ("simulate", "--mu", _num(p["mu"]), "--k-modes", str(p["K"]), "--tau", _num(p["tau"]),
                "--dt", _num(p["dt"]), "--init", _mode_terms(modes), "--signal", signal, "--out", out)
        inputs = {"mu": p["mu"], "K": p["K"], "dt": p["dt"], "n": n, "on": i0, "off": i1,
                  "amp": float(amp), "modes": [(k, float(a)) for k, a in modes]}
    elif name == "sweep_k1024":
        modes = [(k, _num(rng.gauss(0.0, 1.0) / k**2)) for k in range(1, 17)]
        argv = ("sweep", "--mu-list", p["mu_list"], "--k-modes", str(p["K"]), "--tau", _num(p["tau"]),
                "--dt", _num(p["dt"]), "--k-max", str(p["k_max"]), "--init", _mode_terms(modes), "--out", out)
        inputs = {"n_mu": len(p["mu_list"].split(","))}
    elif name == "verify_default":
        probe_seed = rng.randrange(2**31)
        extra = []
        for key, val in p.items():
            extra += [f"--{key.replace('_', '-')}", str(val)]
        argv = ("verify", "--seed", str(probe_seed), *extra, "--out", out)
        inputs = {}
    else:  # field_k1024
        modes = [(k, _num(rng.gauss(0.0, 1.0) / k)) for k in range(1, p["K"] + 1)]
        argv = ("field", "--k-modes", str(p["K"]), "--grid", f"{p['nx']},{p['ny']}",
                "--init", _mode_terms(modes), "--out", out)
        inputs = {"nx": p["nx"], "ny": p["ny"], "modes": [(k, float(a)) for k, a in modes]}
    return Spec(name=name, out=out, argv=argv, inputs=inputs)


def check(spec: Spec) -> list:
    """Problems found in the outputs of one run of `spec`; empty when correct."""
    return _CHECKERS[spec.name](spec, Path(spec.out))


def _read_lines(path: Path):
    try:
        return path.read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return exc


def _floats(line: str):
    try:
        return np.array([float(v) for v in line.split(",")])
    except ValueError:
        return None


def _simulate_reference(inp: dict, t: float):
    """Exact modal solution at time t: elevation and velocity coefficients, modes 0..K.

    Each mode k >= 1 is an oscillator zeta'' + w^2 zeta = f u(t) with
    w = k sqrt(tanh(a)/a), a = sqrt(mu) k, and f = -phi_k(0) tanh(a)/a; mode 0
    has w = 0 and f = -1/sqrt(pi).  u is `amp` on [on*dt, off*dt), zero elsewhere.
    """
    K, dt, amp = inp["K"], inp["dt"], inp["amp"]
    k = np.arange(1, K + 1, dtype=float)
    a = math.sqrt(inp["mu"]) * k
    h = np.tanh(a) / a
    w = k * np.sqrt(h)
    f = -SQRT_2_OVER_PI * h
    a0 = np.zeros(K + 1)
    for mode, val in inp["modes"]:
        a0[mode] += val
    zeta = a0[1:] * np.cos(w * t)
    dzeta = -a0[1:] * w * np.sin(w * t)
    z0 = a0[0]
    dz0 = 0.0
    for edge, sign in ((inp["on"] * dt, 1.0), (inp["off"] * dt, -1.0)):
        s = t - edge
        if s > 0:
            zeta += sign * amp * f / w**2 * (1.0 - np.cos(w * s))
            dzeta += sign * amp * f / w * np.sin(w * s)
            z0 += sign * amp * (-1.0 / math.sqrt(math.pi)) * s * s / 2.0
            dz0 += sign * amp * (-1.0 / math.sqrt(math.pi)) * s
    return np.concatenate(([z0], zeta)), np.concatenate(([dz0], dzeta)), w


def _check_simulate(spec: Spec, out: Path) -> list:
    inp = spec.inputs
    K, n, dt = inp["K"], inp["n"], inp["dt"]
    lines = _read_lines(out / "trajectory.csv")
    if isinstance(lines, Exception):
        return [f"trajectory.csv unreadable: {lines}"]
    problems = []
    if len(lines) != n + 2:
        problems.append(f"trajectory.csv has {len(lines)} lines, expected {n + 2}")
    header = lines[0].split(",") if lines else []
    if len(header) != 2 * K + 3:
        problems.append(f"trajectory.csv has {len(header)} columns, expected {2 * K + 3}")
    if problems:
        return problems
    # tolerance: the certified forcing tail of the lateral series, propagated
    # through each oscillator (|response| <= 2|amp| df / w^2, velocity / w),
    # plus rounding of the exact propagator over n steps
    df = FORCING_TAIL / (2.0 * DEFAULT_L_MODES - 1.0)
    for i in (n // 2, n):
        row = _floats(lines[i + 1])
        if row is None or row.size != 2 * K + 3:
            problems.append(f"row {i}: malformed")
            continue
        if abs(row[0] - i * dt) > 1e-12 * max(1.0, i * dt):
            problems.append(f"row {i}: t = {row[0]:.17g}, expected {i * dt:.17g}")
        zeta, dzeta, w = _simulate_reference(inp, i * dt)
        force_tol = 2.0 * abs(inp["amp"]) * df
        tol_z = np.concatenate(([0.0], force_tol / w**2)) + 1e-10
        tol_v = np.concatenate(([0.0], force_tol / w)) + 1e-10
        for label, got, want, tol in (("zeta", row[1 : K + 2], zeta, tol_z), ("dzeta", row[K + 2 :], dzeta, tol_v)):
            bad = np.flatnonzero(~(np.abs(got - want) <= tol))
            if bad.size:
                j = int(bad[0])
                problems.append(f"row {i}: {label}_{j} = {got[j]:.17g}, closed form {want[j]:.17g} (tol {tol[j]:.2e})")
    return problems


def _check_sweep(spec: Spec, out: Path) -> list:
    rows = _read_lines(out / "sweep.csv")
    summary = _read_lines(out / "summary.txt")
    if isinstance(rows, Exception) or isinstance(summary, Exception):
        return ["sweep outputs unreadable"]
    problems = []
    if rows[:1] != ["mu,err_half,err_deriv"]:
        problems.append("sweep.csv header differs")
    data = [_floats(r) for r in rows[1:]]
    if len(data) != spec.inputs["n_mu"]:
        problems.append(f"sweep.csv has {len(data)} rows, expected {spec.inputs['n_mu']}")
    elif any(d is None or d.size != 3 or not np.all(np.isfinite(d)) for d in data):
        problems.append("sweep.csv has a malformed or non-finite row")
    else:
        table = np.array(data)
        for col, label in ((0, "mu"), (1, "err_half"), (2, "err_deriv")):
            if not np.all(np.diff(table[:, col]) < 0):
                problems.append(f"sweep.csv {label} is not strictly decreasing")
    verdicts = [ln for ln in summary if "(limit" in ln]
    if not verdicts:
        problems.append("summary.txt has no audit lines")
    problems += [f"summary.txt: {ln.strip()}" for ln in verdicts if not ln.rstrip().endswith("PASS")]
    problems += [f"summary.txt: {ln.strip()}" for ln in summary if "FAIL" in ln and ln not in verdicts]
    return problems


def _check_verify(spec: Spec, out: Path) -> list:
    lines = _read_lines(out / "audit.txt")
    if isinstance(lines, Exception):
        return [f"audit.txt unreadable: {lines}"]
    problems = [f"audit.txt: {ln.strip()}" for ln in lines if "FAIL" in ln]
    if not lines or lines[-1] != VERIFY_FINAL_LINE:
        problems.append(f"audit.txt final line is {lines[-1] if lines else ''!r}")
    return problems


def _check_field(spec: Spec, out: Path) -> list:
    inp = spec.inputs
    nx, ny = inp["nx"], inp["ny"]
    problems = []
    for name in ("field_dirichlet.csv", "field_neumann.csv"):
        lines = _read_lines(out / name)
        if isinstance(lines, Exception):
            problems.append(f"{name} unreadable: {lines}")
            continue
        if len(lines) != nx * ny + 1 or lines[0] != "x,y,value":
            problems.append(f"{name} has {len(lines) - 1} rows, expected {nx * ny}")
            continue
        if name == "field_dirichlet.csv":
            # y = 0 is the last of each block of ny rows; there the field is
            # the cosine sum of the surface data
            surf = [_floats(lines[1 + i * ny + ny - 1]) for i in range(nx)]
            if any(r is None or r.size != 3 for r in surf):
                problems.append(f"{name}: malformed surface row")
                continue
            surf = np.array(surf)
            x = np.linspace(0.0, math.pi, nx)
            k = np.array([m for m, _ in inp["modes"]], dtype=float)
            c = np.array([a for _, a in inp["modes"]])
            want = SQRT_2_OVER_PI * (np.cos(np.outer(x, k)) @ c)
            tol = 1e-11 * (1.0 + np.abs(c).sum())
            if not (np.all(np.abs(surf[:, 0] - x) <= 1e-15 * math.pi) and np.all(surf[:, 1] == 0.0)):
                problems.append(f"{name}: surface rows are not at y = 0 on the x grid")
            bad = np.flatnonzero(~(np.abs(surf[:, 2] - want) <= tol))
            if bad.size:
                i = int(bad[0])
                problems.append(f"{name}: surface value at x={x[i]:.17g} is {surf[i, 2]:.17g}, cosine sum {want[i]:.17g}")
    return problems


_CHECKERS = {
    "simulate_k256": _check_simulate,
    "sweep_k1024": _check_sweep,
    "verify_default": _check_verify,
    "field_k1024": _check_field,
}
