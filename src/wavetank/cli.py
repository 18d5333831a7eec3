"""Command-line front end: config parsing, dispatch, deterministic file outputs.

Commands
    simulate   evolve one system and write the trajectory as CSV
    sweep      run a shallowness sweep; write error CSV and a text summary
    verify     print the kernel, resolvent and forcing-gap audit tables and a
               verdict line; exit 0 iff every row with a limit holds it
    field      write both boundary-data extensions on a grid as CSV

Configuration is a flat key=value file (one pair per line, `#` comments);
command-line flags override file values, and a flag value may hold neither
`#` nor a line break.  Exit codes: 0 success, 1 usage, configuration or
output error, non-finite results, or a run too large to allocate, 2 audit
failure (some row of verify fails).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ._writer import block_rows, table_blocks, write_csv, write_text
from .basis import ModalVector, SpectralParams
from .evolution import InputSignal, _blocks, limit_system, make_initial, water_system
from .fields import FieldGrid, LateralProfile, dirichlet_extension, neumann_extension, write_field_csv
from .lab import audit_kernels, audit_resolvents, bmu_rate_table, run_sweep, sweep_summary, write_sweep_csv

__all__ = ["ConfigError", "RunConfig", "parse_config", "dispatch", "main"]

COMMANDS = ("simulate", "sweep", "verify", "field")
# lateral modes of the field command's Neumann profile, at most; keeps `field`
# fast at the default l_modes
_FIELD_L_MODES_CAP = 512

# key: (default, help). Order fixes the serialized layout.
CONFIG_KEYS = {
    "out": ("out", "output directory"),
    "mu": ("0.01", "shallowness parameter, in (0, 1]"),
    "mu_list": ("1e-1,1e-2,1e-3,1e-4", "comma-separated decreasing shallowness values in (0, 1]"),
    "k_modes": ("256", "number of nonzero surface modes, >= 1"),
    "l_modes": (
        "10000",
        "lateral-series truncation, >= 1: verify/sweep oracle; "
        f"field Neumann profile, capped at {_FIELD_L_MODES_CAP}",
    ),
    "dt": ("", "time step; empty selects 1e-3*tau"),
    "tau": ("10.0", "time horizon, > 0"),
    "grid": ("50,50", "field grid resolution NX,NY (>= 2 each)"),
    "signal": ("pulse:0:1:1", "input signal: zero | const:AMP | pulse:T0:T1:AMP"),
    "init": ("smooth8", "initial elevation: zero | cos1 | smooth8 | mode:K:AMP[+...]"),
    "init1": ("zero", "initial velocity, same mini-language as init"),
    "system": ("water", "simulate target: water | limit"),
    "seed": ("20260809", "no effect; accepted because the benchmark's verify workload passes --seed (ROADMAP item 1)"),
    "k_max": ("10000", "largest mode index in the kernel audit, >= 1"),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    command: str
    out: str
    mu: float
    mu_list: Tuple[float, ...]
    k_modes: int
    l_modes: int
    dt: Optional[float]
    tau: float
    grid: Tuple[int, int]
    signal: str
    init: str
    init1: str
    system: str
    seed: int
    k_max: int

    @property
    def effective_dt(self) -> float:
        return self.dt if self.dt is not None else 1e-3 * self.tau

    @functools.cached_property
    def init_modes(self) -> ModalVector:
        """The init spec at k_modes, parsed on first use (parse_config uses it first)."""
        return parse_initial_spec(self.init, self.k_modes)

    @functools.cached_property
    def init1_modes(self) -> ModalVector:
        """The init1 spec at k_modes, parsed on first use (parse_config uses it first)."""
        return parse_initial_spec(self.init1, self.k_modes)

    def to_text(self) -> str:
        """Serialize as the key=value format accepted by parse_config."""
        parts = []
        for key in CONFIG_KEYS:
            val = getattr(self, key)
            if key == "mu_list":
                val = ",".join(f"{m:.17g}" for m in val)
            elif key == "grid":
                val = f"{val[0]},{val[1]}"
            elif key == "dt":
                val = "" if val is None else f"{val:.17g}"
            elif isinstance(val, float):
                val = f"{val:.17g}"
            parts.append(f"{key}={val}")
        return "\n".join(parts) + "\n"


def _parse_pairs(text: str, source: str) -> dict:
    pairs = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{ln}: expected key=value, got {raw.strip()!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{source}:{ln}: unknown key {key!r}; known keys: {', '.join(CONFIG_KEYS)}")
        pairs[key] = val.strip()
    return pairs


def _to_float(key: str, raw: str, hi: float) -> float:
    """A finite number in (0, hi]; ConfigError otherwise."""
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if not (math.isfinite(val) and 0.0 < val <= hi):
        raise ConfigError(f"{key} must be in (0, {hi:g}], got {raw}")
    return val


def _to_int(key: str, raw: str, lo: int) -> int:
    try:
        val = int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    if val < lo:
        raise ConfigError(f"{key} must be >= {lo}, got {val}")
    return val


def parse_config(command: str, file_text: str = "", overrides: Optional[dict] = None, source: str = "<config>") -> RunConfig:
    """Build a validated RunConfig from file text plus flag overrides."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")
    raw = {k: v for k, (v, _) in CONFIG_KEYS.items()}
    raw.update(_parse_pairs(file_text, source))
    for k, v in (overrides or {}).items():
        if v is not None:
            v = str(v)
            # the file format ends a value at `#` or a line break, so such a
            # value could not be written back by to_text
            if "#" in v or v.splitlines() not in ([], [v]):
                raise ConfigError(f"{k} must contain neither '#' nor a line break, got {v!r}")
            raw[k] = v.strip()

    mu = _to_float("mu", raw["mu"], 1.0)
    items = [s for s in raw["mu_list"].split(",") if s.strip()]
    if not items:
        raise ConfigError("mu_list must contain at least one value")
    mu_list = tuple(_to_float("mu_list", s, 1.0) for s in items)
    if any(b >= a for a, b in zip(mu_list, mu_list[1:])):
        raise ConfigError(f"mu_list must be strictly decreasing, got {raw['mu_list']}")
    grid_items = raw["grid"].split(",")
    if len(grid_items) != 2:
        raise ConfigError(f"grid must be NX,NY, got {raw['grid']!r}")
    grid = (_to_int("grid", grid_items[0], 2), _to_int("grid", grid_items[1], 2))
    dt = None if raw["dt"] == "" else _to_float("dt", raw["dt"], math.inf)
    system = raw["system"]
    if system not in ("water", "limit"):
        raise ConfigError(f"system must be water or limit, got {system!r}")
    cfg = RunConfig(
        command=command,
        out=raw["out"],
        mu=mu,
        mu_list=mu_list,
        k_modes=_to_int("k_modes", raw["k_modes"], 1),
        l_modes=_to_int("l_modes", raw["l_modes"], 1),
        dt=dt,
        tau=_to_float("tau", raw["tau"], math.inf),
        grid=grid,
        signal=raw["signal"],
        init=raw["init"],
        init1=raw["init1"],
        system=system,
        seed=_to_int("seed", raw["seed"], 0),
        k_max=_to_int("k_max", raw["k_max"], 1),
    )
    # fail early on malformed mini-language specs; the commands reuse the parsed data
    cfg.init_modes, cfg.init1_modes
    _signal_spec(cfg.signal)
    return cfg


def parse_initial_spec(spec: str, K: int) -> ModalVector:
    """Initial-data mini-language: zero | cos1 | smooth8 | mode:K:AMP terms joined by +."""
    spec = spec.strip()
    if spec == "zero":
        return ModalVector.zeros(K)
    if spec == "cos1":
        return ModalVector.unit(1, K)
    if spec == "smooth8":
        c = np.zeros(K + 1)
        top = min(8, K)
        c[1 : top + 1] = 1.0 / np.arange(1, top + 1) ** 2
        return ModalVector(c)
    c = np.zeros(K + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows or meets -inf is rejected below
        for term in spec.split("+"):
            parts = term.strip().split(":")
            if len(parts) != 3 or parts[0] != "mode":
                raise ConfigError(f"bad initial-data term {term!r}; expected mode:K:AMP or a preset")
            try:
                k, amp = int(parts[1]), float(parts[2])
            except ValueError:
                raise ConfigError(f"bad initial-data term {term!r}") from None
            if not 0 <= k <= K:
                raise ConfigError(f"initial-data mode {k} outside 0..{K}")
            c[k] += amp
    if not np.all(np.isfinite(c)):
        raise ConfigError(f"initial-data amplitudes must sum to finite values, got {spec!r}")
    return ModalVector(c)


def _signal_spec(spec: str):
    """(kind, numbers) of a signal spec; ConfigError unless the numbers are finite and a pulse has T0 < T1."""
    spec = spec.strip()
    kind, *args = spec.split(":")
    try:
        nums = [float(a) for a in args]
    except ValueError:
        nums = None
    if nums is None or len(nums) != {"zero": 0, "const": 1, "pulse": 3}.get(kind):
        raise ConfigError(f"bad signal spec {spec!r}; expected zero, const:AMP or pulse:T0:T1:AMP")
    if not all(map(math.isfinite, nums)):
        raise ConfigError(f"signal {spec!r}: numbers must be finite")
    if kind == "pulse" and not nums[0] < nums[1]:
        raise ConfigError(f"signal {spec!r}: the pulse window [T0, T1) needs T0 < T1")
    return kind, nums


def make_signal(spec: str, dt: float, n_steps: int) -> InputSignal:
    """Signal mini-language: zero | const:AMP | pulse:T0:T1:AMP, a pulse holding a step start m dt < n_steps dt."""
    kind, nums = _signal_spec(spec)
    if kind == "zero":
        return InputSignal(dt, np.zeros(n_steps))
    if kind == "const":
        return InputSignal(dt, np.full(n_steps, float(nums[0])))
    t_on, t_off, amplitude = nums
    t = np.arange(n_steps) * dt
    on = (t >= t_on) & (t < t_off)
    if not on.any():
        raise ConfigError(
            f"signal {spec.strip()!r}: the window [{t_on:g}, {t_off:g}) holds no step start m*dt "
            f"of the grid dt={dt:g}, m < {n_steps}"
        )
    return InputSignal(dt, np.where(on, float(amplitude), 0.0))


class _OutputSet:
    """Tracks files written by one command so failures leave no partial outputs."""

    def __init__(self, out_dir: str):
        self.dir = Path(out_dir)
        self.written = []

    def path(self, name: str) -> Path:
        self.dir.mkdir(parents=True, exist_ok=True)
        p = self.dir / name
        self.written.append(p)
        return p

    def discard(self):
        for p in self.written:
            try:
                p.unlink()
            except OSError:
                pass


def _n_steps(cfg: RunConfig) -> int:
    """Number of steps of length dt that end exactly at tau; ConfigError otherwise."""
    dt = cfg.effective_dt
    steps = cfg.tau / dt
    if not math.isfinite(steps):
        raise ConfigError(f"tau={cfg.tau:g} holds too many steps of dt={dt:g} to count")
    n = round(steps)
    if n == 0 or abs(n * dt - cfg.tau) > 1e-9 * cfg.tau:
        raise ConfigError(
            f"tau={cfg.tau:g} is not a whole number of steps of dt={dt:g}; "
            f"choose dt = tau/n for a positive integer n"
        )
    return n


def _cmd_simulate(cfg: RunConfig, out: _OutputSet) -> int:
    dt = cfg.effective_dt
    n = _n_steps(cfg)
    if cfg.system == "water":
        system = water_system(SpectralParams(mu=cfg.mu, K=cfg.k_modes))
    else:
        system = limit_system(cfg.k_modes)
    modes = range(cfg.k_modes + 1)
    header = ",".join(["t", *(f"zeta_{k}" for k in modes), *(f"dzeta_{k}" for k in modes)])
    rows = block_rows(2 * cfg.k_modes + 3)
    # make_initial checks the data here, before trajectory.csv is registered for discard
    initial = make_initial(cfg.init_modes, cfg.init1_modes, [system])
    samples = _blocks(initial, make_signal(cfg.signal, dt, n), system, rows)
    # overflow surfaces as a non-finite row, rejected per block
    with np.errstate(over="ignore", invalid="ignore"):
        write_csv(out.path("trajectory.csv"), header, table_blocks(_finite_rows(samples)))
    return 0


def _finite_rows(samples):
    """Each (times, zeta, zeta_t) block; ValueError naming the first time that is not finite."""
    for t, zeta, zeta_t in samples:
        bad = np.flatnonzero(~(np.isfinite(t) & np.isfinite(zeta).all(axis=1) & np.isfinite(zeta_t).all(axis=1)))
        if bad.size:
            raise ValueError(f"the state is not finite at t={t[bad[0]]:g}: the data or input overflow float64")
        yield t, zeta, zeta_t


def _cmd_sweep(cfg: RunConfig, out: _OutputSet) -> int:
    dt = cfg.effective_dt
    n = _n_steps(cfg)
    report = run_sweep(cfg.mu_list, cfg.init_modes, cfg.init1_modes, make_signal(cfg.signal, dt, n))
    audit = audit_kernels(k_max=cfg.k_max, l_modes=cfg.l_modes)
    write_sweep_csv(report, out.path("sweep.csv"))
    write_text(out.path("summary.txt"), f"{sweep_summary(report)}\n\n{audit.table()}\n")
    return 0


def _cmd_verify(cfg: RunConfig, out: _OutputSet) -> int:
    audits = (audit_kernels(k_max=cfg.k_max, l_modes=cfg.l_modes), audit_resolvents(K=cfg.k_modes), bmu_rate_table())
    ok = all(audit.passed for audit in audits)
    verdict = "verify: " + ("all proven bounds hold" if ok else "BOUND VIOLATION")
    text = "\n\n".join([*(audit.table() for audit in audits), verdict]) + "\n"
    write_text(out.path("audit.txt"), text)
    sys.stdout.write(text)
    return 0 if ok else 2


def _cmd_field(cfg: RunConfig, out: _OutputSet) -> int:
    params = SpectralParams(mu=cfg.mu, K=cfg.k_modes)
    grid = FieldGrid.regular(*cfg.grid)
    profile = LateralProfile.constant(1.0, min(cfg.l_modes, _FIELD_L_MODES_CAP))
    # overflow surfaces as non-finite field values, which FieldGrid rejects
    with np.errstate(over="ignore", invalid="ignore"):
        write_field_csv(dirichlet_extension(cfg.init_modes, params, grid), out.path("field_dirichlet.csv"))
        write_field_csv(neumann_extension(profile, params, grid), out.path("field_neumann.csv"))
    return 0


def dispatch(cfg: RunConfig) -> int:
    """Run one command; on failure remove any files written by this invocation."""
    runner = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "field": _cmd_field,
    }[cfg.command]
    out = _OutputSet(cfg.out)
    try:
        return runner(cfg, out)
    except Exception:
        out.discard()
        raise


def _config_help() -> str:
    lines = ["configuration keys (file and/or flags; defaults in brackets):"]
    for key, (default, text) in CONFIG_KEYS.items():
        lines.append(f"  {key:<8} {text}  [{default or '1e-3*tau'}]")
    lines += [
        "",
        "initial-data mini-language (init, init1):",
        "  zero | cos1 (unit coefficient on mode 1) | smooth8 (modes 1..8, amplitude 1/k^2)",
        "  | mode:K:AMP terms joined by '+', e.g. mode:1:1+mode:3:0.5",
        "signal mini-language: zero | const:AMP | pulse:T0:T1:AMP (held on [T0, T1), T0 < T1,",
        "  which must hold a step start m*dt < tau)",
    ]
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavetank",
        description=__doc__,
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="PATH", help="key=value configuration file")
    parser.add_argument("--out", metavar="DIR")
    parser.add_argument("--mu", metavar="MU")
    parser.add_argument("--mu-list", dest="mu_list", metavar="M1,M2,...")
    parser.add_argument("--k-modes", dest="k_modes", metavar="K")
    parser.add_argument("--l-modes", dest="l_modes", metavar="L")
    parser.add_argument("--dt", metavar="DT")
    parser.add_argument("--tau", metavar="TAU")
    parser.add_argument("--grid", metavar="NX,NY")
    parser.add_argument("--signal", metavar="SPEC")
    parser.add_argument("--init", metavar="SPEC")
    for key in ("init1", "system", "seed", "k_max"):
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, metavar=key.upper())
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors; remap usage to 1
        return 0 if exc.code == 0 else 1
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        file_text = ""
        source = "<defaults>"
        if args.config is not None:
            try:
                file_text = Path(args.config).read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
            source = args.config
        cfg = parse_config(args.command, file_text, overrides, source=source)
    except (ConfigError, MemoryError) as exc:
        print(f"wavetank: config error: {exc}", file=sys.stderr)
        return 1
    try:
        return dispatch(cfg)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"wavetank: {cfg.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
