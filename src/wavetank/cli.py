"""Command-line front end: config parsing, dispatch, deterministic file outputs.

Commands
    simulate   evolve one system and write the trajectory as CSV
    sweep      run a shallowness sweep; write error CSV and a text summary
    verify     print the kernel and forcing-gap audit tables and a verdict
               line; exit 0 iff every row with a limit holds it
    field      write both boundary-data extensions on a grid as CSV

Configuration is a flat key=value file (one pair per line, `#` comments);
command-line flags override file values, and a flag value may hold neither
`#` nor a line break.  A flag is --KEY VALUE or --KEY=VALUE, KEY a key with
'-' for '_' or a unique prefix of one (an exact name wins); a separate VALUE
is the next argument, whatever it holds.  The command may stand anywhere
among the flags, a repeated flag keeps its last value, and every argument
after `--` is the command.  Exit codes: 0 success, 1 usage, configuration or
output error, non-finite results, or a run too large to allocate, 2 audit
failure (some row of verify fails).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ._writer import block_rows, table_blocks, write_csv, write_text
from .basis import _readonly
from .evolution import _rows, water_system
from .fields import FieldGrid, _constant_profile, dirichlet_extension, neumann_extension, write_field_csv
from .lab import audit_kernels, bmu_rate_table, run_sweep, sweep_summary, write_sweep_csv

__all__ = ["ConfigError", "RunConfig", "parse_config", "dispatch", "main"]

COMMANDS = ("simulate", "sweep", "verify", "field")
# lateral modes of the field command's Neumann profile, at most; keeps `field`
# fast at the default l_modes
_FIELD_L_MODES_CAP = 512
# steps of one simulate or sweep run, at most: 10^9 steps of sweep at K = 1024
# take about ten hours on a 2-core VM, and a count far past it is a typo in tau or dt
_MAX_STEPS = 10**9
# lateral modes of the series oracle, at most: its table of tail sums takes time linear in l_modes (0.4 s at 10^7
# on a 2-core VM), its tail is certified only below 10^16 lateral modes, and 2l - 1 is exact only below 2^52
_MAX_L_MODES = 10**9

# key: (default, flag metavar, help); each key is also the flag --key, with '-' for '_'.
# Order fixes the serialized layout.
CONFIG_KEYS = {
    "out": ("out", "DIR", "output directory"),
    "mu": ("0.01", "MU", "shallowness parameter, in [0, 1] (0 is the string); field needs (0, 1]"),
    "mu_list": ("1e-1,1e-2,1e-3,1e-4", "M1,M2,...", "comma-separated decreasing shallowness values in (0, 1]"),
    "k_modes": ("256", "K", "number of nonzero surface modes, >= 1"),
    "l_modes": (
        "10000",
        "L",
        f"lateral-series truncation, 1 to {_MAX_L_MODES}: verify/sweep oracle; "
        f"field Neumann profile, capped at {_FIELD_L_MODES_CAP}",
    ),
    "dt": ("", "DT", "time step; empty selects 1e-3*tau"),
    "tau": ("10.0", "TAU", "time horizon, > 0"),
    "grid": ("50,50", "NX,NY", "field grid resolution NX,NY (>= 2 each)"),
    "signal": ("pulse:0:1:1", "SPEC", "input signal: zero | const:AMP | pulse:T0:T1:AMP"),
    "init": ("smooth8", "SPEC", "initial elevation: zero | cos1 | smooth8 | mode:K:AMP[+...]"),
    "init1": ("zero", "INIT1", "initial velocity, same mini-language as init"),
    "seed": (
        "20260809",
        "SEED",
        "no effect; accepted because the benchmark's verify workload passes --seed (ROADMAP item 1)",
    ),
    "k_max": ("10000", "K_MAX", "largest mode index in the kernel audit, >= 1"),
}

_KNOWN_KEYS = "known keys: " + ", ".join(CONFIG_KEYS)


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
    dt: float
    tau: float
    grid: Tuple[int, int]
    signal: str
    init: str
    init1: str
    seed: int
    k_max: int

    @functools.cached_property
    def init_modes(self) -> np.ndarray:
        """The init spec at k_modes, parsed on first use (parse_config uses it first)."""
        return parse_initial_spec(self.init, self.k_modes)

    @functools.cached_property
    def init1_modes(self) -> np.ndarray:
        """The init1 spec at k_modes, parsed on first use (parse_config uses it first)."""
        return parse_initial_spec(self.init1, self.k_modes)

    @functools.cached_property
    def signal_runs(self) -> Tuple[Tuple[float, int], ...]:
        """The signal on the steps of dt up to tau as runs (u, count) of constant u, built on first use.

        At most three runs, whatever the number of steps.  parse_config builds them first for simulate and sweep,
        so a step grid that misses tau or a pulse is a config error there.
        """
        return make_signal(self.signal, self.dt, _n_steps(self))

    def to_text(self) -> str:
        """Serialize as the key=value format accepted by parse_config."""
        parts = []
        for key in CONFIG_KEYS:
            val = getattr(self, key)
            if key == "mu_list":
                val = ",".join(f"{m:.17g}" for m in val)
            elif key == "grid":
                val = f"{val[0]},{val[1]}"
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
            raise ConfigError(f"{source}:{ln}: unknown key {key!r}; {_KNOWN_KEYS}")
        pairs[key] = val.strip()
    return pairs


def _to_float(key: str, raw: str, hi: float, zero: bool = False) -> float:
    """A finite number in (0, hi], or in [0, hi] with zero; ConfigError otherwise."""
    try:
        val = float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None
    if not (math.isfinite(val) and (0.0 < val or zero and val == 0.0) and val <= hi):
        raise ConfigError(f"{key} must be in {'[' if zero else '('}0, {hi:g}], got {raw}")
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
    raw = {k: v for k, (v, _, _) in CONFIG_KEYS.items()}
    raw.update(_parse_pairs(file_text, source))
    for k, v in (overrides or {}).items():
        if k not in CONFIG_KEYS:
            raise ConfigError(f"unknown key {k!r}; {_KNOWN_KEYS}")
        if v is not None:
            v = str(v)
            # the file format ends a value at `#` or a line break, so such a
            # value could not be written back by to_text
            if "#" in v or v.splitlines() not in ([], [v]):
                raise ConfigError(f"{k} must contain neither '#' nor a line break, got {v!r}")
            raw[k] = v.strip()

    mu = _to_float("mu", raw["mu"], 1.0, zero=True)
    # the wave-maker extension divides by sqrt(mu)
    if command == "field" and mu == 0.0:
        raise ConfigError(f"mu must be in (0, 1] for field, got {raw['mu']}")
    items = raw["mu_list"].split(",")
    if not any(s.strip() for s in items):
        raise ConfigError("mu_list must contain at least one value")
    mu_list = tuple(_to_float("mu_list", s, 1.0) for s in items)
    if any(b >= a for a, b in zip(mu_list, mu_list[1:])):
        raise ConfigError(f"mu_list must be strictly decreasing, got {raw['mu_list']}")
    grid_items = raw["grid"].split(",")
    if len(grid_items) != 2:
        raise ConfigError(f"grid must be NX,NY, got {raw['grid']!r}")
    grid = (_to_int("grid", grid_items[0], 2), _to_int("grid", grid_items[1], 2))
    tau = _to_float("tau", raw["tau"], math.inf)
    dt = _to_float("dt", raw["dt"], math.inf) if raw["dt"] else 1e-3 * tau
    if dt == 0.0:
        raise ConfigError(f"the default dt = 1e-3*tau underflows to 0 at tau={tau:g}; give dt")
    l_modes = _to_int("l_modes", raw["l_modes"], 1)
    if l_modes > _MAX_L_MODES:
        raise ConfigError(f"l_modes must be <= {_MAX_L_MODES}, got {l_modes}")
    cfg = RunConfig(
        command=command,
        out=raw["out"],
        mu=mu,
        mu_list=mu_list,
        k_modes=_to_int("k_modes", raw["k_modes"], 1),
        l_modes=l_modes,
        dt=dt,
        tau=tau,
        grid=grid,
        signal=raw["signal"],
        init=raw["init"],
        init1=raw["init1"],
        seed=_to_int("seed", raw["seed"], 0),
        k_max=_to_int("k_max", raw["k_max"], 1),
    )
    # fail early on malformed mini-language specs and on a step grid that misses
    # tau or a pulse; the commands reuse the parsed data
    cfg.init_modes, cfg.init1_modes
    if command in ("simulate", "sweep"):
        cfg.signal_runs
    else:
        _signal_spec(cfg.signal)
    return cfg


def parse_initial_spec(spec: str, K: int) -> np.ndarray:
    """Initial-data mini-language: zero | cos1 | smooth8 | mode:K:AMP terms joined by +.

    Returns the finite coefficients of modes 0..K as a read-only float64 array.
    """
    spec = spec.strip()
    c = np.zeros(K + 1)
    if spec == "cos1":
        c[1] = 1.0
    elif spec == "smooth8":
        top = min(8, K)
        c[1 : top + 1] = 1.0 / np.arange(1, top + 1) ** 2
    elif spec != "zero":
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
    return _readonly(c)


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


def make_signal(spec: str, dt: float, n_steps: int) -> Tuple[Tuple[float, int], ...]:
    """The input u_m on [m dt, (m+1) dt), m < n_steps, of a signal spec, as runs (u, count) of constant u in
    step order.

    Signal mini-language: zero | const:AMP | pulse:T0:T1:AMP.  A pulse is on at the steps with T0 <= m dt < T1,
    decided on the float products m*dt, and its window must hold a step start m < n_steps.
    """
    kind, nums = _signal_spec(spec)
    if kind == "pulse":
        t_on, t_off, amplitude = nums
        on, off = _first_step_at(t_on, dt, n_steps), _first_step_at(t_off, dt, n_steps)
        if on == off:
            raise ConfigError(
                f"signal {spec.strip()!r}: the window [{t_on:g}, {t_off:g}) holds no step start m*dt "
                f"of the grid dt={dt:g}, m < {n_steps}"
            )
        runs = [(0.0, on), (amplitude, off - on), (0.0, n_steps - off)]
    else:
        runs = [(nums[0] if kind == "const" else 0.0, n_steps)]
    return tuple((u, n) for u, n in runs if n)


def _first_step_at(t: float, dt: float, n_steps: int) -> int:
    """The first m in 0..n_steps with m*dt >= t, or n_steps if there is none.

    m*dt is the float product, nondecreasing in m, so a guess from t/dt moves to the edge in a few steps.
    """
    q = t / dt
    m = 0 if q <= 0 else n_steps if q >= n_steps else math.ceil(q)
    while m > 0 and (m - 1) * dt >= t:
        m -= 1
    while m < n_steps and m * dt < t:
        m += 1
    return m


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
    """Number of steps of length dt that end exactly at tau, at most _MAX_STEPS; ConfigError otherwise."""
    dt = cfg.dt
    steps = cfg.tau / dt
    if not math.isfinite(steps):
        raise ConfigError(f"tau={cfg.tau:g} holds too many steps of dt={dt:g} to count")
    n = round(steps)
    if n > _MAX_STEPS:
        raise ConfigError(f"tau={cfg.tau:g} holds {n} steps of dt={dt:g}, more than the {_MAX_STEPS} a run may take")
    if n == 0 or abs(n * dt - cfg.tau) > 1e-9 * cfg.tau:
        raise ConfigError(
            f"tau={cfg.tau:g} is not a whole number of steps of dt={dt:g}; "
            f"choose dt = tau/n for a positive integer n"
        )
    return n


def _cmd_simulate(cfg: RunConfig, out: _OutputSet) -> int:
    system = water_system(cfg.mu, cfg.k_modes)
    modes = range(cfg.k_modes + 1)
    header = ",".join(["t", *(f"zeta_{k}" for k in modes), *(f"dzeta_{k}" for k in modes)])
    rows = block_rows(2 * cfg.k_modes + 3)
    blocks = _rows(cfg.init_modes, cfg.init1_modes, cfg.signal_runs, cfg.dt, system, rows)
    # overflow surfaces as a non-finite row, which _rows rejects
    with np.errstate(over="ignore", invalid="ignore"):
        write_csv(out.path("trajectory.csv"), header, table_blocks(blocks))
    return 0


def _cmd_sweep(cfg: RunConfig, out: _OutputSet) -> int:
    report = run_sweep(cfg.mu_list, cfg.init_modes, cfg.init1_modes, cfg.signal_runs, cfg.dt)
    audit = audit_kernels(k_max=cfg.k_max, l_modes=cfg.l_modes)
    write_sweep_csv(report, out.path("sweep.csv"))
    write_text(out.path("summary.txt"), f"{sweep_summary(report)}\n\n{audit.table()}\n")
    return 0


def _cmd_verify(cfg: RunConfig, out: _OutputSet) -> int:
    audits = (audit_kernels(k_max=cfg.k_max, l_modes=cfg.l_modes), bmu_rate_table())
    ok = all(audit.passed for audit in audits)
    verdict = "verify: " + ("all proven bounds hold" if ok else "BOUND VIOLATION")
    text = "\n\n".join([*(audit.table() for audit in audits), verdict]) + "\n"
    write_text(out.path("audit.txt"), text)
    sys.stdout.write(text)
    return 0 if ok else 2


def _cmd_field(cfg: RunConfig, out: _OutputSet) -> int:
    grid = FieldGrid.regular(*cfg.grid)
    profile = _constant_profile(1.0, min(cfg.l_modes, _FIELD_L_MODES_CAP))
    # overflow surfaces as non-finite field values, which FieldGrid rejects
    with np.errstate(over="ignore", invalid="ignore"):
        write_field_csv(dirichlet_extension(cfg.init_modes, cfg.mu, grid), out.path("field_dirichlet.csv"))
        write_field_csv(neumann_extension(profile, cfg.mu, grid), out.path("field_neumann.csv"))
    return 0


def dispatch(cfg: RunConfig) -> int:
    """Run one command; on failure or interrupt remove any files written by this invocation."""
    runner = {
        "simulate": _cmd_simulate,
        "sweep": _cmd_sweep,
        "verify": _cmd_verify,
        "field": _cmd_field,
    }[cfg.command]
    out = _OutputSet(cfg.out)
    try:
        return runner(cfg, out)
    except BaseException:
        out.discard()
        raise


# each flag and the name it sets: help, the config file's path, or a config key
_FLAGS = {"-h": "help", "--help": "help", "--config": "config", **{f"--{k.replace('_', '-')}": k for k in CONFIG_KEYS}}


def _parse_argv(argv) -> Tuple[Optional[str], Optional[str], dict]:
    """(command, config path, key overrides) of a command line, in the grammar of the module docstring.

    The command is None when the line asks for help.  ConfigError names the first misuse.
    """
    command, values, args, flags_end = None, {}, iter(argv), False
    for arg in args:
        if flags_end or not arg.startswith("-") or arg == "-":
            if command is not None:
                raise ConfigError(f"expected one command, got {command!r} and {arg!r}")
            command = arg
            continue
        if arg == "--":
            flags_end = True
            continue
        name, eq, value = arg.partition("=")
        found = [name] if name in _FLAGS else [f for f in _FLAGS if f.startswith(name)]
        if len(found) != 1:
            raise ConfigError(f"ambiguous flag {name}: {', '.join(found)}" if found else f"unknown flag {name}")
        key = _FLAGS[found[0]]
        if key == "help":
            return None, None, {}
        if not eq:
            value = next(args, None)
            if value is None:
                raise ConfigError(f"flag {found[0]} needs a value")
        values[key] = value
    if command not in COMMANDS:
        got = "no command" if command is None else f"unknown command {command!r}"
        raise ConfigError(f"{got}; expected one of {', '.join(COMMANDS)}")
    return command, values.pop("config", None), values


def _help() -> str:
    lines = [
        f"usage: wavetank {{{','.join(COMMANDS)}}} [--config PATH] [--KEY VALUE ...]",
        "",
        __doc__.strip(),
        "",
        "options (flag --KEY sets the configuration key KEY, with '_' for '-'; defaults in brackets):",
        "  -h, --help           print this help and exit",
        "  --config PATH        key=value configuration file",
    ]
    for key, (default, metavar, text) in CONFIG_KEYS.items():
        flag = f"--{key.replace('_', '-')} {metavar}"
        lines.append(f"  {flag:<20} {text}  [{default or '1e-3*tau'}]")
    lines += [
        "",
        "initial-data mini-language (init, init1):",
        "  zero | cos1 (unit coefficient on mode 1) | smooth8 (modes 1..8, amplitude 1/k^2)",
        "  | mode:K:AMP terms joined by '+', e.g. mode:1:1+mode:3:0.5",
        "signal mini-language: zero | const:AMP | pulse:T0:T1:AMP (held on [T0, T1), T0 < T1,",
        "  which must hold a step start m*dt < tau)",
    ]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    try:
        command, config, overrides = _parse_argv(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"wavetank: usage error: {exc} (wavetank --help lists the flags)", file=sys.stderr)
        return 1
    if command is None:
        sys.stdout.write(_help())
        return 0
    try:
        file_text = ""
        source = "<defaults>"
        if config is not None:
            try:
                file_text = Path(config).read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config file {config!r}: {exc}") from None
            source = config
        cfg = parse_config(command, file_text, overrides, source=source)
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
