"""Outside-in layer trace: spans around public wavetank functions.

`Tracer.install()` replaces every binding of each traced function in the
loaded `wavetank.*` modules with a wrapper, so the call is caught where the
caller binds it (`wavetank.cli.evolve`, `wavetank.lab.kernel_H_sum`,
`wavetank.evolution.ntn_forcing`, `wavetank.operators.ntn_forcing`, ...).
Nothing in the package changes.  A span is (name, start, end, parent, run id,
counters); spans stay in memory until the process writes its result.

`layer_metrics()` reduces the spans of one traced run to the per-layer
metrics.  Self time is a span's duration minus the time its child spans
cover; the program is single-threaded at this level, so children never
overlap and their durations add.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# span name -> (defining module, function name)
TRACED = {
    "cli.parse_config": ("wavetank.cli", "parse_config"),
    "cli.dispatch": ("wavetank.cli", "dispatch"),
    "evolution.water_system": ("wavetank.evolution", "water_system"),
    "evolution.evolve": ("wavetank.evolution", "evolve"),
    "operators.ntn_forcing": ("wavetank.operators", "ntn_forcing"),
    "operators.kernel_H_sum": ("wavetank.operators", "kernel_H_sum"),
    "lab.run_sweep": ("wavetank.lab", "run_sweep"),
    "lab.trajectory_errors": ("wavetank.lab", "trajectory_errors"),
    "lab.audit_kernels": ("wavetank.lab", "audit_kernels"),
    "lab.random_probe_audit": ("wavetank.lab", "random_probe_audit"),
    "lab.bmu_rate_table": ("wavetank.lab", "bmu_rate_table"),
    "fields.dirichlet_extension": ("wavetank.fields", "dirichlet_extension"),
    "fields.neumann_extension": ("wavetank.fields", "neumann_extension"),
    "fields.write_field_csv": ("wavetank.fields", "write_field_csv"),
    "basis.norm": ("wavetank.basis", "norm"),
    "basis.sobolev_weights": ("wavetank.basis", "sobolev_weights"),
}


def _forcing_terms(result, params, *rest, **kw):
    return {"lateral_terms": (params.K + 1) * params.L_modes}


def _h_sum_terms(result, params, k, *rest, **kw):
    return {"lateral_terms": (len(k) if hasattr(k, "__len__") else 1) * params.L_modes}


def _evolve_counts(result, initial, signal, system, *rest, **kw):
    traj_bytes = sum(getattr(result, a).nbytes for a in ("times", "zeta", "zeta_t"))
    return {"mode_steps": (system.K + 1) * signal.n_steps, "traj_bytes": traj_bytes}


def _point_modes(result, data, params, grid, *rest, **kw):
    modes = data.K + 1 if hasattr(data, "K") else data.n_modes
    return {"point_modes": grid.nx * grid.ny * modes}


def _file_bytes(result, grid, path, *rest, **kw):
    return {"bytes": os.path.getsize(path)}


# counters computed from a traced call's arguments and result
COUNTERS = {
    "operators.ntn_forcing": _forcing_terms,
    "operators.kernel_H_sum": _h_sum_terms,
    "evolution.evolve": _evolve_counts,
    "fields.dirichlet_extension": _point_modes,
    "fields.neumann_extension": _point_modes,
    "fields.write_field_csv": _file_bytes,
}


class Tracer:
    def __init__(self, run_id: int = 0):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            idx = len(self.spans)
            span = [name, time.perf_counter(), None, parent, self.run_id, {}]
            self.spans.append(span)
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                try:
                    span[5] = counter(result, *args, **kwargs)
                except (AttributeError, TypeError, ValueError, OSError):
                    pass  # a changed signature loses the counter, not the run
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each place a wavetank module binds it.

        A function the package no longer has is skipped; its metrics read 0.
        """
        modules = [m for n, m in list(sys.modules.items()) if (n == "wavetank" or n.startswith("wavetank.")) and m]
        for name, (mod_name, attr) in TRACED.items():
            fn = getattr(sys.modules.get(mod_name), attr, None)
            if fn is None:
                continue
            traced = self._wrap(name, fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, traced)


def _totals(spans):
    """Per span name: total duration, total self time, call count, summed counters."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run, _c in spans:
        if parent is not None:
            child_time[parent] += end - start
    tot = {}
    for i, (name, start, end, _p, _run, counts) in enumerate(spans):
        t = tot.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        t["s"] += end - start
        t["self_s"] += end - start - child_time[i]
        t["calls"] += 1
        for key, val in counts.items():
            t[key] = t.get(key, 0) + val
    return tot


def _ratio(num, den, scale=1.0):
    return num / den * scale if den > 0 else 0.0


# per-layer metric -> unit; the order is the order of the report
LAYER_UNITS = {
    "operators.ntn_forcing.s": "s",
    "operators.ntn_forcing.calls": "count",
    "operators.kernel_H_sum.s": "s",
    "operators.lateral_terms": "count",
    "evolution.water_system.self_s": "s",
    "evolution.evolve.s": "s",
    "evolution.evolve.mode_steps": "count",
    "evolution.evolve.ns_per_mode_step": "ns",
    "evolution.evolve.traj_mb": "MB",
    "lab.run_sweep.self_s": "s",
    "lab.trajectory_errors.s": "s",
    "lab.audit_kernels.self_s": "s",
    "lab.random_probe_audit.s": "s",
    "lab.bmu_rate_table.self_s": "s",
    "fields.dirichlet_extension.s": "s",
    "fields.neumann_extension.s": "s",
    "fields.ns_per_point_mode": "ns",
    "fields.write_field_csv.s": "s",
    "fields.write_field_csv.mb_per_s": "MB/s",
    "cli.parse_config.s": "s",
    "cli.dispatch.self_s": "s",
    "cli.out_mb": "MB",
    "basis.norm.s": "s",
    "basis.sobolev_weights.s": "s",
    "trace.overhead_frac": "fraction",
}


def layer_metrics(spans, out_bytes: int) -> dict:
    """Per-layer metrics of one traced run (all but trace.overhead_frac)."""
    tot = _totals(spans)

    def get(name, key="s"):
        return tot.get(name, {}).get(key, 0)

    lateral = get("operators.ntn_forcing", "lateral_terms") + get("operators.kernel_H_sum", "lateral_terms")
    fields_s = get("fields.dirichlet_extension") + get("fields.neumann_extension")
    point_modes = get("fields.dirichlet_extension", "point_modes") + get("fields.neumann_extension", "point_modes")
    return {
        "operators.ntn_forcing.s": get("operators.ntn_forcing"),
        "operators.ntn_forcing.calls": get("operators.ntn_forcing", "calls"),
        "operators.kernel_H_sum.s": get("operators.kernel_H_sum"),
        "operators.lateral_terms": lateral,
        "evolution.water_system.self_s": get("evolution.water_system", "self_s"),
        "evolution.evolve.s": get("evolution.evolve"),
        "evolution.evolve.mode_steps": get("evolution.evolve", "mode_steps"),
        "evolution.evolve.ns_per_mode_step": _ratio(
            get("evolution.evolve"), get("evolution.evolve", "mode_steps"), 1e9
        ),
        "evolution.evolve.traj_mb": get("evolution.evolve", "traj_bytes") / 1e6,
        "lab.run_sweep.self_s": get("lab.run_sweep", "self_s"),
        "lab.trajectory_errors.s": get("lab.trajectory_errors"),
        "lab.audit_kernels.self_s": get("lab.audit_kernels", "self_s"),
        "lab.random_probe_audit.s": get("lab.random_probe_audit"),
        "lab.bmu_rate_table.self_s": get("lab.bmu_rate_table", "self_s"),
        "fields.dirichlet_extension.s": get("fields.dirichlet_extension"),
        "fields.neumann_extension.s": get("fields.neumann_extension"),
        "fields.ns_per_point_mode": _ratio(fields_s, point_modes, 1e9),
        "fields.write_field_csv.s": get("fields.write_field_csv"),
        "fields.write_field_csv.mb_per_s": _ratio(
            get("fields.write_field_csv", "bytes") / 1e6, get("fields.write_field_csv")
        ),
        "cli.parse_config.s": get("cli.parse_config"),
        "cli.dispatch.self_s": get("cli.dispatch", "self_s"),
        "cli.out_mb": out_bytes / 1e6,
        "basis.norm.s": get("basis.norm"),
        "basis.sobolev_weights.s": get("basis.sobolev_weights"),
    }


# Per layer, the per-layer metrics whose spans never nest inside one another
# (each self time excludes the traced children counted elsewhere), so the
# shares of one run add up to the traced part of its run_s.
SHARE_PARTS = {
    "operators": ("operators.ntn_forcing.s", "operators.kernel_H_sum.s"),
    "evolution": ("evolution.water_system.self_s", "evolution.evolve.s"),
    "lab": (
        "lab.run_sweep.self_s",
        "lab.trajectory_errors.s",
        "lab.audit_kernels.self_s",
        "lab.random_probe_audit.s",
        "lab.bmu_rate_table.self_s",
    ),
    "fields": ("fields.dirichlet_extension.s", "fields.neumann_extension.s", "fields.write_field_csv.s"),
    "cli": ("cli.parse_config.s", "cli.dispatch.self_s"),
    "basis": ("basis.norm.s",),
}


def layer_shares(metrics: dict, run_s: float) -> dict:
    """Share of a traced run's run_s spent in each layer; `untraced` is the rest."""
    shares = {layer: sum(metrics[m] for m in parts) / run_s for layer, parts in SHARE_PARTS.items()}
    shares["untraced"] = 1.0 - sum(shares.values())
    return shares
