"""Convergence laboratory: shallowness sweeps, rate fits, and kernel audits.

A sweep evolves the tank and the limit string from identical data and input,
measures

    err_half(mu)  = sup_t || zeta_mu - zeta ||      (elevation, alpha = 1/2)
    err_deriv(mu) = sup_t || d zeta_mu/dt - d zeta/dt ||   (velocity, alpha = 0)

over the step grid, and fits the empirical rate err ~ C mu^p by least squares
in log-log coordinates.  The audits sweep the comparison kernels over a
(mu, k) grid and check every proven envelope exactly as stated, fitting the
free constants where the envelope only asserts existence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._writer import row_blocks, write_csv
from .basis import ModalVector, SpectralParams, sobolev_weights
from .evolution import InputSignal, Trajectory, evolve, limit_system, make_initial, water_system
from .operators import (
    bmu_dual_norm_gap,
    dtn_spectrum,
    kernel_F,
    kernel_G,
    kernel_H_sum,
    kernel_I,
    kernel_J,
    lateral_sum,
    limit_forcing,
    resolvent_shifted,
)

__all__ = [
    "DEFAULT_MU_GRID",
    "GAP_MU_GRID",
    "DEFAULT_PROBE_SEED",
    "SweepConfig",
    "SweepReport",
    "KernelAuditRow",
    "KernelAudit",
    "ResolventAudit",
    "trajectory_errors",
    "run_sweep",
    "fit_rate",
    "audit_kernels",
    "audit_resolvents",
    "random_probe_audit",
    "bmu_rate_table",
    "write_sweep_csv",
    "sweep_summary",
]

# audit grids: seven shallowness decades, modes up to 10^4
DEFAULT_MU_GRID = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
# forcing-gap rate study: the dual-norm tail needs K >> 1/sqrt(mu), so the
# audit uses its own truncation, far above the simulation default
GAP_MU_GRID = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
GAP_K = 16_384
# the lateral-series oracle is compared with the closed form on at most this
# many log-spaced modes per shallowness
ORACLE_K_SAMPLES = 64
DEFAULT_PROBE_SEED = 20260809

PROVEN_TOL = 1e-12  # relative slack allowed on proven envelopes


@dataclass(frozen=True)
class SweepConfig:
    """One convergence experiment: shallowness list, horizon, data and input."""

    mu_list: Tuple[float, ...]
    tau: float
    K: int
    dt: float
    zeta0: ModalVector
    zeta1: ModalVector
    signal: InputSignal

    def __post_init__(self):
        mu = tuple(float(m) for m in self.mu_list)
        if len(mu) < 1 or any(not (0.0 < m <= 1.0) for m in mu):
            raise ValueError("mu_list entries must lie in (0, 1]")
        if any(b >= a for a, b in zip(mu, mu[1:])):
            raise ValueError("mu_list must be strictly decreasing")
        object.__setattr__(self, "mu_list", mu)
        if not self.tau > 0:
            raise ValueError(f"tau must be positive, got {self.tau!r}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.zeta0.K != self.K or self.zeta1.K != self.K:
            raise ValueError("initial data must have K+1 coefficients")
        if self.signal.dt != self.dt:
            raise ValueError("signal step must equal the sweep dt")
        if self.signal.duration < self.tau - 1e-12:
            raise ValueError("signal too short for the horizon tau")


@dataclass(frozen=True)
class SweepReport:
    """Per-shallowness error curves with fitted rates and grid-resolution slack.

    grid_slack_* report the largest step-to-step change of each error norm on
    the sampling grid, an observed bound on what the grid max may miss between
    samples.  `audit` optionally attaches a kernel-bound audit to the report.
    """

    mu_list: Tuple[float, ...]
    err_half: np.ndarray
    err_deriv: np.ndarray
    rate_half: float
    rate_deriv: float
    grid_slack_half: np.ndarray
    grid_slack_deriv: np.ndarray
    audit: Optional["KernelAudit"] = None


def trajectory_errors(a: Trajectory, b: Trajectory):
    """Sup-over-grid elevation and velocity error norms between two trajectories.

    Returns (err_half, err_deriv, slack_half, slack_deriv); the slacks are the
    largest per-step change of each error norm.
    """
    if a.zeta.shape != b.zeta.shape:
        raise ValueError("trajectories have different shapes")
    w = sobolev_weights(a.K, 0.5)
    half_t = np.sqrt(((a.zeta - b.zeta) ** 2 * w).sum(axis=1))
    deriv_t = np.sqrt(((a.zeta_t - b.zeta_t) ** 2).sum(axis=1))
    slack_half = float(np.abs(np.diff(half_t)).max()) if half_t.size > 1 else 0.0
    slack_deriv = float(np.abs(np.diff(deriv_t)).max()) if deriv_t.size > 1 else 0.0
    return float(half_t.max()), float(deriv_t.max()), slack_half, slack_deriv


def fit_rate(mu: Sequence[float], err: Sequence[float], skip_largest: int = 1) -> float:
    """Least-squares slope of log(err) against log(mu).

    The largest skip_largest shallowness values are excluded as pre-asymptotic.
    """
    mu = np.asarray(mu, dtype=float)[skip_largest:]
    err = np.asarray(err, dtype=float)[skip_largest:]
    if mu.size < 2:
        raise ValueError("need at least two points to fit a rate")
    if np.any(err <= 0):
        return float("nan")
    return float(np.polyfit(np.log(mu), np.log(err), 1)[0])


def run_sweep(cfg: SweepConfig, skip_largest: int = 1) -> SweepReport:
    """Evolve tank and limit from identical data per shallowness and collect errors."""
    limit = limit_system(cfg.K)
    traj_limit = evolve(make_initial(cfg.zeta0, cfg.zeta1, limit), cfg.signal, limit)
    eh, ed, sh, sd = [], [], [], []
    for mu in cfg.mu_list:
        params = SpectralParams(mu=mu, K=cfg.K)
        water = water_system(params)
        traj = evolve(make_initial(cfg.zeta0, cfg.zeta1, water), cfg.signal, water)
        e1, e2, s1, s2 = trajectory_errors(traj, traj_limit)
        eh.append(e1)
        ed.append(e2)
        sh.append(s1)
        sd.append(s2)
    eh, ed = np.array(eh), np.array(ed)
    n_fit = len(cfg.mu_list) - skip_largest
    rate_h = fit_rate(cfg.mu_list, eh, skip_largest) if n_fit >= 2 else float("nan")
    rate_d = fit_rate(cfg.mu_list, ed, skip_largest) if n_fit >= 2 else float("nan")
    return SweepReport(
        mu_list=cfg.mu_list,
        err_half=eh,
        err_deriv=ed,
        rate_half=rate_h,
        rate_deriv=rate_d,
        grid_slack_half=np.array(sh),
        grid_slack_deriv=np.array(sd),
    )


@dataclass(frozen=True)
class KernelAuditRow:
    kernel: str
    check: str
    value: float
    limit: Optional[float]

    @property
    def passed(self) -> bool:
        return self.limit is None or self.value <= self.limit * (1.0 + PROVEN_TOL)


@dataclass(frozen=True)
class KernelAudit:
    rows: Tuple[KernelAuditRow, ...]
    mu_grid: Tuple[float, ...]
    k_max: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def table(self) -> str:
        lines = [f"kernel audit over mu in {list(self.mu_grid)}, k <= {self.k_max}"]
        for r in self.rows:
            verdict = "" if r.limit is None else ("  PASS" if r.passed else "  FAIL")
            lim = "" if r.limit is None else f" (limit {r.limit:g})"
            lines.append(f"  {r.kernel:<8} {r.check:<42} {r.value: .6e}{lim}{verdict}")
        return "\n".join(lines)


def audit_kernels(
    mu_grid: Sequence[float] = DEFAULT_MU_GRID,
    k_max: int = 10_000,
    l_modes: int = 10_000,
) -> KernelAudit:
    """Sweep every comparison kernel over the (mu, k) grid and check its envelope.

    Proven envelopes must hold with zero violations (ratio <= 1 within 1e-12
    relative); envelopes stated only up to a constant get the constant fitted,
    with its spread across shallowness decades reported and bounded.  The
    lateral sum is the closed form over the whole grid; the series truncated
    at l_modes must match it within its certified tail on up to
    ORACLE_K_SAMPLES log-spaced k <= k_max per shallowness.
    """
    if len(mu_grid) == 0 or k_max < 1:
        raise ValueError("audit grids must be nonempty")
    k = np.arange(1, k_max + 1, dtype=float)
    k_oracle = np.unique(np.round(np.geomspace(1.0, k_max, ORACLE_K_SAMPLES)))
    ratio_f, ratio_i, ratio_h1, ratio_h2, ratio_oracle = [], [], [], [], []
    fit_g, fit_j = [], []
    for mu in mu_grid:
        params = SpectralParams(mu=mu, K=1, L_modes=l_modes)
        rmu = math.sqrt(mu)
        ratio_f.append(np.max(np.abs(kernel_F(params, k)) * k / rmu))
        ratio_i.append(np.max(np.abs(kernel_I(params, k)) / (rmu * k)))
        hsum = lateral_sum(params, k)
        ratio_h1.append(np.max(hsum / (mu / 2.0)))
        ratio_h2.append(np.max(hsum * k / (2.0 * rmu)))
        series = kernel_H_sum(params, k_oracle)
        closed = lateral_sum(params, k_oracle)
        ratio_oracle.append(np.max(np.abs(closed - series.value)) / series.tail_bound)
        g_env = np.minimum(rmu, mu**0.25 / np.sqrt(k))
        fit_g.append(np.max(np.abs(kernel_G(params, k)) / g_env))
        fit_j.append(np.max(np.abs(kernel_J(params, k)) / (mu**0.25 * np.sqrt(k))))
    # the decade spreads of the fitted constants are diagnostics: they settle
    # near 1 only once the grid reaches the saturation regime k ~ 1/sqrt(mu),
    # so they carry no hard limit here (the acceptance suite pins them on the
    # full default grid)
    rows = (
        KernelAuditRow("F", "max |F| k / sqrt(mu)", float(np.max(ratio_f)), 1.0),
        KernelAuditRow("I", "max |I| / (sqrt(mu) k)", float(np.max(ratio_i)), 1.0),
        KernelAuditRow("H_sum", "max sum_l H / (mu/2)", float(np.max(ratio_h1)), 1.0),
        KernelAuditRow("H_sum", "max sum_l H k / (2 sqrt(mu))", float(np.max(ratio_h2)), 1.0),
        KernelAuditRow("H_sum", "max |closed - series| / certified tail", float(np.max(ratio_oracle)), 1.0),
        KernelAuditRow("G", "fitted C over min(sqrt(mu), mu^1/4 k^-1/2)", float(np.max(fit_g)), 2.0),
        KernelAuditRow("G", "fitted C spread across decades", float(np.max(fit_g) / np.min(fit_g)), None),
        KernelAuditRow("J", "fitted C over mu^1/4 k^1/2", float(np.max(fit_j)), None),
        KernelAuditRow("J", "fitted C spread across decades", float(np.max(fit_j) / np.min(fit_j)), None),
    )
    return KernelAudit(rows=rows, mu_grid=tuple(float(m) for m in mu_grid), k_max=k_max)


@dataclass(frozen=True)
class ResolventAudit:
    """Measured resolvent gaps for one probe against the sqrt(mu)-scaled bounds."""

    mu: float
    probe_norm: float
    f_gap: float
    f_bound: float
    g_gap: float
    g_ratio: float

    @property
    def passed(self) -> bool:
        return self.f_gap <= self.f_bound * (1.0 + PROVEN_TOL)


def audit_resolvents(mu: float, K: int, probe: ModalVector) -> ResolventAudit:
    """Gap between shifted resolvents of the tank map and its limit on one probe.

    The plain resolvent gap is proven <= sqrt(mu) ||probe||; the square-root
    channel carries the fitted-constant envelope, reported as gap/(sqrt(mu)||probe||).
    """
    if probe.K != K:
        raise ValueError(f"probe K={probe.K} does not match K={K}")
    params = SpectralParams(mu=mu, K=K, L_modes=1)
    spec = dtn_spectrum(params)
    lim = limit_forcing(K)
    gap_vec = resolvent_shifted(spec, probe) - resolvent_shifted(lim, probe)
    f_gap = float(np.sqrt(np.sum(gap_vec.coeffs**2)))
    kk = np.arange(1, K + 1, dtype=float)
    g_kernel = kernel_G(params, kk)
    g_gap = float(np.sqrt(np.sum((g_kernel * probe.coeffs[1:]) ** 2)))
    pn = float(np.sqrt(np.sum(probe.coeffs**2)))
    rmu = math.sqrt(mu)
    ratio = g_gap / (rmu * pn) if pn > 0 else 0.0
    return ResolventAudit(mu=mu, probe_norm=pn, f_gap=f_gap, f_bound=rmu * pn, g_gap=g_gap, g_ratio=ratio)


def random_probe_audit(
    mu_grid: Sequence[float] = DEFAULT_MU_GRID,
    K: int = 256,
    n_probes: int = 100,
    seed: int = DEFAULT_PROBE_SEED,
):
    """Resolvent audit over seeded random unit probes; returns one row per shallowness.

    Each row is (mu, worst f_gap, bound sqrt(mu), fitted C of the square-root
    channel, all_passed).
    """
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((n_probes, K + 1))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    rows = []
    for mu in mu_grid:
        audits = [audit_resolvents(mu, K, ModalVector(p)) for p in probes]
        worst = max(a.f_gap for a in audits)
        fitted = max(a.g_ratio for a in audits)
        rows.append((float(mu), worst, math.sqrt(mu), fitted, all(a.passed for a in audits)))
    return rows


def bmu_rate_table(mu_grid: Sequence[float] = GAP_MU_GRID, K: int = GAP_K):
    """Dual-norm forcing gap per shallowness with its mu^(1/4) scaling.

    Returns rows (mu, gap, gap * mu^(-1/4)).  The scaled column should sit
    near a constant once K sqrt(mu) is large.
    """
    rows = []
    for mu in mu_grid:
        gap = bmu_dual_norm_gap(SpectralParams(mu=mu, K=K))
        rows.append((float(mu), gap, gap * mu ** (-0.25)))
    return rows


def write_sweep_csv(report: SweepReport, path) -> None:
    """One row per shallowness value: mu, err_half, err_deriv."""
    write_csv(path, "mu,err_half,err_deriv", row_blocks(report.mu_list, report.err_half, report.err_deriv))


def sweep_summary(report: SweepReport) -> str:
    lines = [
        "shallowness sweep",
        f"  fitted rate err_half : {report.rate_half:.4f}",
        f"  fitted rate err_deriv: {report.rate_deriv:.4f}",
        "  mu          err_half      err_deriv     grid_slack_half  grid_slack_deriv",
    ]
    for i, mu in enumerate(report.mu_list):
        lines.append(
            f"  {mu:<10.3e}  {report.err_half[i]:<12.6e}  {report.err_deriv[i]:<12.6e}  "
            f"{report.grid_slack_half[i]:<15.3e}  {report.grid_slack_deriv[i]:.3e}"
        )
    if report.audit is not None:
        lines.append("")
        lines.append(report.audit.table())
    return "\n".join(lines)
