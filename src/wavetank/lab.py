"""Convergence laboratory: shallowness sweeps, rate fits, and kernel audits.

A sweep evolves the limit string, `water_system` at mu = 0, and one tank per
shallowness from identical data and input, as one batch, and measures

    err_half(mu)  = sup_t || zeta_mu - zeta ||      (elevation, alpha = 1/2)
    err_deriv(mu) = sup_t || d zeta_mu/dt - d zeta/dt ||   (velocity, alpha = 0)

over the step grid, and fits the empirical rate err ~ C mu^p by least squares
in log-log coordinates.  Every audit is a KernelAudit: a titled table of
rows, each a measured value with a hard limit where the bound is proven and
none where the constant is only fitted.  The kernel audit sweeps the
comparison kernels over a (mu, k) grid, and with them the exact operator-norm
gap of the shifted resolvents, which are diagonal, as a max over modes; the
forcing audit tabulates the dual-norm gap of each tank's forcing from the
string's against mu^(1/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ._writer import block_rows, row_blocks, write_csv
from .basis import _aligned, sobolev_weights
from .evolution import _rotate, water_system
from .operators import comparison_kernels, kernel_H_sum

__all__ = [
    "DEFAULT_MU_GRID",
    "GAP_MU_GRID",
    "SweepReport",
    "KernelAuditRow",
    "KernelAudit",
    "run_sweep",
    "fit_rate",
    "audit_kernels",
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
# steps whose error norms run_sweep folds into sup and slack together
_SWEEP_BLOCK = 256
# modes whose comparison kernels the kernel audit evaluates at once, so its memory is one block's, whatever k_max
_AUDIT_BLOCK = block_rows(1)

PROVEN_TOL = 1e-12  # relative slack allowed on proven envelopes
# the forcing-gap spread must stay strictly below 2: the largest float under 2
# is the limit that `value <= limit` needs for that
_SPREAD_LIMIT = math.nextafter(2.0, 0.0)


@dataclass(frozen=True)
class SweepReport:
    """Per-shallowness error curves with fitted rates and grid-resolution slack.

    grid_slack_* report the largest step-to-step change of each error norm on
    the sampling grid, an observed bound on what the grid max may miss between
    samples.
    """

    mu_list: Tuple[float, ...]
    err_half: np.ndarray
    err_deriv: np.ndarray
    rate_half: float
    rate_deriv: float
    grid_slack_half: np.ndarray
    grid_slack_deriv: np.ndarray


def fit_rate(mu: Sequence[float], err: Sequence[float]) -> float:
    """Least-squares slope of log(err) against log(mu).

    The first, largest shallowness value is excluded as pre-asymptotic.
    The slope comes from centred sums, so shallowness values that agree to the
    last bit give a slope (or nan when their logs coincide), never a warning.
    """
    mu = np.asarray(mu, dtype=float)[1:]
    err = np.asarray(err, dtype=float)[1:]
    if mu.size < 2:
        raise ValueError("need at least two points to fit a rate")
    if np.any(err <= 0):
        return float("nan")
    x = np.log(mu)
    y = np.log(err)
    x -= x.mean()
    sxx = np.sum(x * x)
    return float(np.sum(x * (y - y.mean())) / sxx) if sxx > 0 else float("nan")


def _sweep_reduction(modes):
    """The fixed operands of the sweep's per-step reduction, for the limit's modes and then each tank's.

    weights (n_sys, 2K), sqrt(1+k) on the real and omega on the imaginary
    slots, turn psi's float view into the pairs (sqrt(1+k) zeta, zeta_t).
    differences [-1 | I] take each tank's pairs less the limit's, bitwise the
    subtraction on finite data (every product by 0 or +-1 and every added zero
    is exact).  select (2, 2K) picks the elevation slots in row 0 and the
    velocity slots in row 1.
    """
    omega = np.stack([w for w, _ in modes])
    n_sys, K = omega.shape
    weights = _aligned((n_sys, K, 2))
    weights[..., 0] = np.sqrt(sobolev_weights(K, 0.5)[1:])
    weights[..., 1] = omega
    differences = np.hstack([np.full((n_sys - 1, 1), -1.0), np.eye(n_sys - 1)])
    select = np.zeros((2, K, 2))
    select[0, :, 0] = select[1, :, 1] = 1.0
    return weights.reshape(n_sys, 2 * K), differences, select.reshape(2, 2 * K)


def run_sweep(mu_list: Sequence[float], zeta0: np.ndarray, zeta1: np.ndarray, runs, dt: float) -> SweepReport:
    """Evolve the limit string (mu = 0) and every tank as one batch from identical data, reducing the errors as it goes.

    K comes from the data; the input holds each run's u for its count of
    steps of dt, in order, so the horizon is the total count times dt.  Mode 0
    is the same in every system, so its error is 0 and only modes 1..K are
    stepped, by `evolution._rotate`.  Each step weighs psi's float view into
    the pairs (sqrt(1+k) zeta, zeta_t), takes every tank's pairs less the
    limit's with one product by [-1 | I], squares them and sums both squared
    error norms of every tank with one product by a 0/1 selector, into one row
    of a fixed block of _SWEEP_BLOCK + 1 rows.  A full block is folded into the
    running sup and the largest step-to-step change of the norms, and its last
    row, carried to row 0, starts the next.  No trajectory is kept.  The rates
    skip the largest mu, as fit_rate does, and are nan below three mu.

    ValueError names the first tank whose norms are not finite.  A state that
    overflows makes every tank's norms nan through the product (0 * inf), so
    then the first tank whose own state, or the limit's, is not finite is named.
    """
    mu_list = tuple(float(mu) for mu in mu_list)
    K, n_mu = zeta0.size - 1, len(mu_list)
    # mode 0 is the same in every system (omega_0 = 0, f_0 = -1/sqrt(pi)), so its error is 0: step modes 1..K
    modes = [(w[1:], f[1:]) for w, f in (water_system(mu, K) for mu in (0.0, *mu_list))]
    weights, differences, select = _sweep_reduction(modes)
    pairs = _aligned(weights.shape)
    diff = _aligned((n_mu, 2 * K))
    # squared norms, their roots and the roots' step-to-step changes, one row per step
    block, norms = np.empty((2, _SWEEP_BLOCK + 1, 2, n_mu))
    rows, squares = list(block), diff.T  # the block's rows and the squared differences as the selector's operand
    steps = np.empty((_SWEEP_BLOCK, 2, n_mu))
    # the norms start at 0: every system starts from the same finite data
    sup, slack = np.zeros((2, n_mu)), np.zeros((2, n_mu))

    def fold(n):
        """Fold the squared norms in rows 0..n of the block into sup and slack; row n starts the next block."""
        root = np.sqrt(block[: n + 1], out=norms[: n + 1])
        np.maximum(sup, root.max(axis=0), out=sup)
        change = np.abs(np.subtract(root[1:], root[:-1], out=steps[:n]), out=steps[:n])
        np.maximum(slack, change.max(axis=0), out=slack)
        block[0] = block[n]

    # overflow surfaces as a non-finite norm, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        filled = -1
        for state in _rotate(zeta0[1:], zeta1[1:], modes, runs, dt):
            filled += 1
            np.multiply(state, weights, out=pairs)
            np.matmul(differences, pairs, out=diff)
            np.square(diff, out=diff)
            np.matmul(select, squares, out=rows[filled])
            if filled == _SWEEP_BLOCK:
                fold(filled)
                filled = 0
        if filled:
            fold(filled)
    bad = ~np.all(np.isfinite(sup) & np.isfinite(slack), axis=0)
    if bad.any():
        own = ~np.isfinite(state).all(axis=1)
        if own.any():
            bad = own[0] | own[1:]
        mu = mu_list[np.argmax(bad)]
        raise ValueError(f"error norms at mu={mu:g} are not finite: the data or input overflow float64")
    (eh, ed), (sh, sd) = sup, slack
    fits = len(mu_list) >= 3
    rate_h = fit_rate(mu_list, eh) if fits else float("nan")
    rate_d = fit_rate(mu_list, ed) if fits else float("nan")
    return SweepReport(
        mu_list=mu_list,
        err_half=eh,
        err_deriv=ed,
        rate_half=rate_h,
        rate_deriv=rate_d,
        grid_slack_half=sh,
        grid_slack_deriv=sd,
    )


@dataclass(frozen=True)
class KernelAuditRow:
    """One audited quantity; it passes when value <= limit, and always when limit is None."""

    kernel: str
    check: str
    value: float
    limit: Optional[float]

    @property
    def passed(self) -> bool:
        return self.limit is None or self.value <= self.limit


def _proven(limit: float) -> float:
    """The stored limit of a proven envelope: the bound with relative slack PROVEN_TOL."""
    return limit * (1.0 + PROVEN_TOL)


@dataclass(frozen=True)
class KernelAudit:
    """A titled table of audit rows; it passes when every row does."""

    title: str
    rows: Tuple[KernelAuditRow, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def table(self) -> str:
        lines = [self.title]
        for r in self.rows:
            verdict = "" if r.limit is None else ("  PASS" if r.passed else "  FAIL")
            lim = "" if r.limit is None else f" (limit {r.limit:g})"
            lines.append(f"  {r.kernel:<8} {r.check:<42} {r.value: .6e}{lim}{verdict}")
        return "\n".join(lines)


def _grid(mu_grid: Sequence[float], K: int) -> Tuple[float, ...]:
    if len(mu_grid) == 0 or K < 1:
        raise ValueError("audit grids must be nonempty")
    return tuple(float(m) for m in mu_grid)


def _oracle_modes(k_max: int) -> np.ndarray:
    """The ORACLE_K_SAMPLES log-spaced modes in [1, k_max], rounded, sorted and without repeats.

    The same array as np.unique of the rounded grid, whose first call in a
    process imports numpy.ma; all modes are >= 1, so a zero in front lets the
    adjacent-difference mask keep the first.
    """
    k = np.sort(np.round(np.geomspace(1.0, k_max, ORACLE_K_SAMPLES)))
    return k[np.diff(k, prepend=0.0) != 0.0]


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
    ORACLE_K_SAMPLES log-spaced k <= k_max per shallowness.  The kernels are
    evaluated over blocks of _AUDIT_BLOCK modes, so the memory is one block's.

    The resolvent rows are exact operator-norm gaps, not samples.  The
    shifted resolvents (I + A)^(-1) act coefficient-wise, with A = lambda_k/mu
    = k^2 h(sqrt(mu) k) for the tank and k^2 for the string, so on a probe p
    the gap is -F_k p_k mode by mode (zero on mode 0).  Its sup over unit
    probes on modes 0..k_max is therefore max |F_k|, proven <= sqrt(mu); the
    square-root channel is likewise max |G_k|, whose constant over sqrt(mu)
    is only fitted.
    """
    mu_grid = _grid(mu_grid, k_max)
    k_oracle = _oracle_modes(k_max)
    # the truncated series and its certified tail at the oracle modes, per mu; the closed form is set against it
    # block by block
    series, tails = zip(*(kernel_H_sum(mu, k_oracle, l_modes) for mu in mu_grid))
    ratio_f, gap_f, gap_g, ratio_i, ratio_h1, ratio_h2, ratio_oracle, fit_g, ratio_j = [], [], [], [], [], [], [], [], []
    for first in range(1, k_max + 1, _AUDIT_BLOCK):
        k = np.arange(first, min(first + _AUDIT_BLOCK, k_max + 1), dtype=float)
        here = (k_oracle >= k[0]) & (k_oracle <= k[-1])
        at = (k_oracle[here] - k[0]).astype(np.intp)  # positions of this block's oracle modes in k
        root_k, env = np.sqrt(k), np.empty_like(k)
        fit_g.append([])
        ratio_j.append([])
        for mu, sums, tail in zip(mu_grid, series, tails):
            rmu = math.sqrt(mu)
            # the kernels are this call's own arrays, so every ratio is formed in place on them; rounding is
            # monotone, so a division by a positive number after the max gives the max of the divided values, bit
            # for bit, and the largest of the blocks' maxima is the max over all modes
            F, G, I, J, H = comparison_kernels(mu, k)
            if at.size:
                ratio_oracle.append(np.max(np.abs(H[at] - sums[here])) / tail)
            ratio_h1.append(np.max(H) / (mu / 2.0))
            ratio_h2.append(np.max(np.multiply(H, k, out=H)) / (2.0 * rmu))
            gap_f.append(np.max(np.abs(F, out=F)) / rmu)
            ratio_f.append(np.max(np.multiply(F, k, out=F)) / rmu)
            ratio_i.append(np.max(np.divide(np.abs(I, out=I), np.multiply(rmu, k, out=env), out=I)))
            g_env = np.minimum(rmu, np.divide(mu**0.25, root_k, out=env), out=env)
            gap_g.append(np.max(np.abs(G, out=G)) / rmu)
            fit_g[-1].append(np.max(np.divide(G, g_env, out=G)))
            ratio_j[-1].append(np.max(np.divide(np.abs(J, out=J), np.multiply(mu**0.25, root_k, out=env), out=J)))
    fit_g, ratio_j = np.max(fit_g, axis=0), np.max(ratio_j, axis=0)
    # the decade spreads of the fitted constants are diagnostics: they settle
    # near 1 only once the grid reaches the saturation regime k ~ 1/sqrt(mu),
    # so they carry no hard limit here (the acceptance suite pins them on the
    # full default grid)
    rows = (
        KernelAuditRow("F", "max |F| k / sqrt(mu)", float(np.max(ratio_f)), _proven(1.0)),
        KernelAuditRow("F", "sup |p|=1 resolvent gap / sqrt(mu)", float(np.max(gap_f)), _proven(1.0)),
        KernelAuditRow("I", "max |I| / (sqrt(mu) k)", float(np.max(ratio_i)), _proven(1.0)),
        KernelAuditRow("H_sum", "max sum_l H / (mu/2)", float(np.max(ratio_h1)), _proven(1.0)),
        KernelAuditRow("H_sum", "max sum_l H k / (2 sqrt(mu))", float(np.max(ratio_h2)), _proven(1.0)),
        KernelAuditRow("H_sum", "max |closed - series| / certified tail", float(np.max(ratio_oracle)), _proven(1.0)),
        KernelAuditRow("G", "fitted C over min(sqrt(mu), mu^1/4 k^-1/2)", float(np.max(fit_g)), _proven(2.0)),
        KernelAuditRow("G", "fitted C spread across decades", float(np.max(fit_g) / np.min(fit_g)), None),
        KernelAuditRow("G", "sup |p|=1 sqrt-channel gap / sqrt(mu)", float(np.max(gap_g)), None),
        KernelAuditRow("J", "max |J| / (mu^1/4 k^1/2)", float(np.max(ratio_j)), _proven(1.0)),
        KernelAuditRow("J", "fitted C spread across decades", float(np.max(ratio_j) / np.min(ratio_j)), None),
    )
    return KernelAudit(f"kernel audit over mu in {list(mu_grid)}, k <= {k_max}", rows)


def bmu_rate_table(mu_grid: Sequence[float] = GAP_MU_GRID, K: int = GAP_K) -> KernelAudit:
    """Dual-norm forcing gap per shallowness, scaled by mu^(-1/4), and the spread of the scaled values.

    The gap is the distance of the unit-input forcing of `water_system(mu, K)`
    from its zero-depth limit, the string's at mu = 0, in the dual of the
    first-order scale space, realized with mode weights (1+k)^(-2) (exponent -1
    in this package's weight family), the Fourier realization of the dual norm
    in which the forcing convergence is proved.  Mode 0 cancels exactly.  The
    weights and the string's forcing are built once per call.  The scaled gap
    should sit near a constant once K sqrt(mu) is large; the spread (largest
    over smallest) must stay strictly below 2.
    """
    mu_grid = _grid(mu_grid, K)
    weights, string = sobolev_weights(K, -1.0), water_system(0.0, K)[1]
    gaps = [float(np.sqrt(np.sum(weights * (water_system(mu, K)[1] - string) ** 2))) for mu in mu_grid]
    scaled = [gap * mu ** (-0.25) for mu, gap in zip(mu_grid, gaps)]
    rows = tuple(KernelAuditRow("gap", f"gap mu^(-1/4) at mu={mu:.1e}", sc, None) for mu, sc in zip(mu_grid, scaled))
    spread = KernelAuditRow("gap", "scaled spread max/min, strictly below 2", max(scaled) / min(scaled), _SPREAD_LIMIT)
    return KernelAudit(f"forcing gap rate audit (dual norm) over mu in {list(mu_grid)}, K = {K}", rows + (spread,))


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
    return "\n".join(lines)
