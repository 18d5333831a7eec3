"""Acceptance suite: every criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion; each line reports the decisive measured quantity and the elapsed
time against the criterion's runtime budget.
"""

import math
import time

import numpy as np

from wavetank.cli import make_signal
from wavetank.evolution import water_system
from wavetank.fields import dirichlet_extension, neumann_extension
from wavetank.lab import (
    audit_kernels,
    bmu_rate_table,
    run_sweep,
)

from oracles import energy, evolve, interior, lateral_unit, ntn_forcing, unit, verify_harmonic

MU_GRID = (1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


def _report(num, name, ok, detail, elapsed, budget):
    line = (
        f"criterion {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail}; "
        f"{elapsed:.2f}s of {budget:.0f}s budget)"
    )
    print(line)
    return line


def test_criterion_1_kernel_bound_audit():
    t0 = time.time()
    audit = audit_kernels(mu_grid=MU_GRID, k_max=10_000, l_modes=10_000)
    elapsed = time.time() - t0
    rows = {(r.kernel, r.check): r for r in audit.rows}
    proven = [
        rows[("F", "max |F| k / sqrt(mu)")],
        rows[("I", "max |I| / (sqrt(mu) k)")],
        rows[("H_sum", "max sum_l H / (mu/2)")],
        rows[("H_sum", "max sum_l H k / (2 sqrt(mu))")],
    ]
    proven_ok = all(r.value <= 1.0 + 1e-12 for r in proven)
    g_fit = rows[("G", "fitted C over min(sqrt(mu), mu^1/4 k^-1/2)")].value
    g_spread = rows[("G", "fitted C spread across decades")].value
    j_spread = rows[("J", "fitted C spread across decades")].value
    fitted_ok = g_fit <= 2.0 and g_spread <= 2.0 and j_spread <= 2.0
    ok = proven_ok and fitted_ok and elapsed < 30.0
    detail = (
        f"worst proven ratio {max(r.value for r in proven):.12f}, "
        f"C_G {g_fit:.3f}, spreads G {g_spread:.2f} / J {j_spread:.2f}"
    )
    line = _report(1, "kernel-bound audit", ok, detail, elapsed, 30.0)
    assert ok, line


def test_criterion_2_resolvent_gap_probes():
    # the exact sup over unit probes bounds every probe's gap, so a sup
    # <= sqrt(mu) means no probe can violate the bound
    t0 = time.time()
    audit = audit_kernels(mu_grid=MU_GRID, k_max=10_000, l_modes=10_000)
    elapsed = time.time() - t0
    worst = {r.check: r for r in audit.rows}["sup |p|=1 resolvent gap / sqrt(mu)"].value
    ok = worst <= 1.0 and elapsed < 10.0
    line = _report(
        2,
        "resolvent gap",
        ok,
        f"exact sup over unit probes of gap/sqrt(mu) {worst:.4f} <= 1",
        elapsed,
        10.0,
    )
    assert ok, line


def test_criterion_3_forcing_gap_rate():
    t0 = time.time()
    *rows, spread_row = bmu_rate_table().rows  # mu in {1e-2..1e-6}, dedicated high truncation
    elapsed = time.time() - t0
    scaled = [r.value for r in rows]
    spread = max(scaled) / min(scaled)
    ok = spread < 2.0 and spread_row.passed and elapsed < 10.0
    line = _report(
        3,
        "forcing gap rate",
        ok,
        f"gap*mu^(-1/4) in [{min(scaled):.4f}, {max(scaled):.4f}], spread {spread:.3f} < 2",
        elapsed,
        10.0,
    )
    assert ok, line


def test_criterion_4_shallow_limit_convergence():
    t0 = time.time()
    K = 256
    dt = 1e-3
    c = np.zeros(K + 1)
    c[1:9] = 1.0 / np.arange(1, 9) ** 2
    signal = make_signal("pulse:0:1:1", dt, 10_000)
    report = run_sweep((1e-1, 1e-2, 1e-3, 1e-4), c, np.zeros(K + 1), signal, dt)
    elapsed = time.time() - t0
    decreasing = bool(np.all(np.diff(report.err_half) < 0) and np.all(np.diff(report.err_deriv) < 0))
    rates_ok = report.rate_half >= 0.20 and report.rate_deriv >= 0.20
    ok = decreasing and rates_ok and elapsed < 120.0
    line = _report(
        4,
        "shallow-limit convergence",
        ok,
        f"errors strictly decreasing: {decreasing}; rates p_half {report.rate_half:.3f}, "
        f"p_deriv {report.rate_deriv:.3f} >= 0.20",
        elapsed,
        120.0,
    )
    assert ok, line


def test_criterion_5_single_mode_analytic_check():
    t0 = time.time()
    mu = 1e-2
    K = 8
    dt = 1e-2  # default dt = 1e-3 * tau
    measured = run_sweep((mu,), unit(1, K), np.zeros(K + 1), [(0.0, 1000)], dt).err_deriv[0]
    # independent oracle: both velocity signals in closed form, densely sampled
    w1 = math.sqrt(math.tanh(math.sqrt(mu)) / math.sqrt(mu))
    td = np.linspace(0.0, 10.0, 2_000_001)
    predicted = float(np.abs(w1 * np.sin(w1 * td) - np.sin(td)).max())
    first_order = 10.0 * abs(w1 - 1.0)
    elapsed = time.time() - t0
    ok = (
        abs(measured - predicted) <= 0.20 * predicted
        and abs(measured - first_order) <= 0.20 * first_order
        and elapsed < 5.0
    )
    line = _report(
        5,
        "single-mode analytic check",
        ok,
        f"measured {measured:.6e} vs dense two-frequency prediction {predicted:.6e} "
        f"(ratio {measured / predicted:.4f}) and tau|w-1| = {first_order:.6e}, both within 20%",
        elapsed,
        5.0,
    )
    assert ok, line


def test_criterion_6_unitarity():
    t0 = time.time()
    K = 256
    rng = np.random.default_rng(20260809)
    z0 = rng.standard_normal(K + 1)
    z1 = rng.standard_normal(K + 1)
    systems = [water_system(1.0, K), water_system(1e-3, K), water_system(0.0, K)]
    worst = 0.0
    for system in systems:
        e0 = energy((z0, z1), system)
        _, zeta, zeta_t = evolve(z0, z1, [(0.0, 10_000)], 1e-3, system)
        e_t = (zeta_t**2).sum(axis=1) + ((system[0] * zeta) ** 2).sum(axis=1)
        worst = max(worst, float(np.abs(e_t - e0).max() / e0))
    elapsed = time.time() - t0
    ok = worst <= 1e-10
    line = _report(
        6,
        "unitarity",
        ok,
        f"relative energy drift over 10^4 steps {worst:.3e} <= 1e-10 "
        f"(water mu=1, mu=1e-3, and limit)",
        elapsed,
        60.0,
    )
    assert ok, line


def test_criterion_7_field_verification():
    t0 = time.time()
    mu = 0.25
    gx, gy = interior(50, 50)
    eta = unit(1, 4)
    profile = lateral_unit(1, 1)
    res_d = verify_harmonic(lambda x, y: dirichlet_extension(eta, mu, x, y), mu, gx, gy, h=1e-3)
    res_n = verify_harmonic(lambda x, y: neumann_extension(profile, mu, x, y), mu, gx, gy, h=1e-3)

    # boundary traces
    xs = np.linspace(0.0, math.pi, 41)
    surf = dirichlet_extension(eta, mu, xs, np.array([0.0]))[:, 0]
    trace_d = float(np.abs(surf - math.sqrt(2 / math.pi) * np.cos(xs)).max())
    hs = 1e-4
    bottom = (
        -3 * dirichlet_extension(eta, mu, xs, np.array([-1.0]))[:, 0]
        + 4 * dirichlet_extension(eta, mu, xs, np.array([-1.0 + hs]))[:, 0]
        - dirichlet_extension(eta, mu, xs, np.array([-1.0 + 2 * hs]))[:, 0]
    ) / (2 * hs)
    ys = np.linspace(-0.9, -0.1, 9)
    top_n = float(np.abs(neumann_extension(profile, mu, xs, np.array([0.0]))).max())
    right = (
        3 * neumann_extension(profile, mu, np.array([math.pi]), ys)[0]
        - 4 * neumann_extension(profile, mu, np.array([math.pi - hs]), ys)[0]
        + neumann_extension(profile, mu, np.array([math.pi - 2 * hs]), ys)[0]
    ) / (2 * hs)
    traces_ok = trace_d <= 1e-12 and np.abs(bottom).max() <= 1e-8 and top_n <= 1e-12 and np.abs(right).max() <= 1e-8

    # overflow safety at extreme shallowness
    depths = np.array([-1.0, -0.5, 0.0])
    vals1 = dirichlet_extension(unit(10_000, 10_000), 1e-8, np.array([0.0, math.pi / 2, math.pi]), depths)
    vals2 = neumann_extension(lateral_unit(10_000, 10_000), 1e-8, np.array([0.0, 1e-4, math.pi]), depths)
    finite_ok = bool(np.all(np.isfinite(vals1)) and np.all(np.isfinite(vals2)))

    elapsed = time.time() - t0
    ok = res_d <= 1e-6 and res_n <= 1e-6 and traces_ok and finite_ok and elapsed < 10.0
    line = _report(
        7,
        "field verification",
        ok,
        f"residuals {res_d:.3e} / {res_n:.3e} <= 1e-6; traces ok: {traces_ok}; "
        f"finite at mu=1e-8, k=10^4: {finite_ok}",
        elapsed,
        10.0,
    )
    assert ok, line


def test_criterion_8_mode0_exactness():
    t0 = time.time()
    K = 4
    limit = water_system(0.0, K)
    dt = 1e-2
    times, zeta, _ = evolve(np.zeros(K + 1), np.zeros(K + 1), [(1.0, 1000)], dt, limit)
    exact = -times**2 / (2.0 * math.sqrt(math.pi))
    worst = float(np.max(np.abs(zeta[:, 0] - exact) / np.maximum(1.0, np.abs(exact))))
    f, tail = ntn_forcing(0.3, K, 10_000)
    forcing_gap = abs(f[0] - (-1.0 / math.sqrt(math.pi)))
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and forcing_gap <= tail
    line = _report(
        8,
        "mode-0 exactness",
        ok,
        f"quadratic-response error {worst:.3e} <= 1e-12; forcing gap {forcing_gap:.1e} "
        f"within certified tail {tail:.1e}",
        elapsed,
        10.0,
    )
    assert ok, line
