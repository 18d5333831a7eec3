import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank.basis import ModalVector, SpectralParams, sobolev_weights
from wavetank.cli import make_signal
from wavetank.evolution import InputSignal, limit_system, make_initial, water_system
from wavetank.lab import (
    DEFAULT_MU_GRID,
    ORACLE_K_SAMPLES,
    KernelAudit,
    _oracle_modes,
    audit_kernels,
    audit_resolvents,
    bmu_rate_table,
    fit_rate,
    run_sweep,
    sweep_summary,
    write_sweep_csv,
)
from wavetank.operators import comparison_kernels

from reference_stepper import reference_advance


def smooth8(K):
    c = np.zeros(K + 1)
    c[1:9] = 1.0 / np.arange(1, 9) ** 2
    return ModalVector(c)


def test_fit_rate_recovers_power_law():
    mu = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    err = 3.0 * mu**0.5
    assert fit_rate(mu, err, skip_largest=0) == pytest.approx(0.5, abs=1e-12)
    assert fit_rate(mu, err, skip_largest=1) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate(mu[:2], err[:2], skip_largest=1)


def test_fit_rate_of_coincident_logs_is_nan():
    # near 1e-300 one ulp of mu is below half an ulp of log(mu), so the logs coincide
    mu = [1e-300, math.nextafter(1e-300, 1.0)]
    assert math.log(mu[0]) == math.log(mu[1])
    assert math.isnan(fit_rate(mu, [1.0, 2.0], skip_largest=0))


def test_sweep_errors_decrease_and_rate():
    K = 32
    dt = 0.01
    n = 500
    report = run_sweep((1e-1, 1e-2, 1e-3, 1e-4), smooth8(K), ModalVector.zeros(K), make_signal("pulse:0:1:1", dt, n))
    assert np.all(np.diff(report.err_half) < 0)
    assert np.all(np.diff(report.err_deriv) < 0)
    assert report.rate_half > 0.2
    assert report.rate_deriv > 0.2
    assert np.all(report.grid_slack_half >= 0)
    text = sweep_summary(report)
    assert "fitted rate" in text and "1.000e-04" in text


def test_single_mode_error_matches_dense_two_frequency_oracle():
    # independent oracle: dense sampling of the closed-form velocity signals
    mu = 1e-2
    K = 4
    dt = 1e-2
    n = 1000
    report = run_sweep((mu,), ModalVector.unit(1, K), ModalVector.zeros(K), InputSignal(dt, np.zeros(n)))
    w1 = math.sqrt(math.tanh(math.sqrt(mu)) / math.sqrt(mu))
    td = np.linspace(0.0, 10.0, 400001)
    oracle = np.abs(w1 * np.sin(w1 * td) - np.sin(td)).max()
    assert report.err_deriv[0] == pytest.approx(oracle, rel=1e-3)


def _reference_trajectory(zeta0, zeta1, signal, system):
    """(zeta, zeta_t) rows at every step, one system stepped on its own."""
    alpha, beta, z0 = (a[0] for a in make_initial(zeta0, zeta1, [system]))
    zeta, zeta_t = [], []
    for m in range(signal.n_steps + 1):
        if m:
            alpha, beta, z0 = reference_advance(
                alpha, beta, z0, signal.values[m - 1], signal.dt, system.omega, system.forcing
            )
        zeta.append(np.concatenate([[z0], beta[1:] / system.omega[1:]]))
        zeta_t.append(alpha)
    return np.array(zeta), np.array(zeta_t)


def _reference_errors(mu_list, zeta0, zeta1, signal):
    """(err_half, err_deriv, grid_slack_half, grid_slack_deriv) per shallowness from full trajectories."""
    zeta_lim, zeta_t_lim = _reference_trajectory(zeta0, zeta1, signal, limit_system(zeta0.K))
    w = sobolev_weights(zeta0.K, 0.5)
    rows = []
    for mu in mu_list:
        zeta, zeta_t = _reference_trajectory(zeta0, zeta1, signal, water_system(SpectralParams(mu=mu, K=zeta0.K)))
        half_t = np.sqrt(((zeta - zeta_lim) ** 2 * w).sum(axis=1))
        deriv_t = np.sqrt(((zeta_t - zeta_t_lim) ** 2).sum(axis=1))
        rows.append((half_t.max(), deriv_t.max(), np.abs(np.diff(half_t)).max(), np.abs(np.diff(deriv_t)).max()))
    return np.array(rows).T


@settings(deadline=None, max_examples=50)
@given(
    data=st.data(),
    K=st.integers(1, 10),
    n=st.integers(1, 40),
    dt=st.floats(1e-3, 1.0),
    mu=st.lists(st.floats(1e-8, 1.0), min_size=1, max_size=4, unique=True),
)
def test_run_sweep_matches_per_system_reference_bitwise(data, K, n, dt, mu):
    def vector(bound):
        return ModalVector(data.draw(st.lists(st.floats(-bound, bound), min_size=K + 1, max_size=K + 1)))

    args = (
        tuple(sorted(mu, reverse=True)),
        vector(1.0),
        vector(1.0),
        InputSignal(dt, data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))),
    )
    report = run_sweep(*args)
    got = np.array([report.err_half, report.err_deriv, report.grid_slack_half, report.grid_slack_deriv])
    np.testing.assert_array_equal(got, _reference_errors(*args))


def test_run_sweep_memory_is_independent_of_the_horizon():
    # O(n_sys K): the same peak at 200 and 2000 steps, a few (n_sys, K+1) arrays
    K, mu = 1024, (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    n_sys = 1 + len(mu)
    peaks = []
    for n in (200, 2000):
        args = (mu, smooth8(K), ModalVector.zeros(K), InputSignal(0.01, np.zeros(n)))
        tracemalloc.start()
        try:
            run_sweep(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    assert max(peaks) < 32 * n_sys * (K + 1) * 8


def test_kernel_audit_small_grid():
    audit = audit_kernels(mu_grid=(1.0, 1e-2, 1e-4), k_max=500, l_modes=2000)
    assert isinstance(audit, KernelAudit)
    assert audit.passed
    named = {(r.kernel, r.check): r for r in audit.rows}
    assert named[("F", "max |F| k / sqrt(mu)")].value <= 1.0 + 1e-12
    table = audit.table()
    assert "PASS" in table and "FAIL" not in table


@given(k_max=st.integers(1, 10**6))
def test_oracle_modes_equal_unique_of_the_rounded_grid(k_max):
    expected = np.unique(np.round(np.geomspace(1, k_max, ORACLE_K_SAMPLES)))
    got = _oracle_modes(k_max)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_kernel_audit_rejects_empty():
    with pytest.raises(ValueError):
        audit_kernels(mu_grid=(), k_max=10)


def test_resolvent_audit_rejects_empty():
    with pytest.raises(ValueError):
        audit_resolvents(mu_grid=(), K=8)
    with pytest.raises(ValueError):
        audit_resolvents(mu_grid=(1e-2,), K=0)


def _probe_gaps(mu, K, probes):
    """Resolvent gaps of each probe row, as the per-probe audit computed them: plain and sqrt channel."""
    params = SpectralParams(mu=mu, K=K)
    k = np.arange(K + 1, dtype=float)
    a = math.sqrt(mu) * k
    plain = probes / (1.0 + a * np.tanh(a) / mu) - probes / (1.0 + k**2)
    sqrt_channel = comparison_kernels(params, k[1:]).G * probes[:, 1:]
    return np.linalg.norm(plain, axis=1), np.linalg.norm(sqrt_channel, axis=1)


def test_resolvent_audit_unit_probes_match_closed_form():
    # shifted resolvents at mu = 1/4: mode 2 has lambda_2/mu = 2 tanh(1)/0.5 against 2^2, and it
    # is the worst of modes 1 and 2
    f_row, _ = audit_resolvents(mu_grid=(0.25,), K=2).rows
    gap = abs(1.0 / (1.0 + 2.0 * math.tanh(1.0) / 0.5) - 1.0 / 5.0)
    assert f_row.value * math.sqrt(0.25) == pytest.approx(gap, rel=1e-15)
    plain, _ = _probe_gaps(0.25, 2, np.eye(3))
    assert plain[0] == 0.0 and plain[2] == pytest.approx(gap, rel=1e-15)


def test_exact_resolvent_sup_bounds_seeded_probes():
    # the exact sup is the gap of the worst unit probe: seeded probes stay
    # below it, and the unit probe at the argmax attains it
    K = 256
    probes = np.random.default_rng(20260809).standard_normal((100, K + 1))
    norms = np.linalg.norm(probes, axis=1)
    for mu in DEFAULT_MU_GRID:
        f_row, g_row = audit_resolvents(mu_grid=(mu,), K=K).rows
        sup_f, sup_g = f_row.value * math.sqrt(mu), g_row.value * math.sqrt(mu)
        plain, sqrt_channel = _probe_gaps(mu, K, probes)
        assert np.all(plain <= sup_f * norms * (1.0 + 1e-12))
        assert np.all(sqrt_channel <= sup_g * norms * (1.0 + 1e-12))
        plain, sqrt_channel = _probe_gaps(mu, K, np.eye(K + 1))
        assert plain.max() == pytest.approx(sup_f, rel=1e-12)
        assert sqrt_channel.max() == pytest.approx(sup_g, rel=1e-12)
        assert f_row.value <= 1.0


def test_bmu_rate_table_scaling():
    audit = bmu_rate_table(mu_grid=(1e-2, 1e-4), K=4096)
    *scaled, spread = audit.rows
    gaps = [row.value * mu**0.25 for row, mu in zip(scaled, (1e-2, 1e-4))]
    assert gaps[0] > gaps[1]  # gap decreases with mu
    assert spread.value == max(r.value for r in scaled) / min(r.value for r in scaled)
    assert spread.value < 2.0 and audit.passed


def test_forcing_gap_spread_of_two_fails():
    # the spread row keeps the strict `spread < 2`: 2.0 fails, the float below it passes
    spread = bmu_rate_table(mu_grid=(1e-2, 1e-4), K=256).rows[-1]
    assert not replace(spread, value=2.0).passed
    assert replace(spread, value=math.nextafter(2.0, 0.0)).passed
    assert not KernelAudit("forcing gap", (replace(spread, value=2.0),)).passed


def test_sweep_csv_roundtrip(tmp_path):
    K = 8
    dt = 0.05
    args = ((1e-1, 1e-2), ModalVector.unit(1, K), ModalVector.zeros(K), InputSignal(dt, np.zeros(20)))
    report = run_sweep(*args)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(report, p1)
    write_sweep_csv(run_sweep(*args), p2)
    assert report.mu_list == (1e-1, 1e-2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "mu,err_half,err_deriv"
    assert len(lines) == 3
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 1], report.err_half)
