import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank import lab, operators
from wavetank.basis import sobolev_weights
from wavetank.cli import make_signal
from wavetank.evolution import _rotate, water_system
from wavetank.lab import (
    _SWEEP_BLOCK,
    DEFAULT_MU_GRID,
    GAP_K,
    GAP_MU_GRID,
    ORACLE_K_SAMPLES,
    KernelAudit,
    _oracle_modes,
    _sweep_reduction,
    audit_kernels,
    bmu_rate_table,
    fit_rate,
    run_sweep,
    sweep_summary,
    write_sweep_csv,
)
from wavetank.operators import comparison_kernels

from oracles import pulse_values, runs_of, unit
from reference_stepper import reference_step


def smooth8(K):
    c = np.zeros(K + 1)
    c[1:9] = 1.0 / np.arange(1, 9) ** 2
    return c


def test_fit_rate_recovers_power_law():
    mu = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    err = 3.0 * mu**0.5
    assert fit_rate(mu, err) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate(mu[:2], err[:2])


def test_fit_rate_of_coincident_logs_is_nan():
    # near 1e-300 one ulp of mu is below half an ulp of log(mu), so the logs coincide; the largest mu is skipped
    mu = [1.0, 1e-300, math.nextafter(1e-300, 1.0)]
    assert math.log(mu[1]) == math.log(mu[2])
    assert math.isnan(fit_rate(mu, [1.0, 1.0, 2.0]))


def test_sweep_errors_decrease_and_rate():
    K = 32
    dt = 0.01
    n = 500
    signal = make_signal("pulse:0:1:1", dt, n)
    report = run_sweep((1e-1, 1e-2, 1e-3, 1e-4), smooth8(K), np.zeros(K + 1), signal, dt)
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
    report = run_sweep((mu,), unit(1, K), np.zeros(K + 1), [(0.0, n)], dt)
    w1 = math.sqrt(math.tanh(math.sqrt(mu)) / math.sqrt(mu))
    td = np.linspace(0.0, 10.0, 400001)
    oracle = np.abs(w1 * np.sin(w1 * td) - np.sin(td)).max()
    assert report.err_deriv[0] == pytest.approx(oracle, rel=1e-3)


def _reference_trajectory(zeta0, zeta1, values, dt, system):
    """(zeta, zeta_t) rows at every step, one system stepped on its own."""
    state = (zeta0, zeta1)
    trajectory = [state]
    for u in values:
        state = reference_step(*state, u, dt, *system)
        trajectory.append(state)
    zeta, zeta_t = zip(*trajectory)
    return np.array(zeta), np.array(zeta_t)


def _reference_norms(mu_list, zeta0, zeta1, values, dt):
    """The (elevation, velocity) error norms of each shallowness at every step, from full trajectories."""
    zeta_lim, zeta_t_lim = _reference_trajectory(zeta0, zeta1, values, dt, water_system(0.0, zeta0.size - 1))
    w = sobolev_weights(zeta0.size - 1, 0.5)
    norms = []
    for mu in mu_list:
        zeta, zeta_t = _reference_trajectory(zeta0, zeta1, values, dt, water_system(mu, zeta0.size - 1))
        half_t = np.sqrt(((zeta - zeta_lim) ** 2 * w).sum(axis=1))
        deriv_t = np.sqrt(((zeta_t - zeta_t_lim) ** 2).sum(axis=1))
        norms.append((half_t, deriv_t))
    return norms


def _reference_errors(mu_list, zeta0, zeta1, values, dt):
    """(err_half, err_deriv, grid_slack_half, grid_slack_deriv) per shallowness from full trajectories."""
    rows = []
    for half_t, deriv_t in _reference_norms(mu_list, zeta0, zeta1, values, dt):
        rows.append((half_t.max(), deriv_t.max(), np.abs(np.diff(half_t)).max(), np.abs(np.diff(deriv_t)).max()))
    return np.array(rows).T


def _state_scale(mu_list, zeta0, zeta1, values, dt):
    """The largest |omega_k zeta_k| + |zeta_t,k| + 2 |f_k u| / omega_k over the limit and every tank, all steps
    and modes k >= 1."""
    K = zeta0.size - 1
    scale = 0.0
    for omega, forcing in [water_system(mu, K) for mu in (0.0, *mu_list)]:
        zeta, zeta_t = _reference_trajectory(zeta0, zeta1, values, dt, (omega, forcing))
        state = np.abs(omega[1:] * zeta[:, 1:]) + np.abs(zeta_t[:, 1:])
        scale = max(scale, (state + 2.0 * np.abs(values).max() * np.abs(forcing[1:]) / omega[1:]).max())
    return scale


@settings(deadline=None, max_examples=50)
@given(
    data=st.data(),
    K=st.integers(1, 10),
    n=st.integers(1, 40),
    dt=st.floats(1e-3, 1.0),
    mu=st.lists(st.floats(1e-8, 1.0), min_size=1, max_size=4, unique=True),
)
def test_run_sweep_matches_per_system_reference_to_roundoff(data, K, n, dt, mu):
    # The reference steps zeta one system at a time by the plain per-step formula and sums w (zeta_mu - zeta)^2
    # pairwise; the sweep rotates psi = zeta + i zeta_t / omega, weighs its real part by s = sqrt(1+k) = sqrt(w) and
    # its imaginary part by omega, and sums squares by matrix products, so the two differ by roundoff only, bounded
    # here.  Per mode k >= 1 the exact step rotates (omega zeta, zeta_t) and adds the forcing, so it carries
    # roundoff without growth.  A step of either stepper rounds each row (or each part of omega psi) at most 4
    # times, by eps/2 relative to B = |omega zeta| + |zeta_t| + 2 |f u| / omega, so it adds at most 4 eps B; with
    # the rounded initial data a stepper stays within 4 (n+1) eps A of the exact flow, A the largest B, and a
    # difference of two systems from two steppers within 16 (n+1) eps A.  The elevation weighs s <= 1.63 omega
    # (omega_k^2 >= k tanh 1 for mu in (0, 1]), so over K modes a norm moves by at most 26.1 (n+1) sqrt(K) eps A,
    # taken as 32; weighing, forming the differences and the sums of squares moves it by at most (K+4) eps relative.
    # A slack, the difference of two norms, moves by at most twice as much.
    def vector(bound):
        return np.array(data.draw(st.lists(st.floats(-bound, bound), min_size=K + 1, max_size=K + 1)))

    mu, zeta0, zeta1 = tuple(sorted(mu, reverse=True)), vector(1.0), vector(1.0)
    values = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    report = run_sweep(mu, zeta0, zeta1, runs_of(values), dt)
    got = np.array([report.err_half, report.err_deriv, report.grid_slack_half, report.grid_slack_deriv])
    expected = _reference_errors(mu, zeta0, zeta1, values, dt)
    eps = np.finfo(float).eps
    drift = 32 * (n + 1) * math.sqrt(K) * eps * _state_scale(mu, zeta0, zeta1, values, dt)
    bound = drift + (K + 4) * eps * expected[:2]
    assert np.all(np.abs(got - expected) <= np.concatenate([bound, 2.0 * bound]))


def _kernel_squared_norms(mu_list, zeta0, zeta1, values, dt):
    """The squared error norms of every step as the sweep forms them, shape (n + 1, 2, len(mu_list)): the
    rotation kernel steps modes 1..K, its float view times the weights gives each system's pairs
    (sqrt(1+k) zeta, zeta_t), and the selector sums the squares of the pairs' differences from the limit's."""
    K = zeta0.size - 1
    omega, forcing = np.stack([water_system(mu, K) for mu in (0.0, *mu_list)], axis=1)[..., 1:]
    weights, differences, select = _sweep_reduction(omega)
    norms = []
    for state in _rotate(zeta0[1:], zeta1[1:], omega, forcing, runs_of(values), dt):
        diff = differences @ (state * weights)
        norms.append(select @ np.square(diff).T)
    return np.array(norms)


def test_run_sweep_matches_the_reference_across_folded_blocks():
    # 2B + 91 steps: two full blocks of B steps and a partial one; the input
    # changes inside blocks, and each norm's sup and largest step-to-step change
    # land in different blocks, so a block that loses its carried last norm or
    # is not folded changes the report, which must be bitwise the unblocked
    # fold of the same per-step squared norms
    B = _SWEEP_BLOCK
    K, dt, mu = 10, 0.05, (1e-1, 1e-2, 1e-3)
    n = 2 * B + 91
    zeta0, zeta1 = smooth8(K), np.linspace(0.5, -0.5, K + 1)
    values = pulse_values(1.0, 4.0, 6.0, dt, n) + pulse_values(20.0, 26.0, 2.0, dt, n)
    report = run_sweep(mu, zeta0, zeta1, runs_of(values), dt)
    got = np.array([report.err_half, report.err_deriv, report.grid_slack_half, report.grid_slack_deriv])
    norms = np.sqrt(_kernel_squared_norms(mu, zeta0, zeta1, values, dt))
    unblocked = np.concatenate([norms.max(axis=0), np.abs(np.diff(norms, axis=0)).max(axis=0)])
    np.testing.assert_array_equal(got, unblocked)
    for norm in norms.reshape(n + 1, -1).T:
        # sample s > 0 and the change from s - 1 to s are both in block (s - 1) // B
        assert (np.argmax(norm) - 1) // B != np.argmax(np.abs(np.diff(norm))) // B
    # an overflow after the first block still names the first shallowness
    with pytest.raises(ValueError, match=r"^error norms at mu=0\.1 are not finite"):
        run_sweep(mu, zeta0, zeta1, [(0.0, 2 * B + 10), (1e308, 3)], dt)


def test_run_sweep_names_the_k_of_mismatched_data_and_builds_its_systems_in_one_call(monkeypatch):
    # the systems take K = 4 from zeta0; zeta1 holds modes 0..3, so K = 3
    calls = []

    def counted(mu, K):
        calls.append(np.shape(mu))
        return water_system(mu, K)

    monkeypatch.setattr(lab, "water_system", counted)
    with pytest.raises(ValueError, match=r"^mode count mismatch: zeta0 K=4, zeta1 K=3, system K=4$"):
        run_sweep((1e-2, 1e-3, 1e-4), np.zeros(5), np.zeros(4), [(1.0, 3)], 0.1)
    assert calls == [(4, 1)]


def test_an_overflowing_tank_state_is_named_and_spoils_no_other_tank():
    # At mu = 1e-300, h = 1 exactly, so that tank steps bitwise as the string and its errors stay 0.  The tank at
    # mu = 1 is stepped at half its period, omega dt = pi, and the input flips sign every step: its state grows
    # by about 1.4 u a step and overflows, while the string's stays below 4 u.  Its non-finite state turns
    # every difference that the sweep's product takes into nan (0 * inf); the message still names the tank
    # whose own state overflowed, not the first tank
    dt, u = math.pi / water_system(1.0, 1)[0][1], 1e307
    runs = [(u * (-1) ** i, 1) for i in range(40)]
    with pytest.raises(ValueError, match=r"^error norms at mu=1 are not finite"):
        run_sweep((1e-300, 1.0), np.zeros(2), np.zeros(2), runs, dt)


@settings(deadline=None)
@given(mu=st.floats(0.0, 1.0, exclude_min=True, allow_subnormal=True), K=st.integers(1, 64))
def test_every_tank_is_the_limit_in_mode_0(mu, K):
    # h(0) = 1 exactly, so omega_0 = 0 and f_0 = -1/sqrt(pi) in every tank: mode 0 of a tank steps bitwise as
    # the string's, its error is exactly 0, and the sweep steps modes 1..K only
    for tank, string in zip(water_system(mu, K), water_system(0.0, K)):
        assert tank[:1].tobytes() == string[:1].tobytes()


def test_run_sweep_reads_no_mode_0_data():
    # mode 0 carries no error (test above), so the report does not depend on its data, not even on data whose
    # mode-0 state overflows float64, which `simulate` rejects
    K, dt, mu, runs = 10, 0.5, (1e-1, 1e-2, 1e-3), [(0.0, 3), (1.5, 4)]
    zeta0, zeta1 = smooth8(K), np.linspace(0.5, -0.5, K + 1)

    def report():
        r = run_sweep(mu, zeta0, zeta1, runs, dt)
        return np.array([r.err_half, r.err_deriv, r.grid_slack_half, r.grid_slack_deriv]).tobytes()

    expected = report()
    zeta0[0], zeta1[0] = 1.7e308, 1e308
    assert report() == expected


def test_run_sweep_memory_is_independent_of_the_horizon():
    # O(n_sys K): the same peak at 200 and 2000 steps, a few (n_sys, K+1) arrays
    K, mu = 1024, (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    n_sys = 1 + len(mu)
    peaks = []
    for n in (200, 2000):
        args = (mu, smooth8(K), np.zeros(K + 1), [(0.0, n)], 0.01)
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


def test_audits_over_blocks_of_modes_equal_one_block_bitwise(monkeypatch):
    # the kernel audit's blocks of modes bound its memory; every max over modes is exact, so the rows of a k_max
    # spanning several blocks, the last one partial, are bitwise those of one block over all modes
    def rows(k_max):
        return [(row.check, row.value.hex()) for row in audit_kernels(DEFAULT_MU_GRID, k_max, l_modes=1000).rows]

    for block, k_max in ((lab._AUDIT_BLOCK, 3 * lab._AUDIT_BLOCK + 5), (300, 1000)):
        assert k_max > 3 * block
        monkeypatch.setattr(lab, "_AUDIT_BLOCK", block)
        blocked = rows(k_max)
        monkeypatch.setattr(lab, "_AUDIT_BLOCK", k_max)
        assert rows(k_max) == blocked


@pytest.mark.parametrize("n_mu", [1, 3, len(DEFAULT_MU_GRID)])
def test_one_audit_makes_one_oracle_call_and_builds_one_tail_table(monkeypatch, n_mu):
    calls = {"kernel_H_sum": [], "_tail_table": []}
    for module, name in ((lab, "kernel_H_sum"), (operators, "_tail_table")):

        def counted(*args, _name=name, _fn=getattr(module, name)):
            calls[_name].append(args)
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    audit_kernels(DEFAULT_MU_GRID[:n_mu], k_max=100, l_modes=1000)
    ((mu, k, l_modes),) = calls["kernel_H_sum"]
    assert mu.shape == (n_mu, 1) and l_modes == 1000
    assert calls["_tail_table"] == [(1000,)]


@given(k_max=st.integers(1, 10**6))
def test_oracle_modes_equal_unique_of_the_rounded_grid(k_max):
    expected = np.unique(np.round(np.geomspace(1, k_max, ORACLE_K_SAMPLES)))
    got = _oracle_modes(k_max)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def test_kernel_audit_rejects_empty():
    with pytest.raises(ValueError):
        audit_kernels(mu_grid=(), k_max=10)
    with pytest.raises(ValueError):
        audit_kernels(mu_grid=(1e-2,), k_max=0)


def _resolvent_rows(mu, K):
    """The kernel audit's two resolvent rows over modes 1..K at one shallowness: the gap and its sqrt channel."""
    named = {row.check: row for row in audit_kernels(mu_grid=(mu,), k_max=K, l_modes=100).rows}
    return named["sup |p|=1 resolvent gap / sqrt(mu)"], named["sup |p|=1 sqrt-channel gap / sqrt(mu)"]


def _probe_gaps(mu, K, probes):
    """Resolvent gaps of each probe row, as the per-probe audit computed them: plain and sqrt channel."""
    k = np.arange(K + 1, dtype=float)
    a = math.sqrt(mu) * k
    plain = probes / (1.0 + a * np.tanh(a) / mu) - probes / (1.0 + k**2)
    sqrt_channel = comparison_kernels(mu, k[1:]).G * probes[:, 1:]
    return np.linalg.norm(plain, axis=1), np.linalg.norm(sqrt_channel, axis=1)


def test_resolvent_audit_unit_probes_match_closed_form():
    # shifted resolvents at mu = 1/4: mode 2 has lambda_2/mu = 2 tanh(1)/0.5 against 2^2, and it
    # is the worst of modes 1 and 2
    f_row, _ = _resolvent_rows(0.25, 2)
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
        f_row, g_row = _resolvent_rows(mu, K)
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


def test_bmu_rate_table_rows_equal_an_uncached_per_mu_reference_bitwise():
    # the dual-norm weights and the string's forcing are built once per call and shared by every mu; each row
    # stays the per-mu formula, the tank's forcing less the string's, mu = 0
    def scaled_gap(mu, K):
        gap = water_system(mu, K)[1] - water_system(0.0, K)[1]
        return float(np.sqrt(np.sum(sobolev_weights(K, -1.0) * gap**2))) * mu ** (-0.25)

    for mu_grid, K in ((GAP_MU_GRID, GAP_K), ((1.0, 1e-3, 1e-9), 37), (GAP_MU_GRID, GAP_K)):
        *rows, spread = bmu_rate_table(mu_grid, K).rows
        reference = [scaled_gap(mu, K) for mu in mu_grid]
        assert [row.value.hex() for row in rows] == [value.hex() for value in reference]
        assert spread.value.hex() == (max(reference) / min(reference)).hex()


def test_forcing_gap_spread_of_two_fails():
    # the spread row keeps the strict `spread < 2`: 2.0 fails, the float below it passes
    spread = bmu_rate_table(mu_grid=(1e-2, 1e-4), K=256).rows[-1]
    assert not replace(spread, value=2.0).passed
    assert replace(spread, value=math.nextafter(2.0, 0.0)).passed
    assert not KernelAudit("forcing gap", (replace(spread, value=2.0),)).passed


def test_sweep_csv_roundtrip(tmp_path):
    K = 8
    dt = 0.05
    args = ((1e-1, 1e-2), unit(1, K), np.zeros(K + 1), [(0.0, 20)], dt)
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
