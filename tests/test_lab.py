import math

import numpy as np
import pytest

from wavetank.basis import ModalVector
from wavetank.evolution import InputSignal, evolve, limit_system, make_initial
from wavetank.lab import (
    KernelAudit,
    SweepConfig,
    audit_kernels,
    audit_resolvents,
    bmu_rate_table,
    fit_rate,
    random_probe_audit,
    run_sweep,
    sweep_summary,
    trajectory_errors,
    write_sweep_csv,
)


def smooth8(K):
    c = np.zeros(K + 1)
    c[1:9] = 1.0 / np.arange(1, 9) ** 2
    return ModalVector(c)


def test_self_comparison_is_zero():
    K = 16
    limit = limit_system(K)
    sig = InputSignal.pulse(0.01, 200, 0.0, 1.0, 1.0)
    traj = evolve(make_initial(smooth8(K), ModalVector.zeros(K), limit), sig, limit)
    eh, ed, sh, sd = trajectory_errors(traj, traj)
    assert eh == 0.0 and ed == 0.0 and sh == 0.0 and sd == 0.0


def test_fit_rate_recovers_power_law():
    mu = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    err = 3.0 * mu**0.5
    assert fit_rate(mu, err, skip_largest=0) == pytest.approx(0.5, abs=1e-12)
    assert fit_rate(mu, err, skip_largest=1) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_rate(mu[:2], err[:2], skip_largest=1)


def test_sweep_config_validation():
    K = 8
    sig = InputSignal.zero(0.1, 50)
    kw = dict(tau=5.0, K=K, dt=0.1, zeta0=smooth8(K), zeta1=ModalVector.zeros(K), signal=sig)
    SweepConfig(mu_list=(1e-1, 1e-2), **kw)
    with pytest.raises(ValueError, match="decreasing"):
        SweepConfig(mu_list=(1e-2, 1e-1), **kw)
    with pytest.raises(ValueError, match="\\(0, 1\\]"):
        SweepConfig(mu_list=(2.0, 1e-2), **kw)
    with pytest.raises(ValueError, match="short"):
        SweepConfig(mu_list=(1e-1,), **{**kw, "tau": 50.0})


def test_sweep_errors_decrease_and_rate():
    K = 32
    dt = 0.01
    n = 500
    cfg = SweepConfig(
        mu_list=(1e-1, 1e-2, 1e-3, 1e-4),
        tau=5.0,
        K=K,
        dt=dt,
        zeta0=smooth8(K),
        zeta1=ModalVector.zeros(K),
        signal=InputSignal.pulse(dt, n, 0.0, 1.0, 1.0),
    )
    report = run_sweep(cfg)
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
    cfg = SweepConfig(
        mu_list=(mu,),
        tau=10.0,
        K=K,
        dt=dt,
        zeta0=ModalVector.unit(1, K),
        zeta1=ModalVector.zeros(K),
        signal=InputSignal.zero(dt, n),
    )
    report = run_sweep(cfg)
    w1 = math.sqrt(math.tanh(math.sqrt(mu)) / math.sqrt(mu))
    td = np.linspace(0.0, 10.0, 400001)
    oracle = np.abs(w1 * np.sin(w1 * td) - np.sin(td)).max()
    assert report.err_deriv[0] == pytest.approx(oracle, rel=1e-3)


def test_kernel_audit_small_grid():
    audit = audit_kernels(mu_grid=(1.0, 1e-2, 1e-4), k_max=500, l_modes=2000)
    assert isinstance(audit, KernelAudit)
    assert audit.passed
    named = {(r.kernel, r.check): r for r in audit.rows}
    assert named[("F", "max |F| k / sqrt(mu)")].value <= 1.0 + 1e-12
    table = audit.table()
    assert "PASS" in table and "FAIL" not in table


def test_kernel_audit_rejects_empty():
    with pytest.raises(ValueError):
        audit_kernels(mu_grid=(), k_max=10)


def test_resolvent_audit_single_probe():
    K = 64
    zero = audit_resolvents(1e-2, K, ModalVector.zeros(K))
    assert zero.f_gap == 0.0 and zero.g_gap == 0.0 and zero.passed
    rng = np.random.default_rng(0)
    probe = ModalVector(rng.standard_normal(K + 1))
    audit = audit_resolvents(1e-2, K, probe)
    assert audit.f_gap <= math.sqrt(1e-2) * audit.probe_norm
    assert audit.passed
    with pytest.raises(ValueError, match="K"):
        audit_resolvents(1e-2, K, ModalVector.zeros(K + 3))


def test_random_probe_audit_bounds_hold():
    rows = random_probe_audit(mu_grid=(1e-1, 1e-3, 1e-5), K=64, n_probes=25, seed=7)
    for mu, worst, bound, fitted, ok in rows:
        assert ok
        assert worst <= bound
        assert 0.0 < fitted <= 2.0


def test_random_probe_audit_deterministic():
    a = random_probe_audit(mu_grid=(1e-2,), K=32, n_probes=10, seed=3)
    b = random_probe_audit(mu_grid=(1e-2,), K=32, n_probes=10, seed=3)
    assert a == b


def test_bmu_rate_table_scaling():
    rows = bmu_rate_table(mu_grid=(1e-2, 1e-4), K=4096)
    assert rows[0][1] > rows[1][1]  # gap decreases with mu
    scaled = [r[2] for r in rows]
    assert max(scaled) / min(scaled) < 2.0


def test_sweep_csv_roundtrip(tmp_path):
    K = 8
    dt = 0.05
    cfg = SweepConfig(
        mu_list=(1e-1, 1e-2),
        tau=1.0,
        K=K,
        dt=dt,
        zeta0=ModalVector.unit(1, K),
        zeta1=ModalVector.zeros(K),
        signal=InputSignal.zero(dt, 20),
    )
    report = run_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(report, p1)
    write_sweep_csv(run_sweep(cfg), p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "mu,err_half,err_deriv"
    assert len(lines) == 3
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 1], report.err_half)
