import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavetank.basis import ModalVector, SpectralParams
from wavetank.cli import make_signal
from wavetank.evolution import InputSignal, ModeSystem, _propagate, limit_system, make_initial
from wavetank.evolution import water_system

from oracles import energy, evolve, step
from reference_stepper import reference_advance


def test_signal_validation_and_builders():
    with pytest.raises(ValueError):
        InputSignal(0.0, [1.0])
    with pytest.raises(ValueError):
        InputSignal(0.1, [np.inf])
    sig = make_signal("pulse:1:2:3", 0.5, 6)
    np.testing.assert_allclose(sig.values, [0, 0, 3, 3, 0, 0])
    assert sig.n_steps * sig.dt == 3.0


def test_make_initial_cases():
    limit = limit_system(4)
    z = make_initial(ModalVector.zeros(4), ModalVector.zeros(4), [limit])
    assert energy(z) == 0.0 and z[2][0] == 0.0
    alpha, beta, _ = make_initial(ModalVector.unit(1, 4), ModalVector.zeros(4), [limit])
    np.testing.assert_allclose(beta[0], ModalVector.unit(1, 4).coeffs)
    assert np.all(alpha == 0.0)
    water = water_system(SpectralParams(mu=1.0, K=4))
    _, betaw, _ = make_initial(ModalVector.unit(1, 4), ModalVector.zeros(4), [water])
    assert betaw[0, 1] == pytest.approx(math.sqrt(math.tanh(1.0)), rel=1e-14)
    # one row per system; beta_0 is zero whatever zeta0_0 is, and z0 keeps it
    zeta0, zeta1 = ModalVector(np.arange(5.0) + 2.0), ModalVector(np.arange(5.0))
    alpha, beta, z0 = make_initial(zeta0, zeta1, [limit, water])
    assert alpha.shape == beta.shape == (2, 5) and z0.tolist() == [2.0, 2.0]
    assert np.all(alpha == zeta1.coeffs) and np.all(beta[:, 0] == 0.0)
    np.testing.assert_array_equal(beta[:, 1:], np.stack([limit.omega, water.omega])[:, 1:] * zeta0.coeffs[1:])


def test_make_initial_shape_errors():
    limit = limit_system(4)
    with pytest.raises(ValueError, match="mismatch"):
        make_initial(ModalVector.zeros(3), ModalVector.zeros(4), [limit])
    with pytest.raises(ValueError, match="mismatch"):
        make_initial(ModalVector.zeros(5), ModalVector.zeros(5), [limit])
    with pytest.raises(ValueError, match="mismatch"):
        make_initial(ModalVector.zeros(4), ModalVector.zeros(4), [limit, limit_system(5)])


def test_make_initial_overflow_names_the_first_system_in_batch_order():
    # the first system overflows only at mode 2, the second already at mode 1
    systems = [ModeSystem(np.array([0.0, 1.0, 3.0]), np.zeros(3)), ModeSystem(np.array([0.0, 3.0, 3.0]), np.zeros(3))]
    zeta0 = ModalVector(np.array([0.0, 1e308, 1e308]))
    with pytest.raises(ValueError) as exc:
        make_initial(zeta0, ModalVector.zeros(2), systems)
    assert str(exc.value) == "init mode 2: omega_k * zeta0_k = 3 * 1e+308 overflows float64"


def test_full_period_rotation_returns_to_start():
    K = 6
    water = water_system(SpectralParams(mu=0.3, K=K))
    for k in (1, 3, 6):
        st = make_initial(ModalVector.unit(k, K), ModalVector.zeros(K), [water])
        period = 2.0 * math.pi / water.omega[k]
        alpha, beta, _ = step(st, 0.0, period, water)
        assert abs(beta[0, k] - st[1][0, k]) < 1e-12
        assert abs(alpha[0, k]) < 1e-12


def test_single_mode_closed_form_any_dt():
    # exactness: zeta_k(t) = cos(omega_k t) independent of step size
    K = 3
    limit = limit_system(K)
    for dt in (0.5, 0.037, 1e-3):
        st = make_initial(ModalVector.unit(1, K), ModalVector.zeros(K), [limit])
        t = 0.0
        for _ in range(25):
            st = step(st, 0.0, dt, limit)
            t += dt
        alpha, beta, _ = st
        assert beta[0, 1] == pytest.approx(math.cos(t), abs=1e-12)
        assert alpha[0, 1] == pytest.approx(-math.sin(t), abs=1e-12)


def test_water_single_mode_closed_form():
    K = 2
    mu = 0.04
    water = water_system(SpectralParams(mu=mu, K=K))
    st = make_initial(ModalVector.unit(1, K), ModalVector.zeros(K), [water])
    times, zeta, zeta_t = evolve(st, InputSignal(0.01, np.zeros(500)), water)
    w1 = water.omega[1]
    np.testing.assert_allclose(zeta[:, 1], np.cos(w1 * times), atol=1e-12)
    np.testing.assert_allclose(zeta_t[:, 1], -w1 * np.sin(w1 * times), atol=1e-12)


def test_energy_conserved_per_step():
    K = 32
    rng = np.random.default_rng(2)
    for system in (limit_system(K), water_system(SpectralParams(mu=1e-3, K=K))):
        st = make_initial(ModalVector(rng.standard_normal(K + 1)), ModalVector(rng.standard_normal(K + 1)), [system])
        e0 = energy(st)
        for _ in range(50):
            st = step(st, 0.0, 0.01, system)
            assert energy(st) == pytest.approx(e0, rel=1e-12)


def test_unitarity_long_run():
    K = 64
    rng = np.random.default_rng(42)
    z0 = ModalVector(rng.standard_normal(K + 1))
    z1 = ModalVector(rng.standard_normal(K + 1))
    for system in (limit_system(K), water_system(SpectralParams(mu=1.0, K=K))):
        st = make_initial(z0, z1, [system])
        e0 = energy(st)
        _, zeta, zeta_t = evolve(st, InputSignal(1e-3, np.zeros(1000)), system)
        e_end = np.sum(zeta_t[-1] ** 2) + np.sum(
            (system.omega[1:] * zeta[-1, 1:]) ** 2
        )
        assert abs(e_end - e0) / e0 < 1e-10


def test_evolve_zero_everything():
    K = 4
    limit = limit_system(K)
    initial = make_initial(ModalVector.zeros(K), ModalVector.zeros(K), [limit])
    _, zeta, zeta_t = evolve(initial, InputSignal(0.1, np.zeros(10)), limit)
    assert np.all(zeta == 0.0) and np.all(zeta_t == 0.0)


def test_mode0_quadratic_under_constant_input():
    K = 2
    limit = limit_system(K)
    st = make_initial(ModalVector.zeros(K), ModalVector.zeros(K), [limit])
    times, zeta, _ = evolve(st, InputSignal(0.01, np.ones(1000)), limit)
    expected = -times**2 / (2.0 * math.sqrt(math.pi))
    err = np.abs(zeta[:, 0] - expected) / np.maximum(1.0, np.abs(expected))
    assert err.max() < 1e-12


def test_truncation_consistency_shared_modes():
    mu = 0.05
    dt, n = 0.01, 300
    sig_small = make_signal("pulse:0:1:1", dt, n)
    w_small = water_system(SpectralParams(mu=mu, K=16))
    w_big = water_system(SpectralParams(mu=mu, K=32))
    z0s = ModalVector(np.exp(-np.arange(17.0)))
    z0b = ModalVector(np.concatenate([z0s.coeffs, np.zeros(16)]))
    _, zeta_small, zeta_t_small = evolve(make_initial(z0s, ModalVector.zeros(16), [w_small]), sig_small, w_small)
    _, zeta_big, zeta_t_big = evolve(make_initial(z0b, ModalVector.zeros(32), [w_big]), sig_small, w_big)
    assert np.abs(zeta_big[:, :17] - zeta_small).max() < 1e-10
    assert np.abs(zeta_t_big[:, :17] - zeta_t_small).max() < 1e-10


def test_water_frequency_approaches_mode_number_from_below():
    for k in (1, 4, 9):
        prev = 0.0
        for mu in (1e-1, 1e-3, 1e-5, 1e-7):
            # omega_k = k sqrt(tanh(a)/a) with a = sqrt(mu) k
            w = water_system(SpectralParams(mu=mu, K=k)).omega[k] if mu <= 1 else None
            assert w < k
            assert w > prev
            prev = w
        assert prev == pytest.approx(k, rel=1e-5)


def test_weak_form_identity_second_order_in_dt():
    """Trapezoid residual of the time-integrated identity
    alpha_j(t) - alpha_j(0) + j^2 int zeta_j + phi_j(0) int u = 0
    must vanish at O(dt^2) for the limit system."""
    K = 6
    limit = limit_system(K)
    z0 = ModalVector(np.exp(-0.7 * np.arange(K + 1.0)))
    residuals = []
    for dt in (0.02, 0.01):
        n = int(round(4.0 / dt))
        sig = make_signal("pulse:0:1:1", dt, n)
        _, zeta, zeta_t = evolve(make_initial(z0, ModalVector.zeros(K), [limit]), sig, limit)
        worst = 0.0
        u_int = np.concatenate([[0.0], np.cumsum(sig.values) * dt])  # exact for pcw-constant u
        for j in range(K + 1):
            zeta_int = np.concatenate([[0.0], np.cumsum((zeta[1:, j] + zeta[:-1, j]) / 2.0) * dt])
            lhs = zeta_t[:, j] - zeta_t[0, j] + j**2 * zeta_int - limit.forcing[j] * u_int
            worst = max(worst, np.abs(lhs).max())
        residuals.append(worst)
    assert residuals[0] < 1e-3
    ratio = residuals[0] / residuals[1]
    assert 3.0 < ratio < 5.0


# drawn systems: mode 0 unrestored like the tank and the string, the rest
# with frequencies away from 0 so that f u / omega stays of moderate size
@st.composite
def _systems(draw, K):
    omega = draw(st.lists(st.floats(0.1, 100.0), min_size=K, max_size=K))
    forcing = draw(st.lists(st.floats(-1.0, 1.0), min_size=K + 1, max_size=K + 1))
    return ModeSystem(np.array([0.0, *omega]), np.array(forcing))


def _vectors(K, bound=10.0):
    return st.lists(st.floats(-bound, bound), min_size=K + 1, max_size=K + 1).map(np.array)


def _bits(a):
    """Float64 arrays as their bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@settings(deadline=None)
@given(data=st.data(), K=st.integers(1, 6), dt=st.floats(1e-3, 10.0), n=st.integers(1, 30))
def test_energy_conserved_under_zero_input(data, K, dt, n):
    system = data.draw(_systems(K))
    state = make_initial(ModalVector(data.draw(_vectors(K))), ModalVector(data.draw(_vectors(K))), [system])
    e0 = energy(state)
    for _ in range(n):
        state = step(state, 0.0, dt, system)
    assert abs(energy(state) - e0) <= 1e-12 * e0


@settings(deadline=None)
@given(data=st.data(), K=st.integers(1, 6), dt=st.floats(1e-3, 1.0), n=st.integers(1, 20))
def test_superposition_in_data_and_input(data, K, dt, n):
    system = data.draw(_systems(K))
    runs = []
    for _ in range(2):
        z0, z1 = ModalVector(data.draw(_vectors(K))), ModalVector(data.draw(_vectors(K)))
        u = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n).map(np.array))
        runs.append((z0, z1, u))
    (a0, a1, ua), (b0, b1, ub) = runs
    _, za, za_t = evolve(make_initial(a0, a1, [system]), InputSignal(dt, ua), system)
    _, zb, zb_t = evolve(make_initial(b0, b1, [system]), InputSignal(dt, ub), system)
    both = make_initial(ModalVector(a0.coeffs + b0.coeffs), ModalVector(a1.coeffs + b1.coeffs), [system])
    _, z, z_t = evolve(both, InputSignal(dt, ua + ub), system)
    # magnitudes stay below about 1e4 (|f u / omega^2| <= 1e3, mode 0 quadratic
    # in t <= 20), so 1e-9 is a few thousand roundings, far below any wrong term
    np.testing.assert_allclose(z, za + zb, rtol=0, atol=1e-9)
    np.testing.assert_allclose(z_t, za_t + zb_t, rtol=0, atol=1e-9)


@settings(deadline=None)
@given(data=st.data(), K=st.integers(1, 6), n_sys=st.integers(1, 4), dt=st.floats(1e-3, 10.0), n=st.integers(1, 20))
def test_step_evolve_and_batched_kernel_agree_bitwise(data, K, n_sys, dt, n):
    systems = [data.draw(_systems(K)) for _ in range(n_sys)]
    z0, z1 = ModalVector(data.draw(_vectors(K))), ModalVector(data.draw(_vectors(K)))
    signal = InputSignal(dt, data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    initial = make_initial(z0, z1, systems)
    batch = [tuple(a.copy() for a in sample) for sample in _propagate(initial, systems, signal.values, dt)]
    assert len(batch) == n + 1
    for i, system in enumerate(systems):
        state = make_initial(z0, z1, [system])
        _, traj_zeta, traj_zeta_t = evolve(state, signal, system)
        np.testing.assert_array_equal(_bits(traj_zeta), _bits([zeta[i] for zeta, _, _ in batch]))
        np.testing.assert_array_equal(_bits(traj_zeta_t), _bits([alpha[i] for _, alpha, _ in batch]))
        for m, u in enumerate(signal.values):
            state = step(state, u, dt, system)
            zeta, alpha, beta = batch[m + 1]
            np.testing.assert_array_equal(_bits(state[0][0]), _bits(alpha[i]))
            np.testing.assert_array_equal(_bits(state[1][0]), _bits(beta[i]))
            assert _bits(state[2][0]) == _bits(zeta[i, 0])


@st.composite
def _batches(draw):
    """(systems, zeta0, zeta1, dt, input values) for one batch of systems sharing K."""
    K = draw(st.integers(1, 6))
    systems = draw(st.lists(_systems(K), min_size=1, max_size=4))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20))
    return systems, draw(_vectors(K)), draw(_vectors(K)), draw(st.floats(1e-3, 10.0)), values


# zero modes and an input that flips the sign of zero pin the bit-keyed reuse
# of p = f u / omega: where cos(omega dt) < 0 (omega = 20, 40 at dt = 0.1),
# reusing the p of 0.0 at -0.0 flips signed zeros in alpha and beta
_SIGNED_ZEROS = (
    [
        ModeSystem(np.array([0.0, 2.0, 20.0]), np.array([0.5, -1.0, 1.0])),
        ModeSystem(np.array([0.0, 40.0, 20.0]), np.array([-0.5, 1.0, -1.0])),
    ],
    np.array([1.0, -0.0, 0.0]),
    np.array([-0.0, -0.0, 0.0]),
    0.1,
    [0.0, -0.0, -0.0, 0.0, 1.5, 1.5, -0.0],
)


@settings(deadline=None)
@example(batch=_SIGNED_ZEROS)
@given(batch=_batches())
def test_propagate_matches_per_step_reference_bitwise(batch):
    systems, z0, z1, dt, values = batch
    initial = make_initial(ModalVector(z0), ModalVector(z1), systems)
    samples = [tuple(a.copy() for a in sample) for sample in _propagate(initial, systems, values, dt)]
    assert len(samples) == len(values) + 1
    for i, system in enumerate(systems):
        omega, forcing = system.omega, system.forcing
        alpha, beta, zeta0 = (a[i] for a in initial)
        for m, (zeta, a, b) in enumerate(samples):
            if m:
                alpha, beta, zeta0 = reference_advance(alpha, beta, zeta0, values[m - 1], dt, omega, forcing)
            np.testing.assert_array_equal(_bits(a[i]), _bits(alpha))
            np.testing.assert_array_equal(_bits(b[i]), _bits(beta))
            np.testing.assert_array_equal(_bits(zeta[i]), _bits(np.concatenate([[zeta0], beta[1:] / omega[1:]])))


def test_propagate_yields_read_only_views_that_the_second_step_reuses():
    system = limit_system(3)
    initial = make_initial(ModalVector.unit(1, 3), ModalVector.unit(2, 3), [system])
    before = [a.copy() for a in initial]
    samples = list(_propagate(initial, [system], [1.0, 2.0], 0.1))
    assert not any(a.flags.writeable for a in samples[0] + samples[2])
    assert all(np.shares_memory(a, b) for a, b in zip(samples[0], samples[2]))
    # the kernel steps its own copies of the initial arrays
    assert not any(np.shares_memory(a, b) for a in initial for b in samples[2])
    assert all(np.array_equal(a, b) for a, b in zip(initial, before))
