import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavetank.cli import ConfigError, make_signal
from wavetank.evolution import _propagate, _rows, limit_system, water_system

from oracles import (
    energy,
    eval_basis,
    evolve,
    expand,
    pulse_values,
    quadrature_nodes,
    runs_of,
    step,
    string_dalembert,
    string_dalembert_coeffs,
    unit,
)
from reference_stepper import reference_advance, reference_step


def test_signal_validation_and_builders():
    with pytest.raises(ConfigError, match="finite"):
        make_signal("const:inf", 0.1, 1)
    runs = make_signal("pulse:1:2:3", 0.5, 6)
    assert runs == ((0.0, 2), (3.0, 2), (0.0, 2))
    np.testing.assert_array_equal(expand(runs), [0, 0, 3, 3, 0, 0])


def test_propagate_shape_errors():
    limit = limit_system(4)
    with pytest.raises(ValueError, match="mode count mismatch"):
        next(_propagate(np.zeros(4), np.zeros(5), [limit], [(0.0, 1)], 0.1))
    with pytest.raises(ValueError, match="mode count mismatch"):
        next(_propagate(np.zeros(6), np.zeros(6), [limit], [(0.0, 1)], 0.1))
    with pytest.raises(ValueError, match="mode count mismatch"):
        next(_propagate(np.zeros(5), np.zeros(5), [limit, limit_system(5)], [(0.0, 1)], 0.1))


def test_full_period_rotation_returns_to_start():
    K = 6
    water = water_system(0.3, K)
    for k in (1, 3, 6):
        start = unit(k, K)
        period = 2.0 * math.pi / water[0][k]
        zeta, zeta_t = step((start, np.zeros(K + 1)), 0.0, period, water)
        assert abs(zeta[k] - 1.0) < 1e-12
        assert abs(zeta_t[k]) < 1e-12


def test_single_mode_closed_form_any_dt():
    # exactness: zeta_k(t) = cos(omega_k t) independent of step size
    K = 3
    limit = limit_system(K)
    for dt in (0.5, 0.037, 1e-3):
        st = (unit(1, K), np.zeros(K + 1))
        t = 0.0
        for _ in range(25):
            st = step(st, 0.0, dt, limit)
            t += dt
        zeta, zeta_t = st
        assert zeta[1] == pytest.approx(math.cos(t), abs=1e-12)
        assert zeta_t[1] == pytest.approx(-math.sin(t), abs=1e-12)


def test_water_single_mode_closed_form():
    K = 2
    mu = 0.04
    water = water_system(mu, K)
    times, zeta, zeta_t = evolve(unit(1, K), np.zeros(K + 1), [(0.0, 500)], 0.01, water)
    w1 = water[0][1]
    np.testing.assert_allclose(zeta[:, 1], np.cos(w1 * times), atol=1e-12)
    np.testing.assert_allclose(zeta_t[:, 1], -w1 * np.sin(w1 * times), atol=1e-12)


def test_trajectory_memory_is_independent_of_the_horizon():
    # O(rows K): the same peak at 1000 and 16000 steps, one reused block of rows
    K, rows = 256, 31
    water = water_system(1e-2, K)
    peaks = []
    for n in (1000, 16000):
        runs = [(1.0, n)]
        tracemalloc.start()
        try:
            for _ in _rows(unit(1, K), np.zeros(K + 1), runs, 1e-3, water, rows):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    assert max(peaks) < 2 * rows * (2 * K + 3) * 8


def test_energy_conserved_per_step():
    K = 32
    rng = np.random.default_rng(2)
    for system in (limit_system(K), water_system(1e-3, K)):
        st = (rng.standard_normal(K + 1), rng.standard_normal(K + 1))
        e0 = energy(st, system)
        for _ in range(50):
            st = step(st, 0.0, 0.01, system)
            assert energy(st, system) == pytest.approx(e0, rel=1e-12)


def test_unitarity_long_run():
    K = 64
    rng = np.random.default_rng(42)
    z0 = rng.standard_normal(K + 1)
    z1 = rng.standard_normal(K + 1)
    for system in (limit_system(K), water_system(1.0, K)):
        e0 = energy((z0, z1), system)
        _, zeta, zeta_t = evolve(z0, z1, [(0.0, 1000)], 1e-3, system)
        assert abs(energy((zeta[-1], zeta_t[-1]), system) - e0) / e0 < 1e-10


def test_evolve_zero_everything():
    K = 4
    limit = limit_system(K)
    _, zeta, zeta_t = evolve(np.zeros(K + 1), np.zeros(K + 1), [(0.0, 10)], 0.1, limit)
    assert np.all(zeta == 0.0) and np.all(zeta_t == 0.0)


def test_mode0_quadratic_under_constant_input():
    K = 2
    limit = limit_system(K)
    times, zeta, _ = evolve(np.zeros(K + 1), np.zeros(K + 1), [(1.0, 1000)], 0.01, limit)
    expected = -times**2 / (2.0 * math.sqrt(math.pi))
    err = np.abs(zeta[:, 0] - expected) / np.maximum(1.0, np.abs(expected))
    assert err.max() < 1e-12


def test_truncation_consistency_shared_modes():
    mu = 0.05
    dt, n = 0.01, 300
    sig_small = make_signal("pulse:0:1:1", dt, n)
    w_small = water_system(mu, 16)
    w_big = water_system(mu, 32)
    z0s = np.exp(-np.arange(17.0))
    z0b = np.concatenate([z0s, np.zeros(16)])
    _, zeta_small, zeta_t_small = evolve(z0s, np.zeros(17), sig_small, dt, w_small)
    _, zeta_big, zeta_t_big = evolve(z0b, np.zeros(33), sig_small, dt, w_big)
    assert np.abs(zeta_big[:, :17] - zeta_small).max() < 1e-10
    assert np.abs(zeta_t_big[:, :17] - zeta_t_small).max() < 1e-10


def test_water_frequency_approaches_mode_number_from_below():
    for k in (1, 4, 9):
        prev = 0.0
        for mu in (1e-1, 1e-3, 1e-5, 1e-7):
            # omega_k = k sqrt(tanh(a)/a) with a = sqrt(mu) k
            w = water_system(mu, k)[0][k]
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
    z0 = np.exp(-0.7 * np.arange(K + 1.0))
    residuals = []
    for dt in (0.02, 0.01):
        n = int(round(4.0 / dt))
        sig = make_signal("pulse:0:1:1", dt, n)
        _, zeta, zeta_t = evolve(z0, np.zeros(K + 1), sig, dt, limit)
        worst = 0.0
        u_int = np.concatenate([[0.0], np.cumsum(expand(sig)) * dt])  # exact for pcw-constant u
        for j in range(K + 1):
            zeta_int = np.concatenate([[0.0], np.cumsum((zeta[1:, j] + zeta[:-1, j]) / 2.0) * dt])
            lhs = zeta_t[:, j] - zeta_t[0, j] + j**2 * zeta_int - limit[1][j] * u_int
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
    return np.array([0.0, *omega]), np.array(forcing)


def _vectors(K, bound=10.0):
    return st.lists(st.floats(-bound, bound), min_size=K + 1, max_size=K + 1).map(np.array)


def _bits(a):
    """Float64 arrays as their bit patterns, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@settings(deadline=None)
@given(data=st.data(), K=st.integers(1, 6), dt=st.floats(1e-3, 10.0), n=st.integers(1, 30))
def test_energy_conserved_under_zero_input(data, K, dt, n):
    system = data.draw(_systems(K))
    state = (data.draw(_vectors(K)), data.draw(_vectors(K)))
    e0 = energy(state, system)
    for _ in range(n):
        state = step(state, 0.0, dt, system)
    assert abs(energy(state, system) - e0) <= 1e-12 * e0


@settings(deadline=None)
@given(data=st.data(), K=st.integers(1, 6), dt=st.floats(1e-3, 1.0), n=st.integers(1, 20))
def test_superposition_in_data_and_input(data, K, dt, n):
    system = data.draw(_systems(K))
    runs = []
    for _ in range(2):
        z0, z1 = data.draw(_vectors(K)), data.draw(_vectors(K))
        u = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n).map(np.array))
        runs.append((z0, z1, u))
    (a0, a1, ua), (b0, b1, ub) = runs
    _, za, za_t = evolve(a0, a1, runs_of(ua), dt, system)
    _, zb, zb_t = evolve(b0, b1, runs_of(ub), dt, system)
    z0, z1 = a0 + b0, a1 + b1
    _, z, z_t = evolve(z0, z1, runs_of(ua + ub), dt, system)
    # magnitudes stay below about 1e4 (|f u / omega^2| <= 1e3, mode 0 quadratic
    # in t <= 20), so 1e-9 is a few thousand roundings, far below any wrong term
    np.testing.assert_allclose(z, za + zb, rtol=0, atol=1e-9)
    np.testing.assert_allclose(z_t, za_t + zb_t, rtol=0, atol=1e-9)


def _samples(zeta0, zeta1, systems, values, dt):
    """Every sample of _propagate under the per-step input values, copied: (2, n_sys, K+1) arrays of the
    elevation rows, then the velocity rows."""
    return [sample.copy() for sample in _propagate(zeta0, zeta1, systems, runs_of(values), dt)]


@settings(deadline=None)
@given(data=st.data(), K=st.integers(1, 6), n_sys=st.integers(1, 4), dt=st.floats(1e-3, 10.0), n=st.integers(1, 20))
def test_step_evolve_and_batched_kernel_agree_bitwise(data, K, n_sys, dt, n):
    systems = [data.draw(_systems(K)) for _ in range(n_sys)]
    z0, z1 = data.draw(_vectors(K)), data.draw(_vectors(K))
    values = np.array(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    batch = _samples(z0, z1, systems, values, dt)
    assert len(batch) == n + 1
    for i, system in enumerate(systems):
        _, traj_zeta, traj_zeta_t = evolve(z0, z1, runs_of(values), dt, system)
        np.testing.assert_array_equal(_bits(traj_zeta), _bits([zeta[i] for zeta, _ in batch]))
        np.testing.assert_array_equal(_bits(traj_zeta_t), _bits([zeta_t[i] for _, zeta_t in batch]))
        state = (z0, z1)
        for m, u in enumerate(values):
            state = step(state, u, dt, system)
            zeta, zeta_t = batch[m + 1]
            np.testing.assert_array_equal(_bits(state[0]), _bits(zeta[i]))
            np.testing.assert_array_equal(_bits(state[1]), _bits(zeta_t[i]))


@st.composite
def _batches(draw):
    """(systems, zeta0, zeta1, dt, input values) for one batch of systems sharing K."""
    K = draw(st.integers(1, 6))
    systems = draw(st.lists(_systems(K), min_size=1, max_size=4))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20))
    return systems, draw(_vectors(K)), draw(_vectors(K)), draw(st.floats(1e-3, 10.0)), values


# zero modes and an input that flips the sign of zero pin the u terms
# (f Q) u and (f S) u of each run: those of 0.0 used at -0.0 flip signed
# zeros in zeta and zeta_t, and runs_of keeps 0.0 and -0.0 in separate runs
_SIGNED_ZEROS = (
    [
        (np.array([0.0, 2.0, 20.0]), np.array([0.5, -1.0, 1.0])),
        (np.array([0.0, 40.0, 20.0]), np.array([-0.5, 1.0, -1.0])),
    ],
    np.array([1.0, -0.0, 0.0]),
    np.array([-0.0, -0.0, 0.0]),
    0.1,
    [0.0, -0.0, -0.0, 0.0, 1.5, 1.5, -0.0],
)

# forcing < 0 as in the tank and the string, so (f Q) u is all -0.0 at u = 0.0
# and its add is skipped; omega dt = 4 and 5 lie in (pi, 2 pi), where S < 0,
# so (f S) u holds +0.0, which must still be added to the -0.0 that c zeta_t -
# W zeta gives in a mode at rest; the later u = -0.0 makes (f Q) u all +0.0
_NEGATIVE_FORCING = (
    [
        (np.array([0.0, 40.0, 20.0]), np.array([-0.5, -1.0, -1.0])),
        (np.array([0.0, 50.0, 2.0]), np.array([-0.25, -2.0, -0.5])),
    ],
    np.array([1.0, -0.0, 0.0]),
    np.array([-0.0, 0.0, -0.0]),
    0.1,
    [0.0, 0.0, -0.0, -0.0, 0.0],
)


@settings(deadline=None)
@example(batch=_SIGNED_ZEROS)
@example(batch=_NEGATIVE_FORCING)
@given(batch=_batches())
def test_propagate_matches_per_step_reference_bitwise(batch):
    systems, z0, z1, dt, values = batch
    samples = _samples(z0, z1, systems, values, dt)
    assert len(samples) == len(values) + 1
    for i, (omega, forcing) in enumerate(systems):
        zeta, zeta_t = z0, z1
        for m, sample in enumerate(samples):
            if m:
                zeta, zeta_t = reference_step(zeta, zeta_t, values[m - 1], dt, omega, forcing)
            np.testing.assert_array_equal(_bits(sample[0][i]), _bits(zeta))
            np.testing.assert_array_equal(_bits(sample[1][i]), _bits(zeta_t))


@settings(deadline=None)
@given(batch=_batches())
def test_propagate_agrees_with_the_rotation_stepper(batch):
    # the rotation variables (alpha, beta, z0) = (zeta_t, omega zeta, zeta_0) step the
    # same exact flow by other arithmetic: the two agree to a few roundings per step of
    # the largest state value so far
    systems, z0, z1, dt, values = batch
    samples = _samples(z0, z1, systems, values, dt)
    eps = np.finfo(float).eps
    for i, (omega, forcing) in enumerate(systems):
        alpha, beta, zeta_0 = z1, np.concatenate([[0.0], omega[1:] * z0[1:]]), z0[0]
        scale = 1.0
        for m, (zeta, zeta_t) in enumerate(samples):
            if m:
                alpha, beta, zeta_0 = reference_advance(alpha, beta, zeta_0, values[m - 1], dt, omega, forcing)
            expected = np.concatenate([alpha, beta[1:], [zeta_0]])
            got = np.concatenate([zeta_t[i], omega[1:] * zeta[i, 1:], [zeta[i, 0]]])
            scale = max(scale, np.abs(expected).max())
            assert np.abs(got - expected).max() <= 64 * eps * (m + 1) * scale


def test_propagate_yields_read_only_views_that_the_second_step_reuses():
    system = limit_system(3)
    zeta0, zeta1 = unit(1, 3), unit(2, 3)
    samples = list(_propagate(zeta0, zeta1, [system, system], [(1.0, 1), (2.0, 1)], 0.1))
    # one stacked state per sample: the elevation rows of both systems, then their velocity rows
    assert all(a.shape == (2, 2, 4) and a.flags.c_contiguous and not a.flags.writeable for a in samples)
    assert np.shares_memory(samples[0], samples[2])
    assert not np.shares_memory(samples[0], samples[1])
    # the kernel steps its own buffers
    assert not any(np.shares_memory(a, samples[2]) for a in (zeta0, zeta1))


# finite floats away from the subnormal range, so that no product of a few steps rounds on the subnormal grid,
# where scaling by a power of two is not exact
_NORMAL = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 2.0**-64)


@st.composite
def _normal_batches(draw):
    """(systems, zeta0, zeta1, dt, input values, per-mode power-of-two scales) for one batch sharing K."""
    K = draw(st.integers(1, 6))
    vectors = st.lists(_NORMAL, min_size=K + 1, max_size=K + 1).map(np.array)
    omega = st.lists(st.floats(0.1, 100.0), min_size=K, max_size=K).map(lambda w: np.array([0.0, *w]))
    systems = draw(st.lists(st.tuples(omega, vectors.map(lambda f: f / 10.0)), min_size=1, max_size=3))
    values = draw(st.lists(_NORMAL, min_size=1, max_size=20))
    scale = 2.0 ** np.array(draw(st.lists(st.integers(-8, 8), min_size=K + 1, max_size=K + 1)))
    return systems, draw(vectors), draw(vectors), draw(st.floats(1e-3, 10.0)), values, scale


@settings(deadline=None)
@example(batch=(*_SIGNED_ZEROS, np.array([0.5, 4.0, 0.25])))
@example(batch=(*_NEGATIVE_FORCING, np.array([2.0, 0.125, 8.0])))
@given(batch=_normal_batches())
def test_propagate_folds_a_power_of_two_scale_into_the_elevation_rows_exactly(batch):
    # scaling by a power of two is exact away from overflow and the subnormals, so with the elevation rows
    # stepped as s zeta (M = [S s, -W/s], u terms [f Q s, f S]) every sample is bitwise s times the unscaled
    # elevation, and the velocity rows are bitwise the unscaled ones
    systems, z0, z1, dt, values, scale = batch
    plain = _samples(z0, z1, systems, values, dt)
    scaled = [sample.copy() for sample in _propagate(z0, z1, systems, runs_of(values), dt, scale)]
    assert len(scaled) == len(plain) == len(values) + 1
    for a, b in zip(plain, scaled):
        np.testing.assert_array_equal(_bits(b[0]), _bits(scale * a[0]))
        np.testing.assert_array_equal(_bits(b[1]), _bits(a[1]))


@pytest.mark.parametrize("on, off, amplitude", [(0.25, 1.5, 1.5), (0.0, math.inf, 0.75)], ids=["pulse", "const"])
def test_string_matches_dalembert_across_reflections(on, off, amplitude):
    # the limit string from rest under the boundary input u = amplitude on [on, off):
    # the kernel's coefficients are those of d'Alembert's physical-space solution at
    # every sampled t, before, between and after reflections off x = pi and x = 0
    K, dt = 64, 2.0**-6
    values = pulse_values(on, off, amplitude, dt, 800)
    samples = _samples(np.zeros(K + 1), np.zeros(K + 1), [limit_system(K)], values, dt)
    x, w = quadrature_nodes(4096)
    phi = np.array([eval_basis(k, x) for k in range(9)]).T
    for n in (16, 96, 201, 402, 500, 640, 800):
        t = n * dt
        expected = string_dalembert_coeffs(K, t, on, off, amplitude)
        assert np.abs(samples[n][0][0] - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
        # the closed form is the projection of the physical-space solution
        projected = (w * string_dalembert(x, t, on, off, amplitude)) @ phi
        assert np.abs(projected - expected[:9]).max() <= 1e-7
