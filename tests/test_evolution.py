import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavetank.cli import ConfigError, make_signal
from wavetank.evolution import _rotate, _rows, water_system

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


def _moving(system):
    """The modes 1..K of a system, those with omega > 0."""
    return tuple(part[1:] for part in system)


def test_rotate_shape_errors():
    omega, forcing = (part[None] for part in _moving(water_system(0.0, 4)))
    # _rotate gets the moving modes 1..K, so each array's K is its last dimension
    with pytest.raises(ValueError, match=r"^mode count mismatch: zeta0 K=3, zeta1 K=4, system K=4$"):
        next(_rotate(np.zeros(3), np.zeros(4), omega, forcing, [(0.0, 1)], 0.1))
    with pytest.raises(ValueError, match=r"^mode count mismatch: zeta0 K=5, zeta1 K=5, system K=4$"):
        next(_rotate(np.zeros(5), np.zeros(5), omega, forcing, [(0.0, 1)], 0.1))


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
    limit = water_system(0.0, K)
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
    for system in (water_system(0.0, K), water_system(1e-3, K)):
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
    for system in (water_system(0.0, K), water_system(1.0, K)):
        e0 = energy((z0, z1), system)
        _, zeta, zeta_t = evolve(z0, z1, [(0.0, 1000)], 1e-3, system)
        assert abs(energy((zeta[-1], zeta_t[-1]), system) - e0) / e0 < 1e-10


def test_evolve_zero_everything():
    K = 4
    limit = water_system(0.0, K)
    _, zeta, zeta_t = evolve(np.zeros(K + 1), np.zeros(K + 1), [(0.0, 10)], 0.1, limit)
    assert np.all(zeta == 0.0) and np.all(zeta_t == 0.0)


def test_mode0_quadratic_under_constant_input():
    K = 2
    limit = water_system(0.0, K)
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
    limit = water_system(0.0, K)
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


@st.composite
def _moving_batches(draw):
    """(systems, zeta0, zeta1, dt, input values) for one batch sharing m modes, every omega in [1e-300, 50]."""
    m = draw(st.integers(1, 6))
    rows = st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m).map(np.array)
    # omega >= 1e-300, so that zeta_t / omega and the input term f u dt / omega are float64 numbers
    omega = st.lists(st.floats(1e-300, 50.0), min_size=m, max_size=m).map(np.array)
    systems = draw(st.lists(st.tuples(omega, rows), min_size=1, max_size=4))
    vectors = st.lists(st.floats(-10.0, 10.0), min_size=m, max_size=m).map(np.array)
    # runs of u = 0 between the nonzero ones, as a pulse makes
    values = draw(st.lists(st.one_of(st.just(0.0), st.floats(-10.0, 10.0)), min_size=1, max_size=30))
    return systems, draw(vectors), draw(vectors), draw(st.floats(1e-3, 10.0)), values


def _rotated(zeta0, zeta1, systems, values, dt):
    """Every sample of _rotate under the per-step input values, copied: the (n_sys, 2m) pairs (Re psi, Im psi)."""
    return [pairs.copy() for pairs in _rotate(zeta0, zeta1, *_stacked(systems), runs_of(values), dt)]


def _stacked(systems):
    """The (n_sys, m) arrays omega and forcing of a list of (omega, forcing) pairs."""
    return [np.stack(rows) for rows in zip(*systems)]


@settings(deadline=None)
@given(batch=_moving_batches())
def test_batched_rotate_equals_per_system_rotate_bitwise(batch):
    systems, z0, z1, dt, values = batch
    together = _rotated(z0, z1, systems, values, dt)
    assert len(together) == len(values) + 1
    for i, system in enumerate(systems):
        alone = _rotated(z0, z1, [system], values, dt)
        np.testing.assert_array_equal(_bits([psi[i] for psi in together]), _bits([psi[0] for psi in alone]))


@st.composite
def _batches(draw):
    """(systems, zeta0, zeta1, dt, input values) for one batch of systems sharing K."""
    K = draw(st.integers(1, 6))
    systems = draw(st.lists(_systems(K), min_size=1, max_size=4))
    values = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20))
    return systems, draw(_vectors(K)), draw(_vectors(K)), draw(st.floats(1e-3, 10.0)), values


# zero data and an input that flips the sign of zero pin mode 0's u terms
# (f Q) u and (f S) u of each run: those of 0.0 used at -0.0 flip signed
# zeros in zeta_0 and zeta_t_0, and runs_of keeps 0.0 and -0.0 in separate runs
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

# forcing < 0 as in the tank and the string, so both u terms of mode 0 are -0.0
# at u = 0.0 and +0.0 at u = -0.0, and each must be added: the velocity at rest
# is -0.0 until the first u = -0.0 turns it into +0.0, which no later -0.0 undoes
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

# mode 0 at rest below the mean level, z < 0 and v = -0.0: the term (-0.0) z = +0.0 of the velocity's step
# turns v into +0.0, and the u term -0.0 of a negative forcing at u = 0.0 keeps it so; v + (f dt) u stays -0.0
_BELOW_THE_MEAN = (
    [(np.array([0.0, 3.0]), np.array([-0.5, -1.0]))],
    np.array([-1.0, 0.5]),
    np.array([-0.0, 0.0]),
    0.1,
    [0.0, 0.0],
)


@settings(deadline=None)
@example(batch=_SIGNED_ZEROS)
@example(batch=_NEGATIVE_FORCING)
@example(batch=_BELOW_THE_MEAN)
@given(batch=_batches())
def test_mode_0_matches_the_per_step_reference_bitwise(batch):
    # mode 0 of every sample of `_rows` is the plain per-step formula at omega = 0, signed zeros included
    systems, z0, z1, dt, values = batch
    for omega, forcing in systems:
        _, zeta, zeta_t = evolve(z0, z1, runs_of(values), dt, (omega, forcing))
        assert len(zeta) == len(values) + 1
        state = z0[:1], z1[:1]
        for m, u in enumerate([None, *values]):
            if m:
                state = reference_step(*state, u, dt, omega[:1], forcing[:1])
            np.testing.assert_array_equal(_bits(zeta[m, :1]), _bits(state[0]))
            np.testing.assert_array_equal(_bits(zeta_t[m, :1]), _bits(state[1]))


@settings(deadline=None)
@given(batch=_batches())
def test_evolve_agrees_with_the_rotation_stepper(batch):
    # the rotation variables (alpha, beta, z0) = (zeta_t, omega zeta, zeta_0) step the
    # same exact flow by other arithmetic: the two agree to a few roundings per step of
    # the largest state value so far
    systems, z0, z1, dt, values = batch
    eps = np.finfo(float).eps
    for omega, forcing in systems:
        _, zeta, zeta_t = evolve(z0, z1, runs_of(values), dt, (omega, forcing))
        alpha, beta, zeta_0 = z1, np.concatenate([[0.0], omega[1:] * z0[1:]]), z0[0]
        scale = 1.0
        for m in range(len(values) + 1):
            if m:
                alpha, beta, zeta_0 = reference_advance(alpha, beta, zeta_0, values[m - 1], dt, omega, forcing)
            expected = np.concatenate([alpha, beta[1:], [zeta_0]])
            got = np.concatenate([zeta_t[m], omega[1:] * zeta[m, 1:], [zeta[m, 0]]])
            scale = max(scale, np.abs(expected).max())
            assert np.abs(got - expected).max() <= 64 * eps * (m + 1) * scale


@settings(deadline=None, max_examples=200)
@given(batch=_moving_batches())
def test_rotate_agrees_with_the_per_step_reference_and_conserves_its_modulus(batch):
    # Both step the exact flow at the phase theta = fl(omega dt).  In the energy norm |(omega zeta, zeta_t)| =
    # omega |psi| that flow rotates psi and adds T u, omega |T u| = 2 |f u sin(theta/2)| / omega, so it carries an
    # error without growth.  With sin and cos within 2 ulp, a step of `_rotate` rounds its rotation, one complex
    # product and its input term, each bounded by B = |zeta_t| + |omega zeta| + omega |T u| after the mapping by
    # omega, at most 8 times by eps/2, and a step of `reference_step`, mapped into the norm (its elevation row times
    # omega), rounds its coefficients and its terms, each within B after that mapping, at most 16 times by eps/2: a
    # step adds at most 12 eps B to the difference, and forming psi, then mapping it and the reference into the
    # norm, adds eps B.  After m steps the two differ by at most 16 (m + 1) eps A, A the largest B so far.  On the
    # subnormal grid a rounding errs by eps tiny / 2 instead, which the mapping multiplies by omega: A gains
    # (1 + max omega) tiny.  Under u = 0 a step moves |psi| by the modulus error of r = e^(-i theta) and the
    # product's rounding, at most 3 eps |psi|, and measuring |psi| twice adds eps |psi|.
    systems, z0, z1, dt, values = batch
    omega, forcing = _stacked(systems)
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    input_term = 2.0 * np.abs(forcing * np.sin(0.5 * omega * dt)) / omega
    rotated = _rotated(z0, z1, systems, values, dt)
    assert len(rotated) == len(values) + 1
    floor = (1.0 + omega.max()) * tiny
    for i, system in enumerate(systems):
        zeta, zeta_t, scale = z0, z1, 0.0
        for m, pairs in enumerate(rotated):
            if m:
                zeta, zeta_t = reference_step(zeta, zeta_t, values[m - 1], dt, *system)
            psi = pairs[i].view(complex)
            u = abs(values[m - 1]) if m else 0.0
            scale = max(scale, (np.abs(zeta_t) + np.abs(omega[i] * zeta) + u * input_term[i]).max())
            reference = omega[i] * zeta + 1j * zeta_t
            assert np.abs(omega[i] * psi - reference).max() <= 16 * (m + 1) * eps * (scale + floor)
    free = [np.abs(pairs.view(complex)) for pairs in _rotated(z0, z1, systems, np.zeros(len(values)), dt)]
    for m, size in enumerate(free):
        assert np.all(np.abs(size - free[0]) <= 4 * (m + 1) * eps * (free[0] + tiny))


def test_rotate_rejects_a_mode_at_rest_and_steps_two_buffers_in_turn():
    zeta0, zeta1 = unit(1, 3)[1:], unit(2, 3)[1:]
    omega, forcing = _stacked([_moving(water_system(0.0, 3))] * 2)
    with pytest.raises(ValueError, match="omega > 0 only"):
        next(_rotate(unit(1, 3), unit(2, 3), *_stacked([water_system(0.0, 3)]), [(0.0, 1)], 0.1))
    samples = _rotate(zeta0, zeta1, omega, forcing, [(1.0, 2)], 0.1)
    first = next(samples)
    # the pairs (zeta, zeta_t / omega) of each mode, side by side
    assert first.shape == (2, 6) and not first.flags.writeable
    np.testing.assert_array_equal(first, [np.column_stack([zeta0, zeta1 / omega[0]]).ravel()] * 2)
    second, third = samples
    assert not np.shares_memory(first, second) and np.shares_memory(first, third)
    assert not any(np.shares_memory(a, b) for a in (zeta0, zeta1) for b in (first, second))


@pytest.mark.parametrize("on, off, amplitude", [(0.25, 1.5, 1.5), (0.0, math.inf, 0.75)], ids=["pulse", "const"])
def test_string_matches_dalembert_across_reflections(on, off, amplitude):
    # the limit string from rest under the boundary input u = amplitude on [on, off):
    # the kernel's coefficients are those of d'Alembert's physical-space solution at
    # every sampled t, before, between and after reflections off x = pi and x = 0
    K, dt = 64, 2.0**-6
    values = pulse_values(on, off, amplitude, dt, 800)
    _, zeta, _ = evolve(np.zeros(K + 1), np.zeros(K + 1), runs_of(values), dt, water_system(0.0, K))
    x, w = quadrature_nodes(4096)
    phi = np.array([eval_basis(k, x) for k in range(9)]).T
    for n in (16, 96, 201, 402, 500, 640, 800):
        t = n * dt
        expected = string_dalembert_coeffs(K, t, on, off, amplitude)
        assert np.abs(zeta[n] - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
        # the closed form is the projection of the physical-space solution
        projected = (w * string_dalembert(x, t, on, off, amplitude)) @ phi
        assert np.abs(projected - expected[:9]).max() <= 1e-7
