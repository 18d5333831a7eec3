import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank.basis import ModalVector, SpectralParams
from wavetank.evolution import water_system
from wavetank.lab import PROVEN_TOL
from wavetank.operators import (
    PrecisionError,
    apply_dtn,
    bmu_dual_norm_gap,
    dtn_eigenvalue,
    dtn_spectrum,
    kernel_F,
    kernel_G,
    kernel_H_sum,
    kernel_I,
    kernel_J,
    lateral_sum,
    limit_forcing,
    ntn_forcing,
    resolvent_shifted,
    wave_maker_forcing,
)

SQ2PI = math.sqrt(2.0 / math.pi)


def closed_form_forcing(mu, k):
    """Independent oracle: summing the lateral series in closed form gives
    f_k = -sqrt(2/pi) tanh(sqrt(mu) k)/(sqrt(mu) k) (partial-fraction identity
    sum over odd m of 1/(m^2 + y^2) = pi tanh(pi y / 2)/(4 y))."""
    a = math.sqrt(mu) * k
    return -SQ2PI * (math.tanh(a) / a if a > 0 else 1.0)


class TestDtN:
    def test_mode0_exactly_zero(self):
        for mu in (1.0, 1e-3, 1e-6):
            assert dtn_eigenvalue(SpectralParams(mu=mu), 0) == 0.0

    def test_mu_one(self):
        assert dtn_eigenvalue(SpectralParams(mu=1.0), 1) == pytest.approx(math.tanh(1.0), rel=1e-15)

    def test_shallow_limit_of_scaled_eigenvalue(self):
        mu = 1e-6
        lam = dtn_eigenvalue(SpectralParams(mu=mu), 3)
        assert lam / mu == pytest.approx(9.0, rel=1e-5)
        assert lam / mu < 9.0  # tanh x < x

    def test_scaled_eigenvalue_below_k_squared(self):
        params = SpectralParams(mu=0.3)
        k = np.arange(1, 2000)
        lam = dtn_eigenvalue(params, k)
        assert np.all(lam / params.mu <= k**2)
        assert np.all(np.diff(lam) > 0)

    def test_apply(self):
        params = SpectralParams(mu=0.25, K=4)
        spec = dtn_spectrum(params)
        z = apply_dtn(spec, ModalVector.zeros(4))
        assert np.all(z.coeffs == 0.0)
        const = ModalVector(np.array([math.sqrt(math.pi), 0, 0, 0, 0.0]))
        assert np.all(apply_dtn(spec, const).coeffs == 0.0)
        e2 = ModalVector.unit(2, 4)
        out = apply_dtn(spec, e2)
        assert out.coeffs[2] == pytest.approx(math.tanh(1.0), rel=1e-15)

    def test_apply_linearity(self):
        params = SpectralParams(mu=0.1, K=16)
        spec = dtn_spectrum(params)
        rng = np.random.default_rng(5)
        v = ModalVector(rng.standard_normal(17))
        w = ModalVector(rng.standard_normal(17))
        lhs = apply_dtn(spec, 2.0 * v + (-3.0) * w)
        rhs = 2.0 * apply_dtn(spec, v) + (-3.0) * apply_dtn(spec, w)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-14, atol=1e-15)

    def test_shape_error(self):
        spec = dtn_spectrum(SpectralParams(mu=0.5, K=4))
        with pytest.raises(ValueError, match="mismatch"):
            apply_dtn(spec, ModalVector.zeros(5))


class TestForcing:
    def test_mode0_closed_form(self):
        for mu in (1.0, 1e-2, 1e-6):
            proj = ntn_forcing(SpectralParams(mu=mu, K=4))
            assert proj.forcing[0] == -1.0 / math.sqrt(math.pi)

    def test_mode0_against_big_lateral_sum(self):
        # brute-force oracle: projecting the forcing series on the constant
        # mode gives -(8/(sqrt(pi) pi^2)) sum 1/(2l-1)^2; at L = 10^6 this
        # must agree with the closed form -1/sqrt(pi) to 1e-6
        l = np.arange(1, 10**6 + 1, dtype=float)
        brute = -(8.0 / (math.sqrt(math.pi) * math.pi**2)) * (1.0 / (2 * l - 1) ** 2).sum()
        assert brute == pytest.approx(-1.0 / math.sqrt(math.pi), abs=1e-6)

    def test_shallow_limit_mode1(self):
        proj = ntn_forcing(SpectralParams(mu=1e-6, K=2))
        assert proj.forcing[1] == pytest.approx(-SQ2PI, abs=1e-3)

    def test_against_closed_form_oracle_within_certified_tail(self):
        for mu in (1.0, 1e-1, 1e-3, 1e-5):
            params = SpectralParams(mu=mu, K=64, L_modes=5000)
            proj = ntn_forcing(params)
            for k in (1, 2, 7, 64):
                diff = abs(proj.forcing[k] - closed_form_forcing(mu, k))
                assert diff <= proj.forcing_tail_bound
        # the truncated sum undershoots in magnitude, never overshoots
        params = SpectralParams(mu=1e-2, K=8, L_modes=100)
        proj = ntn_forcing(params, tail_tol=1e-2)
        assert all(proj.forcing[k] >= closed_form_forcing(1e-2, k) for k in range(1, 9))

    def test_series_oracle_certified_at_every_shallowness(self):
        # the lateral frequencies (2l-1) pi / (2 sqrt(mu)) overflow when squared
        # at mu = 1e-300; the series must stay within its certificate anyway
        for mu in (1.0, 1e-6, 1e-200, 1e-300):
            params = SpectralParams(mu=mu, K=64)
            proj = ntn_forcing(params)
            assert np.abs(proj.forcing - wave_maker_forcing(params)).max() <= proj.forcing_tail_bound
        water = water_system(SpectralParams(mu=1e-300, K=64))
        np.testing.assert_allclose(water.forcing[1:], -SQ2PI, rtol=0.0, atol=1e-15)

    def test_linearity_scaling(self):
        proj = ntn_forcing(SpectralParams(mu=0.5, K=4))
        assert np.all(proj.forcing * 0.0 == 0.0)

    def test_precision_error_names_required_l(self):
        with pytest.raises(PrecisionError) as exc:
            ntn_forcing(SpectralParams(mu=0.5, K=4, L_modes=2), tail_tol=1e-6)
        assert exc.value.required_l_modes > 2
        assert str(exc.value.required_l_modes) in str(exc.value)
        # the advertised truncation is sufficient
        ntn_forcing(SpectralParams(mu=0.5, K=4, L_modes=exc.value.required_l_modes), tail_tol=1e-6)


class TestLimitOperators:
    def test_values(self):
        ops = limit_forcing(8)
        assert ops.b0[0] == -1.0 / math.sqrt(math.pi)
        assert ops.b0[5] == -SQ2PI
        assert ops.a0[4] == 16.0

    def test_forcing_converges_to_limit(self):
        ops = limit_forcing(8)
        prev = None
        for mu in (1e-2, 1e-4, 1e-6):
            gap = np.abs(ntn_forcing(SpectralParams(mu=mu, K=8)).forcing - ops.b0).max()
            if prev is not None:
                assert gap < prev
            prev = gap
        assert prev < 1e-3


class TestResolvent:
    def test_trivial(self):
        lim = limit_forcing(4)
        z = resolvent_shifted(lim, ModalVector.zeros(4))
        assert np.all(z.coeffs == 0.0)
        e0 = ModalVector.unit(0, 4)
        np.testing.assert_allclose(resolvent_shifted(lim, e0).coeffs, e0.coeffs)

    def test_limit_mode2(self):
        lim = limit_forcing(4)
        out = resolvent_shifted(lim, ModalVector.unit(2, 4))
        assert out.coeffs[2] == pytest.approx(0.2, rel=1e-15)

    def test_water(self):
        params = SpectralParams(mu=0.25, K=4)
        spec = dtn_spectrum(params)
        out = resolvent_shifted(spec, ModalVector.unit(2, 4))
        sigma = 2.0 * math.tanh(1.0) / 0.5
        assert out.coeffs[2] == pytest.approx(1.0 / (1.0 + sigma), rel=1e-15)

    def test_shape_error(self):
        with pytest.raises(ValueError, match="mismatch"):
            resolvent_shifted(limit_forcing(4), ModalVector.zeros(6))


class TestKernels:
    def test_F_value(self):
        params = SpectralParams(mu=1.0)
        expected = 0.5 - 1.0 / (1.0 + math.tanh(1.0))
        assert kernel_F(params, 1) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(-0.0676676416183064, rel=1e-12)

    def test_I_taylor(self):
        mu = 1e-8
        val = kernel_I(SpectralParams(mu=mu), 1)
        assert val == pytest.approx(-mu / 6.0, rel=1e-6)

    def test_H_sum_bounds_and_certificate(self):
        params = SpectralParams(mu=1e-4, K=1)
        s, tail = kernel_H_sum(params, 1)
        assert s <= params.mu / 2.0
        assert s <= 2.0 * math.sqrt(params.mu)
        # independent identity oracle: the full sum equals mu*h(a)/2 exactly,
        # so the truncated value plus its certificate must bracket it
        a = math.sqrt(params.mu)
        full = params.mu * math.tanh(a) / (2.0 * a)
        assert s <= full <= s + tail

    def test_H_sum_vectorized_brackets_identity(self):
        params = SpectralParams(mu=1e-2, K=1, L_modes=3000)
        k = np.array([1.0, 5.0, 60.0, 700.0])
        s, tail = kernel_H_sum(params, k)
        a = math.sqrt(params.mu) * k
        full = params.mu * np.tanh(a) / (2.0 * a)
        assert np.all(s <= full)
        assert np.all(full <= s + tail)

    def test_kernels_reject_k0(self):
        params = SpectralParams(mu=0.5)
        for fn in (kernel_F, kernel_G, kernel_I, kernel_J):
            with pytest.raises(ValueError):
                fn(params, 0)

    def test_bound_invariants_on_subgrid(self):
        k = np.arange(1, 2001, dtype=float)
        for mu in (1.0, 1e-2, 1e-4, 1e-6):
            params = SpectralParams(mu=mu, K=1, L_modes=2000)
            rmu = math.sqrt(mu)
            assert np.all(np.abs(kernel_F(params, k)) <= rmu / k)
            assert np.all(np.abs(kernel_I(params, k)) <= rmu * k)
            assert np.all(np.abs(kernel_G(params, k)) <= 2.0 * np.minimum(rmu, mu**0.25 / np.sqrt(k)))
            s, _ = kernel_H_sum(params, k)
            assert np.all(s <= mu / 2.0)
            assert np.all(s <= 2.0 * rmu / k)
            assert np.all(np.isfinite(kernel_J(params, k)))


class TestForcingGap:
    def test_nonnegative(self):
        assert bmu_dual_norm_gap(SpectralParams(mu=0.5, K=32)) >= 0.0

    def test_monotone_decreasing_and_frozen(self):
        # frozen from the closed-form forcing
        expected = {1e-2: 0.14322321193994964, 1e-3: 0.07346478958006918, 1e-4: 0.028232961988608023}
        gaps = []
        for mu in (1e-2, 1e-3, 1e-4):
            g = bmu_dual_norm_gap(SpectralParams(mu=mu, K=256, L_modes=10_000))
            gaps.append(g)
            assert g == pytest.approx(expected[mu], rel=1e-6)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_against_closed_form_oracle(self):
        from wavetank.basis import norm

        for mu in (1e-2, 1e-4):
            params = SpectralParams(mu=mu, K=256, L_modes=10_000)
            k = np.arange(257)
            f_oracle = np.array([closed_form_forcing(mu, kk) if kk else -1 / math.sqrt(math.pi) for kk in k])
            b0 = limit_forcing(256).b0
            oracle = norm(ModalVector(f_oracle - b0), -1.0)
            assert bmu_dual_norm_gap(params) == pytest.approx(oracle, rel=1e-12)


@settings(deadline=None)
@given(
    log_mu=st.floats(-300.0, 0.0),
    log_k=st.floats(0.0, 6.0),
    log_l=st.floats(0.0, math.log10(5000.0)),
)
def test_closed_lateral_sum_within_series_certificate(log_mu, log_k, log_l):
    params = SpectralParams(mu=10.0**log_mu, K=1, L_modes=min(5000, round(10.0**log_l)))
    k = 10.0**log_k
    closed = lateral_sum(params, k)
    series = kernel_H_sum(params, k)
    diff = closed - series.value
    assert -1e-14 * closed <= diff <= series.tail_bound * (1.0 + PROVEN_TOL)
