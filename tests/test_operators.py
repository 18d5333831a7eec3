import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank.basis import _phi
from wavetank.evolution import water_system
from wavetank.lab import PROVEN_TOL
from wavetank.operators import (
    _odd_sums,
    bmu_dual_norm_gap,
    comparison_kernels,
    kernel_H_sum,
    limit_forcing,
    wave_maker_forcing,
)

from oracles import KERNEL_FORMULAS, norm, ntn_forcing

SQ2PI = math.sqrt(2.0 / math.pi)


def dtn_eigenvalue(mu, k):
    """lambda_k = mu omega_k^2: the tank's frequencies are the roots of its scaled DtN eigenvalues."""
    omega, _ = water_system(mu, max(1, int(np.max(k))))
    return mu * omega[k] ** 2


def closed_form_forcing(mu, k):
    """Independent oracle: summing the lateral series in closed form gives
    f_k = -sqrt(2/pi) tanh(sqrt(mu) k)/(sqrt(mu) k) (partial-fraction identity
    sum over odd m of 1/(m^2 + y^2) = pi tanh(pi y / 2)/(4 y))."""
    a = math.sqrt(mu) * k
    return -SQ2PI * (math.tanh(a) / a if a > 0 else 1.0)


class TestDtN:
    def test_mode0_exactly_zero(self):
        for mu in (1.0, 1e-3, 1e-6):
            assert dtn_eigenvalue(mu, 0) == 0.0

    def test_mu_one(self):
        assert dtn_eigenvalue(1.0, 1) == pytest.approx(math.tanh(1.0), rel=1e-15)

    def test_shallow_limit_of_scaled_eigenvalue(self):
        mu = 1e-6
        lam = dtn_eigenvalue(mu, 3)
        assert lam / mu == pytest.approx(9.0, rel=1e-5)
        assert lam / mu < 9.0  # tanh x < x

    def test_scaled_eigenvalue_below_k_squared(self):
        mu = 0.3
        k = np.arange(1, 2000)
        lam = dtn_eigenvalue(mu, k)
        assert np.all(lam / mu <= k**2)
        assert np.all(np.diff(lam) > 0)


class TestForcing:
    def test_mode0_closed_form(self):
        for mu in (1.0, 1e-2, 1e-6):
            f, _ = ntn_forcing(mu, 4, 10_000)
            assert f[0] == -1.0 / math.sqrt(math.pi)

    def test_mode0_against_big_lateral_sum(self):
        # brute-force oracle: projecting the forcing series on the constant
        # mode gives -(8/(sqrt(pi) pi^2)) sum 1/(2l-1)^2; at L = 10^6 this
        # must agree with the closed form -1/sqrt(pi) to 1e-6
        l = np.arange(1, 10**6 + 1, dtype=float)
        brute = -(8.0 / (math.sqrt(math.pi) * math.pi**2)) * (1.0 / (2 * l - 1) ** 2).sum()
        assert brute == pytest.approx(-1.0 / math.sqrt(math.pi), abs=1e-6)

    def test_shallow_limit_mode1(self):
        f, _ = ntn_forcing(1e-6, 2, 10_000)
        assert f[1] == pytest.approx(-SQ2PI, abs=1e-3)

    def test_against_closed_form_oracle_within_certified_tail(self):
        for mu in (1.0, 1e-1, 1e-3, 1e-5):
            f, tail = ntn_forcing(mu, 64, 5000)
            for k in (1, 2, 7, 64):
                diff = abs(f[k] - closed_form_forcing(mu, k))
                assert diff <= tail
        # the truncated sum undershoots in magnitude, never overshoots
        f, _ = ntn_forcing(1e-2, 8, 100)
        assert all(f[k] >= closed_form_forcing(1e-2, k) for k in range(1, 9))

    def test_series_oracle_certified_at_every_shallowness(self):
        # the lateral frequencies (2l-1) pi / (2 sqrt(mu)) overflow when squared
        # at mu = 1e-300; the series must stay within its certificate anyway
        for mu in (1.0, 1e-6, 1e-200, 1e-300):
            f, tail = ntn_forcing(mu, 64, 10_000)
            assert np.abs(f - wave_maker_forcing(mu, 64)).max() <= tail
        _, forcing = water_system(1e-300, 64)
        np.testing.assert_allclose(forcing[1:], -SQ2PI, rtol=0.0, atol=1e-15)
        # water_system builds its forcing from the h of its frequencies: the same bits
        for mu in (1.0, 0.3, 1e-2, 1e-6, 1e-300, 5e-324):
            for K in (1, 7, 1024):
                assert water_system(mu, K)[1].tobytes() == wave_maker_forcing(mu, K).tobytes()

    def test_linearity_scaling(self):
        f, _ = ntn_forcing(0.5, 4, 10_000)
        assert np.all(f * 0.0 == 0.0)

    def test_oracles_reject_l_modes_below_one(self):
        with pytest.raises(ValueError, match="l_modes"):
            ntn_forcing(0.5, 4, 0)
        with pytest.raises(ValueError, match="l_modes"):
            kernel_H_sum(0.5, np.ones(1), 0)


class TestLimitOperators:
    def test_values(self):
        b0 = limit_forcing(8)
        assert b0[0] == -1.0 / math.sqrt(math.pi)
        assert b0[5] == -SQ2PI

    @pytest.mark.parametrize("K", [1, 4, 1024, 65536])
    def test_equals_the_cosine_evaluator_at_the_wave_maker_bitwise(self, K):
        assert limit_forcing(K).tobytes() == (-_phi(np.arange(K + 1), 0.0)).tobytes()
        with pytest.raises(ValueError, match="K must be >= 1"):
            limit_forcing(0)

    def test_forcing_converges_to_limit(self):
        b0 = limit_forcing(8)
        prev = None
        for mu in (1e-2, 1e-4, 1e-6):
            f, _ = ntn_forcing(mu, 8, 10_000)
            gap = np.abs(f - b0).max()
            if prev is not None:
                assert gap < prev
            prev = gap
        assert prev < 1e-3


class TestKernels:
    def test_F_value(self):
        expected = 0.5 - 1.0 / (1.0 + math.tanh(1.0))
        assert comparison_kernels(1.0, 1).F == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(-0.0676676416183064, rel=1e-12)

    def test_I_taylor(self):
        mu = 1e-8
        val = comparison_kernels(mu, 1).I
        assert val == pytest.approx(-mu / 6.0, rel=1e-6)

    def test_H_sum_bounds_and_certificate(self):
        mu = 1e-4
        (s,), tail = kernel_H_sum(mu, np.array([1.0]), 10_000)
        assert s <= mu / 2.0
        assert s <= 2.0 * math.sqrt(mu)
        # independent identity oracle: the full sum equals mu*h(a)/2 exactly,
        # so the truncated value plus its certificate must bracket it
        a = math.sqrt(mu)
        full = mu * math.tanh(a) / (2.0 * a)
        assert s <= full <= s + tail

    def test_H_sum_vectorized_brackets_identity(self):
        mu = 1e-2
        k = np.array([1.0, 5.0, 60.0, 700.0])
        s, tail = kernel_H_sum(mu, k, 3000)
        a = math.sqrt(mu) * k
        full = mu * np.tanh(a) / (2.0 * a)
        assert np.all(s <= full)
        assert np.all(full <= s + tail)

    def test_kernels_reject_k0(self):
        for k in (0, np.array([1.0, 0.0])):
            with pytest.raises(ValueError):
                comparison_kernels(0.5, k)
            with pytest.raises(ValueError):
                kernel_H_sum(0.5, np.atleast_1d(k), 10)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_kernels_reject_non_finite_modes(self, bad):
        # nan and inf used to pass the k >= 1 check: nan kernels, and a lateral sum of 0 at k = inf
        for k in ([bad], [1.0, bad]):
            with pytest.raises(ValueError, match="defined for k >= 1"):
                comparison_kernels(0.1, k)
            with pytest.raises(ValueError, match="defined for k >= 1"):
                kernel_H_sum(0.1, k, 10)

    def test_bound_invariants_on_subgrid(self):
        k = np.arange(1, 2001, dtype=float)
        for mu in (1.0, 1e-2, 1e-4, 1e-6):
            rmu = math.sqrt(mu)
            kern = comparison_kernels(mu, k)
            assert np.all(np.abs(kern.F) <= rmu / k)
            assert np.all(np.abs(kern.I) <= rmu * k)
            assert np.all(np.abs(kern.G) <= 2.0 * np.minimum(rmu, mu**0.25 / np.sqrt(k)))
            s, _ = kernel_H_sum(mu, k, 2000)
            assert np.all(s <= mu / 2.0)
            assert np.all(s <= 2.0 * rmu / k)
            assert np.all(np.isfinite(kern.J))


class TestForcingGap:
    def test_nonnegative(self):
        assert bmu_dual_norm_gap(0.5, 32) >= 0.0

    def test_monotone_decreasing_and_frozen(self):
        # frozen from the closed-form forcing
        expected = {1e-2: 0.14322321193994964, 1e-3: 0.07346478958006918, 1e-4: 0.028232961988608023}
        gaps = []
        for mu in (1e-2, 1e-3, 1e-4):
            g = bmu_dual_norm_gap(mu, 256)
            gaps.append(g)
            assert g == pytest.approx(expected[mu], rel=1e-6)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_against_closed_form_oracle(self):
        for mu in (1e-2, 1e-4):
            k = np.arange(257)
            f_oracle = np.array([closed_form_forcing(mu, kk) if kk else -1 / math.sqrt(math.pi) for kk in k])
            b0 = limit_forcing(256)
            oracle = norm(f_oracle - b0, -1.0)
            assert bmu_dual_norm_gap(mu, 256) == pytest.approx(oracle, rel=1e-12)
            # the weighted sum in the order of the norm, so the same bits
            assert bmu_dual_norm_gap(mu, 256) == norm(wave_maker_forcing(mu, 256) - limit_forcing(256), -1.0)


@settings(deadline=None)
@given(
    log_mu=st.floats(-300.0, 0.0),
    log_k=st.floats(0.0, 6.0),
    log_l=st.floats(0.0, math.log10(5000.0)),
)
def test_closed_lateral_sum_within_series_certificate(log_mu, log_k, log_l):
    mu = 10.0**log_mu
    k = np.array([10.0**log_k])
    (closed,) = comparison_kernels(mu, k).H_sum
    (series,), tail = kernel_H_sum(mu, k, min(5000, round(10.0**log_l)))
    diff = closed - series
    assert -1e-14 * closed <= diff <= tail * (1.0 + PROVEN_TOL)


@settings(deadline=None)
@given(
    mu=st.one_of(st.floats(1e-300, 1.0), st.just(1.0), st.just(5e-324)),
    k=st.lists(st.floats(1.0, 1e5), min_size=1, max_size=50),
)
def test_comparison_kernels_equal_one_line_formulas_bitwise(mu, k):
    k = np.array(k)
    kern = comparison_kernels(mu, k)
    for name, formula in KERNEL_FORMULAS.items():
        np.testing.assert_array_equal(getattr(kern, name).view(np.uint64), formula(mu, k).view(np.uint64), err_msg=name)


# the oracle's block holds 2^16 values: max(1, 2^16 // L) rows of L terms
_BLOCK_VALUES = 1 << 16


@settings(deadline=None, max_examples=50)
@given(
    data=st.data(),
    mu=st.floats(1e-300, 1.0),
    L=st.one_of(st.integers(1_000, 5_000), st.integers(_BLOCK_VALUES + 1, _BLOCK_VALUES + 5_000)),
)
def test_odd_sums_equal_row_at_a_time_reference_bitwise(data, mu, L):
    rows = max(1, _BLOCK_VALUES // L)
    n = data.draw(st.integers(1, 2 * rows + 1), label="number of k")
    k = np.array(data.draw(st.lists(st.integers(0, 10**4), min_size=n, max_size=n)), dtype=float)
    odd2 = (2.0 * np.arange(1, L + 1) - 1.0) ** 2
    y2 = (2.0 * math.sqrt(mu) / math.pi * k) ** 2
    expected = np.array([(1.0 / (odd2 + y2_i)).sum() for y2_i in y2])
    got = _odd_sums(mu, k, L)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_series_oracles_need_one_block_not_k_times_l():
    # O(l_modes) plus one block: a (64, 10^5) or (1025, 10^4) temporary would be 51 or 82 MB
    k = np.geomspace(1.0, 1e4, 64)
    assert _peak_bytes(lambda: kernel_H_sum(1e-3, k, 100_000)) < 4e6
    assert _peak_bytes(lambda: ntn_forcing(1e-3, 1024, 10_000)) < 2e6
