"""The tank's diagonal operators: the frequencies and the closed-form forcing that `water_system` builds (the string
at mu = 0) against the lateral-series oracle, the comparison kernels, and the dual-norm forcing gap of
`bmu_rate_table`."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank.basis import _phi
from wavetank.evolution import water_system
from wavetank.lab import PROVEN_TOL, bmu_rate_table
from wavetank.operators import _h, _odd_sums, _tail_table, comparison_kernels, kernel_H_sum

from oracles import KERNEL_FORMULAS, direct_odd_sums, norm, ntn_forcing

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
            assert np.abs(f - water_system(mu, 64)[1]).max() <= tail
        _, forcing = water_system(1e-300, 64)
        np.testing.assert_allclose(forcing[1:], -SQ2PI, rtol=0.0, atol=1e-15)
        # the tank's forcing is the string's, mu = 0, scaled by the h of its frequencies: the same bits
        for mu in (1.0, 0.3, 1e-2, 1e-6, 1e-300, 5e-324):
            for K in (1, 7, 1024):
                h = _h(np.sqrt(mu) * np.arange(K + 1.0))
                assert water_system(mu, K)[1].tobytes() == (water_system(0.0, K)[1] * h).tobytes()

    def test_linearity_scaling(self):
        f, _ = ntn_forcing(0.5, 4, 10_000)
        assert np.all(f * 0.0 == 0.0)

    def test_oracles_reject_l_modes_below_one(self):
        with pytest.raises(ValueError, match="l_modes"):
            ntn_forcing(0.5, 4, 0)
        with pytest.raises(ValueError, match="l_modes"):
            kernel_H_sum(0.5, np.ones(1), 0)


class TestLimitOperators:
    """The zero-depth limit, the string, is the tank at mu = 0."""

    def test_values(self):
        _, b0 = water_system(0.0, 8)
        assert b0[0] == -1.0 / math.sqrt(math.pi)
        assert b0[5] == -SQ2PI

    @pytest.mark.parametrize("K", [1, 4, 1024, 65536])
    def test_equals_the_cosine_evaluator_at_the_wave_maker_bitwise(self, K):
        omega, forcing = water_system(0.0, K)
        assert forcing.tobytes() == (-_phi(np.arange(K + 1), 0.0)).tobytes()
        assert omega.tobytes() == np.arange(K + 1.0).tobytes()
        with pytest.raises(ValueError, match="K must be >= 1"):
            water_system(0.0, 0)

    def test_forcing_converges_to_limit(self):
        _, b0 = water_system(0.0, 8)
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


def dual_norm_gap(mu, K):
    """The unscaled dual-norm forcing gap of `bmu_rate_table`'s row at mu."""
    row, _ = bmu_rate_table((mu,), K).rows
    return row.value * mu**0.25


class TestForcingGap:
    def test_nonnegative(self):
        assert dual_norm_gap(0.5, 32) >= 0.0

    def test_monotone_decreasing_and_frozen(self):
        # frozen from the closed-form forcing
        expected = {1e-2: 0.14322321193994964, 1e-3: 0.07346478958006918, 1e-4: 0.028232961988608023}
        gaps = []
        for mu in (1e-2, 1e-3, 1e-4):
            g = dual_norm_gap(mu, 256)
            gaps.append(g)
            assert g == pytest.approx(expected[mu], rel=1e-6)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_against_closed_form_oracle(self):
        for mu in (1e-2, 1e-4):
            k = np.arange(257)
            f_oracle = np.array([closed_form_forcing(mu, kk) if kk else -1 / math.sqrt(math.pi) for kk in k])
            b0 = -_phi(k, 0.0)
            oracle = norm(f_oracle - b0, -1.0)
            assert dual_norm_gap(mu, 256) == pytest.approx(oracle, rel=1e-12)
            # the weighted sum in the order of the norm, so the same bits
            row, _ = bmu_rate_table((mu,), 256).rows
            assert row.value == norm(water_system(mu, 256)[1] - water_system(0.0, 256)[1], -1.0) * mu ** (-0.25)


@settings(deadline=None)
@given(
    log_mu=st.floats(-300.0, 0.0),
    log_k=st.floats(0.0, 6.0),
    log_l=st.floats(0.0, math.log10(5000.0)),
)
def test_closed_lateral_sum_within_series_certificate(log_mu, log_k, log_l):
    mu = 10.0**log_mu
    k = np.array([10.0**log_k])
    L = min(5000, round(10.0**log_l))
    (closed,) = comparison_kernels(mu, k).H_sum
    (series,), tail = kernel_H_sum(mu, k, L)
    # the production series, and the same series summed term by term apart from the package
    (direct,) = 4.0 * mu / math.pi**2 * direct_odd_sums(mu, k, L)
    for s in (series, direct):
        diff = closed - s
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


@settings(deadline=None)
@given(
    mu=st.one_of(st.floats(0.0, 1.0, exclude_min=True), st.floats(5e-324, 2.0**-1022), st.just(5e-324), st.just(1.0)),
    k=st.lists(st.one_of(st.floats(1.0, 1e12), st.just(1e12)), min_size=1, max_size=50),
)
def test_J_is_the_proofs_quotient_and_holds_its_proven_envelope(mu, k):
    # comparison_kernels' proof: with r = sqrt(h(sqrt(mu) k)), J = k (1-r)/(1 + k r) <= mu^1/4 k^1/2.  The quotient
    # agrees with the production J to its rounding, a few ulps of 1 + J; the envelope holds as the audit's ratio
    k = np.array(k)
    J = comparison_kernels(mu, k).J
    r = np.sqrt(_h(math.sqrt(mu) * k))
    assert np.all(np.abs(J - k * (1.0 - r) / (1.0 + k * r)) <= 8.0 * 2.0**-52 * (1.0 + J))
    assert np.max(np.abs(J) / (mu**0.25 * np.sqrt(k))) <= 1.0 + PROVEN_TOL


# the direct reference's block holds 2^16 values: max(1, 2^16 // L) rows of L terms
_BLOCK_VALUES = 1 << 16
_U = 2.0**-53


def _odd_sums_roundoff(L: int) -> float:
    """A relative bound, derived from the operations, on |_odd_sums - direct_odd_sums| / direct_odd_sums.

    Every number is positive or, in the tail series, alternating with ratio at
    most 1/4, and numpy sums a run of n values pairwise with at most
    log2(n) + 26 roundings along any path.  Counting roundings along a path:
    - reference: 2 per term (add, reciprocal) + the pairwise sum: log2(L) + 28;
    - head: the same, + 1 per further run of 2^16 terms: log2(L) + 29 + L / 2^16;
    - tail table T: 1 (c / (2l-1)^2) + 2n + 1 (the power by doubling)
      + 37 (pairwise over a block of 2^11 l) + L / 2^11 (blocks of a segment)
      + 4 per segment of the top-down combination (ratio, its weighted power, product, sum)
      + 1 (division by c); the dot with (-q)^n: 1 (q) + 2n (its power)
      + 1 (product) + 31 (pairwise over 28 terms).  Terms n >= 1 weigh at most
      4^-n, so the 4n roundings add at most 4 in all; the alternating sum has
      condition at most (4/3) / (3/4) < 2: 2 (78 + 4 log2(L) + L / 2^11);
    - head plus tail: 1.
    """
    log_l = math.log2(L)
    reference = log_l + 28
    head = log_l + 29 + L / 2**16
    tail = 2 * (78 + 4 * log_l + L / 2**11)
    return (reference + max(head, tail) + 1) * _U


def _modes_at_the_splits(mu: float, L: int) -> list:
    """For every split b = 2^j <= L: the last float mode with 4 y^2 <= (2b - 1)^2 and the first beyond it.

    y = 2 sqrt(mu) k / pi as `_odd_sums` rounds it, so these rows sit exactly
    at a split (q = 1/4 at l = b) when y lands on it, else one ulp either side.
    """
    scale = 2.0 * math.sqrt(mu) / math.pi
    if scale == 0.0:
        return []
    modes = []
    for j in range(L.bit_length()):
        c = (2.0 ** (j + 1) - 1.0) ** 2
        k = math.sqrt(c) / 2.0 / scale
        while 4.0 * (scale * k) ** 2 > c:
            k = math.nextafter(k, 0.0)
        while 4.0 * (scale * math.nextafter(k, math.inf)) ** 2 <= c:
            k = math.nextafter(k, math.inf)
        modes += [k, math.nextafter(k, math.inf)]
    return modes


@settings(deadline=None, max_examples=150)
@given(
    data=st.data(),
    mu=st.one_of(st.floats(1e-300, 1.0), st.floats(5e-324, 2.2e-308), st.just(1.0)),
    L=st.one_of(
        st.integers(1_000, 5_000),
        st.integers(_BLOCK_VALUES + 1, _BLOCK_VALUES + 5_000),
        st.builds(lambda p, d: max(1, 2**p + d), st.integers(0, 16), st.integers(-1, 1)),
    ),
)
def test_odd_sums_agree_with_the_direct_sum_within_roundoff(data, mu, L):
    # enough rows to span several of the reference's blocks, at most 300
    n = data.draw(st.integers(1, min(2 * max(1, _BLOCK_VALUES // L) + 1, 300)), label="number of k")
    drawn = data.draw(st.lists(st.integers(0, 10**4), min_size=n, max_size=n), label="k")
    # every split, rows of k = 0, and the drawn modes in drawn order
    k = np.array([0, *drawn, *_modes_at_the_splits(mu, L)], dtype=float)
    got, expected = _odd_sums(mu, k, L), direct_odd_sums(mu, k, L)
    assert got.shape == expected.shape
    np.testing.assert_array_less(np.abs(got - expected), _odd_sums_roundoff(L) * expected)


def test_odd_sums_agree_with_the_direct_sum_at_a_million_lateral_modes():
    L = 10**6
    for mu in (1.0, 1e-3, 1e-300):
        k = np.array([0.0, 1.0, 7.0, 1e3, 1e6, 3e6, *_modes_at_the_splits(mu, L)[::7]])
        got, expected = _odd_sums(mu, k, L), direct_odd_sums(mu, k, L)
        np.testing.assert_array_less(np.abs(got - expected), _odd_sums_roundoff(L) * expected)


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


def test_series_oracle_memory_does_not_grow_with_l_modes():
    # one block whatever l_modes is, the table of the tail sums included: the term-by-term sum needs 16 MB here
    k = np.geomspace(1.0, 1e4, 64)
    _tail_table.cache_clear()
    assert _peak_bytes(lambda: kernel_H_sum(1e-3, k, 1_000_000)) < 2e6
