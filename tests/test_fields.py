import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetank.fields import (
    FieldGrid,
    _constant_profile,
    _psi,
    dirichlet_extension,
    dirichlet_values,
    neumann_extension,
    neumann_values,
    write_field_csv,
)

from oracles import (_simpson, dirichlet_reference, eval_basis, interior, lateral_projection, lateral_unit,
                     neumann_reference, ntn_forcing, quadrature_nodes, unit, verify_harmonic)

MU = 0.25


def one_sided_dy(values_fn, x, y0, h, into_domain):
    """Second-order one-sided d/dy at y0; into_domain = +1 means sample above y0."""
    s = into_domain
    f0 = values_fn(x, np.array([y0]))[:, 0]
    f1 = values_fn(x, np.array([y0 + s * h]))[:, 0]
    f2 = values_fn(x, np.array([y0 + 2 * s * h]))[:, 0]
    return s * (-3 * f0 + 4 * f1 - f2) / (2 * h)


def one_sided_dx(values_fn, x0, y, h, into_domain):
    s = into_domain
    f0 = values_fn(np.array([x0]), y)[0]
    f1 = values_fn(np.array([x0 + s * h]), y)[0]
    f2 = values_fn(np.array([x0 + 2 * s * h]), y)[0]
    return s * (-3 * f0 + 4 * f1 - f2) / (2 * h)


class TestGridAndProfile:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="pi"):
            FieldGrid(np.array([-0.1, 0.2]), np.array([-0.5, 0.0]))
        with pytest.raises(ValueError, match="-1, 0"):
            FieldGrid(np.array([0.1, 0.2]), np.array([-0.5, 0.5]))
        with pytest.raises(ValueError, match=">= 2"):
            FieldGrid(np.array([0.1]), np.array([-0.5, 0.0]))
        g = interior(50, 50)
        assert g.nx == g.ny == 50
        assert g.x[0] > 0 and g.x[-1] < math.pi
        with pytest.raises(ValueError, match="shape"):
            FieldGrid(np.array([0.5, 0.7]), np.array([-0.5, 0.0]), np.zeros((3, 2)))

    def test_profile_constant_coefficients(self):
        prof = _constant_profile(1.0, 4)
        k = np.arange(1, 5)
        expected = 2 * math.sqrt(2) * (-1.0) ** (k + 1) / ((2 * k - 1) * math.pi)
        np.testing.assert_allclose(prof, expected, rtol=1e-15)

    def test_profile_projection_roundtrip(self):
        prof = lateral_projection(
            lambda y: math.sqrt(2) * math.cos(3 * (math.pi / 2) * (y + 1)), 4
        )
        expected = np.zeros(4)
        expected[1] = 1.0  # psi_2 has frequency (2*2-1) = 3
        np.testing.assert_allclose(prof, expected, atol=1e-10)

    def test_profile_evaluate(self):
        prof = lateral_unit(1, 3)
        y = np.linspace(-1, 0, 5)
        expected = math.sqrt(2) * np.cos((math.pi / 2) * (y + 1))
        np.testing.assert_allclose(_psi(prof.size, y) @ prof, expected, rtol=1e-14)


class TestDirichletExtension:
    def test_zero_data(self):
        g = dirichlet_extension(np.zeros(9), MU, FieldGrid.regular(9, 7))
        assert np.all(g.values == 0.0)

    def test_surface_trace_exact(self):
        rng = np.random.default_rng(1)
        eta = rng.standard_normal(9)
        x = np.linspace(0, math.pi, 33)
        vals = dirichlet_values(eta, MU, x, np.array([0.0]))[:, 0]
        exact = sum(eta[k] * np.asarray(eval_basis(k, x)) for k in range(9))
        np.testing.assert_allclose(vals, exact, atol=1e-12)

    def test_corner_value(self):
        eta = unit(1, 2)
        val = dirichlet_values(eta, 1.0, np.array([0.0]), np.array([-1.0]))[0, 0]
        assert val == pytest.approx(math.sqrt(2 / math.pi) / math.cosh(1.0), rel=1e-14)

    def test_bottom_flux_vanishes(self):
        eta = unit(2, 4)
        x = np.linspace(0.3, 2.8, 9)
        dy = one_sided_dy(lambda xx, yy: dirichlet_values(eta, 0.5, xx, yy), x, -1.0, 1e-4, +1)
        assert np.abs(dy).max() < 1e-8

    def test_dtn_consistency(self):
        # surface flux projected on a mode recovers the eigenvalue
        eta = unit(1, 2)
        xq, wq = quadrature_nodes(64)
        dy = one_sided_dy(lambda xx, yy: dirichlet_values(eta, MU, xx, yy), xq, 0.0, 1e-4, -1)
        proj = float((dy * np.asarray(eval_basis(1, xq)) * wq).sum())
        assert proj == pytest.approx(math.sqrt(MU) * math.tanh(math.sqrt(MU)), abs=1e-8)


class TestNeumannExtension:
    def test_zero_profile(self):
        g = neumann_extension(np.zeros(3), MU, FieldGrid.regular(5, 5))
        assert np.all(g.values == 0.0)

    def test_surface_trace_vanishes(self):
        prof = _constant_profile(1.0, 16)
        x = np.linspace(0, math.pi, 21)
        vals = neumann_values(prof, MU, x, np.array([0.0]))[:, 0]
        assert np.abs(vals).max() < 1e-15

    def test_wavemaker_flux_reconstructs_profile(self):
        prof = lateral_unit(1, 1)
        y = np.linspace(-0.95, -0.05, 11)
        dx = one_sided_dx(lambda xx, yy: neumann_values(prof, MU, xx, yy), 0.0, y, 1e-4, +1)
        np.testing.assert_allclose(dx, -_psi(prof.size, y) @ prof, atol=1e-6)

    def test_far_wall_flux_vanishes(self):
        prof = lateral_unit(1, 1)
        y = np.linspace(-0.9, -0.1, 7)
        dx = one_sided_dx(lambda xx, yy: neumann_values(prof, MU, xx, yy), math.pi, y, 1e-4, -1)
        assert np.abs(dx).max() < 1e-10

    def test_ntn_consistency_matched_truncation(self):
        """Surface flux of the extension of v = 1, projected on phi_j, equals
        mu * f_j at the same lateral truncation; fine x-quadrature resolves the
        wave-maker boundary layers of every retained lateral mode."""
        L = 64
        prof = _constant_profile(1.0, L)
        xq, wq = _simpson(0.0, math.pi, 20000)
        dy = one_sided_dy(lambda xx, yy: neumann_values(prof, MU, xx, yy), xq, 0.0, 1e-4, -1)
        matched, matched_tail = ntn_forcing(MU, 8, L)
        full, _ = ntn_forcing(MU, 8, 10_000)
        # matched mode-0 reference: the truncated lateral sum (ntn_forcing pins
        # mode 0 to the closed form, which carries the full series)
        l = np.arange(1, L + 1, dtype=float)
        gamma2 = ((2 * l - 1) * math.pi / (2 * math.sqrt(MU))) ** 2
        f0_matched = -(2.0 / (MU * math.sqrt(math.pi))) * (1.0 / gamma2).sum()
        for j, ref in ((0, f0_matched), (1, matched[1]), (5, matched[5])):
            proj = float((dy * np.asarray(eval_basis(j, xq)) * wq).sum())
            assert proj == pytest.approx(MU * ref, abs=2e-5)
            # against the default truncation the gap is covered by the certificate
            assert abs(proj - MU * full[j]) <= MU * matched_tail + 2e-5

    def test_boundary_layer_decay(self):
        # for small mu the field is confined near the wave maker
        prof = lateral_unit(1, 1)
        vals = neumann_values(prof, 1e-4, np.array([0.0, 0.5, 1.0]), np.array([-0.5]))
        assert abs(vals[1, 0]) < abs(vals[0, 0]) * 1e-30
        assert abs(vals[2, 0]) < abs(vals[0, 0]) * 1e-60


class TestHarmonicity:
    def test_zero_field(self):
        res = verify_harmonic(lambda x, y: np.zeros((x.size, y.size)), MU, [1.0], [-0.5])
        assert res == 0.0

    def test_boundary_points_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            verify_harmonic(lambda x, y: np.zeros((x.size, y.size)), MU, [0.0], [-0.5], h=1e-3)

    def test_dirichlet_residual_second_order(self):
        eta = unit(1, 2)
        g = interior(20, 20)
        fn = lambda x, y: dirichlet_values(eta, MU, x, y)
        r1 = verify_harmonic(fn, MU, g.x, g.y, h=2e-3)
        r2 = verify_harmonic(fn, MU, g.x, g.y, h=1e-3)
        assert 3.5 < r1 / r2 < 4.5

    def test_neumann_residual_small(self):
        prof = lateral_unit(1, 1)
        g = interior(50, 50)
        fn = lambda x, y: neumann_values(prof, MU, x, y)
        assert verify_harmonic(fn, MU, g.x, g.y, h=1e-3) < 1e-6


class TestOverflowSafety:
    def test_extreme_shallowness_and_mode(self):
        eta = unit(10_000, 10_000)
        xs = np.array([0.0, 1e-3, math.pi / 2, math.pi])
        ys = np.array([-1.0, -0.5, -1e-3, 0.0])
        vals = dirichlet_values(eta, 1e-8, xs, ys)
        assert np.all(np.isfinite(vals))
        prof = lateral_unit(10_000, 10_000)
        vals = neumann_values(prof, 1e-8, xs, ys)
        assert np.all(np.isfinite(vals))

    @pytest.mark.parametrize("nx, ny", [(3, 3), (41, 23), (300, 300)])
    def test_regular_grid_sums_up_to_the_float64_maximum(self, nx, ny):
        # sum |c| just under the float64 maximum: the FFT's partial sums stay below it, as the product's do
        rng = np.random.default_rng(nx)
        c = rng.uniform(0.5, 1.0, 64) * rng.choice([-1.0, 1.0], 64)
        c *= 0.999 * np.finfo(float).max / np.abs(c).sum()
        x, y = np.linspace(0.0, math.pi, nx), np.linspace(-1.0, 0.0, ny)
        got = dirichlet_values(c, MU, x, y), neumann_values(c, MU, x, y)
        # a single point along the transform axis is off the lattice: the matrix product
        general = (np.vstack([dirichlet_values(c, MU, xi, y) for xi in x]),
                   np.hstack([neumann_values(c, MU, x, yj) for yj in y]))
        for fft, product in zip(got, general):
            assert np.all(np.isfinite(fft))
            assert np.all(np.abs(fft - product) <= 1e-13 * np.abs(c).sum())


def test_field_csv_format(tmp_path):
    g = FieldGrid(np.array([0.0, 1.0]), np.array([-1.0, 0.0]), np.array([[1.0, 2.0], [3.0, 4.5]]))
    path = tmp_path / "f.csv"
    write_field_csv(g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert lines[1] == "0,-1,1"
    assert lines[4] == "1,0,4.5"
    with pytest.raises(ValueError):
        write_field_csv(FieldGrid.regular(3, 3), tmp_path / "g.csv")


def _dirichlet_loop(eta, mu, x, y):
    """Per-mode reference for dirichlet_values (the loop it replaced)."""
    rmu = math.sqrt(mu)
    out = np.zeros((x.size, y.size))
    for k in range(eta.size):
        a = rmu * k
        depth = np.exp(a * y) * (1.0 + np.exp(-2.0 * a * (y + 1.0))) / (1.0 + math.exp(-2.0 * a))
        phi = np.full_like(x, 1.0 / math.sqrt(math.pi)) if k == 0 else math.sqrt(2.0 / math.pi) * np.cos(k * x)
        out += eta[k] * np.outer(phi, depth)
    return out


def _neumann_loop(profile, mu, x, y):
    """Per-mode reference for neumann_values (the loop it replaced)."""
    rmu = math.sqrt(mu)
    out = np.zeros((x.size, y.size))
    for i in range(profile.size):
        k = i + 1
        c = (2 * k - 1) * math.pi / (2.0 * rmu)
        ratio = np.exp(-c * x) * (1.0 + np.exp(-2.0 * c * (math.pi - x))) / (-math.expm1(-2.0 * c * math.pi))
        amp = 2.0 * math.sqrt(2.0 * mu) * profile[i] / ((2 * k - 1) * math.pi)
        out += amp * np.outer(ratio, np.cos((2 * k - 1) * (math.pi / 2.0) * (y + 1.0)))
    return out


def _assert_match_per_mode_loops(mu, x, y, eta, prof):
    got = dirichlet_values(eta, mu, x, y)
    assert np.abs(got - _dirichlet_loop(eta, mu, x, y)).max() <= 1e-13 * (1.0 + np.abs(eta).sum())
    got = neumann_values(prof, mu, x, y)
    assert np.abs(got - _neumann_loop(prof, mu, x, y)).max() <= 1e-13 * (1.0 + np.abs(prof).sum())


# (K, nx, ny, L) on the regular grid, which the fold-and-FFT route sums; the
# ids of the first two name K alone
@pytest.mark.parametrize("mu", [1.0, 1e-2, 1e-6, 1e-300])
@pytest.mark.parametrize(
    "K, nx, ny, L",
    [
        pytest.param(8, 41, 23, 8, id="8"),
        pytest.param(1024, 41, 23, 1024, id="1024"),
        pytest.param(1024, 300, 300, 512, id="1024-300x300-benchmark"),
        pytest.param(5000, 7, 9, 5000, id="5000-7x9-many-wraps"),
        pytest.param(3, 2, 2, 3, id="3-2x2-smallest"),
        pytest.param(8, 41, 50, 512, id="8-41x50-L512"),
    ],
)
def test_matrix_products_match_per_mode_loops(mu, K, nx, ny, L):
    rng = np.random.default_rng(K + round(-math.log10(mu)))
    x, y = np.linspace(0.0, math.pi, nx), np.linspace(-1.0, 0.0, ny)
    _assert_match_per_mode_loops(mu, x, y, rng.standard_normal(K + 1), rng.standard_normal(L))


@pytest.mark.parametrize("mu", [1.0, 1e-6])
def test_off_grid_points_match_per_mode_loops(mu):
    rng = np.random.default_rng(11)
    g = interior(40, 22)
    _assert_match_per_mode_loops(mu, g.x, g.y, rng.standard_normal(1025), rng.standard_normal(512))


@settings(deadline=None)
@given(
    mu=st.floats(1e-300, 1.0),
    K=st.integers(0, 300),
    L=st.integers(1, 300),
    nx=st.integers(2, 40),
    ny=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_regular_grid_fields_match_per_mode_loops(mu, K, L, nx, ny, seed):
    rng = np.random.default_rng(seed)
    x, y = np.linspace(0.0, math.pi, nx), np.linspace(-1.0, 0.0, ny)
    _assert_match_per_mode_loops(mu, x, y, rng.standard_normal(K + 1), rng.standard_normal(L))


@pytest.mark.parametrize("mu", [1.0, 1e-2, 1e-6])
@pytest.mark.parametrize("K, nx, ny", [(8, 41, 23), (1024, 300, 300)])
def test_fields_equal_their_broadcast_expressions_bitwise(mu, K, nx, ny):
    # off the regular lattice the fields are matrix products; on it they agree with these only to rounding
    rng = np.random.default_rng(K + nx)
    g = interior(nx, ny)
    eta = rng.standard_normal(K + 1)
    assert dirichlet_values(eta, mu, g.x, g.y).tobytes() == dirichlet_reference(eta, mu, g.x, g.y).tobytes()
    prof = rng.standard_normal(min(K, 512))
    assert neumann_values(prof, mu, g.x, g.y).tobytes() == neumann_reference(prof, mu, g.x, g.y).tobytes()
