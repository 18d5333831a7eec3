import math

import numpy as np
import pytest

from wavetank.basis import sobolev_weights

from oracles import eval_basis, eval_function, norm, project, quadrature_nodes, unit


def test_eval_basis_values():
    assert eval_basis(0, 0.3) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)
    assert eval_basis(1, 0.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15)
    # cos(pi) = -1
    assert eval_basis(2, math.pi / 2) == pytest.approx(-math.sqrt(2.0 / math.pi), rel=1e-12)


def test_eval_basis_domain_and_index_errors():
    with pytest.raises(ValueError):
        eval_basis(1, -0.1)
    with pytest.raises(ValueError):
        eval_basis(1, math.pi + 0.1)
    with pytest.raises(ValueError):
        eval_basis(-1, 0.5)
    with pytest.raises(ValueError):
        eval_function(np.zeros(3), np.array([0.5, 3.5]))


def test_eval_function_values():
    v = np.zeros(5)
    x = np.linspace(0, math.pi, 7)
    assert np.all(eval_function(v, x) == 0.0)
    const = np.array([math.sqrt(math.pi), 0.0, 0.0])
    assert eval_function(const, 1.234) == pytest.approx(1.0, rel=1e-15)
    e1 = unit(1, 3)
    assert eval_function(e1, math.pi) == pytest.approx(-math.sqrt(2.0 / math.pi), rel=1e-12)


def test_project_zero_and_constants():
    z = project(lambda x: np.zeros_like(x), 8)
    assert np.all(z == 0.0)
    one = project(lambda x: np.ones_like(x), 8)
    expected = np.zeros(9)
    expected[0] = math.sqrt(math.pi)
    np.testing.assert_allclose(one, expected, atol=1e-13)


def test_project_cosine():
    v = project(np.cos, 8)
    expected = np.zeros(9)
    expected[1] = math.sqrt(math.pi / 2.0)
    np.testing.assert_allclose(v, expected, atol=1e-12)


def test_project_scalar_only_callable():
    v = project(lambda x: float(np.cos(x)), 4)
    assert v[1] == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)


def test_project_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        project(lambda x: np.where(x > 1, np.inf, 1.0), 4)


def test_norm_examples():
    z = np.zeros(7)
    assert norm(z, 0.0) == 0.0
    assert norm(z, 1.7) == 0.0
    e1 = unit(1, 6)
    assert norm(e1, 0.0) == pytest.approx(1.0, rel=1e-15)
    e3 = unit(3, 6)
    assert norm(e3, 0.5) == pytest.approx(2.0, rel=1e-15)


def test_norm_mode0_weight_is_one_at_every_alpha():
    e0 = unit(0, 4)
    for alpha in (-1.0, -0.5, 0.0, 0.5, 2.0):
        assert norm(e0, alpha) == pytest.approx(1.0, rel=1e-15)


def test_norm_monotone_in_alpha():
    rng = np.random.default_rng(7)
    v = rng.standard_normal(33)
    alphas = (-1.0, -0.5, 0.0, 0.25, 0.5, 1.0)
    vals = [norm(v, a) for a in alphas]
    assert all(a <= b * (1 + 1e-15) for a, b in zip(vals, vals[1:]))


def test_orthonormality_under_quadrature():
    K = 64
    x, w = quadrature_nodes(K)
    basis = np.stack([np.asarray(eval_basis(k, x)) for k in range(K + 1)])
    gram = (basis * w) @ basis.T
    assert np.abs(gram - np.eye(K + 1)).max() < 1e-10


def test_projection_round_trip():
    K = 64
    rng = np.random.default_rng(11)
    v = rng.standard_normal(K + 1)
    back = project(lambda x: eval_function(v, x), K)
    assert np.abs(back - v).max() < 1e-8


def test_parseval():
    K = 48
    rng = np.random.default_rng(3)
    v = rng.standard_normal(K + 1)
    x, w = quadrature_nodes(K)
    quad = np.sum(w * eval_function(v, x) ** 2)
    assert quad == pytest.approx(norm(v, 0.0) ** 2, rel=1e-8)


def test_sobolev_weights_shape():
    w = sobolev_weights(5, 0.5)
    assert w[0] == 1.0
    np.testing.assert_allclose(w[1:], 1.0 + np.arange(1, 6))

