"""References the tests compare the package against, and builders that no command needs: pointwise basis
evaluation and Simpson projection, one-system stepping over the package's kernel, interior grids and lateral
profiles, the 5-point harmonicity residual, the lateral-series forcing with its certified tail, one-line
formulas of the comparison kernels, each evaluating h on its own, the two field extensions as broadcast
expressions, and the CSV writer's tables built all at once by exact integer arithmetic."""

import math

import numpy as np

from wavetank.basis import SQRT_2_OVER_PI, SQRT_PI, ModalVector, _phi
from wavetank.evolution import _blocks, _propagate
from wavetank.fields import FieldGrid, LateralProfile, _psi
from wavetank.operators import SeriesSum, _h, _odd_sums

# f_k = -FORCING_TAIL_CONST * _odd_sums(mu, k, inf) for k >= 1; dropping the
# lateral modes l > L changes f_k by at most FORCING_TAIL_CONST/(2L-1)
FORCING_TAIL_CONST = 8.0 * math.sqrt(2.0) / (math.sqrt(math.pi) * math.pi**2)


def _check_domain(x: np.ndarray):
    if np.any(x < 0.0) or np.any(x > math.pi):
        raise ValueError("x must lie in [0, pi]")


def eval_basis(k: int, x):
    """Evaluate phi_k at x (scalar or array), x in [0, pi]."""
    if k < 0:
        raise ValueError(f"mode index must be nonnegative, got {k}")
    xa = np.asarray(x, dtype=float)
    _check_domain(xa)
    out = _phi(k, xa)
    return float(out) if np.isscalar(x) or xa.ndim == 0 else out


def eval_function(v: ModalVector, x):
    """Evaluate sum_k v_k phi_k(x) for x in [0, pi]."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    _check_domain(xa)
    out = _phi(np.arange(v.K + 1), xa) @ v.coeffs
    return float(out[0]) if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def _simpson(a: float, b: float, n_panels: int):
    """Composite Simpson rule on [a, b] with an even number of uniform panels: (nodes, weights)."""
    x = np.linspace(a, b, n_panels + 1)
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= ((b - a) / n_panels) / 3.0
    return x, w


def quadrature_nodes(K: int):
    """Simpson rule on [0, pi] with 4K panels: exact to roundoff for products of modes up to K."""
    return _simpson(0.0, math.pi, 4 * K)


def project(f, params) -> ModalVector:
    """Project a function on [0, pi] onto modes 0..K by Simpson quadrature; f may accept scalars only."""
    x, w = quadrature_nodes(params.K)
    try:
        fx = np.asarray(f(x), dtype=float)
        if fx.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        fx = np.array([float(f(xi)) for xi in x])
    if not np.all(np.isfinite(fx)):
        raise ValueError("function samples must be finite")
    return ModalVector((w * fx) @ _phi(np.arange(params.K + 1), x))


def step(state, u: float, dt: float, system):
    """Advance one system's (alpha, beta, z0), as make_initial(zeta0, zeta1, [system]) returns them, one step
    of length dt with the input held at u."""
    *_, (zeta, alpha, beta) = _propagate(state, [system], [float(u)], float(dt))
    return alpha.copy(), beta.copy(), zeta[:, 0].copy()


def evolve(initial, signal, system):
    """(times, zeta, zeta_t) through the whole signal, sampled at t_i = i dt: what `simulate` streams."""
    return next(_blocks(initial, signal, system, signal.n_steps + 1))


def energy(state) -> float:
    """E = ||alpha||^2 + ||beta||^2 of (alpha, beta, z0); invariant under zero input."""
    alpha, beta, _ = state
    return float(np.sum(alpha**2) + np.sum(beta**2))


def interior(nx: int, ny: int) -> FieldGrid:
    """nx-by-ny uniform grid strictly inside the rectangle."""
    return FieldGrid(np.linspace(0.0, math.pi, nx + 2)[1:-1], np.linspace(-1.0, 0.0, ny + 2)[1:-1])


def lateral_unit(k: int, n_modes: int) -> LateralProfile:
    """The profile psi_k, in n_modes lateral modes."""
    return LateralProfile(np.eye(1, n_modes, k - 1)[0])


def lateral_projection(fn, n_modes: int) -> LateralProfile:
    """Project a function on [-1, 0] onto psi_1..psi_n_modes by Simpson quadrature on 4096 panels."""
    y, w = _simpson(-1.0, 0.0, 4096)
    return LateralProfile((w * np.array([float(fn(yi)) for yi in y])) @ _psi(n_modes, y))


def verify_harmonic(values_fn, params, x, y, h: float = 1e-3) -> float:
    """Max |mu d2/dx2 + d2/dy2| residual of values_fn(x, y) over the tensor points, by 5-point stencils.

    The residual of an exact separated solution is O(h^2); points must keep
    distance h from the boundary so the stencil stays inside the rectangle.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(xa - h < 0) or np.any(xa + h > math.pi) or np.any(ya - h < -1) or np.any(ya + h > 0):
        raise ValueError("stencil points must lie strictly inside the rectangle (margin h)")
    f0 = values_fn(xa, ya)
    d2x = (values_fn(xa + h, ya) - 2.0 * f0 + values_fn(xa - h, ya)) / h**2
    d2y = (values_fn(xa, ya + h) - 2.0 * f0 + values_fn(xa, ya - h)) / h**2
    return float(np.abs(params.mu * d2x + d2y).max())


def ntn_forcing(params, l_modes: int) -> SeriesSum:
    """Forcing coefficients f_k of modes 0..K by the lateral series: the reference of `wave_maker_forcing`.

    Mode 0 is the exact -1/sqrt(pi) (termwise integration, sum 1/(2l-1)^2 =
    pi^2/8); modes k >= 1 sum l_modes lateral terms, and tail_bound bounds the
    sup-over-k truncation error.
    """
    f = -FORCING_TAIL_CONST * _odd_sums(params.mu, np.arange(params.K + 1), l_modes)
    f[0] = -1.0 / math.sqrt(math.pi)
    return SeriesSum(f, FORCING_TAIL_CONST / (2.0 * l_modes - 1.0))


def _h_at(mu: float, k: np.ndarray) -> np.ndarray:
    return _h(math.sqrt(mu) * k)


# the comparison kernels at an array of modes k >= 1, one formula each: the
# references of the fields of `comparison_kernels`
KERNEL_FORMULAS = {
    "F": lambda mu, k: 1.0 / (1.0 + k**2) - 1.0 / (1.0 + k**2 * _h_at(mu, k)),
    "G": lambda mu, k: k / (1.0 + k**2) - np.sqrt(k**2 * _h_at(mu, k)) / (1.0 + k**2 * _h_at(mu, k)),
    "I": lambda mu, k: np.sqrt(_h_at(mu, k)) - 1.0,
    "J": lambda mu, k: (1.0 + k) / (1.0 + k * np.sqrt(_h_at(mu, k))) - 1.0,
    "H_sum": lambda mu, k: 0.5 * mu * _h_at(mu, k),
}


def dirichlet_reference(eta, params, x, y) -> np.ndarray:
    """`fields.dirichlet_values` as one broadcast expression, each step in a new array: its bitwise reference."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    k = np.arange(eta.K + 1)
    a = math.sqrt(params.mu) * k[:, None]
    depth = np.exp(a * ya) * (1.0 + np.exp(-2.0 * a * (ya + 1.0))) / (1.0 + np.exp(-2.0 * a))
    phi = np.where(k == 0, 1.0 / SQRT_PI, SQRT_2_OVER_PI * np.cos(np.multiply.outer(xa, k)))
    return phi @ (eta.coeffs[:, None] * depth)


def neumann_reference(profile, params, x, y) -> np.ndarray:
    """`fields.neumann_values` as one broadcast expression, each step in a new array: its bitwise reference."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    odd = 2 * np.arange(1, profile.n_modes + 1) - 1
    c = odd * math.pi / (2.0 * math.sqrt(params.mu))
    ratio = np.exp(-c * xa) * (1.0 + np.exp(-2.0 * c * (math.pi - xa))) / (-np.expm1(-2.0 * c * math.pi))
    amp = 2.0 * math.sqrt(params.mu) * profile.coeffs / (odd * math.pi)
    psi = math.sqrt(2.0) * np.cos(odd * (math.pi / 2.0) * (ya[:, None] + 1.0))
    return (ratio * amp) @ psi.T


def writer_tables(x0: int):
    """Per decimal exponent X in x0..-x0: 10**(16 - X) as hi + lo, and the '%.17g' layout at X.

    hi is correctly rounded and lo the correctly rounded rest.  The layout:
    prefix ('0.' to '0.000'), exponent suffix ('e-07', 'e+300'), each
    zero-padded to 5 bytes, the slot of '.' among the 18 slots that follow
    the prefix (18: none), and the digits that an integer part keeps.
    """
    n = 1 - 2 * x0
    hi, lo = np.empty((2, n))
    pre, suf = np.zeros((2, 5, n), np.uint8)
    dot, lead = np.empty((2, n), np.uint8)
    for i, X in enumerate(range(x0, 1 - x0)):
        num, den = 10 ** max(16 - X, 0), 10 ** max(X - 16, 0)
        hi[i] = num / den  # int / int is correctly rounded
        h_num, h_den = hi[i].as_integer_ratio()
        lo[i] = (num * h_den - h_num * den) / (den * h_den)
        p, s = b"", b""
        if X < -4 or X >= 17:
            s, dot[i], lead[i] = b"e%+03d" % X, 1, 1
        elif X < 0:
            p, dot[i], lead[i] = b"0." + b"0" * (-1 - X), 18, 0
        else:
            dot[i] = lead[i] = X + 1
        pre[: len(p), i] = list(p)
        suf[: len(s), i] = list(s)
    return hi, lo, pre, suf, dot, lead
