"""References the tests compare the package against, and builders that no command needs: pointwise basis
evaluation, unit modes, the mode-weighted norm and Simpson projection, a pulse's per-step input and the
conversions between per-step inputs and runs of constant input, one-system stepping over the package's
kernel, d'Alembert's solution of the string under a boundary pulse with its cosine coefficients in closed
form, interior grids and lateral profiles, the 5-point harmonicity residual, the lateral series summed term by
term and the forcing built on it with its certified tail, one-line formulas of the comparison kernels, each
evaluating h on its own, the two field extensions as broadcast expressions, and the CSV writer's tables built
all at once by exact integer arithmetic."""

import math

import numpy as np

from wavetank.basis import _SQRT_2_OVER_PI, _SQRT_PI, _phi, sobolev_weights
from wavetank.evolution import _rows
from wavetank.fields import FieldGrid, _psi
from wavetank.operators import _h

# f_k = -FORCING_TAIL_CONST * direct_odd_sums(mu, k, inf) for k >= 1; dropping the
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


def eval_function(v: np.ndarray, x):
    """Evaluate sum_k v_k phi_k(x) for x in [0, pi], v the coefficients of modes 0..K."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    _check_domain(xa)
    out = _phi(np.arange(v.size), xa) @ v
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


def norm(v: np.ndarray, alpha: float) -> float:
    """Mode-weighted norm sqrt(|v_0|^2 + sum_k (1+k)^(2 alpha) |v_k|^2) of the coefficients v of modes 0..K.

    alpha = 0 is the plain L^2 norm; alpha = 1/2 the half-order Sobolev
    representative used for the surface elevation.
    """
    return float(np.sqrt(np.sum(sobolev_weights(v.size - 1, alpha) * v**2)))


def unit(k: int, K: int) -> np.ndarray:
    """The coefficients of phi_k among modes 0..K."""
    return np.eye(1, K + 1, k)[0]


def project(f, K: int) -> np.ndarray:
    """Project a function on [0, pi] onto modes 0..K by Simpson quadrature; f may accept scalars only."""
    x, w = quadrature_nodes(K)
    try:
        fx = np.asarray(f(x), dtype=float)
        if fx.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        fx = np.array([float(f(xi)) for xi in x])
    if not np.all(np.isfinite(fx)):
        raise ValueError("function samples must be finite")
    return (w * fx) @ _phi(np.arange(K + 1), x)


def pulse_values(on: float, off: float, amplitude: float, dt: float, n_steps: int) -> np.ndarray:
    """The input u = amplitude on [on, off) and 0.0 elsewhere at the step starts m*dt, m < n_steps, one value
    per step: the per-step array that `make_signal`'s runs expand to (zero is amplitude 0.0, const:AMP the
    window [0, inf))."""
    t = np.arange(n_steps) * dt
    return np.where((t >= on) & (t < off), amplitude, 0.0)


def runs_of(values):
    """The runs (u, count) of a per-step input, consecutive values grouped by their bits, so 0.0 and -0.0 differ."""
    values = np.asarray(values, dtype=float)
    bits = values.view(np.uint64)
    edges = [0, *(np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist(), len(values)]
    return [(float(values[a]), b - a) for a, b in zip(edges, edges[1:]) if b > a]


def expand(runs) -> np.ndarray:
    """The per-step input of runs (u, count)."""
    return np.repeat(np.array([u for u, _ in runs], dtype=float), np.array([n for _, n in runs], dtype=int))


def step(state, u: float, dt: float, system):
    """Advance one system's state (zeta, zeta_t), two (K+1)-arrays, one step of length dt with the input held
    at u."""
    _, zeta, zeta_t = evolve(*map(np.asarray, state), [(float(u), 1)], float(dt), system)
    return zeta[1].copy(), zeta_t[1].copy()


def evolve(zeta0, zeta1, runs, dt, system):
    """(times, zeta, zeta_t) through the whole input runs (u, count), sampled at t_i = i dt: what `simulate`
    streams."""
    block = next(_rows(zeta0, zeta1, runs, dt, system, sum(count for _, count in runs) + 1))
    width = system[0].size
    return block[:, 0], block[:, 1 : width + 1], block[:, width + 1 :]


def energy(state, system) -> float:
    """E = ||zeta_t||^2 + ||omega zeta||^2 of the state (zeta, zeta_t); invariant under zero input."""
    zeta, zeta_t = state
    return float(np.sum(zeta_t**2) + np.sum((system[0] * zeta) ** 2))


def _volume(s, on: float, off: float, amplitude: float):
    """U(s), the integral from 0 to s of u = amplitude on [on, off) and 0 elsewhere (0 <= on < off <= inf)."""
    return amplitude * (np.clip(s, on, off) - on)


def string_dalembert(x, t: float, on: float, off: float, amplitude: float) -> np.ndarray:
    """Elevation zeta(x, t) of the string zeta_tt = zeta_xx on [0, pi] with zeta_x(0, t) = u(t),
    zeta_x(pi, t) = 0 and zero data, for u = amplitude on [on, off): d'Alembert's sum over reflections

        zeta(x, t) = -sum_{n>=0} [U(t - 2 n pi - x) + U(t - 2 (n+1) pi + x)],

    with U the integral of u from 0 (zero for negative arguments); terms with n > t / (2 pi) vanish."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for n in range(int(t // (2.0 * math.pi)) + 1):
        out -= _volume(t - 2.0 * n * math.pi - x, on, off, amplitude)
        out -= _volume(t - 2.0 * (n + 1) * math.pi + x, on, off, amplitude)
    return out


def string_dalembert_coeffs(K: int, t: float, on: float, off: float, amplitude: float) -> np.ndarray:
    """The cosine coefficients zeta_k(t), k = 0..K, of `string_dalembert`, in closed form.

    In <zeta, phi_k> put s for the argument of each reflection term.  Then
    cos(k x) = cos(k (t - s)) in both, and the ranges of s tile (-inf, t], so

        zeta_k(t) = -phi_k(0) int_{-inf}^t U(s) cos(k (t - s)) ds.

    U rises linearly on [on, e], e = min(max(t, on), off), and is constant
    after; by parts, with A the amplitude,

        zeta_k(t) = -phi_k(0) A (cos(k (t - e)) - cos(k (t - on))) / k^2    (k >= 1),
        zeta_0(t) = -phi_0(0) A (e - on) (2 t - on - e) / 2,

    so the volume of the elevation, sqrt(pi) zeta_0, is -int_0^t U(s) ds.
    """
    k = np.arange(1, K + 1, dtype=float)
    e = min(max(t, on), off)
    zeta = np.empty(K + 1)
    zeta[0] = -amplitude * (e - on) * (2.0 * t - on - e) / (2.0 * math.sqrt(math.pi))
    zeta[1:] = -math.sqrt(2.0 / math.pi) * amplitude * (np.cos(k * (t - e)) - np.cos(k * (t - on))) / k**2
    return zeta


def interior(nx: int, ny: int) -> FieldGrid:
    """nx-by-ny uniform grid strictly inside the rectangle."""
    return FieldGrid(np.linspace(0.0, math.pi, nx + 2)[1:-1], np.linspace(-1.0, 0.0, ny + 2)[1:-1])


def lateral_unit(k: int, n_modes: int) -> np.ndarray:
    """The profile psi_k, in n_modes lateral modes."""
    return np.eye(1, n_modes, k - 1)[0]


def lateral_projection(fn, n_modes: int) -> np.ndarray:
    """Project a function on [-1, 0] onto psi_1..psi_n_modes by Simpson quadrature on 4096 panels."""
    y, w = _simpson(-1.0, 0.0, 4096)
    return (w * np.array([float(fn(yi)) for yi in y])) @ _psi(n_modes, y)


def verify_harmonic(values_fn, mu, x, y, h: float = 1e-3) -> float:
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
    return float(np.abs(mu * d2x + d2y).max())


def direct_odd_sums(mu: float, k: np.ndarray, L: int) -> np.ndarray:
    """sum_{l=1..L} 1 / ((2l-1)^2 + y^2), y = 2 sqrt(mu) k / pi, term by term: the reference of `operators._odd_sums`.

    The terms are formed in one reused block of max(1, 2^16 // L) rows of L
    values, by in-place add and reciprocal, and each row is summed pairwise, so
    the memory is O(L) plus the block.
    """
    if not (isinstance(L, (int, np.integer)) and L >= 1):
        raise ValueError(f"l_modes must be a positive integer, got {L!r}")
    odd2 = (2.0 * np.arange(1, L + 1) - 1.0) ** 2
    y2 = (2.0 * math.sqrt(mu) / math.pi * np.asarray(k, dtype=float)) ** 2
    out = np.empty(y2.shape)
    rows = max(1, (1 << 16) // L)
    block = np.empty((min(rows, y2.size), L))
    for i in range(0, y2.size, rows):
        blk = np.add(odd2, y2[i : i + rows, None], out=block[: min(rows, y2.size - i)])
        np.reciprocal(blk, out=blk).sum(axis=1, out=out[i : i + rows])
    return out


def ntn_forcing(mu, K: int, l_modes: int):
    """(f, tail_bound): forcing coefficients f_k of modes 0..K by the lateral series, the reference of the
    closed-form forcing of `water_system`.

    Mode 0 is the exact -1/sqrt(pi) (termwise integration, sum 1/(2l-1)^2 =
    pi^2/8); modes k >= 1 sum l_modes lateral terms, and tail_bound bounds the
    sup-over-k truncation error.
    """
    f = -FORCING_TAIL_CONST * direct_odd_sums(mu, np.arange(K + 1), l_modes)
    f[0] = -1.0 / math.sqrt(math.pi)
    return f, FORCING_TAIL_CONST / (2.0 * l_modes - 1.0)


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


def dirichlet_reference(eta, mu, x, y) -> np.ndarray:
    """`fields.dirichlet_values` as one broadcast expression, each step in a new array: its bitwise reference."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    k = np.arange(eta.size)
    a = math.sqrt(mu) * k[:, None]
    depth = np.exp(a * ya) * (1.0 + np.exp(-2.0 * a * (ya + 1.0))) / (1.0 + np.exp(-2.0 * a))
    phi = np.where(k == 0, 1.0 / _SQRT_PI, _SQRT_2_OVER_PI * np.cos(np.multiply.outer(xa, k)))
    return phi @ (eta[:, None] * depth)


def neumann_reference(profile, mu, x, y) -> np.ndarray:
    """`fields.neumann_values` as one broadcast expression, each step in a new array: its bitwise reference."""
    xa = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    odd = 2 * np.arange(1, profile.size + 1) - 1
    c = odd * math.pi / (2.0 * math.sqrt(mu))
    ratio = np.exp(-c * xa) * (1.0 + np.exp(-2.0 * c * (math.pi - xa))) / (-np.expm1(-2.0 * c * math.pi))
    amp = 2.0 * math.sqrt(mu) * profile / (odd * math.pi)
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
