"""Velocity-potential reconstruction inside the rectangle [0, pi] x [-1, 0].

Two separated-variable series extend boundary data into the tank:

  * the surface extension of a cosine mode,
        phi_k(x) cosh[sqrt(mu) k (y+1)] / cosh(sqrt(mu) k),
    matching the surface trace and flux-free on the other three walls;

  * the wave-maker extension of a lateral mode psi_k(y),
        a_k cosh[c_k (x-pi)] cos[(2k-1) (pi/2) (y+1)],   c_k = (2k-1) pi/(2 sqrt(mu)),
    vanishing on the surface and carrying the lateral flux -v at x = 0.

The boundary data are plain float64 arrays: the surface trace by its
coefficients eta_0..eta_K in the cosine basis, and the wave-maker profile v
by its coefficients v_1..v_n in psi_k(y) = sqrt(2) cos[(2k-1)(pi/2)(y+1)].
The `field` command's profile, v = 1, has them in closed form
(`_constant_profile`).

Both hyperbolic ratios are evaluated in exponent-shifted form; the naive
cosh/sinh quotients overflow once sqrt(mu) k exceeds a few hundred, while the
shifted forms use only nonpositive exponents and stay finite for any mu and
mode index.

On the regular grid of `FieldGrid.regular` (x_i = i pi/n, y_j + 1 = j/n) each
field is a cosine series whose phases are multiples of pi/(2n), and
cos(k pi i/n) depends only on k mod 2n: `_lattice_cosine_sum` folds the mode
rows mod 2n and sums them with one real FFT of length 2n per grid line, a
DCT-I along x for the surface extension and, with a half-sample twiddle,
along y for the wave-maker extension.  At any other points each field is one matrix
product over the modes: the x factors (`basis._phi`, or the lateral ratios)
times the coefficient-scaled y factors (the depth ratios, or `_psi`, the one
evaluator of the lateral family psi_k).  Both routes keep every partial sum
below sum_k |b_k| for the scaled coefficients b_k, so both stay finite
whenever that sum does.

`write_field_csv` writes a field as x,y,value rows through `_writer.grid_rows`,
which formats each of the nx + ny grid coordinates once per file and the field
values with the writer's vectorized number format, a bounded block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import numpy.fft

from ._writer import grid_rows, write_csv
from .basis import _SQRT_2_OVER_PI, _SQRT_PI, _phi, _readonly

__all__ = [
    "FieldGrid",
    "dirichlet_values",
    "dirichlet_extension",
    "neumann_values",
    "neumann_extension",
    "write_field_csv",
]


@dataclass(frozen=True, eq=False)
class FieldGrid:
    """Tensor grid in the rectangle; values[i, j] samples the field at (x[i], y[j])."""

    x: np.ndarray
    y: np.ndarray
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        y = np.atleast_1d(np.asarray(self.y, dtype=float))
        if x.size < 2 or y.size < 2:
            raise ValueError("grid needs nx, ny >= 2")
        if np.any(x < 0) or np.any(x > math.pi):
            raise ValueError("grid x must lie in [0, pi]")
        if np.any(y < -1) or np.any(y > 0):
            raise ValueError("grid y must lie in [-1, 0]")
        object.__setattr__(self, "x", _readonly(x))
        object.__setattr__(self, "y", _readonly(y))
        if self.values is not None:
            v = np.asarray(self.values, dtype=float)
            if v.shape != (x.size, y.size):
                raise ValueError(f"values shape {v.shape} does not match grid ({x.size}, {y.size})")
            if not np.all(np.isfinite(v)):
                raise ValueError("field values must be finite")
            object.__setattr__(self, "values", _readonly(v))

    @property
    def nx(self) -> int:
        return self.x.size

    @property
    def ny(self) -> int:
        return self.y.size

    @classmethod
    def regular(cls, nx: int, ny: int) -> "FieldGrid":
        """nx-by-ny grid including the boundary."""
        return cls(np.linspace(0.0, math.pi, nx), np.linspace(-1.0, 0.0, ny))


def _constant_profile(amplitude: float, n: int) -> np.ndarray:
    """Lateral coefficients of v = amplitude on [-1, 0]: <v, psi_k> = 2 sqrt(2) (-1)^(k+1) amplitude / ((2k-1) pi)."""
    k = np.arange(1, n + 1)
    return 2.0 * math.sqrt(2.0) * (-1.0) ** (k + 1) * float(amplitude) / ((2 * k - 1) * math.pi)


def _psi(n: int, y: np.ndarray) -> np.ndarray:
    """psi_k(y_j) for k = 1..n, points along axis 0 and modes along axis 1."""
    k = np.arange(1, n + 1)
    psi = np.multiply((2 * k - 1) * (math.pi / 2.0), y[:, None] + 1.0)
    np.cos(psi, out=psi)
    psi *= math.sqrt(2.0)
    return psi


def _one_plus_exp(z: np.ndarray) -> np.ndarray:
    """1 + exp(z), in z's own memory."""
    np.exp(z, out=z)
    z += 1.0
    return z


def _on_lattice(a: np.ndarray, start: float, stop: float) -> bool:
    """Whether a is bit for bit np.linspace(start, stop, a.size) with a.size >= 2."""
    return a.size >= 2 and np.array_equal(a, np.linspace(start, stop, a.size))


def _lattice_cosine_sum(b: np.ndarray, n: int, odd: int) -> np.ndarray:
    """sum_i b[r, i] cos((2i + odd) pi j/(2n)) for j = 0..n, shape (rows, n + 1); folds b in place.

    With theta_j = pi j/(2n) the term is Re[e^(i odd theta_j) e^(2 pi i ij/(2n))],
    so column i adds into slot i mod 2n and the sum is Re[e^(i odd theta_j) conj(F_j)],
    F the real FFT of length 2n of the fold along the contiguous axis.
    """
    period = 2 * n
    fold = b[:, :period]
    for start in range(period, b.shape[1], period):
        chunk = b[:, start : start + period]
        fold[:, : chunk.shape[1]] += chunk
    f = numpy.fft.rfft(fold, period)
    if not odd:
        return f.real
    theta = np.arange(n + 1) * (math.pi / period)
    return f.real * np.cos(theta) + f.imag * np.sin(theta)


def dirichlet_values(eta: np.ndarray, mu: float, x, y) -> np.ndarray:
    """Surface extension field of the coefficients eta_0..eta_K at the tensor points (x_i, y_j), shape (nx, ny).

    Per mode the depth factor cosh[a(y+1)]/cosh(a), a = sqrt(mu) k, is computed
    as exp(a y) (1 + exp(-2a(y+1))) / (1 + exp(-2a)): all exponents <= 0.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    k = np.arange(eta.size)
    a = math.sqrt(mu) * k
    depth = np.multiply.outer(ya, a)
    np.exp(depth, out=depth)
    depth *= _one_plus_exp(np.multiply.outer(ya + 1.0, -2.0 * a))
    depth /= 1.0 + np.exp(-2.0 * a)
    if not _on_lattice(xa, 0.0, math.pi):
        depth *= eta
        return _phi(k, xa) @ depth.T
    # phi_k(x_i) = phi_k(0) cos(k pi i/n)
    scaled = eta * _SQRT_2_OVER_PI
    scaled[0] = eta[0] / _SQRT_PI
    depth *= scaled
    return np.ascontiguousarray(_lattice_cosine_sum(depth, xa.size - 1, 0).T)


def dirichlet_extension(eta: np.ndarray, mu: float, grid: FieldGrid) -> FieldGrid:
    return FieldGrid(grid.x, grid.y, dirichlet_values(eta, mu, grid.x, grid.y))


def neumann_values(profile: np.ndarray, mu: float, x, y) -> np.ndarray:
    """Wave-maker extension field of the lateral coefficients v_1..v_n at the tensor points (x_i, y_j), shape (nx, ny).

    Per lateral mode the ratio cosh[c(x-pi)]/sinh(c pi) is computed as
    exp(-c x) (1 + exp(-2c(pi-x))) / (1 - exp(-2 c pi)); the field decays like
    exp(-c_1 x) away from the wave maker (boundary layer of width ~sqrt(mu)).
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    odd = 2 * np.arange(1, profile.size + 1) - 1
    c = odd * math.pi / (2.0 * math.sqrt(mu))
    ratio = np.multiply(-c, xa)
    np.exp(ratio, out=ratio)
    ratio *= _one_plus_exp(np.multiply(-2.0 * c, math.pi - xa))
    ratio /= -np.expm1(-2.0 * c * math.pi)
    # a_k psi_k / sqrt(2), a_k = 2 sqrt(2 mu) v_k / ((2k-1) pi)
    amp = 2.0 * math.sqrt(mu) * profile / (odd * math.pi)
    if not _on_lattice(ya, -1.0, 0.0):
        ratio *= amp
        return ratio @ _psi(profile.size, ya).T
    # psi_k(y_j) = sqrt(2) cos((2k-1) pi j/(2n))
    ratio *= amp * math.sqrt(2.0)
    return _lattice_cosine_sum(ratio, ya.size - 1, 1)


def neumann_extension(profile: np.ndarray, mu: float, grid: FieldGrid) -> FieldGrid:
    return FieldGrid(grid.x, grid.y, neumann_values(profile, mu, grid.x, grid.y))


def write_field_csv(grid: FieldGrid, path) -> None:
    """Serialize a filled grid as x,y,value rows (x outer, y inner), 17 significant digits."""
    if grid.values is None:
        raise ValueError("grid has no values to serialize")
    write_csv(path, "x,y,value", grid_rows(grid.x, grid.y, grid.values))
