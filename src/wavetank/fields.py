"""Velocity-potential reconstruction inside the rectangle [0, pi] x [-1, 0].

Two separated-variable series extend boundary data into the tank:

  * the surface extension of a cosine mode,
        phi_k(x) cosh[sqrt(mu) k (y+1)] / cosh(sqrt(mu) k),
    matching the surface trace and flux-free on the other three walls;

  * the wave-maker extension of a lateral mode psi_k(y),
        a_k cosh[c_k (x-pi)] cos[(2k-1) (pi/2) (y+1)],   c_k = (2k-1) pi/(2 sqrt(mu)),
    vanishing on the surface and carrying the lateral flux -v at x = 0.

Both hyperbolic ratios are evaluated in exponent-shifted form; the naive
cosh/sinh quotients overflow once sqrt(mu) k exceeds a few hundred, while the
shifted forms use only nonpositive exponents and stay finite for any mu and
mode index.

Each field is one matrix product over the modes: the x factors (`basis._phi`,
or the lateral ratios) times the coefficient-scaled y factors (the depth
ratios, or `_psi`, the one evaluator of the lateral family psi_k).

`write_field_csv` writes a field as x,y,value rows through `_writer.grid_rows`,
which formats each of the nx + ny grid coordinates once per file and the field
values with the writer's vectorized number format, a bounded block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._writer import grid_rows, write_csv
from .basis import ModalVector, SpectralParams, _phi, _readonly

__all__ = [
    "FieldGrid",
    "LateralProfile",
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


@dataclass(frozen=True, eq=False)
class LateralProfile:
    """Wave-maker velocity profile by its coefficients in psi_k(y) = sqrt(2) cos[(2k-1)(pi/2)(y+1)]."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size < 1 or not np.all(np.isfinite(c)):
            raise ValueError("profile coefficients must be a finite 1-d sequence")
        object.__setattr__(self, "coeffs", _readonly(c.copy()))

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    @classmethod
    def constant(cls, amplitude: float, n_modes: int) -> "LateralProfile":
        """v = amplitude on [-1, 0]: <v, psi_k> = 2 sqrt(2) (-1)^(k+1) amplitude / ((2k-1) pi)."""
        k = np.arange(1, n_modes + 1)
        return cls(2.0 * math.sqrt(2.0) * (-1.0) ** (k + 1) * float(amplitude) / ((2 * k - 1) * math.pi))


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


def dirichlet_values(eta: ModalVector, params: SpectralParams, x, y) -> np.ndarray:
    """Surface extension field at the tensor points (x_i, y_j), shape (nx, ny).

    Per mode the depth factor cosh[a(y+1)]/cosh(a), a = sqrt(mu) k, is computed
    as exp(a y) (1 + exp(-2a(y+1))) / (1 + exp(-2a)): all exponents <= 0.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    k = np.arange(eta.K + 1)
    a = math.sqrt(params.mu) * k[:, None]
    depth = np.multiply(a, ya)
    np.exp(depth, out=depth)
    depth *= _one_plus_exp(np.multiply(-2.0 * a, ya + 1.0))
    depth /= 1.0 + np.exp(-2.0 * a)
    depth *= eta.coeffs[:, None]
    return _phi(k, xa) @ depth


def dirichlet_extension(eta: ModalVector, params: SpectralParams, grid: FieldGrid) -> FieldGrid:
    return FieldGrid(grid.x, grid.y, dirichlet_values(eta, params, grid.x, grid.y))


def neumann_values(profile: LateralProfile, params: SpectralParams, x, y) -> np.ndarray:
    """Wave-maker extension field at the tensor points (x_i, y_j), shape (nx, ny).

    Per lateral mode the ratio cosh[c(x-pi)]/sinh(c pi) is computed as
    exp(-c x) (1 + exp(-2c(pi-x))) / (1 - exp(-2 c pi)); the field decays like
    exp(-c_1 x) away from the wave maker (boundary layer of width ~sqrt(mu)).
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))[:, None]
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    odd = 2 * np.arange(1, profile.n_modes + 1) - 1
    c = odd * math.pi / (2.0 * math.sqrt(params.mu))
    ratio = np.multiply(-c, xa)
    np.exp(ratio, out=ratio)
    ratio *= _one_plus_exp(np.multiply(-2.0 * c, math.pi - xa))
    ratio /= -np.expm1(-2.0 * c * math.pi)
    # a_k psi_k / sqrt(2), a_k = 2 sqrt(2 mu) v_k / ((2k-1) pi)
    ratio *= 2.0 * math.sqrt(params.mu) * profile.coeffs / (odd * math.pi)
    return ratio @ _psi(profile.n_modes, ya).T


def neumann_extension(profile: LateralProfile, params: SpectralParams, grid: FieldGrid) -> FieldGrid:
    return FieldGrid(grid.x, grid.y, neumann_values(profile, params, grid.x, grid.y))


def write_field_csv(grid: FieldGrid, path) -> None:
    """Serialize a filled grid as x,y,value rows (x outer, y inner), 17 significant digits."""
    if grid.values is None:
        raise ValueError("grid has no values to serialize")
    write_csv(path, "x,y,value", grid_rows(grid.x, grid.y, grid.values))
