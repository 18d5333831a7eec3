"""Cosine-mode arithmetic on [0, pi].

Everything in this package works with finite coefficient vectors against the
Neumann cosine family

    phi_0(x) = 1/sqrt(pi),      phi_k(x) = sqrt(2/pi) cos(k x)   (k >= 1),

which is orthonormal in L^2[0, pi].  This module provides basis evaluation,
projection by composite Simpson quadrature, and the mode-weighted norms in
which convergence is measured.

The package's one cosine evaluator is `_phi` (the points-by-modes matrix
phi_k(x_i)), its one Simpson rule `_simpson`, and `_readonly` freezes the
arrays of every frozen dataclass; `fields` uses all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT_PI = math.sqrt(math.pi)
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

__all__ = [
    "SQRT_PI",
    "SQRT_2_OVER_PI",
    "SpectralParams",
    "SobolevScale",
    "ModalVector",
    "eval_basis",
    "eval_function",
    "project",
    "norm",
    "sobolev_weights",
    "quadrature_nodes",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    """Mark a read-only in place (no copy) and return it."""
    a.flags.writeable = False
    return a


def _phi(k, x) -> np.ndarray:
    """phi_k(x) for a mode index k or an integer array of them; points x lead, modes k trail."""
    return np.where(k == 0, 1.0 / SQRT_PI, SQRT_2_OVER_PI * np.cos(np.multiply.outer(x, k)))


def _simpson(a: float, b: float, n_panels: int):
    """Composite Simpson rule on [a, b] with an even number of uniform panels: (nodes, weights)."""
    x = np.linspace(a, b, n_panels + 1)
    w = np.ones(n_panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= ((b - a) / n_panels) / 3.0
    return x, w


@dataclass(frozen=True)
class SpectralParams:
    """Resolution parameters shared by every series in the model.

    mu       -- shallowness parameter (squared depth-to-length ratio), in (0, 1]
    K        -- number of nonzero-frequency surface modes kept
    L_modes  -- truncation of the lateral-mode sums feeding the wave-maker term
    """

    mu: float
    K: int = 256
    L_modes: int = 10_000

    def __post_init__(self):
        if not (isinstance(self.K, (int, np.integer)) and self.K >= 1):
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        if not (isinstance(self.L_modes, (int, np.integer)) and self.L_modes >= 1):
            raise ValueError(f"L_modes must be a positive integer, got {self.L_modes!r}")
        if not (np.isfinite(self.mu) and 0.0 < self.mu <= 1.0):
            raise ValueError(f"mu must be in (0, 1], got {self.mu!r}")


@dataclass(frozen=True)
class SobolevScale:
    """Order of a mode-weighted scale space; the weight of mode k >= 1 is (1+k)^(2 alpha)."""

    alpha: float

    def __post_init__(self):
        if not np.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")


@dataclass(frozen=True, eq=False)
class ModalVector:
    """Coefficients (v_0, ..., v_K) of a function sum_k v_k phi_k on [0, pi]."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=float))
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a one-dimensional, nonempty sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coeffs", _readonly(c.copy()))

    @property
    def K(self) -> int:
        """Largest retained mode index."""
        return self.coeffs.size - 1

    @classmethod
    def zeros(cls, K: int) -> "ModalVector":
        return cls(np.zeros(K + 1))

    @classmethod
    def unit(cls, k: int, K: int) -> "ModalVector":
        """Unit coefficient on mode k, all other modes zero."""
        if not 0 <= k <= K:
            raise ValueError(f"mode index {k} outside 0..{K}")
        c = np.zeros(K + 1)
        c[k] = 1.0
        return cls(c)

    def __add__(self, other: "ModalVector") -> "ModalVector":
        return ModalVector(self.coeffs + _same_length(self, other).coeffs)

    def __sub__(self, other: "ModalVector") -> "ModalVector":
        return ModalVector(self.coeffs - _same_length(self, other).coeffs)

    def __mul__(self, scalar: float) -> "ModalVector":
        return ModalVector(self.coeffs * float(scalar))

    __rmul__ = __mul__


def _same_length(a: ModalVector, b: ModalVector) -> ModalVector:
    if a.K != b.K:
        raise ValueError(f"mode count mismatch: K={a.K} vs K={b.K}")
    return b


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


def quadrature_nodes(K: int):
    """Composite Simpson rule on [0, pi] with 4K+1 uniform nodes.

    4K panels give at least four points per wavelength for mode K, so products
    of any two retained modes (frequency at most 2K) are integrated exactly up
    to roundoff.  Returns (nodes, weights).
    """
    return _simpson(0.0, math.pi, 4 * K)


def project(f, params: SpectralParams) -> ModalVector:
    """Project a function on [0, pi] onto modes 0..K by Simpson quadrature.

    f may be vectorized over numpy arrays or accept scalars only.
    """
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


def sobolev_weights(K: int, alpha: float) -> np.ndarray:
    """Per-mode weights of the scale norm: 1 for mode 0, (1+k)^(2 alpha) for k >= 1."""
    w = np.empty(K + 1)
    w[0] = 1.0
    k = np.arange(1, K + 1, dtype=float)
    w[1:] = (1.0 + k) ** (2.0 * alpha)
    return w


def norm(v: ModalVector, scale) -> float:
    """Mode-weighted norm sqrt(|v_0|^2 + sum_k (1+k)^(2 alpha) |v_k|^2).

    alpha = 0 is the plain L^2 norm; alpha = 1/2 the half-order Sobolev
    representative used for the surface elevation.  `scale` may be a
    SobolevScale or a bare exponent.
    """
    alpha = scale.alpha if isinstance(scale, SobolevScale) else float(scale)
    w = sobolev_weights(v.K, alpha)
    return float(np.sqrt(np.sum(w * v.coeffs**2)))
