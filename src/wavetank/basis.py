"""Cosine-mode arithmetic on [0, pi].

Everything in this package works with finite coefficient vectors against the
Neumann cosine family

    phi_0(x) = 1/sqrt(pi),      phi_k(x) = sqrt(2/pi) cos(k x)   (k >= 1),

which is orthonormal in L^2[0, pi].  This module holds the coefficient
vector, the resolution parameters and the mode-weighted norms in which
convergence is measured; a scale space is named by its exponent alpha, a
plain float.

The package's one cosine evaluator is `_phi` (the points-by-modes matrix
phi_k(x_i)), which `fields` uses, and `_readonly` gives the read-only views
that every frozen dataclass holds and the stepping kernel yields.
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
    "ModalVector",
    "norm",
    "sobolev_weights",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only view of a (no copy); a itself stays writeable."""
    view = a.view()
    view.flags.writeable = False
    return view


def _phi(k, x) -> np.ndarray:
    """phi_k(x) for a mode index k or an integer array of them; points x lead, modes k trail."""
    return np.where(k == 0, 1.0 / SQRT_PI, SQRT_2_OVER_PI * np.cos(np.multiply.outer(x, k)))


@dataclass(frozen=True)
class SpectralParams:
    """Resolution parameters shared by every series in the model.

    mu  -- shallowness parameter (squared depth-to-length ratio), in (0, 1]
    K   -- number of nonzero-frequency surface modes kept
    """

    mu: float
    K: int = 256

    def __post_init__(self):
        if not (isinstance(self.K, (int, np.integer)) and self.K >= 1):
            raise ValueError(f"K must be a positive integer, got {self.K!r}")
        if not (np.isfinite(self.mu) and 0.0 < self.mu <= 1.0):
            raise ValueError(f"mu must be in (0, 1], got {self.mu!r}")


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


def sobolev_weights(K: int, alpha: float) -> np.ndarray:
    """Per-mode weights of the scale norm: 1 for mode 0, (1+k)^(2 alpha) for k >= 1."""
    w = np.empty(K + 1)
    w[0] = 1.0
    k = np.arange(1, K + 1, dtype=float)
    w[1:] = (1.0 + k) ** (2.0 * alpha)
    return w


def norm(v: ModalVector, alpha: float) -> float:
    """Mode-weighted norm sqrt(|v_0|^2 + sum_k (1+k)^(2 alpha) |v_k|^2).

    alpha = 0 is the plain L^2 norm; alpha = 1/2 the half-order Sobolev
    representative used for the surface elevation.  alpha must be finite.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha!r}")
    w = sobolev_weights(v.K, alpha)
    return float(np.sqrt(np.sum(w * v.coeffs**2)))
