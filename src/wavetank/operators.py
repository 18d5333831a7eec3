"""Diagonal surface operators of the shallow tank and their zero-depth limits.

In the cosine basis every operator here is diagonal, so each is a plain
coefficient array over modes 0..K.  The surface-to-flux map of the tank has
eigenvalues

    lambda_k = sqrt(mu) k tanh(sqrt(mu) k),

and the wave-maker enters through a forcing coefficient per mode,

    f_k = <(1/mu) B 1, phi_k> = -(2 sqrt(2))/(mu sqrt(pi)) * sum_l H(k, l),
    H(k, l) = 1 / ( ((2l-1) pi / (2 sqrt(mu)))^2 + k^2 ),

whose zero-depth limit is the boundary point mass -delta_0 with coefficients
-phi_k(0).  The partial-fraction expansion of tanh (DLMF §4.36) sums the
lateral series exactly,

    sum_l H(k, l) = (mu/2) h(sqrt(mu) k),    f_k = -phi_k(0) h(sqrt(mu) k),
    h(x) = tanh(x)/x,

so production code uses the closed forms (`wave_maker_forcing`, and the
`H_sum` field of `comparison_kernels`).  The truncated series `kernel_H_sum`
is kept as an independent oracle: it takes the lateral truncation l_modes and
returns the pair (sum, certified tail bound); the kernel audit checks the
closed form against it.  The comparison kernels F, G, I, J, all built by
`comparison_kernels` from one evaluation of h, quantify, mode by mode, how
far the tank's resolvents, square roots and forcing sit from their limits;
the convergence lab audits their proven envelopes.  Every function takes the
shallowness mu, and those that build modes 0..K the mode count K, as plain
numbers.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .basis import _SQRT_2_OVER_PI, _SQRT_PI, _readonly, sobolev_weights

__all__ = [
    "limit_forcing",
    "comparison_kernels",
    "kernel_H_sum",
    "wave_maker_forcing",
    "bmu_dual_norm_gap",
]


def _h(x):
    """tanh(x)/x extended continuously by h(0) = 1.  Decreasing on [0, inf)."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0.0
    np.divide(np.tanh(x, where=nz, out=np.zeros_like(x)), x, where=nz, out=out)
    return out


def _odd_sums(mu: float, k: np.ndarray, L: int) -> np.ndarray:
    """sum_{l=1..L} 1 / ((2l-1)^2 + y^2) with y = 2 sqrt(mu) k / pi, for an array of k.

    Times 4 mu / pi^2 this is sum_{l<=L} H(k, l).  Factoring 4 mu / pi^2 out of
    every term keeps the squared lateral frequencies finite for every mu in (0, 1].
    The terms are formed in one reused block of max(1, 2^16 // L) rows of L
    values, by in-place add and reciprocal, so the memory is O(L) plus the
    block, and each row sums exactly as the lone row 1 / (odd2 + y^2) would.
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


def limit_forcing(K: int) -> np.ndarray:
    """Zero-depth forcing b0_k = -phi_k(0), the boundary point mass, for modes 0..K."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    b0 = np.full(K + 1, -_SQRT_2_OVER_PI)
    b0[0] = -1.0 / _SQRT_PI
    return b0


def _check_kernel_args(k):
    ka = np.asarray(k, dtype=float)
    # nan fails both comparisons, so it is rejected with inf
    if ka.size and not (ka.min() >= 1.0 and ka.max() < math.inf):
        raise ValueError("comparison kernels are defined for k >= 1")
    return ka


class _Kernels(NamedTuple):
    """The comparison kernels and the closed-form lateral sum at an array of modes k >= 1."""

    F: np.ndarray
    G: np.ndarray
    I: np.ndarray
    J: np.ndarray
    H_sum: np.ndarray


def comparison_kernels(mu: float, k) -> _Kernels:
    """Every comparison kernel at modes k >= 1, all from one evaluation of h(sqrt(mu) k).

    With s = k^2 h(sqrt(mu) k):
      F = 1/(1+k^2) - 1/(1+s)                  resolvent gap,     |F| <= sqrt(mu)/k
      G = k/(1+k^2) - sqrt(s)/(1+s)            square-root gap
      I = sqrt(h) - 1                          frequency gap,     |I| <= sqrt(mu) k
      J = (1+k)/(1 + k sqrt(h)) - 1            graph-norm gap
      H_sum = (mu/2) h = sum_{l>=1} H(k, l)    the full lateral sum in closed form
    H_sum obeys the envelopes mu/2 and sqrt(mu)/(2k), so the audited 2 sqrt(mu)/k
    holds with a factor 4 to spare.
    """
    ka = _check_kernel_args(k)
    h = _h(math.sqrt(mu) * ka)
    k2 = ka**2
    sig = k2 * h
    one_k2, one_sig = 1.0 + k2, 1.0 + sig
    root_h = np.sqrt(h)
    return _Kernels(
        F=1.0 / one_k2 - 1.0 / one_sig,
        G=ka / one_k2 - np.sqrt(sig) / one_sig,
        I=root_h - 1.0,
        J=(1.0 + ka) / (1.0 + ka * root_h) - 1.0,
        H_sum=0.5 * mu * h,
    )


def kernel_H_sum(mu: float, k, l_modes: int):
    """(value, tail_bound): the truncated lateral sums sum_{l<=l_modes} H(k, l) at an array of modes k >= 1.

    This is the oracle for the closed form, the H_sum field of
    `comparison_kernels`: each full sum lies in [value, value + tail_bound],
    with tail_bound = 4 mu / (pi^2 (2 l_modes - 1)).
    """
    ka = _check_kernel_args(k)
    scale = 4.0 * mu / math.pi**2
    return scale * _odd_sums(mu, ka, l_modes), scale / (2.0 * l_modes - 1.0)


def wave_maker_forcing(mu: float, K: int) -> np.ndarray:
    """Forcing coefficients f_k = -phi_k(0) h(sqrt(mu) k) for modes 0..K, in closed form.

    h(0) = 1 gives the exact mode-0 value -1/sqrt(pi).
    """
    k = np.arange(K + 1, dtype=float)
    return limit_forcing(K) * _h(math.sqrt(mu) * k)


def bmu_dual_norm_gap(mu: float, K: int) -> float:
    """Distance of the unit-input forcing from its zero-depth limit.

    Measured in the dual of the first-order scale space, realized with mode
    weights (1+k)^(-2) (exponent -1 in this package's weight family), the
    Fourier realization of the dual norm in which the forcing convergence is
    proved.  Mode 0 cancels exactly.
    """
    gap = wave_maker_forcing(mu, K) - limit_forcing(K)
    return float(np.sqrt(np.sum(_dual_weights(K) * gap**2)))


@functools.cache
def _dual_weights(K: int) -> np.ndarray:
    """sobolev_weights(K, -1.0), read-only: built once per K, however many mu share it."""
    return _readonly(sobolev_weights(K, -1.0))
