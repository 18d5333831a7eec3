"""Cosine-mode arithmetic on [0, pi].

Everything in this package works with finite coefficient arrays against the
Neumann cosine family

    phi_0(x) = 1/sqrt(pi),      phi_k(x) = sqrt(2/pi) cos(k x)   (k >= 1),

which is orthonormal in L^2[0, pi].  A function sum_k v_k phi_k is the plain
float64 array (v_0, ..., v_K) of its coefficients.  This module holds the
mode weights of the norms in which convergence is measured; a scale space is
named by its exponent alpha, a plain float.  The two resolution inputs are
plain values too: the shallowness mu in (0, 1] and the number K >= 1 of
nonzero-frequency modes kept, checked once by `cli.parse_config` where input
enters the program.

The package's one cosine evaluator is `_phi` (the points-by-modes matrix
phi_k(x_i)), which `fields` uses off its regular grid; `_readonly` gives the
read-only views that every frozen dataclass and the parsed initial data hold
and the stepping kernel yields, and `_aligned` the 64-byte-aligned buffers of
the one stepping kernel, the sweep's reduction and the CSV writer.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

__all__ = ["sobolev_weights"]


def _readonly(a: np.ndarray) -> np.ndarray:
    """A read-only view of a (no copy); a itself stays writeable."""
    view = a.view()
    view.flags.writeable = False
    return view


def _aligned(shape, dtype=np.float64) -> np.ndarray:
    """An empty array that starts on a 64-byte boundary: one cache line, one AVX-512 register.

    malloc promises 16 bytes only.  On an AVX-512 Xeon an elementwise ufunc
    over 7 x 1025 values runs a fifth to a third slower from a 16-, 32- or
    48-byte offset, so without this the speed of the stepping kernel
    (`evolution._rotate`, which both `simulate` and the sweep step through),
    the sweep's reduction and the CSV writer would depend on what the heap
    held before.
    """
    size, step = int(np.prod(shape)), np.dtype(dtype).itemsize
    raw = np.empty(size + 64 // step - 1, dtype)
    first = (-raw.ctypes.data % 64) // step
    return raw[first : first + size].reshape(shape)


def _phi(k, x) -> np.ndarray:
    """phi_k(x) for a mode index k or an integer array of them; points x lead, modes k trail."""
    phi = np.asarray(np.multiply.outer(x, k), dtype=float)
    np.cos(phi, out=phi)
    phi *= _SQRT_2_OVER_PI
    np.copyto(phi, 1.0 / _SQRT_PI, where=k == 0)
    return phi


def sobolev_weights(K: int, alpha: float) -> np.ndarray:
    """Per-mode weights of the scale norm: 1 for mode 0, (1+k)^(2 alpha) for k >= 1."""
    w = np.empty(K + 1)
    w[0] = 1.0
    k = np.arange(1, K + 1, dtype=float)
    w[1:] = (1.0 + k) ** (2.0 * alpha)
    return w
