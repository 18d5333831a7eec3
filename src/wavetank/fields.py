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

Both hyperbolic ratios are one kernel, `_decay`, in exponent-shifted form;
the naive cosh/sinh quotients overflow once sqrt(mu) k exceeds a few
hundred, while the shifted form uses only nonpositive exponents and stays
finite for any mu and mode index.  Where an exponent is below -746, `_exp`
writes exp's +0.0 without calling exp, whose underflow path is slow.

On the regular grid np.linspace(0, pi, nx) x np.linspace(-1, 0, ny)
(x_i = i pi/n, y_j + 1 = j/n) each field is a cosine series whose phases are
multiples of pi/(2n), and cos(k pi i/n) depends only on k mod 2n:
`_lattice_cosine_sum` folds the mode rows mod 2n and sums them with one real
FFT of length 2n per grid line, a DCT-I along x for the surface extension
and, with a half-sample twiddle, along y for the wave-maker extension.
`_lattice_fill` builds, folds and transforms the mode rows a block of
`_writer.block_rows(width)` grid lines at a time (width K+1 or n), so the
evaluation needs O(nx ny) memory plus one block, whatever the mode counts.
At any other points each field is one matrix product over the modes: the x
factors (`basis._phi`, or the lateral ratios) times the coefficient-scaled y
factors (the depth ratios, or `_psi`, the one evaluator of the lateral
family psi_k).  Both routes keep every partial sum below sum_k |b_k| for the
scaled coefficients b_k, so both stay finite whenever that sum does.

`write_field_csv` writes a field as x,y,value rows through `_writer.grid_rows`,
which formats each of the nx + ny grid coordinates once per file and the field
values with the writer's vectorized number format, a bounded block at a time.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.fft

from ._writer import block_rows, grid_rows, write_csv
from .basis import _SQRT_2_OVER_PI, _SQRT_PI, _phi

__all__ = ["dirichlet_extension", "neumann_extension", "write_field_csv"]


def _constant_profile(n: int) -> np.ndarray:
    """Lateral coefficients of v = 1 on [-1, 0]: <v, psi_k> = 2 sqrt(2) (-1)^(k+1) / ((2k-1) pi)."""
    k = np.arange(1, n + 1)
    return 2.0 * math.sqrt(2.0) * (-1.0) ** (k + 1) / ((2 * k - 1) * math.pi)


def _psi(n: int, y: np.ndarray) -> np.ndarray:
    """psi_k(y_j) for k = 1..n, points along axis 0 and modes along axis 1."""
    k = np.arange(1, n + 1)
    psi = np.multiply((2 * k - 1) * (math.pi / 2.0), y[:, None] + 1.0)
    np.cos(psi, out=psi)
    psi *= math.sqrt(2.0)
    return psi


def _exp(z: np.ndarray) -> np.ndarray:
    """exp(z) in z's own memory, bit for bit; below -746 it writes exp's +0.0 itself, as exp's path there is slow."""
    under = np.less(z, -746.0)
    np.exp(z, out=z, where=~under)
    np.copyto(z, 0.0, where=under)
    return z


def _one_plus_exp(z: np.ndarray) -> np.ndarray:
    """1 + exp(z), in z's own memory."""
    _exp(z)
    z += 1.0
    return z


def _decay(s: np.ndarray, rate: np.ndarray, span: float, den: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """coef exp(-rate s) (1 + exp(-2 rate (span - s))) / den, points s along axis 0 and modes along axis 1.

    The depth factors of `dirichlet_extension` take s = -y and span 1, the
    lateral ratios of `neumann_extension` s = x and span pi.
    """
    decay = _exp(np.multiply.outer(s, -rate))
    decay *= _one_plus_exp(np.multiply.outer(span - s, -2.0 * rate))
    decay /= den
    decay *= coef
    return decay


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


def _lattice_fill(out: np.ndarray, s: np.ndarray, rate: np.ndarray, span: float, den: np.ndarray,
                  coef: np.ndarray, odd: int) -> None:
    """out[i] = the lattice cosine sum of the `_decay` row at s[i]; a block of rows at a time, each freed as stored."""
    step = block_rows(coef.size)
    for i in range(0, s.size, step):
        out[i : i + step] = _lattice_cosine_sum(_decay(s[i : i + step], rate, span, den, coef), out.shape[1] - 1, odd)


def dirichlet_extension(eta: np.ndarray, mu: float, x, y) -> np.ndarray:
    """Surface extension field of the coefficients eta_0..eta_K at the tensor points (x_i, y_j), shape (nx, ny).

    Per mode the depth factor cosh[a(y+1)]/cosh(a), a = sqrt(mu) k, is computed
    as exp(a y) (1 + exp(-2a(y+1))) / (1 + exp(-2a)): all exponents <= 0.
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    a = math.sqrt(mu) * np.arange(eta.size)
    den = _one_plus_exp(-2.0 * a)
    if not _on_lattice(xa, 0.0, math.pi):
        return _phi(np.arange(eta.size), xa) @ _decay(-ya, a, 1.0, den, eta).T
    # phi_k(x_i) = phi_k(0) cos(k pi i/n)
    scaled = eta * _SQRT_2_OVER_PI
    scaled[0] = eta[0] / _SQRT_PI
    values = np.empty((xa.size, ya.size))
    _lattice_fill(values.T, -ya, a, 1.0, den, scaled, 0)
    return values


def neumann_extension(profile: np.ndarray, mu: float, x, y) -> np.ndarray:
    """Wave-maker extension field of the lateral coefficients v_1..v_n at the tensor points (x_i, y_j), shape (nx, ny).

    Per lateral mode the ratio cosh[c(x-pi)]/sinh(c pi) is computed as
    exp(-c x) (1 + exp(-2c(pi-x))) / (1 - exp(-2 c pi)); the field decays like
    exp(-c_1 x) away from the wave maker (boundary layer of width ~sqrt(mu)).
    """
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    ya = np.atleast_1d(np.asarray(y, dtype=float))
    odd = 2 * np.arange(1, profile.size + 1) - 1
    c = odd * math.pi / (2.0 * math.sqrt(mu))
    den = -np.expm1(-2.0 * c * math.pi)
    # a_k psi_k / sqrt(2), a_k = 2 sqrt(2 mu) v_k / ((2k-1) pi)
    amp = 2.0 * math.sqrt(mu) * profile / (odd * math.pi)
    if not _on_lattice(ya, -1.0, 0.0):
        return _decay(xa, c, math.pi, den, amp) @ _psi(profile.size, ya).T
    # psi_k(y_j) = sqrt(2) cos((2k-1) pi j/(2n))
    amp *= math.sqrt(2.0)
    values = np.empty((xa.size, ya.size))
    _lattice_fill(values, xa, c, math.pi, den, amp, 1)
    return values


def write_field_csv(values: np.ndarray, path, x: np.ndarray, y: np.ndarray) -> None:
    """Serialize values[i, j], the field at (x[i], y[j]), as x,y,value rows (x outer, y inner), 17 digits."""
    if values.shape != (x.size, y.size):
        raise ValueError(f"values shape {values.shape} does not match grid ({x.size}, {y.size})")
    if not np.all(np.isfinite(values)):
        raise ValueError("field values must be finite")
    write_csv(path, "x,y,value", grid_rows(x, y, values))
