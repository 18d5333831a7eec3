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

so production code uses the closed forms: `evolution.water_system` builds the
forcing, the string's at mu = 0, and `comparison_kernels` the lateral sum
H_sum.  The truncated series `kernel_H_sum` is kept as an independent oracle:
it takes the lateral truncation l_modes and returns the pair (sum, certified
tail bound); the kernel audit checks the closed form against it.  The oracle
uses neither tanh nor any closed form.  With y = 2 sqrt(mu) k / pi it sums
1 / ((2l-1)^2 + y^2) directly for l below a split b, the smallest power of two
with 2b - 1 >= 2y, and the tail l >= b, where q = y^2 / (2l-1)^2 <= 1/4, as
the power series

    sum_{n<N} (-y^2)^n P_n(b),   P_n(b) = sum_{b<=l<=l_modes} (2l-1)^(-2(n+1)),

whose sums P_n are tabulated once per call and shared by every mu of it.  With
N = 28 even, the cut series undershoots by at most 4^-N P_0(b), below half an
ulp.  The comparison kernels F, G, I, J, all built by
`comparison_kernels` from one evaluation of h, quantify, mode by mode, how
far the tank's resolvents, square roots and forcing sit from their limits;
the convergence lab audits their proven envelopes.  Every function takes the
shallowness mu as a number or a column (n_mu, 1), whose row j is the call at
mu_j bit for bit, and those that build modes 0..K the mode count K.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = ["comparison_kernels", "kernel_H_sum"]


def _h(x):
    """tanh(x)/x extended continuously by h(0) = 1.  Decreasing on [0, inf)."""
    x = np.asarray(x, dtype=float)
    nz = x != 0.0
    out = np.tanh(x, out=np.empty_like(x))
    np.divide(out, x, where=nz, out=out)
    out[~nz] = 1.0
    return out


# values in one block of the lateral-series oracle: rows of direct terms, or the powers of a run of l
_BLOCK_VALUES = 1 << 16
# terms N of the power series in q <= 1/4 that sums the oracle's tail; even, so the cut series undershoots
_TAIL_TERMS = 28


def _odd_sums(mu, k: np.ndarray, L: int) -> np.ndarray:
    """sum_{l=1..L} 1 / ((2l-1)^2 + y^2) with y = 2 sqrt(mu) k / pi, for mu and an array of k that broadcast.

    Times 4 mu / pi^2 this is sum_{l<=L} H(k, l).  Factoring 4 mu / pi^2 out of
    every term keeps the squared lateral frequencies finite for every mu in (0, 1].
    Each row, of any mu, splits at b, the smallest power of two with 2b - 1 >= 2y,
    capped at L + 1.  The head l < b is summed directly, in blocks of at most 2^16
    terms of rows that share b, whatever their mu.  Every tail term has q = y^2 / (2l-1)^2 <= 1/4, so

        1 / ((2l-1)^2 + y^2) = sum_n (-y^2)^n (2l-1)^(-2(n+1)),
        tail = sum_{n<N} (-y^2)^n P_n(b),   P_n(b) = sum_{b<=l<=L} (2l-1)^(-2(n+1)),

    with P_n read from one `_tail_table(L)`, which every mu shares.  The series
    alternates with decreasing terms and N = 28 is even, so the cut series
    undershoots the tail by at most 4^-N P_0(b) <= 1.4e-17 P_0(b), below half an
    ulp of the sum.  Neither tanh nor any closed form enters: every number is a
    finite sum over l <= L.  The memory is one block, whatever L is.
    """
    if not (isinstance(L, (int, np.integer)) and L >= 1):
        raise ValueError(f"l_modes must be a positive integer, got {L!r}")
    L = int(L)
    c, table = _tail_table(L)
    y2 = (2.0 * np.sqrt(mu) / math.pi * np.asarray(k, dtype=float)) ** 2
    out, order = np.empty_like(y2), np.argsort(y2, axis=None)
    y2 = y2.ravel()[order]
    # each row's split s: b = 2^s with (2b - 1)^2 = c[s] >= 4 y^2, or b = L + 1 (no tail) at s = c.size; sorted, the
    # rows of a split are contiguous, and ends[s] counts the rows whose split is at most s
    split = np.searchsorted(c, 4.0 * y2)
    ends = np.searchsorted(split, np.arange(c.size + 1), side="right").tolist()
    # the tails, each as sum_n (-q)^n T[s, n] with q = y^2 / (2b - 1)^2 <= 1/4
    tail = split[: ends[-2]]
    powers = np.empty((tail.size, _TAIL_TERMS))
    powers[:, 0] = 1.0
    np.divide(-y2[: tail.size], c[tail], out=powers[:, 1])
    _fill_powers(powers[:, 1:].T)
    sums = np.zeros(y2.size)
    np.multiply(powers, table[tail], out=powers).sum(axis=1, out=sums[: tail.size])
    # the heads l < b
    for s in range(1, c.size + 1):
        rows = slice(ends[s - 1], ends[s])
        if rows.stop > rows.start:
            _add_heads(y2[rows], min((1 << s) - 1, L), sums[rows])
    np.put(out, order, sums)
    return out


def _add_heads(y2: np.ndarray, head: int, out: np.ndarray):
    """Add sum_{l<=head} 1 / ((2l-1)^2 + y2) to out, per y2, summing each run of 2^16 terms of a row pairwise.

    The squares (2l-1)^2 are formed per run of at most 2^16 l, and the terms
    in blocks of at most 2^16 values, by add and in-place reciprocal.
    """
    width = min(head, _BLOCK_VALUES)
    rows = _BLOCK_VALUES // width
    for first in range(1, head + 1, width):
        cols = (2.0 * np.arange(first, min(first + width, head + 1)) - 1.0) ** 2
        for i in range(0, y2.size, rows):
            terms = np.add(cols, y2[i : i + rows, None])
            out[i : i + rows] += np.reciprocal(terms, out=terms).sum(axis=1)


def _fill_powers(pw: np.ndarray):
    """Row n of pw becomes pw[0]^(n+1), in place, by doubling: each row is the product of two earlier ones."""
    done = 1
    while done < len(pw):
        more = min(done, len(pw) - done)
        np.multiply(pw[:more], pw[done - 1], out=pw[done : done + more])
        done += more


def _tail_table(L: int):
    """(c, T): the splits c_j = (2^(j+1) - 1)^2 and T[j, n] = c_j^n P_n(2^j), for every 2^j <= L.

    P_n(b) = sum_{b<=l<=L} (2l-1)^(-2(n+1)).  Segment by segment, the l of
    2^i <= l < 2^(i+1) enter as powers of c_i / (2l-1)^2 <= 1, so that no
    power underflows whatever L is, in chunks of at most 2^11 l (2^16 powers);
    a segment of 2^11 l or more starts on a multiple of 2^11, so its chunks are
    aligned.  The segments are then combined from the top down.  Built once
    per `_odd_sums` call, however many mu share it.
    """
    splits = L.bit_length()
    c = np.array([(2.0 ** (j + 1) - 1.0) ** 2 for j in range(splits)])
    # U[j, n] = sum_{i>=j} (c_j / c_i)^(n+1) sum_{l in segment i} (c_i / (2l-1)^2)^(n+1)
    U = np.zeros((splits, _TAIL_TERMS))
    width = _BLOCK_VALUES // 32  # 2^11 l, whose _TAIL_TERMS powers fit in one block
    powers = np.empty((_TAIL_TERMS, width))
    for i in range(splits):
        stop = min(2 << i, L + 1)
        for start in range(1 << i, stop, width):
            odd2 = (2.0 * np.arange(start, min(start + width, stop)) - 1.0) ** 2
            pw = powers[:, : odd2.size]
            np.divide(c[i], odd2, out=pw[0])
            _fill_powers(pw)
            U[i] += pw.sum(axis=1)
    ratios = np.empty((_TAIL_TERMS, splits - 1))
    np.divide(c[:-1], c[1:], out=ratios[0])
    _fill_powers(ratios)
    for j in range(splits - 2, -1, -1):
        U[j] += ratios[:, j] * U[j + 1]
    U /= c[:, None]
    return c, U


def _check_kernel_args(mu, k):
    ka = np.asarray(k, dtype=float)
    # nan fails both comparisons, so it is rejected with inf
    if ka.size and not (ka.min() >= 1.0 and ka.max() < math.inf):
        raise ValueError("comparison kernels are defined for k >= 1")
    if np.any(np.less(mu, 0.0)):
        raise ValueError(f"the shallowness mu must be >= 0, got {np.min(mu):g}")
    return ka


class _Kernels(NamedTuple):
    """The comparison kernels and the closed-form lateral sum at an array of modes k >= 1."""

    F: np.ndarray
    G: np.ndarray
    I: np.ndarray
    J: np.ndarray
    H_sum: np.ndarray


def comparison_kernels(mu, k) -> _Kernels:
    """Every comparison kernel at modes k >= 1, a row per mu for a column mu, from one evaluation of h(sqrt(mu) k).

    With s = k^2 h(sqrt(mu) k):
      F = 1/(1+k^2) - 1/(1+s)                  resolvent gap,     |F| <= sqrt(mu)/k
      G = k/(1+k^2) - sqrt(s)/(1+s)            square-root gap
      I = sqrt(h) - 1                          frequency gap,     |I| <= sqrt(mu) k
      J = (1+k)/(1 + k sqrt(h)) - 1            graph-norm gap,    0 <= J <= mu^1/4 k^1/2
      H_sum = (mu/2) h = sum_{l>=1} H(k, l)    the full lateral sum in closed form
    H_sum obeys the envelopes mu/2 and sqrt(mu)/(2k), so the audited 2 sqrt(mu)/k
    holds with a factor 4 to spare.  J's envelope: with x = sqrt(mu) k and
    r = sqrt(h(x)) <= 1, J = k (1-r)/(1 + k r) <= (1-r)/r = 1/sqrt(h) - 1, and
    1/h = x coth x = x + 2x/(e^(2x) - 1) <= 1 + x <= (1 + sqrt x)^2, so
    J <= sqrt(x) = mu^1/4 k^1/2.
    """
    ka = _check_kernel_args(mu, k)
    h = _h(np.sqrt(mu) * ka)
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


def kernel_H_sum(mu, k, l_modes: int):
    """(value, tail_bound): the truncated lateral sums sum_{l<=l_modes} H(k, l) at an array of modes k >= 1.

    This is the oracle for the closed form, the H_sum field of
    `comparison_kernels`: each full sum lies in [value, value + tail_bound],
    with tail_bound = 4 mu / (pi^2 (2 l_modes - 1)).  The dropped terms
    l > l_modes sum to at most half of tail_bound, since sum_{l>L} (2l-1)^-2
    <= 1 / (2 (2L - 1)); the other half covers the power-series cut of
    `_odd_sums`, at most 4^-28 pi^2 / 8 < 1.8e-17 in the same units, for every
    l_modes below 10^16.  The sums are those of `_odd_sums`, so the memory is
    one block, whatever l_modes is; a column mu (n_mu, 1) gets a row of value
    and of tail_bound per mu from one table of tail sums.
    """
    ka = _check_kernel_args(mu, k)
    scale = 4.0 * mu / math.pi**2
    return scale * _odd_sums(mu, ka, l_modes), scale / (2.0 * l_modes - 1.0)
