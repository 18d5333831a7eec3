"""Time evolution of the tank and its zero-depth limit in modal form.

Both systems decouple mode by mode.  The state is the paper's
z = (zeta, d(zeta)/dt), and each cosine mode k is the forced oscillator

    zeta_k'' + omega_k^2 zeta_k = f_k u,

where omega_k is the mode frequency (k sqrt(h(sqrt(mu) k)) for the tank, k for
the limit string, so omega_0 = 0) and f_k the wave-maker forcing
coefficient.  For input u held constant over a step of length dt the step is
exact, one 2x2 map per mode:

    zeta'   = c zeta   + S zeta_t + f Q u,
    zeta_t' = c zeta_t - W zeta   + f S u,

    c = cos(omega dt),  S = sin(omega dt)/omega,  W = omega sin(omega dt),
    Q = 2 sin(omega dt/2)^2 / omega^2 = (1 - c)/omega^2.

At omega = 0 the coefficients take their limits c = 1, S = dt, W = 0 and
Q = dt^2/2, so mode 0, which carries no restoring force, is the same map: the
exact quadratic in t.  With u = 0 the map conserves
E = ||zeta_t||^2 + ||omega zeta||^2, so E is conserved to roundoff whatever dt.

A system is the pair (omega, forcing) of (K+1)-arrays that `water_system`
and `limit_system` return, and an input is dt together with the runs
(u, count) of constant u that it holds, in step order: u_m on
[m dt, (m+1) dt), step by step.

All stepping goes through one private generator, `_propagate`.  It fills
(n_sys, K+1) buffers with the initial data, computes the coefficients once
and the u terms once per run, steps in place without allocating and yields
read-only views of the buffers
after every step (two tuples of them, built once, one per parity of the step
count), so a caller reduces them in O(n_sys K) memory (the sweep) or copies
them into one reused block of rows, O(rows K) (`simulate`, through `_rows`).
"""

from __future__ import annotations

import numpy as np

from .basis import _aligned, _readonly
from .operators import _h, limit_forcing

__all__ = [
    "water_system",
    "limit_system",
]


def water_system(mu: float, K: int):
    """(omega, forcing) of the tank at shallowness mu, modes 0..K.

    omega_k = k sqrt(h(sqrt(mu) k)) and f_k = -phi_k(0) h(sqrt(mu) k), from one
    evaluation of h.
    """
    k = np.arange(K + 1, dtype=float)
    h = _h(np.sqrt(mu) * k)
    return k * np.sqrt(h), limit_forcing(K) * h


def limit_system(K: int):
    """(omega, forcing) of the zero-depth limit: the string with omega_k = k and point-mass forcing."""
    return np.arange(K + 1, dtype=float), limit_forcing(K)


def _propagate(zeta0: np.ndarray, zeta1: np.ndarray, systems, runs, dt):
    """The stepping loop: exact steps of a batch of systems from the same data under one input.

    Every system starts from zeta = zeta0 and zeta_t = zeta1 and is stepped
    with u held at each run's u for its count of steps.  Yields (zeta, zeta_t),
    each of shape (n_sys, K+1), at t = 0, dt, ..., n dt, n the total count.
    They are read-only views of buffers that the next step overwrites, so a
    consumer that keeps a sample copies it.  zeta0 and zeta1 are the
    coefficient arrays of modes 0..K; ValueError if they and a system
    disagree on K.

    Each step maps a whole contiguous (zeta, zeta_t) pair of buffers into a
    second pair, and the pairs swap.  The u terms (f Q) u and (f S) u are
    formed once per run, and a term whose every entry is -0.0 is not added:
    x + (-0.0) is x for every float x, signed zeros included.  Tank and string
    have f < 0 and Q >= 0, so (f Q) u is all -0.0 on a run of u = 0.0.  Every
    sample is bit-identical to the plain per-step formula
    zeta' = (c zeta + S zeta_t) + (f Q) u, zeta_t' = (c zeta_t - W zeta) + (f S) u.
    """
    for w, _ in systems:
        if not zeta0.shape == zeta1.shape == w.shape:
            raise ValueError(
                f"mode count mismatch: zeta0 K={zeta0.size - 1}, zeta1 K={zeta1.size - 1}, system K={w.size - 1}"
            )
    shape = (len(systems), zeta0.size)
    zeta, zeta_t, zeta_n, zeta_t_n, c, S, W, fQ, fS, gQ, gS, term = (_aligned(shape) for _ in range(12))
    omega = np.stack([w for w, _ in systems])
    forcing = np.stack([f for _, f in systems])
    wdt, still = omega * dt, omega == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # omega = 0 takes the limits
        np.cos(wdt, out=c)
        S[...] = np.where(still, dt, np.sin(wdt) / omega)
        np.multiply(omega, np.sin(wdt), out=W)
        Q = np.where(still, 0.5 * dt * dt, 2.0 * np.square(np.sin(0.5 * wdt) / omega))
    np.multiply(forcing, Q, out=fQ)
    np.multiply(forcing, S, out=fS)
    zeta[...], zeta_t[...] = zeta0, zeta1
    # the samples after an even and after an odd number of steps
    views, spare = (tuple(map(_readonly, pair)) for pair in ((zeta, zeta_t), (zeta_n, zeta_t_n)))
    yield views
    for u, count in runs:
        add_Q = not _negative_zeros(np.multiply(fQ, u, out=gQ))
        add_S = not _negative_zeros(np.multiply(fS, u, out=gS))
        for _ in range(count):
            np.multiply(c, zeta, out=zeta_n)
            np.add(zeta_n, np.multiply(S, zeta_t, out=term), out=zeta_n)
            if add_Q:
                np.add(zeta_n, gQ, out=zeta_n)
            np.multiply(c, zeta_t, out=zeta_t_n)
            np.subtract(zeta_t_n, np.multiply(W, zeta, out=term), out=zeta_t_n)
            if add_S:
                np.add(zeta_t_n, gS, out=zeta_t_n)
            zeta, zeta_n, zeta_t, zeta_t_n = zeta_n, zeta, zeta_t_n, zeta_t
            views, spare = spare, views
            yield views


def _negative_zeros(a) -> bool:
    """Whether every entry of a is -0.0 (a NaN is nonzero)."""
    return bool(np.signbit(a).all()) and not a.any()


def _rows(zeta0: np.ndarray, zeta1: np.ndarray, runs, dt: float, system, rows: int):
    """One system's trajectory from (zeta0, zeta1) under the input runs, in blocks of at most `rows` samples.

    Every block is a view of one reused (rows, 2K+3) array whose row i is
    t_i, zeta_0..zeta_K, zeta_t_0..zeta_t_K; the next block overwrites it.
    ValueError names the first time at which the state is not finite.
    """
    n, width = sum(count for _, count in runs) + 1, system[0].size
    buf = np.empty((min(rows, n), 2 * width + 1))
    samples = _propagate(zeta0, zeta1, [system], runs, dt)
    for start in range(0, n, rows):
        block = buf[: min(rows, n - start)]
        np.multiply(dt, np.arange(start, start + len(block)), out=block[:, 0])
        for row, (z, z_t) in zip(block, samples):
            row[1 : width + 1], row[width + 1 :] = z[0], z_t[0]
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        if bad.size:
            raise ValueError(f"the state is not finite at t={block[bad[0], 0]:g}: the data or input overflow float64")
        yield block
