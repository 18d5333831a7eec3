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

All stepping goes through one private generator, `_propagate`.  It holds a
batch of systems as one stacked (2, n_sys, m) state, the elevation rows over
the velocity rows, computes the coefficients once and the u terms once per
run, steps between two such buffers without allocating and yields a
read-only view of the current one after every step.  The elevation rows may
carry a per-mode scale s, which turns a weighted norm of the elevation into
a plain sum of squares.  A caller reduces the samples in O(n_sys K) memory
(the sweep, which steps modes 1..K with s = sqrt(1+k)) or copies them into
one reused block of rows, O(rows K) (`simulate`, through `_rows`).
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


def _propagate(zeta0: np.ndarray, zeta1: np.ndarray, systems, runs, dt, scale=1.0):
    """The stepping loop: exact steps of a batch of systems from the same data under one input.

    Every system starts from zeta = zeta0 and zeta_t = zeta1 and is stepped
    with u held at each run's u for its count of steps.  Yields the stacked
    state Z of shape (2, n_sys, m) at t = 0, dt, ..., n dt, n the total count:
    Z[0] = s zeta and Z[1] = zeta_t, where s = scale, a float or one elevation
    weight per mode, is 1 by default.  Z is a read-only view of a buffer that
    the next step overwrites, so a consumer that keeps a sample copies it.
    zeta0 and zeta1 are the coefficients of the m modes stepped; ValueError if
    they and a system disagree on m.

    Each step maps Z into a second buffer as Z' = c Z + M Z[::-1] (+ G), one
    multiply-add pass over the whole stack each, with M = [S s, -W/s] and
    G = u [f Q s, f S], and the buffers swap; the cos row c is held once per
    system and broadcast over both halves.  G is formed once per run and not
    added when its every entry is -0.0: x + (-0.0) is x for every float x,
    signed zeros included, and c zeta_t + (-W) zeta is c zeta_t - W zeta.
    With s = 1 every sample is bit-identical to the plain per-step formula
    zeta' = (c zeta + S zeta_t) + (f Q) u, zeta_t' = (c zeta_t - W zeta) + (f S) u.
    """
    for w, _ in systems:
        if not zeta0.shape == zeta1.shape == w.shape:
            raise ValueError(
                f"mode count mismatch: zeta0 K={zeta0.size - 1}, zeta1 K={zeta1.size - 1}, system K={w.size - 1}"
            )
    shape = (2, len(systems), zeta0.size)
    Z, Z_n, M, G, term = (_aligned(shape) for _ in range(5))
    c = _aligned(shape[1:])
    omega = np.stack([w for w, _ in systems])
    forcing = np.stack([f for _, f in systems])
    wdt, still = omega * dt, omega == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):  # omega = 0 takes the limits
        np.cos(wdt, out=c)
        S = np.where(still, dt, np.sin(wdt) / omega)
        W = omega * np.sin(wdt)
        Q = np.where(still, 0.5 * dt * dt, 2.0 * np.square(np.sin(0.5 * wdt) / omega))
    M[0], M[1] = S * scale, -W / scale
    u_terms = np.stack([forcing * Q * scale, forcing * S])
    Z[0], Z[1] = zeta0 * scale, zeta1
    # each buffer with its halves swapped and its read-only view
    state, spare = ((z, z[::-1], _readonly(z)) for z in (Z, Z_n))
    yield state[2]
    for u, count in runs:
        add = not _negative_zeros(np.multiply(u_terms, u, out=G))
        for _ in range(count):
            (z, swapped, _), (z_n, _, view) = state, spare
            np.multiply(c, z, out=z_n)
            np.add(z_n, np.multiply(M, swapped, out=term), out=z_n)
            if add:
                np.add(z_n, G, out=z_n)
            state, spare = spare, state
            yield view


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
        for row, z in zip(block, samples):
            row[1:] = z.reshape(-1)
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        if bad.size:
            raise ValueError(f"the state is not finite at t={block[bad[0], 0]:g}: the data or input overflow float64")
        yield block
