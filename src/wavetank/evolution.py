"""Time evolution of the tank and its zero-depth limit in modal form.

Every system decouples mode by mode.  The state is the paper's
z = (zeta, d(zeta)/dt), and each cosine mode k is the forced oscillator

    zeta_k'' + omega_k^2 zeta_k = f_k u,

where omega_k = k sqrt(h(sqrt(mu) k)) is the mode frequency (omega_0 = 0) and
f_k = -phi_k(0) h(sqrt(mu) k) the wave-maker forcing coefficient.  The limit
string is mu = 0, where h = 1.  For input u held constant over a step of
length dt the step is exact, one 2x2 map per mode:

    zeta'   = c zeta   + S zeta_t + f Q u,
    zeta_t' = c zeta_t - W zeta   + f S u,

    c = cos(omega dt),  S = sin(omega dt)/omega,  W = omega sin(omega dt),
    Q = 2 sin(omega dt/2)^2 / omega^2 = (1 - c)/omega^2.

At omega = 0 the coefficients take their limits c = 1, S = dt, W = 0 and
Q = dt^2/2, so mode 0, which carries no restoring force, is the same map: the
exact quadratic in t.  With u = 0 the map conserves
E = ||zeta_t||^2 + ||omega zeta||^2, so E is conserved to roundoff whatever dt.

A system is the pair (omega, forcing) of (K+1)-arrays that `water_system`
returns, and an input is dt together with the runs
(u, count) of constant u that it holds, in step order: u_m on
[m dt, (m+1) dt), step by step.

Stepping goes through one private generator, `_rotate`, over a batch of
systems that share the data and the input, given as (n_sys, m) arrays of
omega and forcing, with the coefficients computed once and the u terms once
per run.  It steps the modes with omega > 0 as one complex (n_sys, m) array
psi = zeta + i zeta_t/omega, whose exact step is a rotation plus the input
term, psi' = e^(-i omega dt) psi + f u (Q + i S/omega): one complex multiply,
and an add inside a run of nonzero u.  omega^2 |psi|^2
is the mode energy.  The sweep steps modes 1..K that way and reduces each
sample in O(n_sys K); `simulate` reads zeta = Re psi and zeta_t = omega Im psi
of one system into one reused block of rows through `_rows`, which steps mode
0, at rest, by the exact quadratic as Python floats.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np

from .basis import _SQRT_2_OVER_PI, _SQRT_PI, _aligned, _readonly
from .operators import _h

__all__ = ["water_system"]


def water_system(mu, K: int):
    """(omega, forcing) of the tank at shallowness mu in [0, 1], modes 0..K >= 1.

    omega_k = k sqrt(h(sqrt(mu) k)) and f_k = -phi_k(0) h(sqrt(mu) k), from one evaluation of h; a column mu
    (n, 1) gives (n, K+1) arrays, row j bitwise the system at mu_j.  h(0) = 1, so mu = 0 gives the zero-depth
    limit exactly: the string with omega_k = k and the boundary point mass f_k = -phi_k(0).
    """
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    k = np.arange(K + 1, dtype=float)
    h = _h(np.sqrt(mu) * k)
    forcing = np.full(h.shape, -_SQRT_2_OVER_PI)
    forcing[..., 0] = -1.0 / _SQRT_PI
    forcing *= h
    # omega in h's buffer: no further array of K + 1 values
    omega = np.sqrt(h, out=h)
    omega *= k
    return omega, forcing


def _rotate(zeta0: np.ndarray, zeta1: np.ndarray, omega: np.ndarray, forcing: np.ndarray, runs, dt):
    """The stepping loop: exact steps of a batch of systems' modes with omega > 0, in psi = zeta + i zeta_t/omega.

    The batch is the (n_sys, m) arrays omega and forcing, one system per row.
    Every system starts from zeta = zeta0 and zeta_t = zeta1 and is stepped
    with u held at each run's u for its count of steps.  Yields psi's float
    view at t = 0, dt, ..., n dt, n the total count: the (n_sys, 2m) pairs
    (Re psi_k, Im psi_k) = (zeta_k, zeta_t_k/omega_k), read-only views of two
    buffers that the steps overwrite in turn, so a consumer that keeps a
    sample copies it.  ValueError unless the data and the batch agree on the
    number m of modes and every omega > 0 (not nan).

    A step is psi' = r psi, r = e^(-i omega dt), plus u T, T = f (Q + i S/omega)
    formed once per run, inside a run of nonzero u.  |r| = 1, so under u = 0
    |psi| moves by roundoff only.  zeta1/omega can overflow where zeta1 does
    not: psi then starts non-finite, and stays so, under the caller's np.errstate.
    """
    if not (zeta0.shape == zeta1.shape == omega.shape[1:] and omega.shape == forcing.shape):
        raise ValueError(
            f"mode count mismatch: zeta0 K={zeta0.shape[-1]}, zeta1 K={zeta1.shape[-1]}, system K={omega.shape[-1]}"
        )
    if not (omega > 0.0).all():
        raise ValueError("the rotation kernel steps modes with omega > 0 only")
    rotation, term, uterm, psi, spare = (_aligned(omega.shape, complex) for _ in range(5))
    wdt = omega * dt
    sin = np.sin(wdt)
    np.cos(wdt, out=rotation.real)
    np.negative(sin, out=rotation.imag)
    # Q and S/omega each divided by omega twice, which overflows nowhere that omega^2 would
    np.multiply(forcing, 2.0 * np.square(np.sin(0.5 * wdt) / omega), out=term.real)
    np.multiply(forcing, sin / omega / omega, out=term.imag)
    psi.real = zeta0
    np.divide(zeta1, omega, out=psi.imag)
    # each step writes the other buffer: numpy multiplies a one-element array in place without the fused
    # multiply-add of its vector loop, so in place a batch of one mode would not step as a longer one does
    state, other = ((b, _readonly(b.view(float))) for b in (psi, spare))
    yield state[1]
    for u, count in runs:
        add = u != 0.0
        if add:
            np.multiply(term, u, out=uterm)
        for _ in range(count):
            (z, _), (z_n, view) = state, other
            np.multiply(z, rotation, out=z_n)
            if add:
                np.add(z_n, uterm, out=z_n)
            state, other = other, state
            yield view


def _rows(zeta0: np.ndarray, zeta1: np.ndarray, runs, dt: float, system, rows: int):
    """One system's trajectory from (zeta0, zeta1) under the input runs, in blocks of at most `rows` samples.

    Every block is a view of one reused (rows, 2K+3) array whose row i is
    t_i, zeta_0..zeta_K, zeta_t_0..zeta_t_K; the next block overwrites it.
    Modes 1..K are zeta = Re psi and zeta_t = omega Im psi of `_rotate`; mode
    0, at rest, steps as Python floats by z' = (z + dt v) + (f dt^2/2) u and
    v' = (v + (-0.0) z) + (f dt) u, bit for bit the 2x2 step at c = 1, S = dt,
    W = 0 (c v - W z is v + (-0.0) z, signed zeros and the nan at z = inf alike).
    ValueError names the first time at which the state is not finite.
    """
    (omega, forcing), width = system, system[0].size
    n = sum(count for _, count in runs) + 1
    buf = np.empty((min(rows, n), 2 * width + 1))
    samples = _rotate(zeta0[1:], zeta1[1:], omega[None, 1:], forcing[None, 1:], runs, dt)
    f, z, v = float(forcing[0]), float(zeta0[0]), float(zeta1[0])
    # the u terms (f Q) u and (f S) u of mode 0, step by step; the step after the last sample is not used
    terms = chain.from_iterable(repeat((f * (0.5 * dt * dt) * u, f * dt * u), count) for u, count in runs)
    for start in range(0, n, rows):
        block = buf[: min(rows, n - start)]
        np.multiply(dt, np.arange(start, start + len(block)), out=block[:, 0])
        for row, psi in zip(block, samples):
            row[1], row[width + 1] = z, v
            row[2 : width + 1] = psi[0, ::2]
            np.multiply(omega[1:], psi[0, 1::2], out=row[width + 2 :])
            Qu, Su = next(terms, (0.0, 0.0))
            z, v = (z + dt * v) + Qu, (v + (-0.0) * z) + Su
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        if bad.size:
            raise ValueError(f"the state is not finite at t={block[bad[0], 0]:g}: the data or input overflow float64")
        yield block
