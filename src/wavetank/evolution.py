"""Time evolution of the tank and its zero-depth limit in modal form.

Both systems decouple mode by mode.  In the rotation variables
alpha = d(zeta)/dt and beta_k = omega_k zeta_k (k >= 1) each mode obeys

    alpha_k' = -omega_k beta_k + f_k u,      beta_k' = omega_k alpha_k,

a forced rotation in the (alpha, beta) plane, where omega_k is the mode
frequency (k sqrt(h(sqrt(mu) k)) for the tank, k for the limit string) and
f_k the wave-maker forcing coefficient.  For piecewise-constant input the
propagator is exact: rotation by omega_k dt about the fixed point
(0, f_k u / omega_k).  Mode 0 carries no restoring force and is integrated
exactly as a quadratic in t; its elevation coefficient is tracked separately
because the rotation variables do not determine it.

With u = 0 each step is a pure rotation, so E = ||alpha||^2 + ||beta||^2 is
conserved to roundoff regardless of dt.

A system is the pair (omega, forcing) of (K+1)-arrays that `water_system`
and `limit_system` return, and an input is the array of values u_m held on
[m dt, (m+1) dt) together with dt.

All stepping goes through one private generator, `_propagate`.  It copies
the stacked (alpha, beta, z0) arrays of `make_initial` into (n_sys, K+1)
buffers, computes cos/sin(omega dt) once, steps in place without allocating
and yields read-only views of the buffers after every step (two tuples of
them, built once, one per parity of the step count), so a caller reduces
them in O(n_sys K) memory (the sweep) or copies them into one reused block of
rows, O(rows K) (`simulate`, through `_rows`).
"""

from __future__ import annotations

import numpy as np

from .basis import ModalVector, _aligned, _readonly
from .operators import _h, limit_forcing, wave_maker_forcing

__all__ = [
    "water_system",
    "limit_system",
    "make_initial",
]


def water_system(mu: float, K: int):
    """(omega, forcing) of the tank at shallowness mu, modes 0..K.

    omega_k = k sqrt(h(sqrt(mu) k)) and f_k = -phi_k(0) h(sqrt(mu) k).
    """
    k = np.arange(K + 1, dtype=float)
    omega = k * np.sqrt(_h(np.sqrt(mu) * k))
    return omega, wave_maker_forcing(mu, K)


def limit_system(K: int):
    """(omega, forcing) of the zero-depth limit: the string with omega_k = k and point-mass forcing."""
    return np.arange(K + 1, dtype=float), limit_forcing(K)


def make_initial(zeta0: ModalVector, zeta1: ModalVector, systems):
    """Initial (alpha, beta, z0) of a batch of systems, one row each: alpha = zeta1, beta_k = omega_k zeta0_k.

    beta_0 is zero and z0 holds the mode-0 elevation zeta0_0, which the
    rotation variables do not determine.  An overflowing beta_k is rejected,
    naming the first system in batch order that overflows.
    """
    for w, _ in systems:
        if not zeta0.K == zeta1.K == w.size - 1:
            raise ValueError(f"mode count mismatch: zeta0 K={zeta0.K}, zeta1 K={zeta1.K}, system K={w.size - 1}")
    omega = np.stack([w for w, _ in systems])
    with np.errstate(over="ignore"):  # an overflowing mode is rejected below
        beta = omega * zeta0.coeffs
    bad = np.argwhere(~np.isfinite(beta))
    if bad.size:
        i, k = bad[0]
        raise ValueError(
            f"init mode {k}: omega_k * zeta0_k = {omega[i, k]:g} * {zeta0.coeffs[k]:g} overflows float64"
        )
    beta[:, 0] = 0.0
    alpha = np.tile(zeta1.coeffs, (len(systems), 1))
    return alpha, beta, np.full(len(systems), zeta0.coeffs[0])


def _propagate(initial, systems, values, dt):
    """The stepping loop: exact steps of a batch of systems under one input.

    Row i of the initial (alpha, beta, z0), as make_initial returns them, is
    stepped by systems[i] with u held at values[m] on step m.  The inputs are
    copied, never written.  Yields (zeta, alpha, beta), each of shape
    (n_sys, K+1), at t = 0, dt, ..., n dt; zeta[:, 0] is the mode-0
    elevation.  They are read-only views of buffers that the next step
    overwrites, so a consumer that keeps a sample copies it.

    Each step rotates a whole contiguous alpha and beta buffer into a second
    pair, and the pairs swap.  Mode 0 rides in column 0 with a stand-in
    frequency 1 and forcing 0, so the rotation needs no slicing, and its exact
    values (alpha_0 + f_0 u dt, beta_0 = 0, the quadratic zeta_0) overwrite
    the column.  The fixed point p = f u / omega and the mode-0 increments
    f_0 u dt and f_0 u dt^2 / 2 are recomputed only when the bits of u change
    (0.0 and -0.0 give differently signed zeros).  Every
    sample is bit-identical to the plain per-step formula a1 = c da - s db,
    b1 = p + s da + c db.
    """
    shape = (len(systems), systems[0][0].size)
    omega, forcing, alpha, beta, alpha1, beta1, zeta, p, db, t1, t2, c, s = (_aligned(shape) for _ in range(13))
    np.stack([w for w, _ in systems], out=omega)
    np.stack([f for _, f in systems], out=forcing)
    f0 = forcing[:, 0].copy()
    omega[:, 0], forcing[:, 0] = 1.0, 0.0
    alpha[...], beta[...] = initial[0], initial[1]
    z0 = np.array(initial[2], dtype=float)
    np.cos(np.multiply(omega, dt, out=c), out=c)
    np.sin(np.multiply(omega, dt, out=s), out=s)
    np.divide(beta, omega, out=zeta)
    zeta[:, 0] = z0
    # the samples after an even and after an odd number of steps
    views, spare = (tuple(map(_readonly, arrays)) for arrays in ((zeta, alpha, beta), (zeta, alpha1, beta1)))
    yield views
    values = np.asarray(values, dtype=float)
    last = None
    for u, bits in zip(values, values.view(np.uint64)):
        if bits != last:
            np.divide(np.multiply(forcing, u, out=p), omega, out=p)
            dalpha0, dzeta0 = f0 * u * dt, 0.5 * f0 * u * dt * dt
            last = bits
        np.subtract(beta, p, out=db)
        np.subtract(np.multiply(c, alpha, out=t1), np.multiply(s, db, out=t2), out=alpha1)
        np.add(np.add(p, np.multiply(s, alpha, out=t1), out=t1), np.multiply(c, db, out=t2), out=beta1)
        z0 = z0 + alpha[:, 0] * dt + dzeta0
        alpha1[:, 0], beta1[:, 0] = alpha[:, 0] + dalpha0, 0.0
        alpha, alpha1, beta, beta1 = alpha1, alpha, beta1, beta
        views, spare = spare, views
        np.divide(beta, omega, out=zeta)
        zeta[:, 0] = z0
        yield views


def _rows(initial, values, dt: float, system, rows: int):
    """One system's trajectory under the input values, in blocks of at most `rows` samples.

    initial is make_initial(zeta0, zeta1, [system]).  Every block is a view of
    one reused (rows, 2K+3) array whose row i is t_i, zeta_0..zeta_K,
    zeta_t_0..zeta_t_K; the next block overwrites it.  ValueError names the
    first time at which the state is not finite.
    """
    n, width = len(values) + 1, system[0].size
    buf = np.empty((min(rows, n), 2 * width + 1))
    samples = _propagate(initial, [system], values, dt)
    for start in range(0, n, rows):
        block = buf[: min(rows, n - start)]
        np.multiply(dt, np.arange(start, start + len(block)), out=block[:, 0])
        for row, (z, a, _) in zip(block, samples):
            row[1 : width + 1], row[width + 1 :] = z[0], a[0]
        bad = np.flatnonzero(~np.isfinite(block).all(axis=1))
        if bad.size:
            raise ValueError(f"the state is not finite at t={block[bad[0], 0]:g}: the data or input overflow float64")
        yield block
