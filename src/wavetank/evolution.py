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

All stepping goes through one private generator, `_propagate`.  It holds a
batch of systems in (n_sys, K+1) buffers, computes cos/sin(omega dt) once,
steps in place without allocating and yields read-only views of the buffers
after every step, so a caller reduces them (the sweep) or streams them
(`simulate`, through `_blocks`) in O(n_sys K) memory.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .basis import ModalVector, SpectralParams, _readonly
from .operators import _h, limit_forcing, wave_maker_forcing

__all__ = [
    "InputSignal",
    "ModeSystem",
    "EvolutionState",
    "water_system",
    "limit_system",
    "make_initial",
]


@dataclass(frozen=True)
class InputSignal:
    """Piecewise-constant wave-maker acceleration: u(t) = values[m] on [m dt, (m+1) dt)."""

    dt: float
    values: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        v = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.all(np.isfinite(v)):
            raise ValueError("signal values must be finite")
        object.__setattr__(self, "values", _readonly(v.copy()))

    @property
    def n_steps(self) -> int:
        return self.values.size

    @classmethod
    def zero(cls, dt: float, n_steps: int) -> "InputSignal":
        return cls(dt, np.zeros(n_steps))

    @classmethod
    def constant(cls, dt: float, n_steps: int, amplitude: float) -> "InputSignal":
        return cls(dt, np.full(n_steps, float(amplitude)))

    @classmethod
    def pulse(cls, dt: float, n_steps: int, t_on: float, t_off: float, amplitude: float) -> "InputSignal":
        """amplitude on [t_on, t_off), sampled on the step grid; the window must hold a step start."""
        t = np.arange(n_steps) * dt
        on = (t >= t_on) & (t < t_off)
        if not on.any():
            grid = f"dt={dt:g}, m < {n_steps}"
            raise ValueError(f"the window [{t_on:g}, {t_off:g}) holds no step start m*dt of the grid {grid}")
        return cls(dt, np.where(on, float(amplitude), 0.0))


@dataclass(frozen=True)
class ModeSystem:
    """Per-mode frequencies and forcing coefficients of one evolution system."""

    omega: np.ndarray
    forcing: np.ndarray

    def __post_init__(self):
        for name in ("omega", "forcing"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))
        if self.omega.shape != self.forcing.shape:
            raise ValueError("omega and forcing must have equal length")

    @property
    def K(self) -> int:
        return self.omega.size - 1


def water_system(params: SpectralParams) -> ModeSystem:
    """Tank dynamics at shallowness mu: omega_k = k sqrt(h(sqrt(mu) k)), f_k = -phi_k(0) h(sqrt(mu) k)."""
    k = np.arange(params.K + 1, dtype=float)
    omega = k * np.sqrt(_h(np.sqrt(params.mu) * k))
    forcing = wave_maker_forcing(params)
    return ModeSystem(omega=omega, forcing=forcing)


def limit_system(K: int) -> ModeSystem:
    """Zero-depth limit: the string with omega_k = k and point-mass forcing."""
    return ModeSystem(omega=np.arange(K + 1, dtype=float), forcing=limit_forcing(K))


@dataclass(frozen=True)
class EvolutionState:
    """State (alpha, beta) in rotation variables plus the mode-0 elevation.

    beta_0 is identically zero; zeta0 tracks the mode-0 elevation coefficient
    so the full surface is always reconstructible.
    """

    alpha: ModalVector
    beta: ModalVector
    zeta0: float
    t: float

    def __post_init__(self):
        if self.alpha.K != self.beta.K:
            raise ValueError("alpha and beta must share the same mode count")
        if self.beta.coeffs[0] != 0.0:
            raise ValueError("beta_0 must be zero")


def make_initial(zeta0: ModalVector, zeta1: ModalVector, system: ModeSystem) -> EvolutionState:
    """Initial state from elevation zeta0 and velocity zeta1: beta_k = omega_k zeta0_k."""
    if zeta0.K != zeta1.K:
        raise ValueError(f"mode count mismatch: zeta0 K={zeta0.K}, zeta1 K={zeta1.K}")
    if zeta0.K != system.K:
        raise ValueError(f"mode count mismatch: data K={zeta0.K}, system K={system.K}")
    with np.errstate(over="ignore"):  # an overflowing mode is rejected below
        beta = system.omega * zeta0.coeffs
    bad = np.flatnonzero(~np.isfinite(beta))
    if bad.size:
        k = bad[0]
        raise ValueError(
            f"init mode {k}: omega_k * zeta0_k = {system.omega[k]:g} * {zeta0.coeffs[k]:g} overflows float64"
        )
    beta[0] = 0.0
    return EvolutionState(alpha=zeta1, beta=ModalVector(beta), zeta0=float(zeta0.coeffs[0]), t=0.0)


def _propagate(states, systems, values, dt):
    """The stepping loop: exact steps of a batch of systems under one input.

    Every state is stepped by its own system with u held at values[m] on step
    m.  Yields (zeta, alpha, beta), each of shape (n_sys, K+1), at
    t = 0, dt, ..., n dt; zeta[:, 0] is the mode-0 elevation.  They are
    read-only views of buffers that the next step overwrites, so a consumer
    that keeps a sample copies it.

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
    for state, system in zip(states, systems):
        if state.alpha.K != system.K:
            raise ValueError(f"mode count mismatch: state K={state.alpha.K}, system K={system.K}")
    omega = np.stack([system.omega for system in systems])
    forcing = np.stack([system.forcing for system in systems])
    f0 = forcing[:, 0].copy()
    omega[:, 0], forcing[:, 0] = 1.0, 0.0
    alpha = np.stack([state.alpha.coeffs for state in states])
    beta = np.stack([state.beta.coeffs for state in states])
    alpha1, beta1, zeta, p, db, t1, t2 = (np.empty_like(alpha) for _ in range(7))
    c = np.cos(omega * dt)
    s = np.sin(omega * dt)
    z0 = np.array([state.zeta0 for state in states])
    np.divide(beta, omega, out=zeta)
    zeta[:, 0] = z0
    yield _readonly(zeta), _readonly(alpha), _readonly(beta)
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
        np.divide(beta, omega, out=zeta)
        zeta[:, 0] = z0
        yield _readonly(zeta), _readonly(alpha), _readonly(beta)


def _blocks(initial: EvolutionState, signal: InputSignal, system: ModeSystem, rows: int):
    """(times, zeta, zeta_t) of one system's trajectory, in consecutive blocks of at most `rows` samples."""
    times = initial.t + signal.dt * np.arange(signal.n_steps + 1)
    samples = _propagate([initial], [system], signal.values, signal.dt)
    for start in range(0, times.size, rows):
        t = times[start : start + rows]
        zeta = np.empty((t.size, system.K + 1))
        zeta_t = np.empty_like(zeta)
        for i, (z, a, _) in enumerate(itertools.islice(samples, t.size)):
            zeta[i], zeta_t[i] = z[0], a[0]
        yield t, zeta, zeta_t
