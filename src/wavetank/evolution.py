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
batch of systems as contiguous (n_sys, K) arrays of modes k >= 1 plus
(n_sys,) vectors of mode 0, computes cos/sin(omega dt) once, steps in place
without temporaries and yields fresh (n_sys, K+1) samples after every step,
so a caller reduces them (the sweep) or streams them (`simulate`) in
O(n_sys K) memory; `step` and `evolve` are its one-system users.
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
    "Trajectory",
    "water_system",
    "limit_system",
    "make_initial",
    "step",
    "evolve",
    "energy",
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

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    @classmethod
    def zero(cls, dt: float, n_steps: int) -> "InputSignal":
        return cls(dt, np.zeros(n_steps))

    @classmethod
    def constant(cls, dt: float, n_steps: int, amplitude: float) -> "InputSignal":
        return cls(dt, np.full(n_steps, float(amplitude)))

    @classmethod
    def pulse(cls, dt: float, n_steps: int, t_on: float, t_off: float, amplitude: float) -> "InputSignal":
        """amplitude on [t_on, t_off), sampled on the step grid."""
        t = np.arange(n_steps) * dt
        v = np.where((t >= t_on) & (t < t_off), float(amplitude), 0.0)
        return cls(dt, v)

    @classmethod
    def from_function(cls, fn, dt: float, n_steps: int) -> "InputSignal":
        """Sample an arbitrary u(t) at the left step endpoints (first-order commitment)."""
        t = np.arange(n_steps) * dt
        return cls(dt, np.array([float(fn(ti)) for ti in t]))


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
    t = 0, dt, ..., n dt; zeta[:, 0] is the mode-0 elevation.  The arrays are
    new at every step, so a consumer may keep them.

    Modes k >= 1 live in contiguous (n_sys, K) arrays updated in place through
    two swapped buffers, mode 0 in (n_sys,) vectors; the fixed point
    p = f u / omega is recomputed only when the bits of u change (0.0 and -0.0
    give differently signed zeros).  Every sample is bit-identical to the plain
    per-step formula a1 = c da - s db, b1 = p + s da + c db.
    """
    for state, system in zip(states, systems):
        if state.alpha.K != system.K:
            raise ValueError(f"mode count mismatch: state K={state.alpha.K}, system K={system.K}")
    omega = np.stack([system.omega[1:] for system in systems])
    forcing = np.stack([system.forcing[1:] for system in systems])
    f0 = np.array([system.forcing[0] for system in systems])
    alpha = np.stack([state.alpha.coeffs for state in states])
    beta = np.stack([state.beta.coeffs for state in states])
    z0 = np.array([state.zeta0 for state in states])
    a0, a, b = alpha[:, 0].copy(), alpha[:, 1:].copy(), beta[:, 1:].copy()
    a1, b1, p, db, t1, t2 = (np.empty_like(a) for _ in range(6))
    c = np.cos(omega * dt)
    s = np.sin(omega * dt)
    zeta = np.empty_like(beta)
    zeta[:, 0] = z0
    np.divide(b, omega, out=zeta[:, 1:])
    yield zeta, alpha, beta
    values = np.asarray(values, dtype=float)
    last = None
    for u, bits in zip(values, values.view(np.uint64)):
        if bits != last:
            np.divide(np.multiply(forcing, u, out=p), omega, out=p)
            last = bits
        np.subtract(b, p, out=db)
        np.subtract(np.multiply(c, a, out=t1), np.multiply(s, db, out=t2), out=a1)
        np.add(np.add(p, np.multiply(s, a, out=t1), out=t1), np.multiply(c, db, out=t2), out=b1)
        a, a1, b, b1 = a1, a, b1, b
        z0 = z0 + a0 * dt + 0.5 * f0 * u * dt * dt
        a0 = a0 + f0 * u * dt
        zeta, alpha, beta = (np.empty_like(zeta) for _ in range(3))
        zeta[:, 0], alpha[:, 0], beta[:, 0] = z0, a0, 0.0
        np.divide(b, omega, out=zeta[:, 1:])
        alpha[:, 1:], beta[:, 1:] = a, b
        yield zeta, alpha, beta


def step(state: EvolutionState, u: float, dt: float, system: ModeSystem) -> EvolutionState:
    """Advance one step of length dt with the input held at u."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    *_, (zeta, alpha, beta) = _propagate([state], [system], [float(u)], float(dt))
    return EvolutionState(
        alpha=ModalVector(alpha[0]), beta=ModalVector(beta[0]), zeta0=float(zeta[0, 0]), t=state.t + dt
    )


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: rows of zeta and zeta_t hold modal coefficients at times[i]."""

    times: np.ndarray
    zeta: np.ndarray
    zeta_t: np.ndarray

    def __post_init__(self):
        for name in ("times", "zeta", "zeta_t"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))
        n = self.times.size
        if self.zeta.shape[0] != n or self.zeta_t.shape != self.zeta.shape:
            raise ValueError("times, zeta and zeta_t lengths disagree")

    @property
    def K(self) -> int:
        return self.zeta.shape[1] - 1


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


def evolve(initial: EvolutionState, signal: InputSignal, system: ModeSystem) -> Trajectory:
    """Exact stepping through the whole signal, sampled at t_i = t0 + i dt."""
    return Trajectory(*next(_blocks(initial, signal, system, signal.n_steps + 1)))


def energy(state: EvolutionState) -> float:
    """E = ||alpha||^2 + ||beta||^2; invariant under zero input."""
    return float(np.sum(state.alpha.coeffs**2) + np.sum(state.beta.coeffs**2))
