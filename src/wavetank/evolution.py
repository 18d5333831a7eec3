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
"""

from __future__ import annotations

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
    label: str

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
    return ModeSystem(omega=omega, forcing=forcing, label=f"water(mu={params.mu:g})")


def limit_system(K: int) -> ModeSystem:
    """Zero-depth limit: the string with omega_k = k and point-mass forcing."""
    ops = limit_forcing(K)
    return ModeSystem(omega=np.arange(K + 1, dtype=float), forcing=ops.b0, label="limit")


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
    beta = system.omega * zeta0.coeffs
    beta[0] = 0.0
    return EvolutionState(alpha=zeta1, beta=ModalVector(beta), zeta0=float(zeta0.coeffs[0]), t=0.0)


def _advance(alpha, beta, zeta0, u, dt, omega, forcing):
    """One exact step of every mode for input held constant at u."""
    a1 = np.empty_like(alpha)
    b1 = np.zeros_like(beta)
    c = np.cos(omega[1:] * dt)
    s = np.sin(omega[1:] * dt)
    p = forcing[1:] * u / omega[1:]
    da = alpha[1:]
    db = beta[1:] - p
    a1[1:] = c * da - s * db
    b1[1:] = p + s * da + c * db
    z0 = zeta0 + alpha[0] * dt + 0.5 * forcing[0] * u * dt * dt
    a1[0] = alpha[0] + forcing[0] * u * dt
    return a1, b1, z0


def step(state: EvolutionState, u: float, dt: float, system: ModeSystem) -> EvolutionState:
    """Advance one step of length dt with the input held at u."""
    if state.alpha.K != system.K:
        raise ValueError(f"mode count mismatch: state K={state.alpha.K}, system K={system.K}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    a1, b1, z0 = _advance(
        state.alpha.coeffs, state.beta.coeffs, state.zeta0, float(u), float(dt), system.omega, system.forcing
    )
    return EvolutionState(alpha=ModalVector(a1), beta=ModalVector(b1), zeta0=z0, t=state.t + dt)


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

    def zeta_vector(self, i: int) -> ModalVector:
        return ModalVector(self.zeta[i])

    def zeta_t_vector(self, i: int) -> ModalVector:
        return ModalVector(self.zeta_t[i])


def _reconstruct_zeta(beta, zeta0, omega):
    z = np.empty_like(beta)
    z[0] = zeta0
    z[1:] = beta[1:] / omega[1:]
    return z


def evolve(initial: EvolutionState, signal: InputSignal, system: ModeSystem) -> Trajectory:
    """Exact stepping through the whole signal, sampled at t_i = t0 + i dt."""
    if initial.alpha.K != system.K:
        raise ValueError(f"mode count mismatch: state K={initial.alpha.K}, system K={system.K}")
    n = signal.n_steps
    dt = signal.dt
    alpha = initial.alpha.coeffs.copy()
    beta = initial.beta.coeffs.copy()
    z0 = initial.zeta0
    times = initial.t + dt * np.arange(n + 1)
    zeta = np.empty((n + 1, system.K + 1))
    zeta_t = np.empty_like(zeta)
    zeta[0] = _reconstruct_zeta(beta, z0, system.omega)
    zeta_t[0] = alpha
    for m in range(n):
        alpha, beta, z0 = _advance(alpha, beta, z0, signal.values[m], dt, system.omega, system.forcing)
        zeta[m + 1] = _reconstruct_zeta(beta, z0, system.omega)
        zeta_t[m + 1] = alpha
    return Trajectory(times=times, zeta=zeta, zeta_t=zeta_t)


def energy(state: EvolutionState) -> float:
    """E = ||alpha||^2 + ||beta||^2; invariant under zero input."""
    return float(np.sum(state.alpha.coeffs**2) + np.sum(state.beta.coeffs**2))
