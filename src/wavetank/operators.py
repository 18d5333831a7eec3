"""Diagonal surface operators of the shallow tank and their zero-depth limits.

In the cosine basis the surface-to-flux map of the tank is diagonal with
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

so production code uses the closed forms (`lateral_sum`,
`wave_maker_forcing`).  The truncated series (`ntn_forcing`, `kernel_H_sum`)
is kept as an independent oracle with a certified tail; the kernel audit
checks the closed form against it.  The comparison kernels F, G, I, J
quantify, mode by mode, how far the tank's resolvents, square roots and
forcing sit from their limits; the convergence lab audits their proven
envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .basis import SQRT_2_OVER_PI, SQRT_PI, ModalVector, SpectralParams, _readonly, norm

__all__ = [
    "PrecisionError",
    "DtNSpectrum",
    "NtNProjection",
    "LimitOperators",
    "HSumResult",
    "dtn_eigenvalue",
    "dtn_spectrum",
    "apply_dtn",
    "ntn_forcing",
    "limit_forcing",
    "resolvent_shifted",
    "kernel_F",
    "kernel_G",
    "kernel_I",
    "kernel_J",
    "kernel_H_sum",
    "lateral_sum",
    "wave_maker_forcing",
    "bmu_dual_norm_gap",
]

# f_k = -_FORCING_TAIL_CONST * _odd_sums(mu, k, inf) for k >= 1; dropping the
# lateral modes l > L changes f_k by at most _FORCING_TAIL_CONST/(2L-1)
_FORCING_TAIL_CONST = 8.0 * math.sqrt(2.0) / (SQRT_PI * math.pi**2)

_CHUNK = 2048


class PrecisionError(ValueError):
    """Requested tolerance cannot be certified at the configured truncation."""

    def __init__(self, message: str, required_l_modes: int):
        super().__init__(message)
        self.required_l_modes = required_l_modes


def _h(x):
    """tanh(x)/x extended continuously by h(0) = 1.  Decreasing on [0, inf)."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = x != 0.0
    np.divide(np.tanh(x, where=nz, out=np.zeros_like(x)), x, where=nz, out=out)
    return out


def dtn_eigenvalue(params: SpectralParams, k):
    """lambda_k = sqrt(mu) k tanh(sqrt(mu) k); exactly zero at k = 0."""
    ka = np.asarray(k, dtype=float)
    if np.any(ka < 0):
        raise ValueError("mode index must be nonnegative")
    a = math.sqrt(params.mu) * ka
    out = a * np.tanh(a)
    return float(out) if np.isscalar(k) else out


@dataclass(frozen=True)
class DtNSpectrum:
    """Eigenvalues lambda_k of the surface Dirichlet-to-flux map, modes 0..K."""

    params: SpectralParams
    lam: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lam", _readonly(np.asarray(self.lam, dtype=float)))


def dtn_spectrum(params: SpectralParams) -> DtNSpectrum:
    return DtNSpectrum(params, dtn_eigenvalue(params, np.arange(params.K + 1)))


def apply_dtn(spec: DtNSpectrum, v: ModalVector) -> ModalVector:
    """Coefficient-wise lambda_k v_k."""
    if v.K != spec.params.K:
        raise ValueError(f"mode count mismatch: vector K={v.K}, spectrum K={spec.params.K}")
    return ModalVector(spec.lam * v.coeffs)


@dataclass(frozen=True)
class NtNProjection:
    """Forcing coefficients f_k for unit wave-maker input, with certified tails.

    h_tail_bound bounds the dropped part of each lateral sum sum_l H(k, l);
    forcing_tail_bound the resulting sup-over-k error in f_k.
    """

    params: SpectralParams
    forcing: np.ndarray
    h_tail_bound: float
    forcing_tail_bound: float

    def __post_init__(self):
        object.__setattr__(self, "forcing", _readonly(np.asarray(self.forcing, dtype=float)))


def _odd_sums(mu: float, k: np.ndarray, L: int) -> np.ndarray:
    """sum_{l=1..L} 1 / ((2l-1)^2 + y^2) with y = 2 sqrt(mu) k / pi, for an array of k.

    Times 4 mu / pi^2 this is sum_{l<=L} H(k, l).  Factoring 4 mu / pi^2 out of
    every term keeps the squared lateral frequencies finite for every mu in (0, 1].
    """
    odd2 = (2.0 * np.arange(1, L + 1) - 1.0) ** 2
    y2 = (2.0 * math.sqrt(mu) / math.pi * np.asarray(k, dtype=float)) ** 2
    out = np.empty(y2.shape)
    for i in range(0, y2.size, _CHUNK):
        blk = y2[i : i + _CHUNK, None]
        out[i : i + _CHUNK] = (1.0 / (odd2[None, :] + blk)).sum(axis=1)
    return out


def _required_l_modes(tail_tol: float) -> int:
    return max(1, math.ceil((_FORCING_TAIL_CONST / tail_tol + 1.0) / 2.0))


def ntn_forcing(params: SpectralParams, tail_tol: float = 1e-3) -> NtNProjection:
    """Forcing coefficients f_k = <(1/mu) B 1, phi_k> for modes 0..K by the lateral series.

    This is the oracle for `wave_maker_forcing`.  Mode 0 uses the exact closed
    form -1/sqrt(pi) (termwise integration of the lateral series,
    sum 1/(2l-1)^2 = pi^2/8); modes k >= 1 sum the first L_modes lateral terms,
    certified by the comparison tail bound 4 mu / (pi^2 (2 L_modes - 1)).
    Raises PrecisionError when the certified forcing error exceeds tail_tol.
    """
    L = params.L_modes
    forcing_tail = _FORCING_TAIL_CONST / (2.0 * L - 1.0)
    if forcing_tail > tail_tol:
        need = _required_l_modes(tail_tol)
        raise PrecisionError(
            f"L_modes={L} certifies forcing error {forcing_tail:.3e} > tail_tol={tail_tol:.3e}; "
            f"need L_modes >= {need}",
            required_l_modes=need,
        )
    k = np.arange(params.K + 1)
    f = -_FORCING_TAIL_CONST * _odd_sums(params.mu, k, L)
    f[0] = -1.0 / SQRT_PI
    h_tail = 4.0 * params.mu / (math.pi**2 * (2.0 * L - 1.0))
    return NtNProjection(params, f, h_tail_bound=h_tail, forcing_tail_bound=forcing_tail)


@dataclass(frozen=True)
class LimitOperators:
    """Zero-depth limits: eigenvalues k^2 and point-mass forcing -phi_k(0)."""

    K: int
    a0: np.ndarray
    b0: np.ndarray

    def __post_init__(self):
        for name in ("a0", "b0"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))


def limit_forcing(K: int) -> LimitOperators:
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    k = np.arange(K + 1, dtype=float)
    b0 = np.full(K + 1, -SQRT_2_OVER_PI)
    b0[0] = -1.0 / SQRT_PI
    return LimitOperators(K=K, a0=k**2, b0=b0)


def resolvent_shifted(op: Union[DtNSpectrum, LimitOperators], v: ModalVector) -> ModalVector:
    """(I + A)^(-1) v coefficient-wise, A the depth-scaled map lam_k/mu or its limit k^2."""
    if isinstance(op, DtNSpectrum):
        K = op.params.K
        sigma = op.lam / op.params.mu
    elif isinstance(op, LimitOperators):
        K = op.K
        sigma = op.a0
    else:
        raise TypeError(f"unsupported operator {type(op).__name__}")
    if v.K != K:
        raise ValueError(f"mode count mismatch: vector K={v.K}, operator K={K}")
    return ModalVector(v.coeffs / (1.0 + sigma))


def _check_kernel_args(params: SpectralParams, k):
    ka = np.asarray(k, dtype=float)
    if np.any(ka < 1):
        raise ValueError("comparison kernels are defined for k >= 1")
    return ka


def kernel_F(params: SpectralParams, k):
    """Resolvent gap kernel 1/(1+k^2) - 1/(1 + k^2 h(sqrt(mu) k)).  |F| <= sqrt(mu)/k."""
    ka = _check_kernel_args(params, k)
    sig = ka**2 * _h(math.sqrt(params.mu) * ka)
    out = 1.0 / (1.0 + ka**2) - 1.0 / (1.0 + sig)
    return float(out) if np.isscalar(k) else out


def kernel_G(params: SpectralParams, k):
    """Square-root-resolvent gap kernel k/(1+k^2) - sqrt(s)/(1+s), s = k^2 h(sqrt(mu) k)."""
    ka = _check_kernel_args(params, k)
    sig = ka**2 * _h(math.sqrt(params.mu) * ka)
    out = ka / (1.0 + ka**2) - np.sqrt(sig) / (1.0 + sig)
    return float(out) if np.isscalar(k) else out


def kernel_I(params: SpectralParams, k):
    """Frequency gap kernel sqrt(h(sqrt(mu) k)) - 1.  |I| <= sqrt(mu) k."""
    ka = _check_kernel_args(params, k)
    out = np.sqrt(_h(math.sqrt(params.mu) * ka)) - 1.0
    return float(out) if np.isscalar(k) else out


def kernel_J(params: SpectralParams, k):
    """Graph-norm gap kernel (1+k)/(1 + k sqrt(h(sqrt(mu) k))) - 1."""
    ka = _check_kernel_args(params, k)
    out = (1.0 + ka) / (1.0 + ka * np.sqrt(_h(math.sqrt(params.mu) * ka))) - 1.0
    return float(out) if np.isscalar(k) else out


class HSumResult(NamedTuple):
    value: Union[float, np.ndarray]
    tail_bound: float


def kernel_H_sum(params: SpectralParams, k) -> HSumResult:
    """Truncated lateral sum sum_{l<=L_modes} H(k, l) with its certified tail bound.

    This is the oracle for `lateral_sum`: the full sum lies in
    [value, value + tail_bound], with tail_bound = 4 mu / (pi^2 (2 L_modes - 1)).
    """
    ka = _check_kernel_args(params, k)
    scale = 4.0 * params.mu / math.pi**2
    val = scale * _odd_sums(params.mu, np.atleast_1d(ka), params.L_modes)
    tail = scale / (2.0 * params.L_modes - 1.0)
    return HSumResult(float(val[0]) if np.isscalar(k) else val, tail)


def lateral_sum(params: SpectralParams, k):
    """Full lateral sum sum_{l>=1} H(k, l) = (mu/2) h(sqrt(mu) k), in closed form.

    It obeys the envelopes mu/2 and sqrt(mu)/(2k), so the audited 2 sqrt(mu)/k
    holds with a factor 4 to spare.
    """
    ka = _check_kernel_args(params, k)
    out = 0.5 * params.mu * _h(math.sqrt(params.mu) * ka)
    return float(out) if np.isscalar(k) else out


def wave_maker_forcing(params: SpectralParams) -> np.ndarray:
    """Forcing coefficients f_k = -phi_k(0) h(sqrt(mu) k) for modes 0..K, in closed form.

    h(0) = 1 gives the exact mode-0 value -1/sqrt(pi).
    """
    k = np.arange(params.K + 1, dtype=float)
    return limit_forcing(params.K).b0 * _h(math.sqrt(params.mu) * k)


def bmu_dual_norm_gap(params: SpectralParams) -> float:
    """Distance of the unit-input forcing from its zero-depth limit.

    Measured in the dual of the first-order scale space, realized with mode
    weights (1+k)^(-2) (exponent -1 in this package's weight family), the
    Fourier realization of the dual norm in which the forcing convergence is
    proved.  Mode 0 cancels exactly.
    """
    f = wave_maker_forcing(params)
    b0 = limit_forcing(params.K).b0
    return norm(ModalVector(f - b0), -1.0)
