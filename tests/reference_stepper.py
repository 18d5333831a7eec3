"""Independent one-system steppers: plain per-step formulas, with a temporary for every term.

`reference_step` is the exact 2x2 step in (zeta, zeta_t), which mode 0 of a simulated trajectory must match bit
for bit and the rotation kernel's other modes to roundoff.  `reference_advance` is an earlier rotation stepper in
(alpha, beta, z0) = (zeta_t, omega zeta, zeta_0), a different arithmetic for the same exact flow, which a simulated
trajectory must match to roundoff.
"""

import numpy as np


def step_coefficients(omega, dt):
    """(c, S, W, Q) of the exact step: cos(w dt), sin(w dt)/w, w sin(w dt), 2 (sin(w dt/2)/w)^2, with their
    limits 1, dt, 0, dt^2/2 where w = 0."""
    still = omega == 0.0
    moving = np.where(still, 1.0, omega)
    wdt = omega * dt
    c = np.cos(wdt)
    S = np.where(still, dt, np.sin(wdt) / moving)
    W = omega * np.sin(wdt)
    Q = np.where(still, 0.5 * dt * dt, 2.0 * np.square(np.sin(0.5 * wdt) / moving))
    return c, S, W, Q


def reference_step(zeta, zeta_t, u, dt, omega, forcing):
    """One exact step of one system: zeta' = (c zeta + S zeta_t) + (f Q) u, zeta_t' = (c zeta_t - W zeta) + (f S) u."""
    c, S, W, Q = step_coefficients(omega, dt)
    fQ = forcing * Q
    fS = forcing * S
    c_zeta = c * zeta
    S_zeta_t = S * zeta_t
    fQ_u = fQ * u
    c_zeta_t = c * zeta_t
    W_zeta = W * zeta
    fS_u = fS * u
    return c_zeta + S_zeta_t + fQ_u, c_zeta_t - W_zeta + fS_u


def reference_advance(alpha, beta, zeta0, u, dt, omega, forcing):
    """One exact step of one system in the rotation variables (alpha, beta, z0)."""
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
