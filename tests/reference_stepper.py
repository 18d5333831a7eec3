"""Independent one-system stepper: the plain per-step formula, with a temporary for every term."""

import numpy as np


def reference_advance(alpha, beta, zeta0, u, dt, omega, forcing):
    """One exact step of one system, as the per-system stepper computed it."""
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

