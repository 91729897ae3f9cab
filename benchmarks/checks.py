"""Correctness checks that share no code with the closed-form solvers.

Each check takes plain arrays (times, group points in exponential
coordinates, left-trivialized velocities) and returns its worst relative
residual; a result passes when every residual is at most the check's
tolerance.  The group law is computed here from the algebra's structure
tensor, and reference curves come from the numerical oracle
(`nilmag.oracle.reconstruct_group`), never from a closed form.
"""

from __future__ import annotations

import numpy as np

# Tolerances.  The oracle runs adaptive Dormand-Prince at 1e-11 (1e-13 for
# H3, see workloads.ORACLE_H3); its own error on the benchmark's horizons
# stays below 1e-8.
TOL_ORACLE = 1e-6
TOL_ORIGIN = 1e-10
TOL_SPEED = 1e-9
TOL_FD = 1e-6
TOL_H3_LAW = 1e-9
TOL_LAMBDA = 1e-8
TOL_ENERGY = 1e-12
TOL_CLOSURE = 1e-6

# Finite-difference stencil offsets (in units of the step) used by
# reconstruction_residual.
STENCIL = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
FD_STEP = 1e-3


def _scale(*arrays) -> float:
    return max([1.0] + [float(np.max(np.abs(a))) for a in arrays if np.size(a)])


def group_mul(structure: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b = a + b + [a, b] / 2 in exponential coordinates, rowwise."""
    return a + b + 0.5 * np.einsum("...i,...j,ijk->...k", a, b, structure)


def oracle_residual(xi, vel, ref_xi, ref_vel) -> float:
    """Largest deviation of positions and velocities from the oracle's."""
    dev = max(float(np.max(np.abs(xi - ref_xi))), float(np.max(np.abs(vel - ref_vel))))
    return dev / _scale(ref_xi, ref_vel)


def origin_residual(xi) -> float:
    """|position(0)|: every curve starts at the identity."""
    return float(np.max(np.abs(xi[0])))


def speed_residual(vel) -> float:
    """Largest relative change of |velocity| along the curve."""
    s = np.linalg.norm(vel, axis=1)
    return float(np.max(np.abs(s - s[0]))) / max(1.0, float(s[0]))


def stencil_times(centers, h: float = FD_STEP) -> np.ndarray:
    """Flat, sorted-per-center sample times t + k h for the five-point stencils."""
    return (np.asarray(centers, float)[:, None] + h * STENCIL[None, :]).ravel()


def reconstruction_residual(structure, xi_stencils, vel_centers, h: float) -> float:
    """Check xi' = x - [x_v, xi_v] / 2 by finite differences through the group law.

    xi_stencils has shape (n, 5, dim): positions at t + k h, k = -2..2.  The
    left-trivialized velocity is the derivative of sigma(t)^{-1} sigma(t + s)
    at s = 0; central differences at steps h and 2h are combined by
    Richardson extrapolation (error O(h^4)) and compared with vel_centers.
    """
    xi = np.asarray(xi_stencils, float)
    inv_mid = -xi[:, 2]
    local = [group_mul(structure, inv_mid, xi[:, k]) for k in range(5)]
    d1 = (local[3] - local[1]) / (2.0 * h)
    d2 = (local[4] - local[0]) / (4.0 * h)
    deriv = (4.0 * d1 - d2) / 3.0
    return float(np.max(np.abs(deriv - vel_centers))) / _scale(vel_centers)


def h3_law_residual(u, charge: float, vel) -> float:
    """Conservation law Phi'^2 + (Phi^2/2 + z0 Phi + y1)^2 = S^2 on H3.

    The canonical frame (force direction e2, charge 1) is rebuilt here from
    (u, charge): w = charge u, time runs at 1/|w|, and the rotation takes
    w/|w| to e2.  Phi is the canonical central velocity minus its initial
    value and Phi' the canonical first velocity component.
    """
    w = float(charge) * np.asarray(u, float)[:2]
    rho = float(np.linalg.norm(w))
    wh = w / rho
    rot = np.array([[wh[1], -wh[0]], [wh[0], wh[1]]])
    inner_v = (np.asarray(vel)[:, :2] @ rot.T) / rho
    inner_z = np.asarray(vel)[:, 2] / rho
    x0, y0, z0 = inner_v[0, 0], inner_v[0, 1], inner_z[0]
    y1 = y0 + 1.0
    s2 = x0 * x0 + y1 * y1
    phi = inner_z - z0
    law = inner_v[:, 0] ** 2 + (0.5 * phi * phi + z0 * phi + y1) ** 2
    return float(np.max(np.abs(law - s2))) / max(1.0, s2)


def lambda_residual(structure, lam, xi_t, xi_t_omega) -> float:
    """sigma(t + omega) = lam * sigma(t) on paired samples."""
    lhs = np.asarray(xi_t_omega, float)
    rhs = group_mul(structure, np.broadcast_to(lam, np.shape(xi_t)), np.asarray(xi_t, float))
    return float(np.max(np.abs(lhs - rhs))) / _scale(lhs, lam)


def energy_residual(v0, z0: float, energy: float) -> float:
    """|v0|^2/2 + z0^2/2 against the requested energy."""
    e = 0.5 * (float(np.dot(v0, v0)) + float(z0) ** 2)
    return abs(e - energy) / max(1.0, energy)


def closure_residual(ref_xi) -> float:
    """|xi(period)| of an oracle curve sampled on [0, period]."""
    return float(np.max(np.abs(ref_xi[-1]))) / _scale(ref_xi)


def verdicts(**residuals_and_tols) -> list[str]:
    """Messages for every (residual, tolerance) pair that fails."""
    out = []
    for name, (res, tol) in residuals_and_tols.items():
        if not (res <= tol):  # also catches NaN
            out.append(f"{name} residual {res:.3e} > {tol:.0e}")
    return out
