"""Independent numerical integration of the magnetic trajectory equations.

The left-trivialized velocity x(t) of a magnetic trajectory with charge q
satisfies the first-order system on the algebra

    x' = a(x) + q F x,        a(x)_k = <x, [x, e_k]>   (the geodesic drift),

and the group curve xi(t) (exponential coordinates, xi(0) = 0) is
reconstructed from

    xi_v' = x_v,
    xi_z' = x_z - (1/2) [x_v, xi_v].

Both are integrated here with either an adaptive Dormand-Prince 4(5) pair
(scipy's RK45) or a fixed-step classical RK4, giving an oracle that shares
no code with the closed-form solvers.

scipy is imported by the adaptive integrator when it first runs, not when
this module loads, so the closed-form solvers and CurveSamples (defined
here) cost no scipy import.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import MetricNilAlgebra
from .errors import GridMismatchError, IntegrationError
from .lorentz import LorentzForce

__all__ = [
    "IntegratorConfig",
    "CurveSamples",
    "ComparisonReport",
    "integrate_velocity",
    "reconstruct_group",
    "compare",
]

_TOL_RANGE = (1e-14, 1e-3)


@dataclass(frozen=True)
class IntegratorConfig:
    """Integrator selection: scheme is "dopri45" (adaptive) or "rk4" (fixed step).

    tolerance is the absolute and relative tolerance of the adaptive pair and
    must lie strictly inside (1e-14, 1e-3); dt is the fixed RK4 step (each
    output interval is subdivided into ceil(interval/dt) equal steps, so the
    sample times are hit exactly).
    """

    scheme: str = "dopri45"
    tolerance: float = 1e-11
    dt: float | None = None

    def __post_init__(self):
        if self.scheme not in ("dopri45", "rk4"):
            raise ValueError(f"unknown scheme {self.scheme!r}; use 'dopri45' or 'rk4'")
        if not _TOL_RANGE[0] < self.tolerance < _TOL_RANGE[1]:
            raise ValueError(
                f"tolerance must lie in ({_TOL_RANGE[0]}, {_TOL_RANGE[1]}), got {self.tolerance}"
            )
        if self.scheme == "rk4":
            if self.dt is None or not np.isfinite(self.dt) or self.dt <= 0.0:
                raise ValueError("rk4 needs a positive fixed step dt")


@dataclass
class CurveSamples:
    """A trajectory sampled on a time grid.

    velocity rows are the left-trivialized velocity x(t); xi rows are the
    group curve in exponential coordinates (None when only the velocity was
    integrated).  speed is the pointwise norm of the velocity, constant along
    genuine magnetic trajectories.
    """

    t: np.ndarray
    velocity: np.ndarray
    xi: np.ndarray | None = None

    @property
    def speed(self) -> np.ndarray:
        return np.linalg.norm(self.velocity, axis=1)

    @property
    def speed_drift(self) -> float:
        """Largest relative deviation of the speed from its initial value."""
        s = self.speed
        s0 = s[0] if s[0] > 0 else 1.0
        return float(np.max(np.abs(s - s[0])) / s0)


@dataclass(frozen=True)
class ComparisonReport:
    """Pointwise comparison of two trajectories on a shared grid."""

    max_velocity_deviation: float
    max_position_deviation: float | None
    speed_drift: float  # worst of either curve


def _rhs_velocity(alg: MetricNilAlgebra, fmat: np.ndarray, q: float):
    def rhs(_t, x):
        return alg.geodesic_term(x) + q * (fmat @ x)

    return rhs


def _rhs_combined(alg: MetricNilAlgebra, fmat: np.ndarray, q: float):
    d, dv = alg.dim, alg.dim_v

    def rhs(_t, y):
        x, xi = y[:d], y[d:]
        dx = alg.geodesic_term(x) + q * (fmat @ x)
        dxi = x - 0.5 * alg.bracket(alg.embed_v(x[:dv]), alg.embed_v(xi[:dv]))
        return np.concatenate([dx, dxi])

    return rhs


def _force_matrix(alg: MetricNilAlgebra, force) -> np.ndarray:
    if isinstance(force, LorentzForce):
        return force.matrix
    return LorentzForce(alg, force).matrix  # validates skewness and shape


def _check_inputs(alg: MetricNilAlgebra, x0: np.ndarray, t_grid: np.ndarray):
    if x0.shape != (alg.dim,) or not np.all(np.isfinite(x0)):
        raise ValueError(f"initial velocity must be a finite ({alg.dim},) vector")
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("time grid needs at least two samples")
    if not np.all(np.isfinite(t_grid)) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be finite and strictly increasing")
    if t_grid[0] != 0.0:
        raise ValueError("time grid must start at t = 0")


def _run_rk4(rhs, y0: np.ndarray, t_grid: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty((t_grid.size, y0.size))
    out[0] = y0
    y = y0.astype(float).copy()
    t = float(t_grid[0])
    for idx in range(1, t_grid.size):
        span = float(t_grid[idx]) - t
        nsteps = max(1, int(np.ceil(span / dt - 1e-12)))
        h = span / nsteps
        for _ in range(nsteps):
            try:
                k1 = rhs(t, y)
                k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
                k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
                k4 = rhs(t + h, y + h * k3)
            except ValueError as exc:  # overflowed stage values
                raise IntegrationError(f"rk4 produced non-finite state at t = {t}") from exc
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            if not np.all(np.isfinite(y)):
                raise IntegrationError(f"rk4 produced non-finite state at t = {t}")
        t = float(t_grid[idx])
        out[idx] = y
    return out


def _run_dopri(rhs, y0: np.ndarray, t_grid: np.ndarray, tol: float) -> np.ndarray:
    from scipy.integrate import solve_ivp

    try:
        sol = solve_ivp(
            rhs,
            (float(t_grid[0]), float(t_grid[-1])),
            y0,
            method="RK45",
            t_eval=t_grid,
            rtol=tol,
            atol=tol,
        )
    except ValueError as exc:  # overflowed stage values
        raise IntegrationError("adaptive integration produced non-finite state") from exc
    if not sol.success:
        raise IntegrationError(f"adaptive integration failed: {sol.message}")
    if not np.all(np.isfinite(sol.y)):
        raise IntegrationError("adaptive integration produced non-finite values")
    return sol.y.T


def _integrate(rhs, y0: np.ndarray, t_grid: np.ndarray, config: IntegratorConfig) -> np.ndarray:
    if config.scheme == "rk4":
        return _run_rk4(rhs, y0, t_grid, float(config.dt))
    return _run_dopri(rhs, y0, t_grid, config.tolerance)


def integrate_velocity(
    alg: MetricNilAlgebra,
    force,
    q: float,
    x0: np.ndarray,
    t_grid: np.ndarray,
    config: IntegratorConfig | None = None,
) -> CurveSamples:
    """Integrate the left-trivialized velocity equation on the algebra."""
    config = config or IntegratorConfig()
    x0 = np.asarray(x0, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    _check_inputs(alg, x0, t_grid)
    fmat = _force_matrix(alg, force)
    ys = _integrate(_rhs_velocity(alg, fmat, float(q)), x0, t_grid, config)
    return CurveSamples(t=t_grid.copy(), velocity=ys)


def reconstruct_group(
    alg: MetricNilAlgebra,
    force,
    q: float,
    x0: np.ndarray,
    t_grid: np.ndarray,
    config: IntegratorConfig | None = None,
) -> CurveSamples:
    """Integrate velocity and group curve together (xi(0) = 0, identity start).

    The combined 2*dim system couples the velocity equation with the
    left-translation reconstruction xi_v' = x_v, xi_z' = x_z - [x_v, xi_v]/2.
    """
    config = config or IntegratorConfig()
    x0 = np.asarray(x0, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    _check_inputs(alg, x0, t_grid)
    fmat = _force_matrix(alg, force)
    y0 = np.concatenate([x0, np.zeros(alg.dim)])
    ys = _integrate(_rhs_combined(alg, fmat, float(q)), y0, t_grid, config)
    return CurveSamples(t=t_grid.copy(), velocity=ys[:, : alg.dim], xi=ys[:, alg.dim :])


def compare(a: CurveSamples, b: CurveSamples) -> ComparisonReport:
    """Max pointwise deviations of two sampled curves on the same grid.

    Raises GridMismatchError when the time grids differ; position deviation
    is None unless both curves carry group samples.
    """
    if a.t.shape != b.t.shape or not np.allclose(a.t, b.t, rtol=0.0, atol=1e-15):
        raise GridMismatchError("curves were sampled on different time grids")
    dv = float(np.max(np.linalg.norm(a.velocity - b.velocity, axis=1)))
    dp = None
    if a.xi is not None and b.xi is not None:
        dp = float(np.max(np.linalg.norm(a.xi - b.xi, axis=1)))
    return ComparisonReport(
        max_velocity_deviation=dv,
        max_position_deviation=dp,
        speed_drift=max(a.speed_drift, b.speed_drift),
    )
