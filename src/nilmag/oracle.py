"""Independent numerical integration of the magnetic trajectory equations.

The left-trivialized velocity x(t) of a magnetic trajectory with charge q
satisfies the first-order system on the algebra

    x' = a(x) + q F x,        a(x)_k = <x, [x, e_k]>   (the geodesic drift),

and the group curve xi(t) (exponential coordinates, xi(0) = 0) is
reconstructed from

    xi_v' = x_v,
    xi_z' = x_z - (1/2) [x_v, xi_v].

Both are integrated here, with numpy alone, by an adaptive Dormand-Prince
5(4) pair or a fixed-step classical RK4 through one explicit Runge-Kutta
stage helper, giving an oracle that shares no code with the closed-form
solvers.  The adaptive pair (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4-II.6) takes the same steps as scipy's RK45: tableau, dense output,
error norm, step controller and initial step.
"""

from __future__ import annotations

import numpy as np

from .algebra import MetricNilAlgebra
from .errors import InputError, IntegrationError
from .lorentz import _as_force
from .samples import CurveSamples, IntegratorStats, Trajectory, _time_grid

__all__ = ["IntegratorConfig", "IntegratorStats", "CurveSamples", "integrate_velocity",
           "reconstruct_group", "OracleTrajectory"]

_TOL_RANGE = (1e-14, 1e-3)

# Explicit tableaux (A, B, C); Dormand-Prince adds error weights E and Shampine's dense output P
_RK4 = (np.array([[0, 0, 0], [1 / 2, 0, 0], [0, 1 / 2, 0], [0, 0, 1]]),
        np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6]), np.array([0, 1 / 2, 1 / 2, 1]))
_DOPRI = (np.array([[0, 0, 0, 0, 0], [1 / 5, 0, 0, 0, 0], [3 / 40, 9 / 40, 0, 0, 0],
                    [44 / 45, -56 / 15, 32 / 9, 0, 0],
                    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0],
                    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]]),
           np.array([35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
           np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1]))
_DOPRI_E = np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])
_DOPRI_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


class IntegratorConfig:
    """Integrator selection: scheme is "dopri45" (adaptive) or "rk4" (fixed step).

    tolerance is the absolute and relative tolerance of the adaptive pair and
    must lie strictly inside (1e-14, 1e-3); dt is the fixed RK4 step (each
    output interval is subdivided into ceil(interval/dt) equal steps, so the
    sample times are hit exactly).
    """

    def __init__(self, scheme: str = "dopri45", tolerance: float = 1e-11, dt: float | None = None):
        if scheme not in ("dopri45", "rk4"):
            raise ValueError(f"unknown scheme {scheme!r}; use 'dopri45' or 'rk4'")
        if not _TOL_RANGE[0] < tolerance < _TOL_RANGE[1]:
            raise ValueError(f"tolerance must lie in ({_TOL_RANGE[0]}, {_TOL_RANGE[1]}), got {tolerance}")
        if scheme == "rk4" and (dt is None or not np.isfinite(dt) or dt <= 0.0):
            raise ValueError("rk4 needs a positive fixed step dt")
        self.scheme, self.tolerance, self.dt = scheme, tolerance, dt


def _rhs_velocity(alg: MetricNilAlgebra, fmat: np.ndarray, q: float):
    def rhs(_t, x):
        return alg.geodesic_term(x) + q * (fmat @ x)

    return rhs


def _rhs_combined(alg: MetricNilAlgebra, fmat: np.ndarray, q: float):
    d = alg.dim

    def rhs(_t, y):
        x, xi = y[:d], y[d:]
        dx = alg.geodesic_term(x) + q * (fmat @ x)
        # structure vanishes outside v x v -> z, so [x, xi] is already [x_v, xi_v]
        return np.concatenate([dx, x - 0.5 * alg.bracket(x, xi)])

    return rhs


def _check_inputs(alg: MetricNilAlgebra, x0: np.ndarray, t_grid: np.ndarray):
    if x0.shape != (alg.dim,) or not np.all(np.isfinite(x0)):
        raise ValueError(f"initial velocity must be a finite ({alg.dim},) vector")
    if t_grid.ndim != 1 or t_grid.size < 2:
        raise ValueError("time grid needs at least two samples")
    if not np.all(np.isfinite(t_grid)) or np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be finite and strictly increasing")
    if t_grid[0] != 0.0:
        raise ValueError("time grid must start at t = 0")


def _rk_step(rhs, t: float, y: np.ndarray, f: np.ndarray, h: float, tableau, k: np.ndarray):
    """One explicit Runge-Kutta step from y with f = rhs(t, y); the stages fill k."""
    a, b, c = tableau
    k[0] = f
    for s in range(1, c.size):
        k[s] = rhs(t + c[s] * h, y + np.dot(k[:s].T, a[s, :s]) * h)
    return y + h * np.dot(k[: b.size].T, b)


def _run_rk4(rhs, y0: np.ndarray, t_grid: np.ndarray, dt: float):
    out = np.empty((t_grid.size, y0.size))
    out[0] = y = y0
    k = np.empty((4, y0.size))
    steps = 0
    for idx in range(1, t_grid.size):
        t = float(t_grid[idx - 1])
        span = float(t_grid[idx]) - t
        nsteps = max(1, int(np.ceil(span / dt - 1e-12)))
        h = span / nsteps
        for _ in range(nsteps):
            y = _rk_step(rhs, t, y, rhs(t, y), h, _RK4, k)
            t += h
            if not np.all(np.isfinite(y)):
                raise IntegrationError(f"rk4 produced non-finite state at t = {t}")
        steps += nsteps
        out[idx] = y
    return out, IntegratorStats(4 * steps, steps, 0)


def _norm(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size**0.5  # RMS


def _initial_step(rhs, t: float, y: np.ndarray, f: np.ndarray, span: float, tol, rtol) -> float:
    """Hairer-Norsett-Wanner starting step for an error estimator of order 4."""
    scale = tol + np.abs(y) * rtol
    d0, d1 = _norm(y / scale), _norm(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
    d2 = _norm((rhs(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15 else (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


def _run_dopri(rhs, y0: np.ndarray, t_grid: np.ndarray, tol: float):
    """Adaptive Dormand-Prince 5(4), grid points taken from the dense output.

    A step passes when the RMS of its error scaled by tol + rtol max(|y|, |y_new|)
    is below 1; the next is 0.9 err^(-1/5) times larger, the factor clipped to
    [0.2, 10] and to 1 after a rejection.  A step below 10 ulp of t raises
    IntegrationError, and so does a non-finite error (scipy would shrink the step).
    """
    rtol = max(tol, 100 * np.finfo(float).eps)  # scipy's floor on the relative tolerance
    t, t_end = float(t_grid[0]), float(t_grid[-1])
    y, f = y0, rhs(t, y0)
    h_abs = _initial_step(rhs, t, y, f, t_end - t, tol, rtol)
    k = np.empty((7, y0.size))
    out = np.empty((t_grid.size, y0.size))
    done = accepted = rejected = 0
    while t < t_end:
        min_step = 10 * (np.nextafter(t, np.inf) - t)
        h_abs, retry = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise IntegrationError(f"adaptive step size underflow at t = {t}")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            y_new = _rk_step(rhs, t, y, f, h, _DOPRI, k)
            k[6] = f_new = rhs(t_new, y_new)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = _norm(np.dot(k.T, _DOPRI_E) * h / scale)
            if not np.isfinite(err):
                raise IntegrationError(f"adaptive integration produced non-finite state at t = {t}")
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err**-0.2)
                h_abs = h * (min(1, factor) if retry else factor)
                break
            h_abs, retry = h * max(0.2, 0.9 * err**-0.2), True
            rejected += 1
        accepted += 1
        upto = np.searchsorted(t_grid, t_new, side="right")
        p = np.cumprod(np.tile((t_grid[done:upto] - t) / h, (4, 1)), axis=0)
        out[done:upto] = (h * np.dot(k.T.dot(_DOPRI_P), p) + y[:, None]).T
        t, y, f, done = t_new, y_new, f_new, upto
    return out, IntegratorStats(2 + 6 * (accepted + rejected), accepted, rejected)


def _integrate(rhs, y0: np.ndarray, t_grid: np.ndarray, config: IntegratorConfig):
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
    fmat = _as_force(alg, force).matrix
    ys, stats = _integrate(_rhs_velocity(alg, fmat, float(q)), x0, t_grid, config)
    return CurveSamples(t=t_grid.copy(), velocity=ys, stats=stats)


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
    fmat = _as_force(alg, force).matrix
    y0 = np.concatenate([x0, np.zeros(alg.dim)])
    ys, stats = _integrate(_rhs_combined(alg, fmat, float(q)), y0, t_grid, config)
    return CurveSamples(t=t_grid.copy(), velocity=ys[:, : alg.dim], xi=ys[:, alg.dim :], stats=stats)


class OracleTrajectory(Trajectory):
    """The numerical fallback of lorentz.solve: reconstruct_group at config
    (adaptive Dormand-Prince at 1e-11).  Each sample(ts) call integrates the
    sorted times {0} u ts afresh (0 and 1 when ts holds no other time), so a
    grid that starts at 0 with two or more points is integrated as it is."""

    solver = "oracle"
    config = IntegratorConfig()

    def __init__(self, alg: MetricNilAlgebra, force, charge: float, x0):
        self.alg, self.force, self.charge = alg, _as_force(alg, force), float(charge)
        self.x0 = np.array(x0, dtype=float)
        if self.x0.shape != (alg.dim,) or not (np.all(np.isfinite(self.x0)) and np.isfinite(self.charge)):
            raise InputError(f"the oracle needs a finite ({alg.dim},) initial velocity and a finite charge")

    def sample(self, ts: np.ndarray) -> CurveSamples:
        ts = _time_grid(ts)
        grid, back = np.unique(np.append(ts, 0.0), return_inverse=True)
        grid = grid if grid.size > 1 else np.array([0.0, 1.0])
        curve = reconstruct_group(self.alg, self.force, self.charge, self.x0, grid, self.config)
        rows = back[: ts.size]
        return CurveSamples(ts.copy(), curve.velocity[rows], curve.xi[rows], curve.stats)
