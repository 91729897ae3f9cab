"""The sampled-curve record that every solver and the oracle return, their
base class, and the one translation check that serves every solver.

It lives apart from the solvers so that a closed-form solver can build its
samples without loading the numerical oracle.

The velocity equation is autonomous in the left trivialization, so a
velocity with period omega makes the group curve lambda-periodic:
sigma(t + omega) = lam * sigma(t) with lam = sigma(omega), because both
sides share the same left-trivialized velocity and the same value at t = 0.
The curve is genuinely periodic exactly when lam is the identity.  Each
solver states omega by velocity_period(); lambda_periodicity reads lam, checks
the identity and decides closure, relative to the curve, on one sample grid.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .errors import InputError, UnsupportedForceError

__all__ = ["IntegratorStats", "CurveSamples", "Trajectory", "PeriodicityKind", "PeriodicityReport",
           "lambda_periodicity"]

# |sigma(omega)| at or below this times max |sigma| over _CHECK_GRID counts as closed
_PERIODIC_TOL = 1e-8
# times in [0, 2 omega] on which lambda_periodicity verifies the translation
_N_CHECKS = 10
# in units of omega: the period itself, the check times ts, then ts + omega
_CHECK_GRID = np.concatenate(([1.0], np.linspace(0.0, 2.0, _N_CHECKS), np.linspace(1.0, 3.0, _N_CHECKS)))
# the largest |t| of a sample grid: t^3 / 6, the highest power of time that a
# closed form forms (type I), overflows from |t| = 5.6e102
_T_MAX = 1e100


class IntegratorStats(NamedTuple):
    """Work of one integration: right-hand-side evaluations and steps taken."""

    nfev: int
    accepted_steps: int
    rejected_steps: int


class CurveSamples(NamedTuple):
    """A trajectory sampled on a time grid.

    velocity rows are the left-trivialized velocity x(t); xi rows are the
    group curve in exponential coordinates (None when only the velocity was
    integrated).  stats is set on integrated curves only.
    """

    t: np.ndarray
    velocity: np.ndarray
    xi: np.ndarray | None = None
    stats: IntegratorStats | None = None


def _time_grid(ts) -> np.ndarray:
    """ts as a float array for every sample(ts); InputError for a time that is
    NaN or above _T_MAX in size, where a closed form returned NaN or inf."""
    ts = np.asarray(ts, dtype=float)
    if not np.abs(ts).max(initial=0.0) <= _T_MAX:  # also false at a NaN
        raise InputError(f"sample times must be finite and at most {_T_MAX:g} in size")
    return ts


class Trajectory:
    """A trajectory whose one evaluation path is sample(ts): position(t), velocity(t)
    and eval(t) are its rows at one time.  solver names the method for CLI metadata,
    and alg is the algebra whose group law the curve lives in."""

    solver: str

    def sample(self, ts: np.ndarray) -> CurveSamples:
        raise NotImplementedError

    def velocity(self, t: float) -> np.ndarray:
        return self.sample(np.array([float(t)])).velocity[0]

    def position(self, t: float) -> np.ndarray:
        return self.sample(np.array([float(t)])).xi[0]

    def eval(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        one = self.sample(np.array([float(t)]))
        return one.xi[0], one.velocity[0]

    def velocity_period(self) -> float | None:
        """The period omega of the velocity, or None when it is not periodic.
        A solver that cannot tell (the numerical oracle) raises
        UnsupportedForceError: None would claim a non-periodic curve."""
        raise UnsupportedForceError(f"the {self.solver} solver states no velocity period")


class PeriodicityKind(enum.Enum):
    PERIODIC = "periodic"
    LAMBDA_PERIODIC = "lambda-periodic"
    NON_PERIODIC = "non-periodic"


class PeriodicityReport(NamedTuple):
    """Trichotomy certificate for a trajectory.

    For kinds other than NON_PERIODIC, sigma(t + omega) = translation *
    sigma(t) for all t; residual is the worst verification error of that
    identity on sample times.  PERIODIC means |translation| <= tolerance,
    the absolute bound _PERIODIC_TOL max |sigma| over the sample times that
    decided kind (None for NON_PERIODIC).
    """

    kind: PeriodicityKind
    omega: float | None
    translation: np.ndarray | None
    residual: float | None
    tolerance: float | None


def _translation_residual(traj: Trajectory, lam: np.ndarray, omega: float, start=None, rows=None) -> float:
    """Worst |sigma(t + omega) - lam * sigma(t)| over the _N_CHECKS times ts in
    [0, 2 omega], sigma the curve of traj left-translated by the group point
    start, if given; rows are the curve of traj on [ts, ts + omega], sampled
    here in one call if not given.  lam sigma(t) is group_mul's unchecked arithmetic
    on the solver's own points; start, the caller's point, is checked."""
    alg = traj.alg
    xi = traj.sample(omega * _CHECK_GRID[1:]).xi if rows is None else rows
    if start is not None:
        xi = alg.group_mul(start, xi)
    return float(np.max(np.abs(xi[_N_CHECKS:] - alg._group_mul(lam, xi[:_N_CHECKS]))))


def lambda_periodicity(traj: Trajectory, start=None) -> PeriodicityReport:
    """Classify a trajectory as periodic, lambda-periodic, or non-periodic,
    with the translation element.

    The translation is sigma(omega) where omega = traj.velocity_period(), and
    PERIODIC means |sigma(omega)| <= tolerance = _PERIODIC_TOL max |sigma| over
    the sample times, relative to the curve and with no floor, so a rest point
    (lam = 0) is PERIODIC.  With a group point start, the report is for the
    curve start * sigma(t), translated by start lam start^-1 = lam + [start, lam];
    the kind and the tolerance do not depend on it.  One sample call on
    omega and the check times gives the translation and its residual.
    UnsupportedForceError propagates from a solver that states no period.
    """
    omega = traj.velocity_period()
    if omega is None:
        return PeriodicityReport(PeriodicityKind.NON_PERIODIC, None, None, None, None)
    xi = traj.sample(omega * _CHECK_GRID).xi
    lam = xi[0]
    tolerance = _PERIODIC_TOL * float(np.max(np.abs(xi)))
    kind = PeriodicityKind.PERIODIC if math.hypot(*lam.tolist()) <= tolerance else PeriodicityKind.LAMBDA_PERIODIC
    if start is not None:
        lam = lam + traj.alg.bracket(start, lam)
    residual = _translation_residual(traj, lam, omega, start, xi[1:])
    return PeriodicityReport(kind, omega, lam, residual, tolerance)
