"""The sampled-curve record that every solver and the oracle return, and their base class.

It lives apart from the solvers so that a closed-form solver can build one
without loading the numerical oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["IntegratorStats", "CurveSamples", "Trajectory"]


@dataclass(frozen=True)
class IntegratorStats:
    """Work of one integration: right-hand-side evaluations and steps taken."""

    nfev: int
    accepted_steps: int
    rejected_steps: int


@dataclass
class CurveSamples:
    """A trajectory sampled on a time grid.

    velocity rows are the left-trivialized velocity x(t); xi rows are the
    group curve in exponential coordinates (None when only the velocity was
    integrated).  stats is set on integrated curves only.
    """

    t: np.ndarray
    velocity: np.ndarray
    xi: np.ndarray | None = None
    stats: IntegratorStats | None = None


class Trajectory:
    """A trajectory whose one evaluation path is sample(ts): position(t), velocity(t)
    and eval(t) are its rows at one time.  solver names the method for CLI metadata."""

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
