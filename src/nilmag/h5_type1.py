"""Periodic magnetic trajectories on the 5-dimensional Heisenberg group.

v = R^4 carries the complex structure j(Z) = diag(R, R) of heisenberg(2).
A splitting-preserving closed force on H5 is a skew F_v (the central block
is 1-dimensional, hence zero); the solvable class handled here is the one
commuting with j(Z), i.e. complex-linear under (a, b, c, d) <-> (a+ib, c+id).
Such an F_v is orthogonally conjugate, by a complex-unitary change of basis
S that preserves j and the brackets, to diag(mu1 R, mu2 R) with real rates
mu1 <= mu2.  The force is exact (j(Z~) for a central Z~) exactly when mu1 = mu2.

H5Trajectory is closedform's TypeISolution for this force: J = j(z0) +
charge F_v is diag(nu_1 R, nu_2 R) in the S-coordinates, with frequencies
nu_i = z0 + charge * mu_i, and the general closed form is evaluated there.
The block formulas below are its restriction to this case; they are written
out only because they justify the certificate conditions:

    block velocity   W_i'(t) = Rot(nu_i t) V_i
    block position   (sin(nu_i t)/nu_i) V_i + ((1 - cos(nu_i t))/nu_i) R V_i
    central position z(t) = drift * t - sum_i (|V_i|^2 / (2 nu_i^2)) sin(nu_i t)
    drift            z0 + sum_i |V_i|^2 / (2 nu_i)

with resonant blocks (nu_i = 0) degenerating to straight lines that leave
the center untouched.  The curve closes up (is genuinely periodic) when the
central drift vanishes and the active frequencies are commensurate; from
these two conditions a periodic orbit can be constructed AT EVERY ENERGY
whenever the force is not exact, and at 0 < E < mu^2/2 when it is:

  * single mode i:  possible when mu_i^2 > 2 E, with
        z0 = -mu_i + sign(mu_i) sqrt(mu_i^2 - 2E),  period 2 pi / |nu_i|
  * two modes:      pick a rational ratio nu_1 / nu_2 = p / q < 0, which
        forces z0 = (mu1 - r mu2)/(r - 1), r = p/q; the block energies
        x1 = -nu_1 (2 z0 nu_2 + s) / (nu_2 - nu_1), x2 = s - x1 with
        s = 2E - z0^2 must be nonnegative; period 2 pi q / |nu_2|.

periodic_at_energy tries the single modes first and then searches rational
ratios ordered by (q, |p|); the ratio -1 is feasible at every sufficiently
large energy, so the search succeeds on the whole energy range of a non-exact
force.  An exact force (mu1 = mu2 = mu) turns both blocks at nu = z0 + mu, and
zero drift needs z0^2 + 2 mu z0 + 2E = 0, with no root at nu != 0 once 2E >= mu^2.
"""

from __future__ import annotations

import enum
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import MetricNilAlgebra
from .closedform import _MERGE_TOL, InitialCondition, TypeISolution
from .errors import ExactForceError, InputError, NoCertificateError, UnsupportedForceError
from .lorentz import LorentzForce, exactness_test
from .samples import _CHECK_GRID, _translation_residual

__all__ = [
    "H5Force",
    "H5Branch",
    "H5Trajectory",
    "solve_h5",
    "PeriodicCertificate",
    "periodic_at_energy",
    "verify_periodic",
]

_ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])
_SEARCH_MAX_Q = 64
_SEARCH_MAX_P = 64
_VERIFY_TOL = 1e-8  # the largest group gap verify_periodic accepts, relative to max(1, max |sigma|)


@lru_cache(maxsize=1)
def _h5_algebra() -> MetricNilAlgebra:
    return MetricNilAlgebra.heisenberg(2)


class H5Force(NamedTuple):
    """A j-commuting closed force on H5 in diagonalized form.

    rates are (mu1, mu2) with mu1 <= mu2; frame is the orthogonal map S with
    S F_v S^T = diag(mu1 R, mu2 R), S j S^T = j, and bracket-preserving.
    matrix is the full 5x5 force.
    """

    mu1: float
    mu2: float
    frame: np.ndarray
    matrix: np.ndarray

    @classmethod
    def from_rates(cls, mu1: float, mu2: float) -> "H5Force":
        if not (math.isfinite(mu1) and math.isfinite(mu2)):
            raise InputError("rotation rates must be finite")
        if mu1 > mu2:
            mu1, mu2 = mu2, mu1
        m = np.zeros((5, 5))
        m[0:2, 0:2] = mu1 * _ROTATION
        m[2:4, 2:4] = mu2 * _ROTATION
        return cls(mu1=float(mu1), mu2=float(mu2), frame=np.eye(4), matrix=m)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "H5Force":
        """Diagonalize a j-commuting force given as a full 5x5 matrix.

        Raises UnsupportedForceError unless F maps [n, n] to 0 (P, the test
        lorentz.solve routes on) and its v-block commutes with j(Z).
        """
        alg = _h5_algebra()
        f = LorentzForce(alg, np.asarray(matrix, dtype=float))
        if not f._linear:
            raise UnsupportedForceError("H5 certificates need a force that maps [n, n] to 0")
        fv = f.block_vv
        jz = alg.j_map(np.array([1.0]))
        scale = max(1.0, float(np.max(np.abs(fv))))
        if np.max(np.abs(fv @ jz - jz @ fv)) > 1e-10 * scale:
            raise UnsupportedForceError(
                "H5 diagonalization needs the v-block to commute with j(Z)"
            )
        # -j(Z) F_v is symmetric, with eigenvalues mu1, mu1, mu2, mu2 on the
        # j-invariant planes {e, j e}; F_v e = mu j e there
        sym = -jz @ fv
        w, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
        e1 = vecs[:, 0]
        line = np.stack([e1, jz @ e1])
        rest = vecs[:, 2:] - line.T @ (line @ vecs[:, 2:])  # mu2 eigenvectors, off span{e1, j e1}
        e3 = rest[:, np.argmax(np.linalg.norm(rest, axis=0))]
        e3 /= np.linalg.norm(e3)
        frame = np.stack([e1, jz @ e1, e3, jz @ e3])
        mu1, mu2 = float(w[0]), float(w[-1])
        want = cls.from_rates(mu1, mu2).matrix[:4, :4]
        if np.max(np.abs(frame @ fv @ frame.T - want)) > 1e-10 * scale:
            raise UnsupportedForceError("diagonalization of the v-block failed")
        return cls(mu1=mu1, mu2=mu2, frame=frame, matrix=f.matrix.copy())

    @property
    def rates(self) -> tuple[float, float]:
        return self.mu1, self.mu2

    def is_exact(self) -> bool:
        """Whether the force is j(Z~), mu1 = mu2: lorentz.exactness_test's verdict."""
        return exactness_test(_h5_algebra(), self.matrix).is_exact


class H5Branch(enum.Enum):
    BOTH_FREE = "both-free"
    ONE_RESONANT = "one-resonant"
    FULLY_RESONANT = "fully-resonant"


class H5Trajectory(TypeISolution):
    """Magnetic trajectory on H5: the TypeISolution of the force's 5x5 matrix.

    branch counts the resonant blocks, the rate-0 planes of J = j(z0) + charge F_v:
    the v part of the kernel of A, whose dimension is the squared norm of the
    v parts of its orthonormal basis.
    """

    def __init__(self, force: H5Force, v0: np.ndarray, z0: float, charge: float = 1.0):
        alg = _h5_algebra()
        ic = InitialCondition(np.asarray(v0, dtype=float), np.array([float(z0)]), float(charge))
        super().__init__(alg, LorentzForce(alg, force.matrix), ic)
        _, vecs, edges = self._groups  # the kernel columns of the construction's eigh
        resonant_dim = np.sum(vecs[:4, : edges[1]] ** 2)
        self.branch = list(H5Branch)[round(resonant_dim) // 2]

    def energy(self) -> float:
        return 0.5 * self.speed() ** 2

    def drift(self) -> float:
        """Mean central velocity; the trajectory closes only when it is 0."""
        return float(self.linear_coefficient()[0])


def solve_h5(force: H5Force, v0, z0: float, charge: float = 1.0) -> H5Trajectory:
    """Trajectory of the j-commuting closed force with initial velocity (v0, z0)."""
    return H5Trajectory(force, v0, z0, charge)


class PeriodicCertificate(NamedTuple):
    """Constructive witness of a periodic orbit at a prescribed energy.

    The trajectory solve_h5(force, v0, z0) has the stated period, zero
    central drift() and energy |v0|^2/2 + z0^2/2 equal to the request.
    mode records the construction: "single-1", "single-2", or
    "two-mode p:q" for commensurate frequencies nu1/nu2 = p/q.
    """

    v0: np.ndarray
    z0: float
    period: float
    energy: float
    mode: str


def _single_mode(force: H5Force, energy: float, idx: int) -> PeriodicCertificate | None:
    mu = force.rates[idx]
    disc = mu * mu - 2.0 * energy
    if disc <= 0.0 or mu == 0.0:
        return None
    z0 = -mu + math.copysign(math.sqrt(disc), mu)
    nu = z0 + mu
    amp2 = -2.0 * z0 * nu
    if amp2 < 0.0:
        return None
    tilde = np.zeros(4)
    tilde[2 * idx] = math.sqrt(amp2)
    v0 = force.frame.T @ tilde
    return PeriodicCertificate(v0, z0, 2.0 * math.pi / abs(nu), energy, f"single-{idx + 1}")


def _two_mode(force: H5Force, energy: float) -> PeriodicCertificate | None:
    mu1, mu2 = force.rates
    scale = max(1.0, abs(mu1), abs(mu2))
    for q in range(1, _SEARCH_MAX_Q + 1):
        for p_abs in range(1, _SEARCH_MAX_P + 1):
            p = -p_abs
            if math.gcd(p_abs, q) != 1:
                continue
            r = p / q
            z0 = (mu1 - r * mu2) / (r - 1.0)
            nu1, nu2 = z0 + mu1, z0 + mu2
            if abs(nu1) <= 1e-9 * scale or abs(nu2) <= 1e-9 * scale:
                continue
            s = 2.0 * energy - z0 * z0
            if s < 0.0:
                continue
            x1 = -nu1 * (2.0 * z0 * nu2 + s) / (nu2 - nu1)
            x2 = s - x1
            if x1 < -1e-12 * max(1.0, s) or x2 < -1e-12 * max(1.0, s):
                continue
            x1, x2 = max(x1, 0.0), max(x2, 0.0)
            tilde = np.array([math.sqrt(x1), 0.0, math.sqrt(x2), 0.0])
            v0 = force.frame.T @ tilde
            return PeriodicCertificate(v0, z0, 2.0 * math.pi * q / abs(nu2), energy, f"two-mode {p}:{q}")
    return None


def periodic_at_energy(force: H5Force, energy: float) -> PeriodicCertificate:
    """Construct a periodic orbit of the given energy (charge 1).

    Raises InputError for a negative energy; when no mode closes, ExactForceError
    for an exact force (which has none: E >= mu^2/2, see the module docstring),
    else NoCertificateError (the rational search is exhausted).
    """
    if not math.isfinite(energy) or energy < 0.0:
        raise InputError("energy must be a finite nonnegative number")
    cert = _single_mode(force, energy, 0) or _single_mode(force, energy, 1) or _two_mode(force, energy)
    if cert is not None:
        return cert
    if force.is_exact():
        raise ExactForceError(f"an exact force (equal rates mu) has no periodic orbit at energy {energy:.6g} "
                              ">= mu^2/2: zero drift needs z0^2 + 2 mu z0 + 2E = 0, with no root at z0 + mu != 0")
    raise NoCertificateError(
        f"no periodic orbit certificate found at energy {energy:.6g}"
    )


def verify_periodic(traj: H5Trajectory, period: float) -> tuple[bool, float]:
    """Check sigma(t + period) = sigma(t) in the group, returning (ok, residual).

    period must be a whole multiple m, to _MERGE_TOL, of omega =
    traj.velocity_period() (any time when the velocity is constant, m = period / omega then):
    sigma(t + period) = lam^m sigma(t) = (m lam) sigma(t) with lam = sigma(omega),
    so the residual is max(m |lam|, the residual of lambda_periodicity's check
    on its grid), and ok says that it is at most _VERIFY_TOL max(1, max |sigma|)
    there, as positions grow with the energy and the period.  Any other period
    is not one of the velocity: not ok, with the residual of sigma(t + period)
    = sigma(t) itself.  A period that is not finite and positive raises InputError.
    """
    return _periodic_check(traj, period)[:2]


def _periodic_check(traj: H5Trajectory, period: float) -> tuple[bool, float, float | None]:
    """verify_periodic's (ok, residual) and the absolute bound that decided ok:
    ok is residual <= bound, and bound is None for a period that is not one of
    the velocity."""
    if not (math.isfinite(period) and period > 0.0):
        raise InputError("period must be a finite positive number")
    omega = traj.velocity_period()
    m = None if omega is None else period / omega
    if m is not None and traj.rates.any():  # a turning velocity repeats at whole multiples only
        m = round(m) if abs(m - round(m)) <= _MERGE_TOL * m else None
    if not m:
        return False, _translation_residual(traj, np.zeros(traj.alg.dim), period), None
    xi = traj.sample(omega * _CHECK_GRID).xi  # lam = sigma(omega), then the check times
    worst = max(m * float(np.linalg.norm(xi[0])), _translation_residual(traj, xi[0], omega, rows=xi[1:]))
    bound = _VERIFY_TOL * max(1.0, float(np.max(np.abs(xi))))
    return worst <= bound, worst, bound
