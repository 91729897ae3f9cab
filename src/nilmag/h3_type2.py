"""Jacobi-elliptic trajectories for the vector-type force on H3.

On the 3-dimensional Heisenberg group the non-splitting closed force is
F_u(V + Z) = [V, u] + j(Z) u for a nonzero u in v.  Every (u, charge) pair
reduces to the canonical u = e2, charge = 1 by a rotation of v and a time
rescaling.  Type2TrajectoryH3 holds that reduction (rotation, time_scale),
solves the canonical case for the rotated, rescaled initial velocity, and its
sample(ts) maps the result back to the trajectory's own frame and time.

Canonical case, initial velocity (x0, y0, z0).  The z-velocity psi(t)
(shifted as Phi = psi - z0, so Phi(0) = 0, Phi'(0) = x0) obeys

    Phi'^2 + (Phi^2/2 + z0 Phi + y1)^2 = S^2,   y1 = y0 + 1,
    S = sqrt(x0^2 + y1^2),

which pins the whole velocity algebraically:

    velocity(t) = ( Phi'(t),  y0 + z0 Phi + Phi^2/2,  z0 + Phi(t) ).

The sign of disc = 2 (S + y1) - z0^2 selects the solution family for
psi = Phi + z0:

    disc > 0:  psi = a cn(C0 - sqrt(S) t, k),  a^2 = 2(S - y1) + z0^2,
               k = a / (2 sqrt(S)),            period 4 K(k) / sqrt(S)
    disc < 0:  psi = sign(z0) a dn(C1 - (a/2) t, k),  k = 2 sqrt(S) / a,
               period 4 K(k) / a
    disc = 0:  psi = sign(z0) 2 sqrt(S) sech(C2 - sqrt(S) t)   (separatrix)

plus the degenerate straight line Phi == 0 exactly when x0 = 0 and
z0 y1 = 0.  Phases C0, C1, C2 are pinned by psi(0) = z0 and the sign of x0.

Positions come from two conservation laws, with no running integral of
Phi^m.  With xi the group curve from the identity, xi_x = Phi, and the
y-velocity y0 + (psi^2 - z0^2) / 2 integrates to

    xi_y = drift t + c (F(phase) - F(u)),   drift = y0 + z0 h + <Phi^2> / 2,

with h and <Phi^2> the period means of Phi and Phi^2, u = phase - rate t,
and F one function of the phase: the Jacobi zeta function on cn (c = 2 rate)
and dn (c = a), tanh on the separatrix (c = a), none on the straight line.
The magnetic momentum of the left translations along e1 (integrate
Phi'' = -(y + 1) psi, y the y-velocity) gives

    xi_z = Phi'(0) - Phi'(t) - (z0 + Phi(t) / 2) xi_y(t),

so sample needs F and Phi' on its grid and the one scalar drift, set at
construction with the rest of the reduction in Python floats; there is no
numerical integration.  xi_z is a difference of terms of size |Phi'| and
|z0 xi_y|, and its error is a few ulp of those.

velocity_period() is the period on the cn and dn branches, so that
samples.lambda_periodicity (re-exported here) classifies these curves as
it does every solver's.
"""

from __future__ import annotations

import enum
import math
from functools import cached_property, lru_cache

import numpy as np

from .algebra import MetricNilAlgebra
from .errors import DegenerateForceError, InputError
from .lorentz import _direction
from .samples import CurveSamples, PeriodicityKind, PeriodicityReport, Trajectory, _time_grid, lambda_periodicity
from .specfun import _descent_table, _elliptic_f, _jacobi_zeta, sech

__all__ = ["Branch", "Type2TrajectoryH3", "solve_type2_general", "PeriodicityKind", "PeriodicityReport",
           "lambda_periodicity", "lambda_kernel_check"]

_BOUNDARY_TOL = 1e-12
# relative distance of the translation's v-part from span(u) in the force kernel
_KERNEL_TOL = 1e-12


@lru_cache(maxsize=1)
def _h3_algebra() -> MetricNilAlgebra:
    return MetricNilAlgebra.heisenberg(1)


class Branch(enum.Enum):
    """Solution family of the canonical H3 vector-force trajectory."""

    CN = "cn"
    DN = "dn"
    SECH_POS = "sech+"
    SECH_NEG = "sech-"
    LINEAR = "linear"


class Type2TrajectoryH3(Trajectory):
    """H3 trajectory for the vector force F_u with the given charge.

    With w = charge u, the rotation r of v taking w / |w| to e2 and the time
    scale q = 1 / |w| take (u, charge) to (e2, 1); they are the attributes
    rotation and time_scale.  The canonical trajectory starts from
    q (r x0_v, x0_z), and at time t this trajectory is the canonical one at
    t / q with velocities divided by q and planar components turned back by
    r^T.  sample(ts) evaluates that map once per grid.  alg is heisenberg(1).

    u has shape (2,) or (3,) with a zero central part (InvalidForceError
    otherwise); u finite and charge u nonzero (DegenerateForceError); an x0
    that is not three finite numbers, a charge that is not finite, and initial
    data whose size or mean y-velocity overflows are refused (InputError).
    period and time_scale are in this trajectory's own time.  Every other
    attribute (branch, disc, amplitude, modulus, rate, phase, and x0/y0/z0,
    the canonical initial velocity) and phi_image() describe the canonical
    trajectory.  For the default (e2, 1) the rotation is the identity and
    q = 1, so the two frames coincide.  Positions take the canonical mean
    y-velocity, drift, and the two laws of the module docstring.
    """

    solver = "closed-form-type-2"

    def __init__(self, x0, u=(0.0, 1.0), charge: float = 1.0):
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (3,) or not all(map(math.isfinite, (*x0.tolist(), charge))):  # before inf * 0 in charge u
            raise InputError("the H3 closed form needs a finite (3,) initial velocity and a finite charge")
        u1, u2 = _direction(u)
        w1, w2 = float(charge) * u1, float(charge) * u2
        rho = math.sqrt(w1 * w1 + w2 * w2)  # |w| as a sum of squares: it overflows and underflows as w does
        if not math.isfinite(rho) or rho < 1e-14:
            raise DegenerateForceError("vector-type force needs charge * u nonzero")
        c, s = w2 / rho, w1 / rho
        self.rotation = np.array([[c, -s], [s, c]])  # takes w / |w| = (s, c) to e2
        self.time_scale = q = 1.0 / rho
        vx, vy, vz = x0.tolist()
        self.x0, self.y0, self.z0 = q * (c * vx - s * vy), q * (s * vx + c * vy), q * vz
        self._canonical_branch()
        h, mean2 = self._means
        self._drift = self.y0 + (self.z0 * h + 0.5 * mean2)  # the mean y-velocity
        if not math.isfinite(self._drift):  # past the float range the amplitude's square is not finite
            raise InputError("the initial velocity is out of the H3 closed form's range: its mean y-velocity overflows")

    def _canonical_branch(self) -> None:
        """The branch of (x0, y0, z0) and its amplitude, modulus, rate, period and phase."""
        self.y1 = self.y0 + 1.0
        self.v1_norm = math.hypot(self.x0, self.y1)  # S above
        s = self.v1_norm
        z0 = self.z0
        # S - y1, S + y1 and their roots without cancellation.  The larger sum is
        # S + |y1| and the root of the smaller |x0| / sqrt(S + |y1|), so no root
        # squares x0 (x0^2 underflows for |x0| below about 1e-154).  The smaller
        # sum may underflow, and disc with it: the branch goes by d_minus below.
        big = s + abs(self.y1)
        if not math.isfinite(big):  # as the linear closed form refuses an x(0) whose norm overflows
            raise InputError("the initial velocity is out of the H3 closed form's range: its size overflows")
        root = abs(self.x0) / math.sqrt(big) if big > 0.0 else 0.0
        smaller, larger = (root * root, root), (big, math.sqrt(big))
        (self._s_minus_y1, self._r_minus), (s_plus_y1, r_plus) = (
            (smaller, larger) if self.y1 > 0.0 else (larger, smaller))
        disc = 2.0 * s_plus_y1 - z0 * z0
        self.disc = disc
        # disc = d_minus d_plus, and d_minus keeps its sign where disc underflows
        d_minus, d_plus = math.sqrt(2.0) * r_plus - abs(z0), math.sqrt(2.0) * r_plus + abs(z0)
        self.boundary_margin = abs(disc) / max(1.0, s)

        self.amplitude = self.modulus = self.rate = self.phase = 0.0
        self.period: float | None = None
        self.sign = 1.0

        if self.x0 == 0.0 and z0 * self.y1 == 0.0:
            self.branch = Branch.LINEAR
            return

        if z0 != 0.0 and abs(disc) <= _BOUNDARY_TOL * max(1.0, s):
            # separatrix: |z0| = 2 sqrt(S) up to rounding; a curve with z0 = 0 has
            # disc = 2 (S + y1) > 0 and stays on cn, however small its k'
            self.branch = Branch.SECH_POS if z0 > 0 else Branch.SECH_NEG
            self.sign = 1.0 if z0 > 0 else -1.0
            self.amplitude = 2.0 * math.sqrt(s)
            self.modulus = 1.0
            self.rate = math.sqrt(s)
            # sech c2 = |z0| / (2 sqrt(S)), so sinh c2 = sqrt(4 S - z0^2) / |z0|
            c2 = math.asinh(math.sqrt(max(2.0 * self._s_minus_y1 + disc, 0.0)) / abs(z0))
            self.phase = math.copysign(c2, self.sign * self.x0) if self.x0 else c2
            return

        a = math.hypot(math.sqrt(2.0) * self._r_minus, z0)
        root_disc = math.sqrt(abs(d_minus)) * math.sqrt(d_plus)  # sqrt|disc|
        if d_minus > 0.0:
            self.branch = Branch.CN
            self.amplitude = a
            self.modulus = a / (2.0 * math.sqrt(s))
            self._complement = root_disc / (2.0 * math.sqrt(s))  # k'
            self.rate = math.sqrt(s)
            self.period = self.time_scale * (4.0 * self._descent.big_k / self.rate)
            # the amplitude of cn = z0 / a, sn = sqrt(2 (S - y1)) / a
            c0 = _elliptic_f(math.sqrt(2.0) * self._r_minus, z0, self._descent)
            self.phase = c0 if self.x0 >= 0.0 else -c0
            return

        self.branch = Branch.DN
        self.amplitude = a
        self.modulus = 2.0 * math.sqrt(s) / a
        self._complement = root_disc / a  # k'
        self.rate = 0.5 * a
        self.period = self.time_scale * (4.0 * self._descent.big_k / a)
        self.sign = 1.0 if z0 > 0 else -1.0
        # the amplitude of dn = |z0| / a: sn^2 = (S - y1)/(2S), cn^2 = (S + y1)/(2S)
        c1 = _elliptic_f(self._r_minus, r_plus, self._descent)
        self.phase = c1 if self.sign * self.x0 >= 0.0 else -c1

    @property
    def alg(self) -> MetricNilAlgebra:
        return _h3_algebra()

    def velocity_period(self) -> float | None:
        """period on the cn and dn branches; on the straight line, whose velocity
        is constant, canonical time 1 (time_scale here); None on the separatrix."""
        return self.time_scale if self.branch is Branch.LINEAR else self.period

    def sample(self, ts: np.ndarray) -> CurveSamples:
        """Velocity and group curve (exponential coordinates, position(0) = 0 exactly)
        on the grid ts: the canonical curve at t = ts / q, mapped back once.  The
        phases u = phase - rate t carry the start phase in front, so one pass (one
        _jacobi_zeta call on cn and dn) gives F and Phi' on the grid and at the start."""
        ts = _time_grid(ts)
        q, z0, r, a, k = self.time_scale, self.z0, self.rate, self.amplitude, self.modulus
        t = ts / q
        u = self.phase - r * np.concatenate(([0.0], t))
        c = 2.0 * r if self.branch is Branch.CN else a
        if self.branch is Branch.LINEAR:
            f = dpsi = np.zeros(u.size)
            phi, psi = dpsi[1:], dpsi[1:] + z0
        elif self.branch is Branch.CN or self.branch is Branch.DN:
            sn, cn, dn, f = _jacobi_zeta(u, self._descent)
            if self.branch is Branch.CN:
                psi, dpsi = a * cn[1:], a * r * sn * dn
                phi = psi - z0
            else:
                k2 = k * k
                psi, dpsi = self.sign * a * dn[1:], self.sign * a * r * k2 * sn * cn
                # Phi = sign (a dn - |z0|) without cancellation at large |z0|:
                # a - |z0| = 2 (S - y1) / (a + |z0|) and 1 - dn = k^2 sn^2 / (1 + dn)
                gap = 2.0 * self._s_minus_y1 / (a + abs(z0))
                phi = self.sign * (gap - a * k2 * sn[1:] * sn[1:] / (1.0 + dn[1:]))
        else:
            sech_u, f = sech(u), np.tanh(u)
            psi = self.sign * a * sech_u[1:]
            dpsi = self.sign * a * r * sech_u * f
            phi = psi - z0
        xi_y = self._drift * t + c * (f[0] - f[1:])
        xi = np.stack((phi, xi_y, dpsi[0] - dpsi[1:] - (z0 + 0.5 * phi) * xi_y), axis=1)
        vel = np.stack((dpsi[1:], self.y0 + z0 * phi + 0.5 * phi * phi, psi), axis=1) / q
        vel[:, :2] = vel[:, :2] @ self.rotation
        xi[:, :2] = xi[:, :2] @ self.rotation
        return CurveSamples(t=ts.copy(), velocity=vel, xi=xi)

    @cached_property
    def _descent(self):
        """The modulus's one AGM table: K, M and c_n, and the Landen recursions
        of the start phase (specfun._elliptic_f) and of a grid (specfun._jacobi_zeta).
        k' comes from disc, not from k, so it keeps its digits near k = 1."""
        return _descent_table(self.modulus, self._complement)

    @property
    def _means(self) -> tuple[float, float]:
        """Means (h, <Phi^2>) of Phi over a period on cn and dn, (-z0, z0^2) on
        the separatrix, whose psi = Phi + z0 decays, and 0 on the straight line.

        <Phi^2> = m2 + h^2, m2 the variance of psi, so that no terms of size
        |z0|^2 cancel when |z0| >> sqrt(S).  From the integrals of cn^j over 4K
        (4K, 0, 4(E - k'^2 K)/k^2) and of dn^j over 2K (2K, pi, 2E), DLMF
        22.14(iv), written with the AGM sequence (M, c_n) of the modulus's
        table, where K = pi/(2M), free of cancellation:
            <cn^2> = 1/2 - sum_{n>=1} 2^(n-1) c_n^2 / k^2,
            <dn> = M = 1 - sum_{n>=1} c_n,
            <(dn - M)^2> = sum_{n>=1} (3/2 - 2^(n-1)) c_n^2.
        """
        if self.branch is not Branch.CN and self.branch is not Branch.DN:
            h = 0.0 if self.branch is Branch.LINEAR else -self.z0
            return h, h * h
        a, r, cs = self.amplitude, self.rate, self._descent.c_seq
        sq = [c * c for c in cs]
        if self.branch is Branch.CN:
            # a = 2 k rate, so a^2 <cn^2> = a^2/2 - 4 rate^2 sum_{n>=1} 2^(n-1) c_n^2
            tail = sum(2.0 ** (n - 1) * sq[n] for n in range(1, len(sq)))
            h, m2 = -self.z0, 0.5 * a * a - 4.0 * r * r * tail
        else:
            # h = sign (a M - |z0|) = sign ((a - |z0|) - a (1 - M)), where
            # a - |z0| = 2 (S - y1) / (a + |z0|) and 1 - M = sum_{n>=1} c_n
            h = self.sign * (2.0 * self._s_minus_y1 / (a + abs(self.z0)) - a * sum(cs[1:]))
            m2 = a * a * sum((1.5 - 2.0 ** (n - 1)) * sq[n] for n in range(1, len(sq)))
        return h, m2 + h * h

    def phi_image(self) -> tuple[float, float]:
        """Closure of the range of Phi = psi - z0: psi sweeps [-a, a] on cn,
        sign [a k', a] on dn and sign [0, a] on the separatrix."""
        a, z0, k = self.amplitude, self.z0, self.modulus
        if self.branch is Branch.LINEAR:
            return 0.0, 0.0
        low = {Branch.CN: -a, Branch.DN: a * math.sqrt((1.0 - k) * (1.0 + k))}.get(self.branch, 0.0)
        ends = sorted((self.sign * low, self.sign * a))
        return ends[0] - z0, ends[1] - z0


def solve_type2_general(u, charge: float, x0) -> Type2TrajectoryH3:
    """Trajectory for the vector force F_u with an arbitrary charge."""
    return Type2TrajectoryH3(x0, u, charge)


def lambda_kernel_check(u, translation: np.ndarray) -> bool:
    """Whether the translation's v-component lies in ker F_u = span(u), to
    1e-12 relative; u is validated as in Type2TrajectoryH3."""
    u1, u2 = _direction(u)
    lam, norm = np.asarray(translation, dtype=float).tolist(), math.hypot(u1, u2)
    residual = abs(lam[0] * (u2 / norm) - lam[1] * (u1 / norm))  # |lam_v x u_hat|
    return residual <= _KERNEL_TOL * max(1.0, math.hypot(*lam))
