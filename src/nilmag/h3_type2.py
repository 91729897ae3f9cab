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

Positions need the running integrals I_m(t) of Phi^m, m = 1, 2, 3: with
xi = (xi_x, xi_y, xi_z) the group curve from the identity,

    xi_x = Phi(t)
    xi_y = y0 t + z0 I1 + I2 / 2
    xi_z = z0 t + y1 I1 + z0 I2 + I3 / 2 - Phi(t) xi_y(t) / 2,

the last line obtained by integrating the reconstruction bracket by parts.
With Phi = h + D about its mean h, I_m is linear in t and in three functions
F of the phase u on every branch, so positions are one product of a (2, 4)
matrix per trajectory with [t; F(phase) - F(u)] (see _position_matrix): no
numerical integration, and no term of size |z0|^m cancels.

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
from .samples import CurveSamples, PeriodicityKind, PeriodicityReport, Trajectory, lambda_periodicity
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
    otherwise); u, charge finite and charge u nonzero (DegenerateForceError);
    initial data whose size or position table overflows is refused (InputError).
    period and time_scale are in this trajectory's own time.  Every other
    attribute (branch, disc, amplitude, modulus, rate, phase, and x0/y0/z0,
    the canonical initial velocity) and phi_image() describe the canonical
    trajectory.  For the default (e2, 1) the rotation is the identity and
    q = 1, so the two frames coincide.
    """

    solver = "closed-form-type-2"

    def __init__(self, x0, u=(0.0, 1.0), charge: float = 1.0):
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (3,):
            raise ValueError("initial velocity must have shape (3,)")
        if not np.all(np.isfinite(x0)):
            raise ValueError("initial velocity contains non-finite entries")
        if not math.isfinite(charge):  # before charge * u, where inf * 0 would warn
            raise DegenerateForceError("vector-type force needs a finite charge")
        w = float(charge) * _direction(u)
        rho = float(np.linalg.norm(w))
        if not math.isfinite(rho) or rho < 1e-14:
            raise DegenerateForceError("vector-type force needs charge * u nonzero")
        w_hat = w / rho
        self.rotation = rot = np.array([[w_hat[1], -w_hat[0]], [w_hat[0], w_hat[1]]])
        self.time_scale = q = 1.0 / rho
        canonical_v = q * (rot @ x0[:2])
        self.x0, self.y0, self.z0 = float(canonical_v[0]), float(canonical_v[1]), float(q * x0[2])
        self._canonical_branch()
        try:  # past the float range a cube in _means raises, or an entry is not finite
            with np.errstate(over="ignore", invalid="ignore"):
                finite = np.isfinite(self._position_matrix).all()
        except OverflowError:
            finite = False
        if not finite:
            raise InputError("the initial velocity is out of the H3 closed form's range: its position table overflows")

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

        self.amplitude = 0.0
        self.modulus = 0.0
        self.rate = 0.0
        self.phase = 0.0
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
        if self.sign > 0:
            self.phase = c1 if self.x0 >= 0.0 else -c1
        else:
            self.phase = c1 if self.x0 <= 0.0 else -c1

    @property
    def alg(self) -> MetricNilAlgebra:
        return _h3_algebra()

    def velocity_period(self) -> float | None:
        """period on the cn and dn branches; on the straight line, whose velocity
        is constant, canonical time 1 (time_scale here); None on the separatrix."""
        return self.time_scale if self.branch is Branch.LINEAR else self.period

    def sample(self, ts: np.ndarray) -> CurveSamples:
        """Velocity and group curve (exponential coordinates, position(0) = 0)
        on the grid ts: the canonical curve at t = ts / q as array expressions,
        mapped back once.  The phases u = phase - rate t carry the start u = phase
        in front, so one pass (one _jacobi_zeta call on cn and dn) gives the
        branch functions F on the grid and at the start for _position_matrix."""
        ts = np.asarray(ts, dtype=float)
        q, z0, r, a, k = self.time_scale, self.z0, self.rate, self.amplitude, self.modulus
        t = ts / q
        u = self.phase - r * np.concatenate(([0.0], t))
        if self.branch is Branch.LINEAR:
            f, phi = np.zeros((3, u.size)), np.zeros(t.size)
            psi, dpsi = phi + z0, phi
        elif self.branch is Branch.CN or self.branch is Branch.DN:
            sn, cn, dn, zeta = _jacobi_zeta(u, self._descent)
            if self.branch is Branch.CN:
                f = (np.arcsin(k * sn), zeta, k * sn * dn)
                psi, dpsi = a * cn[1:], a * r * sn[1:] * dn[1:]
                phi = psi - z0
            else:
                # am u - M u (M = pi/(2K), the mean of dn) at u_r = u - 2K j, |u_r| <= K,
                # where (sn, cn)(u_r) = (-1)^j (sn, cn)(u) and am u_r = atan2 of those
                big_k, mean = self._descent.big_k, self._descent.mean
                j = np.floor(u / (2.0 * big_k) + 0.5)
                flip = 1.0 - 2.0 * (j % 2.0)  # (-1)^j
                f = (np.arctan2(flip * sn, flip * cn) - mean * (u - 2.0 * big_k * j), zeta, sn * cn)
                sn, cn, dn, k2 = sn[1:], cn[1:], dn[1:], k * k
                psi, dpsi = self.sign * a * dn, self.sign * a * r * k2 * sn * cn
                # Phi = sign (a dn - |z0|) without cancellation at large |z0|:
                # a - |z0| = 2 (S - y1) / (a + |z0|) and 1 - dn = k^2 sn^2 / (1 + dn)
                gap = 2.0 * self._s_minus_y1 / (a + abs(z0))
                phi = self.sign * (gap - a * k2 * sn * sn / (1.0 + dn))
        else:
            sech_u, tanh_u = sech(u), np.tanh(u)
            f = (2.0 * np.arctan(np.tanh(0.5 * u)), tanh_u, sech_u * tanh_u)  # gd u first
            psi = self.sign * a * sech_u[1:]
            dpsi = self.sign * a * r * sech_u[1:] * tanh_u[1:]
            phi = psi - z0
        f = np.asarray(f)
        xi_y, xi_z = self._position_matrix @ np.vstack((t, f[:, :1] - f[:, 1:]))
        xi = np.stack((phi, xi_y, xi_z - 0.5 * phi * xi_y), axis=1)
        vel = np.stack((dpsi, self.y0 + z0 * phi + 0.5 * phi * phi, psi), axis=1) / q
        vel[:, :2] = vel[:, :2] @ self.rotation
        xi[:, :2] = xi[:, :2] @ self.rotation
        return CurveSamples(t=ts.copy(), velocity=vel, xi=xi)

    @cached_property
    def _descent(self):
        """The modulus's one AGM table: K, M and c_n, and the Landen recursions
        of the start phase (specfun._elliptic_f) and of a grid (specfun._jacobi_zeta).
        k' comes from disc, not from k, so it keeps its digits near k = 1."""
        return _descent_table(self.modulus, self._complement)

    @cached_property
    def _position_matrix(self) -> np.ndarray:
        """The (2, 4) matrix P with (xi_y, xi_z + Phi xi_y / 2) = P [t; F(phase) - F(u)].

        By the module docstring that vector is (y0, z0) t + C (I1, I2, I3), with
        C = [[z0, 1/2, 0], [y1, z0, 1/2]].  With Phi = h + D about its mean h,
            I1 = h t + J1,  I2 = <Phi^2> t + 2 h J1 + J2,  I3 = <Phi^3> t + 3 h^2 J1 + 3 h J2 + J3,
        where J_j, the integral of D^j - <D^j> over [0, t], is row j of
        L (F(phase) - F(u)) / rate.  lift below is L / rate, from DLMF 22.16.32,
        22.14(iv) and Byrd & Friedman 312, 314:
          cn, D = a cn with a = 2 k rate: F = (arcsin(k sn), Z, k sn dn), as
            int cn = arcsin(k sn)/k,  k^2 int (cn^2 - <cn^2>) = Z,
            2 k^2 int cn^3 = sn dn - (1 - 2k^2) arcsin(k sn)/k;
          dn, D = sign a (dn - M), rate = a/2: F = (am u - M u, Z, sn cn), as
            int dn = am,  int (dn^2 - E/K) = Z,  int dn^3 = (k^2 sn cn + (2 - k^2) am)/2;
          separatrix, D = sign a sech, rate = a/2: dn's limit k = 1, M = 0, where
            F = (gd, tanh, sech tanh), the Gudermannian gd = am;
          straight line: Phi = 0, and the F columns of sample are zero.
        Z(u) = E(am u) - (E/K) u, the Jacobi zeta function, is summed over the Landen
        phases (specfun._jacobi_zeta), free of the cancellation of O(1) terms as k -> 0.
        """
        h, mean2, mean3 = self._means
        k, r, a, s = self.modulus, self.rate, self.amplitude, self.sign
        if self.branch is Branch.CN:
            lift = [[2.0, 0.0, 0.0], [0.0, 4.0 * r, 0.0], [-4.0 * r * r * (1.0 - 2.0 * k * k), 0.0, 4.0 * r * r]]
        else:
            m = self._descent.mean if self.branch is Branch.DN else 0.0
            lift = [[2.0 * s, 0.0, 0.0], [-4.0 * m * a, 2.0 * a, 0.0],
                    [s * a * a * (2.0 - k * k + 6.0 * m * m), -6.0 * s * a * a * m, s * a * a * k * k]]
        coupling = np.array([[self.z0, 0.5, 0.0], [self.y1, self.z0, 0.5]])
        binomial = np.array([[1.0, 0.0, 0.0], [2.0 * h, 1.0, 0.0], [3.0 * h * h, 3.0 * h, 1.0]])
        drift = np.array([self.y0, self.z0]) + coupling @ (h, mean2, mean3)
        return np.column_stack((drift, coupling @ binomial @ lift))

    @cached_property
    def _means(self) -> tuple[float, float, float]:
        """Means (h, <Phi^2>, <Phi^3>) of Phi, in closed form: over a period on
        cn and dn, (-z0, z0^2, -z0^3) on the separatrix, whose D = Phi + z0
        decays, and 0 on the straight line.

        Phi is expanded about its period mean h, <Phi^2> = m2 + h^2 and
        <Phi^3> = m3 + 3 h m2 + h^3, with m2, m3 the central moments of psi,
        so that no terms of size |z0|^m cancel when |z0| >> sqrt(S).  The
        moments come from the integrals of cn^j over 4K (4K, 0,
        4(E - k'^2 K)/k^2, 0) and of dn^j over 2K (2K, pi, 2E, pi(2 - k^2)/2),
        DLMF 22.14(iv), Byrd & Friedman 312, 314.  Written with the AGM
        sequence (M, c_n) of the modulus's table, where K = pi/(2M), they
        are free of cancellation:
            <cn^2> = 1/2 - sum_{n>=1} 2^(n-1) c_n^2 / k^2,
            <dn> = M = 1 - sum_{n>=1} c_n,
            <(dn - M)^2> = sum_{n>=1} (3/2 - 2^(n-1)) c_n^2,
            <(dn - M)^3> = 3 M sum_{n>=2} (2^(n-1) - 1) c_n^2.
        """
        if self.branch is not Branch.CN and self.branch is not Branch.DN:
            h = 0.0 if self.branch is Branch.LINEAR else -self.z0
            return h, h * h, h**3
        a = self.amplitude
        mean, cs = self._descent.mean, self._descent.c_seq
        sq = [c * c for c in cs]
        if self.branch is Branch.CN:
            # a = 2 k rate, so a^2 <cn^2> = a^2/2 - 4 rate^2 sum_{n>=1} 2^(n-1) c_n^2
            tail = sum(2.0 ** (n - 1) * sq[n] for n in range(1, len(sq)))
            h, m2, m3 = -self.z0, 0.5 * a * a - 4.0 * self.rate**2 * tail, 0.0
        else:
            # h = sign (a M - |z0|) = sign ((a - |z0|) - a (1 - M)), where
            # a - |z0| = 2 (S - y1) / (a + |z0|) and 1 - M = sum_{n>=1} c_n
            gap = 2.0 * self._s_minus_y1 / (a + abs(self.z0)) - a * sum(cs[1:])
            h = self.sign * gap
            m2 = a * a * sum((1.5 - 2.0 ** (n - 1)) * sq[n] for n in range(1, len(sq)))
            m3 = self.sign * 3.0 * mean * a**3 * sum(
                (2.0 ** (n - 1) - 1.0) * sq[n] for n in range(2, len(sq))
            )
        return h, m2 + h * h, m3 + 3.0 * h * m2 + h**3

    def phi_image(self) -> tuple[float, float]:
        """Closure of the range of Phi."""
        a, z0 = self.amplitude, self.z0
        if self.branch is Branch.LINEAR:
            return 0.0, 0.0
        if self.branch is Branch.CN:
            return -a - z0, a - z0
        if self.branch is Branch.DN:
            floor = a * math.sqrt((1.0 - self.modulus) * (1.0 + self.modulus))
            if self.sign > 0:
                return floor - z0, a - z0
            return -a - z0, -floor - z0
        if self.sign > 0:
            return -z0, a - z0
        return -a - z0, -z0


def solve_type2_general(u, charge: float, x0) -> Type2TrajectoryH3:
    """Trajectory for the vector force F_u with an arbitrary charge."""
    return Type2TrajectoryH3(x0, u, charge)


def lambda_kernel_check(u, translation: np.ndarray) -> bool:
    """Whether the translation's v-component lies in ker F_u = span(u), to
    1e-12 relative; u is validated as in Type2TrajectoryH3."""
    u = _direction(u)
    lam_v = np.asarray(translation, dtype=float)[:2]
    u_hat = u / np.linalg.norm(u)
    residual = float(np.linalg.norm(lam_v - (lam_v @ u_hat) * u_hat))
    return residual <= _KERNEL_TOL * max(1.0, float(np.linalg.norm(translation)))
