"""Closed-form magnetic trajectories for splitting-preserving closed forces.

For a closed type-I force F (skew on v, skew on the flat central directions,
zero on the commutator directions [n, n]) and charge q, the left-trivialized
velocity obeys one linear equation x' = A x with A = j(Z0) + q F, j(Z0) acting
on v: the commutator part Z0c of the central velocity is conserved, and
closedness makes F vanish on [n, n].  One spectral decomposition of A splits
x(0) into components x_p on invariant planes with rates th_p >= 0, where
A^2 = -th_p^2.  The kernel of A is the plane of rate 0: it carries Z0c and
every rate that the merge cutoff folds into it.  With b_p0 = x_p,
b_p1 = A x_p and the per-plane functions

    S = sin(th t)/th,   V = (1 - cos th t)/th^2 = 2 sin^2(th t/2)/th^2,
    C = 1 - th^2 V,     W = (th t - sin th t)/th^3,

which are t, t^2/2, 1 and t^3/6 at th = 0 (W is summed as a series where
|th t| < 1), e^{tA} x_p = C_p b_p0 + S_p b_p1, and the velocity and the
exponential-coordinate group curve xi(t) = X(t) + Z(t) are

    velocity:   x(t) = sum_p C_p b_p0 + S_p b_p1
    position:   X(t) + Z(t) = sum_p S_p b_p0 + V_p b_p1 + Zc(t)
    commutator: Zc(t) = -(1/2) int_0^t [x, X]
                      = (1/2) sum_p W_p [b_p0, b_p1]
                        - (1/2) sum_{p != r} sum_{a,b} [b_pa, b_rb] I_ab(p, r).

I_ab(p, r) integrates the velocity coefficient a of plane p (C_p, S_p) times
the position coefficient b of plane r (S_r, V_r); with D = th_p^2 - th_r^2,

    I_00 = int C_p S_r = (th_p^2 (S_p S_r - V_p) - th_r^2 C_p V_r) / D
    I_01 = int C_p V_r = (th_p^2 S_p V_r - S_p + C_p S_r) / D
    I_10 = int S_p S_r = (S_p C_r - C_p S_r) / D
    I_11 = int S_p V_r = (S_p S_r - V_p - C_p V_r) / D,

as differentiating with S' = C, V' = S and C = 1 - th^2 V shows; on the
diagonal the integrand is (C V - S^2)[b_p0, b_p1] = -W'[b_p0, b_p1].
Distinct planes have distinct rates, so D != 0 off the diagonal.  Brackets
see v parts only, so a plane without a v part (the commutator velocity, a
flat central rotation) brackets to 0.

Evaluation is tabulated.  With C = 1 - th^2 V, the pair sum is a quadratic
plus a linear form in u = (S_p | V_p), the coefficients of X(t); their
weights, the brackets [b_pa, b_rb] times the coefficients above over D, are
built once from the structure tensor, and a sample grid needs sin(th t) and
sin(th t/2) per plane and time.  No coefficient divides by a small rate: S,
V and W stay within |t|, t^2/2 and |t|^3/6, and a rate folded into the
kernel costs O((th t)^2) only.  The weights 1/D still lose digits between
planes of near-equal distinct rates that bracket against each other.

Special case: an exact force F = j(Z~) (+) 0 shifts a geodesic (the velocity
equals a geodesic velocity minus q Z~, the position picks up -t q Z~).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import MetricNilAlgebra
from .errors import InvalidForceError, UnsupportedForceError
from .lorentz import ForceType, LorentzForce, check_closed, exactness_test
from .samples import CurveSamples, Trajectory

__all__ = [
    "InitialCondition",
    "InvariantPlane",
    "SkewSpectrum",
    "spectral_decompose",
    "TypeISolution",
    "ExactShiftSolution",
    "solve_type1",
    "solve_exact",
]

_MERGE_TOL = 1e-9
# (-1)^n / (2n + 3)! for n = 7, ..., 0: (x - sin x) / x^3 in powers of x^2, to 5e-17 for |x| < 1
_W_SERIES = tuple((-1) ** n / math.factorial(2 * n + 3) for n in range(7, -1, -1))


@dataclass(frozen=True)
class InitialCondition:
    """Initial velocity split into v and central components, plus the charge."""

    v0: np.ndarray
    z0: np.ndarray
    charge: float = 1.0

    @classmethod
    def from_velocity(cls, alg: MetricNilAlgebra, x0: np.ndarray, charge: float = 1.0):
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (alg.dim,):
            raise ValueError(f"initial velocity must be ({alg.dim},)")
        return cls(v0=x0[: alg.dim_v].copy(), z0=x0[alg.dim_v :].copy(), charge=float(charge))

    def validate(self, alg: MetricNilAlgebra) -> None:
        v0 = np.asarray(self.v0, dtype=float)
        z0 = np.asarray(self.z0, dtype=float)
        if v0.shape != (alg.dim_v,) or z0.shape != (alg.dim_z,):
            raise ValueError(
                f"initial condition needs shapes ({alg.dim_v},) and ({alg.dim_z},),"
                f" got {v0.shape} and {z0.shape}"
            )
        if not (np.all(np.isfinite(v0)) and np.all(np.isfinite(z0)) and np.isfinite(self.charge)):
            raise ValueError("initial condition contains non-finite entries")


@dataclass(frozen=True)
class InvariantPlane:
    """An invariant subspace of a skew map with a single rotation rate.

    basis rows span the subspace orthonormally; rate is the positive
    frequency, so the restricted map squares to -rate^2 Id.
    """

    rate: float
    basis: np.ndarray


@dataclass(frozen=True)
class SkewSpectrum:
    """Kernel plus rotation subspaces of a skew matrix.

    Merges rates that agree to 1e-9 relative into one subspace (the
    evaluation formulas only need the restriction to square to -rate^2).
    """

    kernel: np.ndarray          # rows, orthonormal basis of ker J
    planes: tuple[InvariantPlane, ...]
    matrix: np.ndarray

    def project_kernel(self, x: np.ndarray) -> np.ndarray:
        if self.kernel.shape[0] == 0:
            return np.zeros_like(x)
        return self.kernel.T @ (self.kernel @ x)


def spectral_decompose(j_matrix: np.ndarray) -> SkewSpectrum:
    """Split a skew matrix into its kernel and single-rate rotation subspaces.

    Rates are the positive square roots of the eigenvalues of -J^2 (a
    symmetric PSD matrix); eigenspaces whose rates agree to 1e-9 of the
    largest rate are merged, and rates below that are the kernel.
    """
    j_matrix = np.asarray(j_matrix, dtype=float)
    n = j_matrix.shape[0]
    if j_matrix.shape != (n, n):
        raise ValueError("spectral_decompose needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(j_matrix))) if n else 1.0)
    if n and np.max(np.abs(j_matrix + j_matrix.T)) > 1e-10 * scale:
        raise ValueError("spectral_decompose needs a skew-symmetric matrix")
    if n == 0:
        return SkewSpectrum(kernel=np.zeros((0, 0)), planes=(), matrix=j_matrix)
    m = -(j_matrix @ j_matrix)
    w, vecs = np.linalg.eigh(0.5 * (m + m.T))
    rates = np.sqrt(np.maximum(w, 0.0))
    max_rate = float(rates[-1])
    if max_rate <= 0.0:
        return SkewSpectrum(kernel=np.eye(n), planes=(), matrix=j_matrix)
    kernel_mask = rates <= _MERGE_TOL * max_rate
    idx = np.flatnonzero(~kernel_mask)  # ascending rates, split where consecutive ones part
    groups = np.split(idx, np.flatnonzero(np.diff(rates[idx]) > _MERGE_TOL * max_rate) + 1)
    planes = tuple(InvariantPlane(float(rates[g].sum() / g.size), vecs[:, g].T.copy())
                   for g in groups if g.size)
    return SkewSpectrum(kernel=vecs[:, kernel_mask].T, planes=planes, matrix=j_matrix)


def _plane_parts(spec: SkewSpectrum, x: np.ndarray):
    """Rates (P,) and components x_p (P, n) of x on the kernel (rate 0) and
    the planes of spec; numerically zero components are dropped."""
    rates = np.array([0.0] + [pl.rate for pl in spec.planes])
    comps = np.array([spec.project_kernel(x)] + [pl.basis.T @ (pl.basis @ x) for pl in spec.planes])
    kept = np.linalg.norm(comps, axis=1) > 1e-14 * max(1.0, float(np.linalg.norm(x)))
    return rates[kept], comps[kept]


def _plane_functions(ts: np.ndarray, th: np.ndarray, inv: np.ndarray):
    """S, V and W (T, P) of the module docstring on the grid ts for the rates
    th; inv is 1/th, and 1 where th = 0."""
    x = np.multiply.outer(ts, th)
    sin_x = np.sin(x)
    num = x - sin_x
    small = np.abs(x) < np.where(th > 0.0, 1.0, 0.0)  # where th t - sin th t cancels
    if small.any():
        xs = x[small]
        num[small] = xs**3 * np.polyval(_W_SERIES, xs * xs)
    half = np.sin(0.5 * x)
    s, v, w = sin_x * inv, 2.0 * inv**2 * half * half, num * inv**3
    t, zero = ts[:, None], th == 0.0
    s[:, zero], v[:, zero], w[:, zero] = t, 0.5 * t * t, t**3 / 6.0
    return s, v, w


class TypeISolution(Trajectory):
    """Closed-form solution for a closed type-I force.

    matrix is A = j(Z0) + q F and spectrum its decomposition.  The planes
    with a component of x(0), the rate-0 plane first if there is one, are
    rates (P,), xi (the x_p) and jxi = A xi, (P, dim); pair[p, a, r, b] =
    [b_pa, b_rb] is their bracket table.  sample(ts) evaluates a whole grid
    into CurveSamples as array products with tables built once.
    """

    solver = "closed-form-type-1"

    def __init__(self, alg: MetricNilAlgebra, force: LorentzForce, ic: InitialCondition):
        ic.validate(alg)
        self.alg = alg
        self.force = force
        self.ic = ic
        dv = alg.dim_v
        a = np.zeros((alg.dim, alg.dim))
        a[:dv, :dv] = alg.j_map(np.asarray(ic.z0, float)) + ic.charge * force.block_vv
        a[dv:, dv:] = ic.charge * force.block_zz
        self.matrix = a
        self.spectrum = spectral_decompose(a)
        self.rates, self.xi = _plane_parts(self.spectrum, np.concatenate([ic.v0, ic.z0], dtype=float))
        self.jxi = self.xi @ a.T
        th = self.rates
        n = th.shape[0]
        self._inv = np.divide(1.0, th, out=np.ones_like(th), where=th > 0.0)

        # pair[p, a, r, b] = [b_pa, b_rb] reads the v parts only
        self._basis = np.concatenate([self.xi, self.jxi])  # rows b_p0, then rows b_p1
        basis = np.stack([self.xi, self.jxi], axis=1)[:, :, :dv]
        tensor = alg.structure[:dv, :dv, dv:]
        self.pair = np.einsum("pajk,rbj->parbk", np.einsum("pai,ijk->pajk", basis, tensor), basis)
        self._self_pair = self.pair[np.arange(n), 0, np.arange(n), 1]  # [b_p0, b_p1]

        # with C = 1 - th^2 V, sum_{p != r} sum_{a,b} [b_pa, b_rb] I_ab(p, r) is a
        # quadratic form in u = (S_p | V_p) plus a linear one; w_ab = [b_pa, b_rb] / D,
        # and 0 at p = r
        tp, tr = th[:, None, None] ** 2, th[None, :, None] ** 2
        gap = tp - tr
        weight = np.divide(1.0, gap, out=np.zeros_like(gap), where=gap != 0.0)
        w00, w01, w10, w11 = (weight * self.pair[:, i, :, j] for i, j in np.ndindex(2, 2))
        e, f, g = w10 - w01, tp * w00 + w11, tr * w00 + w11
        quad = np.array([[f, tp * w01 - tr * w10], [tp * e, tp * g]])  # (S_p | V_p) x (S_r | V_r)
        self._quad = quad.transpose(0, 2, 1, 3, 4).reshape(2 * n, 2 * n * alg.dim_z)
        self._lin = np.concatenate([e.sum(axis=1) - e.sum(axis=0), -f.sum(axis=1) - g.sum(axis=0)])

    # -- evaluation ------------------------------------------------------

    def sample(self, ts: np.ndarray) -> CurveSamples:
        ts = np.asarray(ts, dtype=float)
        n_t, dv, dz = ts.shape[0], self.alg.dim_v, self.alg.dim_z
        s, v, w = _plane_functions(ts, self.rates, self._inv)
        u = np.concatenate([s, v], axis=1)  # the coefficients of the rows of _basis in X(t)
        quad = np.matmul(u[:, None, :], (u @ self._quad).reshape(n_t, u.shape[1], dz))[:, 0]
        vel = np.concatenate([1.0 - self.rates**2 * v, s], axis=1) @ self._basis
        xi = u @ self._basis
        xi[:, dv:] += 0.5 * (w @ self._self_pair - u @ self._lin - quad)
        return CurveSamples(t=ts.copy(), velocity=vel, xi=xi)

    # -- derived quantities ----------------------------------------------

    @property
    def x1(self) -> np.ndarray:
        """The component X1 of x(0) on the rate-0 plane (0 if there is none)."""
        return self.xi[self.rates == 0.0].sum(axis=0)

    def speed(self) -> float:
        """The conserved speed |x(t)| = |x(0)|."""
        return float(np.linalg.norm(self.xi.sum(axis=0)))

    def linear_coefficient(self) -> np.ndarray:
        """Average central drift: the constant part of the t-linear coefficient.

        The full coefficient of t also carries the bounded oscillation
        [X1, e^{tA} A^{-1} X2]/2 whenever the kernel component brackets
        against the rotating planes; this method reports the constant part
        Z0c + Z1f + [X1, A^{-1} X2]/2 - sum_p [x_p, A^{-1} x_p]/2, with
        X2 = sum_p x_p and A^{-1} x_p = -A x_p / th_p^2 over the planes of
        rate th_p > 0.
        """
        rot = self.rates > 0.0
        kernel_pair = self.pair[~rot, 0][:, rot, 1].sum(axis=0)  # [X1, A x_p]
        drift = 0.5 * (self._inv[rot] ** 2 @ (self._self_pair[rot] - kernel_pair))
        return self.x1[self.alg.dim_v :] + drift

    def central_oscillation_bound(self) -> float:
        """Triangle-inequality bound for the bounded central oscillation.

        Bounds |Zc(t) + Zf(t) - t * (linear coefficient + oscillating linear
        part)| uniformly in t; the oscillating t-linear part is
        [X1, e^{tA} A^{-1} X2]/2, bounded by lam |X1| |A^{-1}X2| per unit t,
        so this constant bounds the non-growing remainder only.  Brackets see
        the v parts of the rotating planes (rate > 0), the flat rotation their
        central parts.
        """
        lam = self._bracket_norm()
        dv = self.alg.dim_v
        rot = self.rates > 0.0
        th, xi = self.rates[rot], self.xi[rot]
        nx = np.linalg.norm(xi[:, :dv], axis=1)
        b = lam * float(np.linalg.norm(self.x1[:dv])) * 2.0 * (nx @ th**-2.0)
        b += 0.5 * lam * (nx @ (1.0 / th)) ** 2
        amp = lam * (np.outer(th * nx, nx / th) + np.outer(nx, nx))
        gap = np.abs(th**2 - th[:, None] ** 2)
        # (1/2) * 2 endpoints per pair
        b += np.sum(np.divide(amp, gap, out=np.zeros_like(amp), where=gap > 0.0))
        b += 2.0 * (np.linalg.norm(xi[:, dv:], axis=1) @ (1.0 / th))
        return float(b)

    def _bracket_norm(self) -> float:
        """Operator bound lam with |[a, b]| <= lam |a| |b| (Frobenius route)."""
        dv = self.alg.dim_v
        tensor = self.alg.structure[:dv, :dv, dv:]
        return float(np.linalg.norm(tensor.reshape(dv * dv, -1), 2)) if dv else 0.0


@dataclass(frozen=True)
class ExactShiftSolution:
    """An exact force trajectory viewed as a shifted geodesic.

    solution solves the magnetic equation directly; geodesic is the zero-force
    trajectory with initial central velocity raised by the charge times the
    force potential; shift = q Z~ relates the two:

        velocity(t) = geodesic velocity(t) - shift
        position(t) = geodesic position(t) - t * shift
    """

    solution: TypeISolution
    geodesic: TypeISolution
    shift: np.ndarray

    def velocity_via_shift(self, t: float) -> np.ndarray:
        return self.geodesic.velocity(t) - self.shift

    def position_via_shift(self, t: float) -> np.ndarray:
        return self.geodesic.position(t) - float(t) * self.shift


def _require_closed_type1(alg: MetricNilAlgebra, force) -> LorentzForce:
    f = force if isinstance(force, LorentzForce) else LorentzForce(alg, force)
    ftype = f.force_type()
    if ftype is not ForceType.TYPE_I:
        raise UnsupportedForceError(
            f"closed-form solver handles splitting-preserving (type I) forces; got {ftype.value}"
        )
    rep = check_closed(alg, f)
    if not rep.closed:
        raise InvalidForceError(
            f"force is not closed: residual {rep.max_residual:.3e} on basis triple {rep.worst_triple}"
        )
    return f


def solve_type1(alg: MetricNilAlgebra, force, ic: InitialCondition) -> TypeISolution:
    """Closed-form trajectory for a closed type-I force (see module docstring)."""
    return TypeISolution(alg, _require_closed_type1(alg, force), ic)


def solve_exact(alg: MetricNilAlgebra, force, ic: InitialCondition) -> ExactShiftSolution:
    """Solve an exact force F = j(Z~) (+) 0 and exhibit the geodesic shift.

    Raises UnsupportedForceError when F is not exact (no commutator vector
    Z~ reproduces it).
    """
    f = _require_closed_type1(alg, force)
    res = exactness_test(alg, f)
    if not res.is_exact:
        raise UnsupportedForceError(
            f"force is not exact: best central-potential fit leaves residual {res.residual:.3e}"
        )
    shift = ic.charge * res.z_tilde  # full coordinates, central
    main = TypeISolution(alg, f, ic)
    geo_ic = InitialCondition(
        v0=np.asarray(ic.v0, float).copy(),
        z0=np.asarray(ic.z0, float) + alg.z_part(shift),
        charge=ic.charge,
    )
    zero_force = LorentzForce(alg, np.zeros((alg.dim, alg.dim)))
    geodesic = TypeISolution(alg, zero_force, geo_ic)
    return ExactShiftSolution(solution=main, geodesic=geodesic, shift=shift)
