"""Closed-form magnetic trajectories for splitting-preserving closed forces.

For a closed type-I force F (skew on v, skew on the flat central directions,
zero on the commutator directions [n, n]) and charge q, the left-trivialized
velocity obeys one linear equation x' = A x with A = j(Z0) + q F, j(Z0) acting
on v: the commutator part Z0c of the central velocity is conserved, and
closedness makes F vanish on [n, n].  Split x(0) into its part X1 in the
kernel of A (which carries Z0c and the flat kernel part Z1f) plus rotating
components xi_p on the invariant subspaces of A with rates th_p > 0.  Then the
velocity and the exponential-coordinate group curve xi(t) = X(t) + Z(t) are

    velocity:   x(t) = X1 + sum_p e^{tA} xi_p
    position:   X(t) + Z(t) = t X1 + sum_p (e^{tA} - Id) A^{-1} xi_p + Zc(t)
    commutator: Zc(t) = t ( (1/2)[X1, (e^{tA} + Id) A^{-1} X2]
                            - (1/2) sum_p [xi_p, A^{-1} xi_p] )
                        - [X1, A^{-2}(e^{tA} - Id) X2]
                        + (1/2) [e^{tA} A^{-1} X2, A^{-1} X2]
                        - (1/2) sum_{p != r} (c_pr(t) - c_pr(0)),

    c_pr(t) = ( [e^{tA} A xi_p, e^{tA} A^{-1} xi_r] - [e^{tA} xi_p, e^{tA} xi_r] )
              / (th_r^2 - th_p^2),        X2 = sum_p xi_p.

All inverses act on the rotating subspaces only, where A^{-1} = -A / th^2;
brackets see v parts only, so the planes of the flat central block bracket to
0.  The commutator formula follows by integrating Zc' = -[x, X]/2 term by
term; the pair terms integrate in closed form because
(d/dt)([e^{tA} A xi_p, e^{tA} A^{-1} xi_r] - [e^{tA} xi_p, e^{tA} xi_r])
equals (th_r^2 - th_p^2) [e^{tA} xi_p, e^{tA} A^{-1} xi_r], and the diagonal
quantities [e^{tA} xi_p, e^{tA} A^{-1} xi_p] are conserved.

Evaluation is tabulated.  A maps span{xi_p, A xi_p} to itself, with
e^{tA} xi_p = cos(th_p t) xi_p + sin(th_p t)/th_p A xi_p, so every bracket
above combines the fixed brackets pair[p, a, r, b] = [b_pa, b_rb] and
cross[p, a] = [X1, b_pa] of the basis b_p0 = xi_p, b_p1 = A xi_p.  Each
c_pr(t) is a bilinear form in (cos th_p t, sin th_p t) and
(cos th_r t, sin th_r t) with table coefficients; every other term is linear
in cos, sin and 1 - cos of th_p t.  The tables are built once from the
structure tensor, and sample(ts) contracts (T, P, 2) trig coefficient arrays
with them.

Special case: an exact force F = j(Z~) (+) 0 shifts a geodesic (the velocity
equals a geodesic velocity minus q Z~, the position picks up -t q Z~).
"""

from __future__ import annotations

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
    kernel = vecs[:, kernel_mask].T
    idx = np.where(~kernel_mask)[0]
    planes: list[InvariantPlane] = []
    group: list[int] = []
    for i in idx:
        if group and abs(rates[i] - rates[group[-1]]) > _MERGE_TOL * max_rate:
            planes.append(InvariantPlane(float(np.mean(rates[group])), vecs[:, group].T.copy()))
            group = []
        group.append(int(i))
    if group:
        planes.append(InvariantPlane(float(np.mean(rates[group])), vecs[:, group].T.copy()))
    return SkewSpectrum(kernel=kernel, planes=tuple(planes), matrix=j_matrix)


def _rotating_parts(spec: SkewSpectrum, x: np.ndarray, scale: float):
    """Rates (P,) and components xi_p (P, n) of x on the planes of spec.

    Components that are numerically zero are dropped (keeps pair sums clean).
    """
    kept = [(pl.rate, pl.basis.T @ (pl.basis @ x)) for pl in spec.planes]
    kept = [(rate, c) for rate, c in kept if np.linalg.norm(c) > 1e-14 * scale]
    comps = np.array([c for _, c in kept]).reshape(len(kept), x.shape[0])
    return np.array([rate for rate, _ in kept]), comps


def _coeffs(on_xi: np.ndarray, on_jxi: np.ndarray) -> np.ndarray:
    """(T, P) coefficients of xi_p and A xi_p as (T, 2P) rows, ordered (p, xi | A xi)."""
    return np.stack([on_xi, on_jxi], axis=2).reshape(on_xi.shape[0], 2 * on_xi.shape[1])


class TypeISolution(Trajectory):
    """Closed-form solution for a closed type-I force.

    matrix is A = j(Z0) + q F; spectrum is the decomposition of its v block.
    sample(ts) evaluates a whole grid into CurveSamples as array products with
    bracket tables built once at construction.
    """

    solver = "closed-form-type-1"

    def __init__(self, alg: MetricNilAlgebra, force: LorentzForce, ic: InitialCondition):
        ic.validate(alg)
        self.alg = alg
        self.force = force
        self.ic = ic
        dv = alg.dim_v
        v0 = np.asarray(ic.v0, float)
        z0 = np.asarray(ic.z0, float)

        # each block of A is decomposed on its own, so that its kernel cutoff is
        # relative to its own rates; the planes of both go into one list
        a = np.zeros((alg.dim, alg.dim))
        a[:dv, :dv] = alg.j_map(z0) + ic.charge * force.block_vv
        a[dv:, dv:] = ic.charge * force.block_zz
        self.matrix = a
        self.spectrum = spectral_decompose(a[:dv, :dv])
        flat = spectral_decompose(a[dv:, dv:])
        self.x1 = np.concatenate([self.spectrum.project_kernel(v0), flat.project_kernel(z0)])
        rates_v, xi_v = _rotating_parts(self.spectrum, v0, max(1.0, float(np.linalg.norm(v0))))
        rates_z, xi_z = _rotating_parts(flat, z0, max(1.0, float(np.linalg.norm(z0))))
        self.rates = np.concatenate([rates_v, rates_z])
        self.xi = np.zeros((self.rates.shape[0], alg.dim))
        self.xi[: rates_v.shape[0], :dv] = xi_v
        self.xi[rates_v.shape[0] :, dv:] = xi_z
        self.jxi = self.xi @ a.T

        # bracket tables on the basis b_pa of {xi_p, A xi_p}:
        # pair[p, a, r, b] = [b_pa, b_rb] and cross[p, a] = [X1, b_pa]; brackets read
        # the v parts only, so every entry of a flat plane is exactly 0
        th = self.rates
        n = th.shape[0]
        basis = np.stack([self.xi, self.jxi], axis=1)
        self._basis = basis.reshape(2 * n, alg.dim)
        basis = basis[:, :, :dv]
        tensor = alg.structure[:dv, :dv, dv:]
        self.pair = np.einsum("pajk,rbj->parbk", np.einsum("pai,ijk->pajk", basis, tensor), basis)
        self.cross = basis @ np.einsum("i,ijk->jk", self.x1[:dv], tensor)

        # constant central ingredients, with A^{-1} xi_p = -A xi_p / th_p^2
        inv2 = 1.0 / th**2
        f0_sum = -inv2 @ self.pair[np.arange(n), 0, np.arange(n), 1]  # sum_p [xi_p, A^-1 xi_p]
        x1_jinv_x2 = -inv2 @ self.cross[:, 1]  # [X1, A^-1 X2]
        self._drift = 0.5 * (x1_jinv_x2 - f0_sum)
        jinv_x2 = -np.einsum("park,r->pak", self.pair[:, :, :, 1], inv2)  # [b_pa, A^-1 X2]
        self._jinv_x2 = jinv_x2.reshape(2 * n, alg.dim_z)

        # sum_{p != r} c_pr(t) as a bilinear form in u_p = (cos th_p t, sin th_p t):
        # e^{tA} A xi_p, e^{tA} A^{-1} xi_p and e^{tA} xi_p are u_p @ m_j, u_p @ m_i and
        # u_p @ m_e in the coordinates (xi_p, A xi_p).  A gap of 0 off the diagonal
        # pairs a v plane with a flat plane of equal rate; their bracket is 0, and so
        # is their weight
        self._gap = th**2 - th[:, None] ** 2  # th_r^2 - th_p^2 at [p, r]
        self._gap[self._gap == 0.0] = np.inf
        weighted = self.pair / self._gap[:, None, :, None, None]
        zero, one = np.zeros(n), np.ones(n)
        m_j = np.array([[zero, one], [-th, zero]]).transpose(2, 0, 1)
        m_i = np.array([[zero, -inv2], [1.0 / th, zero]]).transpose(2, 0, 1)
        m_e = np.array([[one, zero], [zero, 1.0 / th]]).transpose(2, 0, 1)
        table = np.einsum("pxa,ryb,parbk->pxryk", m_j, m_i, weighted)
        table -= np.einsum("pxa,ryb,parbk->pxryk", m_e, m_e, weighted)
        self._c0_sum = table[:, 0, :, 0].sum(axis=(0, 1))  # u_p(0) = (1, 0)
        self._pair_table = table.reshape(2 * n, 2 * n * alg.dim_z)

    # -- evaluation ------------------------------------------------------

    def sample(self, ts: np.ndarray) -> CurveSamples:
        ts = np.asarray(ts, dtype=float)
        n_t, dv, dz = ts.shape[0], self.alg.dim_v, self.alg.dim_z
        th = self.rates
        arg = np.multiply.outer(ts, th)
        c, s, omc = np.cos(arg), np.sin(arg), 2.0 * np.sin(0.5 * arg) ** 2  # omc = 1 - cos
        exp_jinv = _coeffs(s / th, -c / th**2)  # e^{tA} A^{-1} xi_p
        u = _coeffs(c, s)
        pairs = u @ self._pair_table
        pair_sum = np.matmul(u[:, None, :], pairs.reshape(n_t, u.shape[1], dz))[:, 0]
        cross = self.cross.reshape(u.shape[1], dz)
        vel = self.x1 + _coeffs(c, s / th) @ self._basis
        xi = ts[:, None] * self.x1 + _coeffs(s / th, omc / th**2) @ self._basis
        xi[:, dv:] += (
            ts[:, None] * (self._drift + 0.5 * exp_jinv @ cross)
            - _coeffs(omc / th**2, -s / th**3) @ cross  # [X1, A^-2 (e^{tA} - Id) X2]
            + 0.5 * exp_jinv @ self._jinv_x2
            - 0.5 * (pair_sum - self._c0_sum)
        )
        return CurveSamples(t=ts.copy(), velocity=vel, xi=xi)

    # -- derived quantities ----------------------------------------------

    def speed(self) -> float:
        """The conserved speed |x(t)| = |x(0)|."""
        return float(np.linalg.norm(self.x1 + self.xi.sum(axis=0)))

    def linear_coefficient(self) -> np.ndarray:
        """Average central drift: the constant part of the t-linear coefficient.

        The full coefficient of t also carries the bounded oscillation
        [X1, e^{tA} A^{-1} X2]/2 whenever the kernel component brackets
        against the rotating subspaces; this method reports the constant part
        Z0c + Z1f + [X1, A^{-1} X2]/2 - sum_p [xi_p, A^{-1} xi_p]/2.
        """
        return self.x1[self.alg.dim_v :] + self._drift

    def central_oscillation_bound(self) -> float:
        """Triangle-inequality bound for the bounded central oscillation.

        Bounds |Zc(t) + Zf(t) - t * (linear coefficient + oscillating linear
        part)| uniformly in t; the oscillating t-linear part is
        [X1, e^{tA} A^{-1} X2]/2, bounded by lam |X1| |A^{-1}X2| per unit t,
        so this constant bounds the non-growing remainder only.  Brackets see
        the v parts of the planes, the flat rotation its central parts.
        """
        lam = self._bracket_norm()
        dv = self.alg.dim_v
        th = self.rates
        nx = np.linalg.norm(self.xi[:, :dv], axis=1)
        b = lam * float(np.linalg.norm(self.x1[:dv])) * 2.0 * (nx @ th**-2.0)
        b += 0.5 * lam * (nx @ (1.0 / th)) ** 2
        amp = lam * (np.outer(th * nx, nx / th) + np.outer(nx, nx))
        b += np.sum(amp / np.abs(self._gap))  # (1/2) * 2 endpoints per pair
        b += 2.0 * (np.linalg.norm(self.xi[:, dv:], axis=1) @ (1.0 / th))
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
