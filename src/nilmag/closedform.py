"""The linear closed form: magnetic trajectories of forces with F([n, n]) = 0.

Under this condition P (see lorentz; it implies closedness) the commutator
part Z0c of the left-trivialized velocity is conserved and the velocity obeys
x' = A x with A = q F + j(Z0c), j acting on v, whether or not F couples v with
the flat centre (the closed type-I forces do not).  One eigh of -A^2, its
columns grouped by rate, splits x(0) into components x_p on invariant planes
with rates th_p >= 0, where A^2 = -th_p^2.  The kernel of A is the plane of
rate 0: it carries Z0c and every rate that the merge cutoff folds into it.
With b_p0 = x_p, b_p1 = A x_p and the per-plane functions

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
flat central rotation) brackets to 0.  Nothing here needs more than
A^2 = -th_p^2 on a plane, so its v and flat parts may rotate into each other.

Construction decomposes once: one eigh, one product for all x_p and two
matmuls for the bracket table [b_pa, b_rb]; `spectrum` (the SkewSpectrum of
A) is rebuilt from that eigh when read, and an exact force's `geodesic` is
built on first use.  With C = 1 - th^2 V the pair sum is one quadratic form
u^T Q u in u = (S | V | 1), built once: with w_cd = [b_pc, b_rd] / D (0 at
p = r), e = w_10 - w_01, f = th_p^2 w_00 + w_11 and g = th_r^2 w_00 + w_11,
its blocks (S_p, S_r), (S_p, V_r), (V_p, S_r) and (V_p, V_r) are f,
th_p^2 w_01 - th_r^2 w_10, th_p^2 e and th_p^2 g, and its constant column
holds the linear terms sum_r (e_pr - e_rp) (row S_p) and -sum_r (f_pr + g_rp)
(row V_p).  A sample grid needs sin(th t) and sin(th t/2) per plane of rate
th > 0 and time (the rate-0 plane, the first, takes t, t^2/2 and t^3/6 as
they are).  No coefficient divides by a small rate: S, V and W stay within
|t|, t^2/2 and |t|^3/6, and a rate folded into the kernel costs O((th t)^2)
only.  The weights 1/D still lose digits between planes of near-equal
distinct rates that bracket against each other.

Special case: an exact force F = j(Z~) (+) 0 shifts a geodesic (the velocity
equals a geodesic velocity minus q Z~, the position picks up -t q Z~).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import MetricNilAlgebra
from .errors import InputError, InvalidForceError, UnsupportedForceError
from .lorentz import ForceType, LorentzForce, _as_force, exactness_test
from .samples import CurveSamples, Trajectory, _time_grid

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
# the denominators b of a rate ratio a/b that velocity_period tries, least first
_DENOMINATORS = range(1, 65)
# (-1)^n / (2n + 3)! for n = 7, ..., 0: (x - sin x) / x^3 in powers of x^2, to 5e-17 for |x| < 1
_W_SERIES = tuple((-1) ** n / math.factorial(2 * n + 3) for n in range(7, -1, -1))


class InitialCondition(NamedTuple):
    """Initial velocity split into v and central components, plus the charge."""

    v0: np.ndarray
    z0: np.ndarray
    charge: float = 1.0

    @classmethod
    def from_velocity(cls, alg: MetricNilAlgebra, x0: np.ndarray, charge: float = 1.0):
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (alg.dim,):
            raise InputError(f"initial velocity must be ({alg.dim},)")
        return cls(v0=x0[: alg.dim_v].copy(), z0=x0[alg.dim_v :].copy(), charge=float(charge))

    def validate(self, alg: MetricNilAlgebra) -> None:
        v0 = np.asarray(self.v0, dtype=float)
        z0 = np.asarray(self.z0, dtype=float)
        if v0.shape != (alg.dim_v,) or z0.shape != (alg.dim_z,):
            raise InputError(f"initial condition needs shapes ({alg.dim_v},) and ({alg.dim_z},),"
                             f" got {v0.shape} and {z0.shape}")
        if not (math.isfinite(math.hypot(*v0, *z0)) and math.isfinite(self.charge)):
            raise InputError("initial condition contains non-finite entries, or its norm overflows")


class InvariantPlane(NamedTuple):
    """An invariant subspace of a skew map with a single rotation rate.

    basis rows span the subspace orthonormally; rate is the positive
    frequency, so the restricted map squares to -rate^2 Id.
    """

    rate: float
    basis: np.ndarray


class SkewSpectrum(NamedTuple):
    """Kernel plus rotation subspaces of a skew matrix.

    Merges rates that agree to 1e-9 relative into one subspace (the
    evaluation formulas only need the restriction to square to -rate^2).
    """

    kernel: np.ndarray          # rows, orthonormal basis of ker J
    planes: tuple[InvariantPlane, ...]
    matrix: np.ndarray


def spectral_decompose(j_matrix: np.ndarray) -> SkewSpectrum:
    """Split a skew matrix into its kernel and single-rate rotation subspaces,
    grouped by rate as TypeISolution groups them (see _eigen_groups)."""
    j_matrix = np.asarray(j_matrix, dtype=float)
    n = j_matrix.shape[0]
    if j_matrix.shape != (n, n):
        raise ValueError("spectral_decompose needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(j_matrix), initial=0.0)))
    if np.max(np.abs(j_matrix + j_matrix.T), initial=0.0) > 1e-10 * scale:
        raise ValueError("spectral_decompose needs a skew-symmetric matrix")
    return _spectrum(j_matrix, *_eigen_groups(j_matrix))


def _eigen_groups(j_matrix: np.ndarray):
    """One eigh of -J^2 = J^T J for a skew J: group rates (G floats), eigenvectors
    vecs (n, n) as columns and edges (G + 1 ints), group p being the columns
    edges[p]:edges[p + 1].  Rates (square roots of the eigenvalues) below 1e-9
    of the largest are the kernel, group 0 of rate 0 (maybe empty); a new group
    starts wherever consecutive ascending rates part by more than that, and
    has the mean of its rates.  Where J^T J would overflow, J is first scaled
    exactly, by a power of two, to max|J| in [1/2, 1)."""
    exp = 0
    if not math.isfinite(np.vdot(j_matrix, j_matrix)):  # the trace of J^T J; vdot does not warn
        exp = math.frexp(float(np.abs(j_matrix).max()))[1]
        j_matrix = np.ldexp(j_matrix, -exp)
    w, vecs = np.linalg.eigh(j_matrix.T @ j_matrix)  # eigh reads one triangle
    r = [math.ldexp(math.sqrt(e), exp) if e > 0.0 else 0.0 for e in w.tolist()]
    tol = _MERGE_TOL * max(r, default=0.0)
    n, k = len(r), sum(e <= tol for e in r)  # the kernel, then a group at every gap above tol
    edges = [0] + [i for i in range(k, n) if i == k or r[i] - r[i - 1] > tol] + [n]
    rates = [0.0] + [sum(r[lo:hi]) / (hi - lo) for lo, hi in zip(edges[1:], edges[2:])]
    return rates, vecs, edges


def _spectrum(matrix: np.ndarray, rates: list, vecs: np.ndarray, edges: list) -> SkewSpectrum:
    planes = tuple(InvariantPlane(r, vecs[:, lo:hi].T) for r, lo, hi in zip(rates[1:], edges[1:], edges[2:]))
    return SkewSpectrum(kernel=vecs[:, : edges[1]].T, planes=planes, matrix=matrix)


def _plane_functions(ts: np.ndarray, th: np.ndarray, coef: np.ndarray):
    """u = (S | V | 1) (T, 2P + 1) and W (T, P) of the module docstring on the
    grid ts for the ascending rates th, of which only th[0] may be 0; coef
    (3, P') holds 1/th, 2/th^2 and 1/th^3 for the rates above 0."""
    n_t, n_p = ts.shape[0], th.shape[0]
    k = n_p - coef.shape[1]
    x = ts[:, None] * th[k:]
    sin_x = np.sin(x)
    num = x - sin_x
    small = np.abs(x) < 1.0  # where th t - sin th t cancels: the series, by Horner in place
    xs = x[small]
    x2, acc = xs * xs, np.full(xs.shape, _W_SERIES[0])
    for c in _W_SERIES[1:]:
        acc *= x2
        acc += c
    num[small] = xs**3 * acc
    half = np.sin(0.5 * x)
    u, w = np.empty((n_t, 2 * n_p + 1)), np.empty((n_t, n_p))
    np.multiply(sin_x, coef[0], out=u[:, k:n_p])
    np.multiply(coef[1] * half, half, out=u[:, n_p + k : -1])
    np.multiply(num, coef[2], out=w[:, k:])
    u[:, -1] = 1.0
    if k:  # the rate-0 plane
        u[:, 0], u[:, n_p], w[:, 0] = ts, 0.5 * ts * ts, ts**3 / 6.0
    return u, w


class TypeISolution(Trajectory):
    """The linear closed form, for a force that maps [n, n] to 0.

    matrix is A = q F + j(Z0) and spectrum its decomposition.  The planes
    with a component of x(0), the rate-0 plane first if there is one, are
    rates (P,), xi (the x_p) and jxi = A xi, (P, dim); pair[p, a, r, b] =
    [b_pa, b_rb] is their bracket table.  sample(ts) evaluates a whole grid
    into CurveSamples as array products with tables built once.
    """

    solver = "closed-form-type-1"

    def __init__(self, alg: MetricNilAlgebra, force: LorentzForce, ic: InitialCondition):
        ic.validate(alg)
        x = np.concatenate([ic.v0, ic.z0], dtype=float)
        self.alg, self.force, self.ic = alg, force, ic
        dim, dv, dz = alg.dim, alg.dim_v, alg.dim_z
        self.matrix = a = ic.charge * force.matrix
        a[:dv, :dv] += alg.j_map(x[dv:])
        self._groups = rate, vecs, edges = _eigen_groups(a)
        # the component x_p = V_p V_p^T x of x(0) on group p, kept where |V_p^T x| > 1e-14
        # |x|; hypot squares no entry, so no norm of a finite |x| overflows
        y = x @ vecs
        cut, yl = 1e-14 * math.hypot(*x.tolist()), y.tolist()
        kept = [(r, lo, hi) for r, lo, hi in zip(rate, edges, edges[1:]) if math.hypot(*yl[lo:hi]) > cut]
        th, n = [r for r, _, _ in kept], len(kept)
        inv = np.array([1.0 / r for r in th if r > 0.0])
        self.rates, self._coef = np.array(th), np.array([inv, 2.0 * inv**2, inv**3])
        self.xi = np.array([vecs[:, lo:hi] @ y[lo:hi] for _, lo, hi in kept]).reshape(n, dim)
        self.jxi = self.xi @ a.T

        # pair[p, a, r, b] = [b_pa, b_rb] reads the v parts only: [b_x, b_y]_k =
        # sum_j b_y,j (sum_i b_x,i c_ijk), two matmuls over the rows of basis
        basis = np.concatenate([self.xi, self.jxi])  # rows b_p0, then rows b_p1
        b = basis[:, :dv]
        half = (b @ alg.structure[:dv, :dv, dv:].reshape(dv, dv * dz)).reshape(2 * n, dv, dz)
        table = (b @ half.transpose(1, 0, 2).reshape(dv, 2 * n * dz)).reshape(2, n, 2, n, dz)
        self.pair = table.transpose(3, 2, 1, 0, 4)
        self._self_pair = table[1, :, 0].diagonal().T  # [b_p0, b_p1]

        # sum_{p != r} sum_{a,b} [b_pa, b_rb] I_ab(p, r) is u^T Q u in u = (S | V | 1),
        # with the blocks e, f and g of the pair weights w_cd (module docstring)
        t2 = self.rates**2
        tp, tr = t2[:, None, None], t2[None, :, None]
        weight = np.divide(1.0, tp - tr, out=np.zeros((n, n, 1)), where=tp != tr)  # 1 / D, 0 at p = r
        (w00, w01), (w10, w11) = table.transpose(2, 0, 3, 1, 4) * weight
        e, f, g = w10 - w01, tp * w00 + w11, tr * w00 + w11
        q = np.zeros((2 * n + 1, 2 * n + 1, dz))
        q[:n, :n], q[:n, n:-1], q[n:-1, :n], q[n:-1, n:-1] = f, tp * w01 - tr * w10, tp * e, tp * g
        q[:n, -1], q[n:-1, -1] = (e - e.transpose(1, 0, 2)).sum(axis=1), -(f + g.transpose(1, 0, 2)).sum(axis=1)
        self._quad = q.reshape(2 * n + 1, (2 * n + 1) * dz)
        # one product with u gives X(t) and x(t) = x(0) + sum_p S_p b_p1 - th_p^2 V_p b_p0
        vel = np.concatenate([self.jxi, -t2[:, None] * self.xi, self.xi.sum(axis=0, keepdims=True)])
        self._rows = np.concatenate([np.concatenate([basis, np.zeros((1, dim))]), vel], axis=1)

    @property
    def spectrum(self) -> SkewSpectrum:
        """The kernel and rotation subspaces of matrix, from the construction's eigh."""
        return _spectrum(self.matrix, *self._groups)

    # -- evaluation ------------------------------------------------------

    def sample(self, ts: np.ndarray) -> CurveSamples:
        ts = _time_grid(ts)
        n_t, dim, dz = ts.shape[0], self.alg.dim, self.alg.dim_z
        u, w = _plane_functions(ts, self.rates, self._coef)
        quad = np.matmul(u[:, None, :], (u @ self._quad).reshape(n_t, u.shape[1], dz))[:, 0]  # u^T Q u
        out = u @ self._rows
        xi, vel = out[:, :dim], out[:, dim:]
        xi[:, dim - dz :] += 0.5 * (w @ self._self_pair - quad)
        return CurveSamples(t=ts.copy(), velocity=vel, xi=xi)

    # -- derived quantities ----------------------------------------------

    def velocity_period(self) -> float | None:
        """The period 2 pi L / th_min of x(t) = e^{tA} x(0) when every rate th > 0
        of the kept planes is th_min a/b to _MERGE_TOL with b in _DENOMINATORS,
        L the lcm of the b; 1.0 when no rate is above 0 (a straight line, whose
        velocity is constant); else None."""
        th = self.rates[self.rates > 0.0].tolist()  # ascending
        if not th:
            return 1.0
        lcm = 1
        for r in (t / th[0] for t in th):
            b = next((b for b in _DENOMINATORS if abs(r * b - round(r * b)) <= _MERGE_TOL * r * b), None)
            if b is None:
                return None
            lcm = math.lcm(lcm, b)
        return 2.0 * math.pi * lcm / th[0]

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
        drift = 0.25 * (self._coef[1] @ (self._self_pair[rot] - kernel_pair))
        return self.x1[self.alg.dim_v :] + drift

    def central_oscillation_bound(self) -> float:
        """Triangle-inequality bound for the bounded central oscillation.

        Bounds |Zc(t) + Zf(t) - t * (linear coefficient + oscillating linear
        part)| uniformly in t; the oscillating t-linear part is
        [X1, e^{tA} A^{-1} X2]/2, bounded by lam |X1| |A^{-1}X2| per unit t,
        so this constant bounds the non-growing remainder only.  Brackets see
        the v parts of the rotating planes (rate > 0), the flat drift their
        central parts, each at its largest on the orbit e^{tA} x_p (where v
        and flat parts may trade places), which th A^{-1} e^{tA} x_p is on too.
        """
        dv, s = self.alg.dim_v, self.alg._bracket_svd[1]
        # |[a, b]| <= lam |a| |b|, lam the spectral norm of the (dv^2, dz) bracket map
        lam = float(s[0]) if s.size else 0.0
        rot = self.rates > 0.0
        th = self.rates[rot]
        # max over s of |cos(s) x_p + sin(s) A x_p / th| on v and on z: root of the top Gram eigenvalue
        orbit = np.stack([self.xi[rot], self.jxi[rot] / th[:, None]], axis=1)  # (P, 2, dim)
        nx, nz = (np.sqrt(np.linalg.eigvalsh(o @ o.transpose(0, 2, 1))[:, -1]) for o in np.split(orbit, [dv], 2))
        b = lam * float(np.linalg.norm(self.x1[:dv])) * 2.0 * (nx @ th**-2.0)
        b += 0.5 * lam * (nx @ (1.0 / th)) ** 2
        amp = lam * (np.outer(th * nx, nx / th) + np.outer(nx, nx))
        gap = np.abs(th**2 - th[:, None] ** 2)
        # (1/2) * 2 endpoints per pair
        b += np.sum(np.divide(amp, gap, out=np.zeros_like(amp), where=gap > 0.0))
        b += 2.0 * (nz @ (1.0 / th))
        return float(b)


class ExactShiftSolution:
    """An exact force trajectory viewed as a shifted geodesic.

    solution solves the magnetic equation directly; geodesic, built on first
    use, is the zero-force trajectory with initial central velocity raised by
    the charge times the force potential; shift = q Z~ relates the two:

        velocity(t) = geodesic velocity(t) - shift
        position(t) = geodesic position(t) - t * shift
    """

    def __init__(self, solution: TypeISolution, shift: np.ndarray):
        self.solution, self.shift = solution, shift

    @cached_property
    def geodesic(self) -> TypeISolution:
        alg, ic = self.solution.alg, self.solution.ic
        z0 = np.asarray(ic.z0, float) + alg.z_part(self.shift)
        geo_ic = InitialCondition(v0=np.asarray(ic.v0, float).copy(), z0=z0, charge=ic.charge)
        return TypeISolution(alg, LorentzForce(alg, np.zeros((alg.dim, alg.dim))), geo_ic)

    def velocity_via_shift(self, t: float) -> np.ndarray:
        return self.geodesic.velocity(t) - self.shift

    def position_via_shift(self, t: float) -> np.ndarray:
        return self.geodesic.position(t) - float(t) * self.shift


def solve_type1(alg: MetricNilAlgebra, force, ic: InitialCondition) -> TypeISolution:
    """The linear closed form of a force that maps [n, n] to 0 (P, see lorentz); else
    InvalidForceError for a type-I force (P is its closedness), UnsupportedForceError."""
    f = _as_force(alg, force)
    if f._linear:
        return TypeISolution(alg, f, ic)
    ftype = f.force_type()
    if ftype is not ForceType.TYPE_I:
        raise UnsupportedForceError(f"the linear closed form needs F[n, n] = 0; a {ftype.value} force fails")
    rep = f._closedness
    raise InvalidForceError(f"F[n, n] != 0; closedness residual {rep.max_residual:.3e} on {rep.worst_triple}")


def solve_exact(alg: MetricNilAlgebra, force, ic: InitialCondition) -> ExactShiftSolution:
    """Solve an exact force F = j(Z~) (+) 0 and exhibit the geodesic shift.

    Raises what solve_type1 raises, and UnsupportedForceError when F is not
    exact (no commutator vector Z~ reproduces it).
    """
    sol = solve_type1(alg, force, ic)
    res = exactness_test(alg, sol.force)
    if not res.is_exact:
        raise UnsupportedForceError(
            f"force is not exact: best central-potential fit leaves residual {res.residual:.3e}"
        )
    return ExactShiftSolution(solution=sol, shift=ic.charge * res.z_tilde)  # full coordinates, central
