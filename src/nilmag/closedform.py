"""Closed-form magnetic trajectories for splitting-preserving closed forces.

For a closed type-I force F (skew on v, skew on the flat central directions,
zero on the commutator directions [n, n]) and charge q, the left-trivialized
velocity obeys one linear equation x' = A x with A = j(Z0) + q F, j(Z0) acting
on v: the commutator part Z0c of the central velocity is conserved, and
closedness makes F vanish on [n, n].  One eigh of -A^2, its columns grouped
by rate, splits x(0) into components x_p on invariant planes with rates
th_p >= 0, where A^2 = -th_p^2.  The kernel of A is the plane of rate 0: it
carries Z0c and every rate that the merge cutoff folds into it.  With b_p0 = x_p,
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

Construction decomposes once: one eigh, one product for all x_p, two
matmuls for the bracket table [b_pa, b_rb] and one contraction of it with a
fixed coefficient pattern for the pair weights.  `spectrum` (the SkewSpectrum
of A) is rebuilt from that eigh when read, and an exact force's `geodesic`
is built on first use.  Evaluation is tabulated.  With C = 1 - th^2 V, the
pair sum is a quadratic plus a linear form in u = (S_p | V_p), the
coefficients of X(t); their weights, the brackets [b_pa, b_rb] times the
coefficients above over D, are built once from the structure tensor, and a
sample grid needs sin(th t) and sin(th t/2) per plane of rate th > 0 and
time (the rate-0 plane, the first, takes t, t^2/2 and t^3/6 as they are).  No
coefficient divides by a small rate: S, V and W stay within |t|, t^2/2 and
|t|^3/6, and a rate folded into the kernel costs O((th t)^2) only.  The
weights 1/D still lose digits between planes of near-equal distinct rates
that bracket against each other.

Special case: an exact force F = j(Z~) (+) 0 shifts a geodesic (the velocity
equals a geodesic velocity minus q Z~, the position picks up -t q Z~).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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
# The rows of the pair sum, each a sum of the pair weights w_cd with factors
# th_p^2 (p) and th_r^2 (r): the blocks quad[a, b] (S or V of plane p by S or
# V of plane r), the first of which is f, then e, -f, e and g; the linear form
# is (e, -f) summed over r minus (e, g) summed over p.  Columns (p, r, c, d).
_PAIR_ROWS = ("+p00 +11", "+p01 -r10", "+p10 -p01", "+pr00 +p11", "+10 -01", "-p00 -11", "+10 -01", "+r00 +11")
_PAIR_PATTERN = np.zeros((8, 2, 2, 2, 2))
for _row, _terms in enumerate(_PAIR_ROWS):
    for _t in _terms.split():
        _PAIR_PATTERN[_row, int("p" in _t), int("r" in _t), int(_t[-2]), int(_t[-1])] = float(_t[0] + "1")
_PAIR_PATTERN = _PAIR_PATTERN.reshape(8, 16)


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
        if not (np.isfinite(v0).all() and np.isfinite(z0).all() and math.isfinite(self.charge)):
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
    has the mean of its rates."""
    w, vecs = np.linalg.eigh(j_matrix.T @ j_matrix)  # eigh reads one triangle
    r = [math.sqrt(e) if e > 0.0 else 0.0 for e in w.tolist()]
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
        x = np.concatenate([ic.v0, ic.z0], dtype=float)
        self.alg, self.force, self.ic = alg, force, ic
        dim, dv, dz = alg.dim, alg.dim_v, alg.dim_z
        self.matrix = a = np.zeros((dim, dim))
        a[:dv, :dv] = alg.j_map(x[dv:]) + ic.charge * force.block_vv
        a[dv:, dv:] = ic.charge * force.block_zz
        self._groups = rate, vecs, edges = _eigen_groups(a)
        # the component x_p = V_p V_p^T x of x(0) on group p, kept where |V_p^T x| > 1e-14 |x|
        y = x @ vecs
        cut, sq = 1e-14 * max(1.0, math.sqrt(x @ x)), (y * y).tolist()
        kept = [(r, lo, hi) for r, lo, hi in zip(rate, edges, edges[1:]) if math.sqrt(sum(sq[lo:hi])) > cut]
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

        # with C = 1 - th^2 V, sum_{p != r} sum_{a,b} [b_pa, b_rb] I_ab(p, r) is a
        # quadratic form in u = (S_p | V_p) plus a linear one.  w_cd = [b_pc, b_rd] / D,
        # 0 at p = r, and each block of either is a sum of w_cd times th_p^2i th_r^2j
        t2 = [r * r for r in th]
        powers = np.array([[1.0] * n, t2])  # th^0, th^2
        weight = np.array([[1.0 / (tp - tr) if tp != tr else 0.0 for tr in t2] for tp in t2])  # 1 / D
        mono = powers[:, None, :, None] * powers[:, None] * weight.reshape(n, n)  # [i, j, p, r]
        terms = mono[:, :, None, None, :, :, None] * table.transpose(2, 0, 3, 1, 4)
        rows = (_PAIR_PATTERN @ terms.reshape(16, -1)).reshape(8, n, n, dz)
        # (S_p | V_p) x (S_r | V_r)
        self._quad = rows[:4].reshape(2, 2, n, n, dz).transpose(0, 2, 1, 3, 4).reshape(2 * n, 2 * n * dz)
        self._lin = (rows[4:6].sum(axis=2) - rows[6:].sum(axis=1)).reshape(2 * n, dz)
        # one product with u = (S | V | 1) gives X(t) and x(t) = x(0) + sum_p S_p b_p1 - th_p^2 V_p b_p0
        vel = np.concatenate([self.jxi, -powers[1][:, None] * self.xi, self.xi.sum(axis=0, keepdims=True)])
        self._rows = np.concatenate([np.concatenate([basis, np.zeros((1, dim))]), vel], axis=1)

    @property
    def spectrum(self) -> SkewSpectrum:
        """The kernel and rotation subspaces of matrix, from the construction's eigh."""
        return _spectrum(self.matrix, *self._groups)

    # -- evaluation ------------------------------------------------------

    def sample(self, ts: np.ndarray) -> CurveSamples:
        ts = np.asarray(ts, dtype=float)
        n_t, dim, dz = ts.shape[0], self.alg.dim, self.alg.dim_z
        u1, w = _plane_functions(ts, self.rates, self._coef)
        u = u1[:, :-1]  # the coefficients (S | V) of X(t)
        quad = np.matmul(u[:, None, :], (u @ self._quad).reshape(n_t, u.shape[1], dz))[:, 0]
        out = u1 @ self._rows
        xi, vel = out[:, :dim], out[:, dim:]
        xi[:, dim - dz :] += 0.5 * (w @ self._self_pair - u @ self._lin - quad)
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
        drift = 0.25 * (self._coef[1] @ (self._self_pair[rot] - kernel_pair))
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
        dv = self.alg.dim_v
        # |[a, b]| <= lam |a| |b|, lam the spectral norm of the (dv^2, dz) bracket map
        lam = float(np.linalg.norm(self.alg.structure[:dv, :dv, dv:].reshape(dv * dv, -1), 2)) if dv else 0.0
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


@dataclass
class ExactShiftSolution:
    """An exact force trajectory viewed as a shifted geodesic.

    solution solves the magnetic equation directly; geodesic, built on first
    use, is the zero-force trajectory with initial central velocity raised by
    the charge times the force potential; shift = q Z~ relates the two:

        velocity(t) = geodesic velocity(t) - shift
        position(t) = geodesic position(t) - t * shift
    """

    solution: TypeISolution
    shift: np.ndarray

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
    return ExactShiftSolution(solution=TypeISolution(alg, f, ic), shift=shift)
