"""Magnetic force fields on 2-step nilpotent metric Lie algebras.

A magnetic field is a left-invariant closed 2-form omega; its Lorentz force
is the skew-symmetric map F with omega(x, y) = <F x, y>.  Relative to the
splitting n = v (+) z a skew F decomposes into blocks, and two families are
distinguished:

    type I  : F preserves the splitting (F(v) in v, F(z) in z)
    type II : F swaps it            (F(v) in z, F(z) in v)

Closedness is evaluated through the left-invariant exterior differential

    d omega (x, y, w) = -omega([x, y], w) - omega([y, w], x) - omega([w, x], y),

whose cyclic sum must vanish on all basis triples.  For type-I forces this
reduces to F([n, n]) = 0; skewness then forces F(z) into the flat central
directions automatically.  solve(alg, force, charge, x0) is the one place that
picks a solver for a force.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .algebra import MetricNilAlgebra
from .errors import DegenerateForceError, InvalidForceError, UnsupportedForceError

__all__ = [
    "ForceType",
    "LorentzForce",
    "solve",
    "ClosednessReport",
    "ExactnessResult",
    "check_closed",
    "exactness_test",
    "type2_from_vector",
    "random_closed_type1",
]

# Relative size below which a force's symmetric part, one of its blocks, or its
# misfit by j(Z~) counts as zero.
_SKEW_TOL = 1e-10
# Largest cyclic-sum residual of d omega that counts as closed, relative to
# max(1, max|F| max|c|), the scale of one term of the cyclic sum.
_CLOSED_TOL = 1e-12


class ForceType(Enum):
    TYPE_I = "type_I"
    TYPE_II = "type_II"
    MIXED = "mixed"


@dataclass(frozen=True)
class ClosednessReport:
    """Result of the exterior-derivative check on all basis triples."""

    closed: bool
    max_residual: float
    worst_triple: tuple[int, int, int] | None
    frobenius_residual: float  # basis-independent norm of the full 3-tensor


@dataclass(frozen=True)
class ExactnessResult:
    """Best approximation of F by a central-derivative force j(Z~) on v.

    is_exact is True when F equals j(Z~) (+) 0 for some commutator vector Z~
    up to 1e-10 relative; z_tilde is that vector (full coordinates, central,
    read-only).
    """

    is_exact: bool
    z_tilde: np.ndarray
    residual: float


class LorentzForce:
    """A skew force matrix on an algebra, with block bookkeeping.

    The matrix is given in internal adapted coordinates.  Construction
    validates skewness to 1e-10 (relative) and then antisymmetrizes exactly into
    a read-only matrix, whose type, closedness and exactness are computed once.
    """

    def __init__(self, alg: MetricNilAlgebra, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (alg.dim, alg.dim):
            raise InvalidForceError(
                f"force matrix must be ({alg.dim}, {alg.dim}), got {matrix.shape}"
            )
        scale = float(np.abs(matrix).max(initial=0.0))  # nan or inf at a non-finite entry
        if not np.isfinite(scale):
            raise InvalidForceError("force matrix contains non-finite entries")
        if np.abs(matrix + matrix.T).max(initial=0.0) > _SKEW_TOL * max(1.0, scale):
            raise InvalidForceError("force matrix is not skew-symmetric")
        self.alg = alg
        self.matrix = 0.5 * (matrix - matrix.T)
        self.matrix.flags.writeable = False

    # block views (v-rows/cols first)
    @property
    def block_vv(self) -> np.ndarray:
        dv = self.alg.dim_v
        return self.matrix[:dv, :dv]

    @property
    def block_zz(self) -> np.ndarray:
        dv = self.alg.dim_v
        return self.matrix[dv:, dv:]

    @property
    def block_vz(self) -> np.ndarray:
        """Images of central vectors inside v (rows v, columns z)."""
        dv = self.alg.dim_v
        return self.matrix[:dv, dv:]

    def force_type(self) -> ForceType:
        """Classify by which blocks vanish.

        The zero force preserves the splitting and is reported as TYPE_I.
        """
        return self._type

    # computed on first use and kept, as the matrix is read-only
    @cached_property
    def _type(self) -> ForceType:
        tol = _SKEW_TOL * max(1.0, float(np.abs(self.matrix).max(initial=0.0)))
        if np.abs(self.block_vz).max(initial=0.0) <= tol:
            return ForceType.TYPE_I
        if np.abs(self.block_vv).max(initial=0.0) <= tol and np.abs(self.block_zz).max(initial=0.0) <= tol:
            return ForceType.TYPE_II
        return ForceType.MIXED

    _closedness = cached_property(lambda self: _closedness_report(self.alg.structure, self.matrix))
    _exactness = cached_property(lambda self: _exactness_fit(self.alg, self.matrix))


def solve(alg: MetricNilAlgebra, force, charge: float, x0):
    """The trajectory of (force, charge) from the initial velocity x0, by force type
    and structure tensor: closedform.TypeISolution for a closed type-I force,
    h3_type2.Type2TrajectoryH3 for a type-II force on heisenberg(1)'s structure
    tensor (not a rescaled, reoriented or re-metricised copy), else the numerical
    oracle.OracleTrajectory.  Each solver module is imported when first needed."""
    f = _as_force(alg, force)
    ftype = f.force_type()
    if ftype is ForceType.TYPE_I:
        from .closedform import InitialCondition, solve_type1

        return solve_type1(alg, f, InitialCondition.from_velocity(alg, x0, charge))
    if ftype is ForceType.TYPE_II and alg.same_structure(MetricNilAlgebra.heisenberg(1)):
        from .h3_type2 import Type2TrajectoryH3

        # F_u has last row (u2, -u1, 0), see type2_from_vector
        return Type2TrajectoryH3(x0, (-f.matrix[2, 1], f.matrix[2, 0]), charge)
    from .oracle import OracleTrajectory

    return OracleTrajectory(alg, f, charge, x0)


def _as_force(alg: MetricNilAlgebra, f) -> LorentzForce:
    """f as a force on alg; a LorentzForce of another algebra must share its
    v/z split and structure tensor, since its block views use its own split."""
    if isinstance(f, LorentzForce):
        if not f.alg.same_structure(alg):
            raise InvalidForceError("force belongs to an algebra with a different structure")
        return f
    return LorentzForce(alg, f)


@lru_cache(maxsize=None)
def _strict_upper(d: int) -> np.ndarray:
    """Read-only mask of the index triples i < j < k of a (d, d, d) array."""
    idx = np.arange(d)
    mask = (idx[:, None, None] < idx[None, :, None]) & (idx[None, :, None] < idx[None, None, :])
    mask.flags.writeable = False
    return mask


def check_closed(alg: MetricNilAlgebra, force) -> ClosednessReport:
    """Evaluate d omega on every basis triple i < j < k.

    Returns the largest cyclic-sum residual, the triple attaining it
    (0-based internal indices), and the Frobenius norm of the full residual
    tensor (which, unlike the max, is invariant under orthogonal changes of
    basis).  closed is max_residual <= 1e-12 max(1, max|F| max|c|), c the
    structure constants.  A LorentzForce computes its report once.
    """
    return _as_force(alg, force)._closedness


def _closedness_report(c: np.ndarray, matrix: np.ndarray) -> ClosednessReport:
    d = c.shape[0]
    # d omega(e_i, e_j, e_k) = -omega([e_i,e_j], e_k) - omega([e_j,e_k], e_i)
    #                          - omega([e_k,e_i], e_j)
    # with omega([e_i, e_j], e_k) = <F [e_i, e_j], e_k> = sum_m c[i,j,m] F[k,m]
    # (its sign is immaterial: only |d omega| and its norm are reported)
    t = (c.reshape(d * d, d) @ matrix.T).reshape(d, d, d)
    resid = t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1)
    # argmax of the flat C-order array is the first worst triple in lexicographic order
    masked = np.abs(resid) * _strict_upper(d)
    flat = int(masked.argmax())
    max_res = float(masked.flat[flat])
    i, jk = divmod(flat, d * d)
    worst = (i, *divmod(jk, d)) if max_res > 0.0 else None
    scale = max(1.0, float(np.abs(matrix).max()) * float(np.abs(c).max()))
    return ClosednessReport(
        closed=bool(max_res <= _CLOSED_TOL * scale),
        max_residual=max_res,
        worst_triple=worst,
        frobenius_residual=float(np.linalg.norm(resid)),
    )


def exactness_test(alg: MetricNilAlgebra, force) -> ExactnessResult:
    """Least-squares fit of F by j(Z~) on v (zero on z), Z~ in the commutator span.

    The fit solves min over Z~ of ||F_vv - j(Z~)||_F; the reported residual
    also includes every block of F outside v x v, so is_exact certifies
    F = j(Z~) (+) 0 globally.  Residual is relative to max(1, ||F||_F).  A
    LorentzForce computes its result once.
    """
    return _as_force(alg, force)._exactness


def _exactness_fit(alg: MetricNilAlgebra, matrix: np.ndarray) -> ExactnessResult:
    dv, dz = alg.dim_v, alg.dim_z
    # column k is j(e_k) flattened, (j(Z))_ba = sum_k c_abk Z_k: its singular values are
    # the ones commutator_z_basis cuts at 1e-10, and the minimum-norm fit lies in [n, n]
    j_cols = alg.structure[:dv, :dv, dv:].transpose(1, 0, 2).reshape(dv * dv, dz)
    coef = np.linalg.lstsq(j_cols, matrix[:dv, :dv].ravel(), rcond=1e-10)[0]
    best = np.zeros_like(matrix)
    best[:dv, :dv] = (j_cols @ coef).reshape(dv, dv)
    rel = float(np.linalg.norm(matrix - best)) / max(1.0, float(np.linalg.norm(matrix)))
    z_tilde = alg.embed_z(coef)
    z_tilde.flags.writeable = False
    return ExactnessResult(is_exact=bool(rel <= _SKEW_TOL), z_tilde=z_tilde, residual=rel)


def _direction(u) -> np.ndarray:
    """The v-part (u1, u2) of an H3 force direction u given as (2,) or (3,).

    A central part above 1e-14 or another shape raises InvalidForceError; a
    zero or non-finite direction raises DegenerateForceError.
    """
    u = np.asarray(u, dtype=float)
    if u.shape == (3,):
        if not abs(u[2]) <= 1e-14:
            raise InvalidForceError("direction vector must lie in v (zero central part)")
        u = u[:2]
    if u.shape != (2,):
        raise InvalidForceError(f"direction vector must have shape (2,) or (3,), got {u.shape}")
    if not np.all(np.isfinite(u)) or float(np.linalg.norm(u)) == 0.0:
        raise DegenerateForceError("type-II direction vector must be nonzero and finite")
    return u


def type2_from_vector(alg: MetricNilAlgebra, u: np.ndarray) -> LorentzForce:
    """The type-II force of the 3-dimensional Heisenberg algebra.

    For a nonzero u = (u1, u2) in v the force is F(V + Z) = [V, u] + j(Z) u,
    i.e. the matrix with F e3 = (-u2, u1, 0) and last row (u2, -u1, 0).
    Only defined on the 3-dimensional Heisenberg algebra.
    """
    if alg.dim != 3 or alg.dim_v != 2:
        raise UnsupportedForceError(
            "type-II direction forces are implemented on the 3-dim Heisenberg algebra only"
        )
    u = _direction(u)
    return LorentzForce(alg, np.array([[0.0, 0.0, -u[1]], [0.0, 0.0, u[0]], [u[1], -u[0], 0.0]]))


def random_closed_type1(
    alg: MetricNilAlgebra, rng: np.random.Generator, scale: float = 1.0
) -> LorentzForce:
    """A random closed type-I force: skew on v, skew on ker j, zero elsewhere.

    This parametrizes the whole cone of closed type-I forces (closedness of
    a type-I force is exactly vanishing on the commutator directions).
    """
    dv, dz = alg.dim_v, alg.dim_z
    m = np.zeros((alg.dim, alg.dim))
    if dv:
        a = rng.normal(scale=scale, size=(dv, dv))
        m[:dv, :dv] = 0.5 * (a - a.T)
    ker = alg.kernel_z_basis()
    nk = ker.shape[0]
    if nk:
        b = rng.normal(scale=scale, size=(nk, nk))
        b = 0.5 * (b - b.T)
        m[dv:, dv:] = ker.T @ b @ ker
    return LorentzForce(alg, m)
