"""Magnetic force fields on 2-step nilpotent metric Lie algebras.

A magnetic field is a left-invariant closed 2-form omega; its Lorentz force
is the skew-symmetric map F with omega(x, y) = <F x, y>.  Relative to the
splitting n = v (+) z a skew F decomposes into blocks, and two families are
distinguished:

    type I  : F preserves the splitting (F(v) in v, F(z) in z)
    type II : F swaps it            (F(v) in z, F(z) in v)

Closedness is evaluated through the left-invariant exterior differential

    d omega (x, y, w) = -omega([x, y], w) - omega([y, w], x) - omega([w, x], y),

whose cyclic sum must vanish on all basis triples.  Every term of it is a
component of F[x, y], so P: F([n, n]) = 0 implies closedness, and on type-I
forces the two agree.  Under P the velocity equation is linear (closedform),
whether or not F couples v with the flat centre, and P is the test by which
solve(alg, force, charge, x0), the one place that picks a solver, routes there.

A LorentzForce computes each verdict on demand and keeps it.  P and the
ClosednessReport are both read off one product t[i, j, k] = <F [e_i, e_j], e_k>,
formed at most once per force and dropped once the report is built; a force
that P routes to the linear closed form builds neither the report nor its type.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

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


class ClosednessReport(NamedTuple):
    """Result of the exterior-derivative check on all basis triples."""

    closed: bool
    max_residual: float
    worst_triple: tuple[int, int, int] | None
    frobenius_residual: float  # basis-independent norm of the full 3-tensor


class ExactnessResult(NamedTuple):
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
    a read-only matrix; nothing else is computed then.  Each of the following
    is computed when first read and then kept: the type (force_type), the
    product t = F [e_i, e_j] with P (see solve), the closedness report built
    from that t (check_closed, or a refusal by solve_type1), and the
    exactness fit (exactness_test).

    t holds dim^3 floats, as many as the structure tensor, and is dropped
    once the report is built.  A force that was solved and not yet checked
    keeps it, so that a later check_closed does not form it again.
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

    # (t, its bound) and P: whether F maps every bracket [x, y] to 0
    _images = cached_property(lambda self: _bracket_images(self.alg.structure, self.matrix))
    _linear = cached_property(lambda self: bool(np.abs(self._images[0]).max() <= self._images[1]))

    @cached_property
    def _closedness(self) -> ClosednessReport:
        self._linear  # read P off t before t is dropped
        report = _closedness_report(*self._images)
        del self._images  # both verdicts are kept, so t is not needed again
        return report

    _exactness = cached_property(lambda self: _exactness_fit(self.alg, self.matrix))


def solve(alg: MetricNilAlgebra, force, charge: float, x0):
    """The trajectory of (force, charge) from the initial velocity x0: the linear
    closed form closedform.TypeISolution when F maps [n, n] to 0 (P, see the
    module docstring; a type-I force that is not closed is refused),
    h3_type2.Type2TrajectoryH3 for a type-II force on heisenberg(1)'s structure
    tensor (not a rescaled, reoriented or re-metricised copy), else the numerical
    oracle.OracleTrajectory.  Each solver module is imported when first needed."""
    f = _as_force(alg, force)
    # a type-I force that is not closed goes to solve_type1 too, which refuses it
    if f._linear or (f.force_type() is ForceType.TYPE_I and not f._closedness.closed):
        from .closedform import InitialCondition, solve_type1

        return solve_type1(alg, f, InitialCondition.from_velocity(alg, x0, charge))
    if f.force_type() is ForceType.TYPE_II and alg.same_structure(MetricNilAlgebra.heisenberg(1)):
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


def _bracket_images(c: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """(t, tol): t[i, j, k] = <F [e_i, e_j], e_k> = sum_m c[i, j, m] F[k, m], so P is
    max|t| <= tol, and the bound tol = 1e-12 max(1, max|F| max|c|) on t and d omega."""
    d = c.shape[0]
    t = (c.reshape(d * d, d) @ matrix.T).reshape(d, d, d)
    return t, _CLOSED_TOL * max(1.0, float(np.abs(matrix).max()) * float(np.abs(c).max()))


def _closedness_report(t: np.ndarray, tol: float) -> ClosednessReport:
    d = t.shape[0]
    # d omega(e_i, e_j, e_k) = -omega([e_i,e_j], e_k) - omega([e_j,e_k], e_i)
    #                          - omega([e_k,e_i], e_j)
    # with omega([e_i, e_j], e_k) = t[i, j, k] (its sign is immaterial: only
    # |d omega| and its norm are reported)
    resid = t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1)
    # argmax of the flat C-order array is the first worst triple in lexicographic order
    masked = np.abs(resid) * _strict_upper(d)
    flat = int(masked.argmax())
    max_res = float(masked.flat[flat])
    i, jk = divmod(flat, d * d)
    worst = (i, *divmod(jk, d)) if max_res > 0.0 else None
    return ClosednessReport(
        closed=bool(max_res <= tol),
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
    dv = alg.dim_v
    coef = alg._j_fit(matrix[:dv, :dv])
    best = np.zeros_like(matrix)
    best[:dv, :dv] = alg.j_map(coef)
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
