"""2-step nilpotent Lie algebras with an inner product, in adapted coordinates.

A metric 2-step nilpotent Lie algebra splits orthogonally as n = v (+) z,
where z is the center and v its orthogonal complement; all brackets land in
the center, so [[x, y], w] = 0.  Everything in this module works in an
internal orthonormal basis adapted to that splitting: coordinates 0..dim_v-1
span v and the remaining dim_z coordinates span z.

The geometry is encoded by the skew-symmetric central rotation maps
j(Z): v -> v, defined by  <j(Z) V, W> = <Z, [V, W]>.  The center further
splits as z = [n, n] (+) ker j, the commutator directions and the flat
directions on which j vanishes.

Group structure: in exponential coordinates the product of a simply
connected 2-step nilpotent group is

    a * b = a + b + (1/2) [a, b],

which is exactly associative (brackets of brackets vanish) and has inverse -a.

Left-invariant Levi-Civita connection on constant vector fields:

    nabla_x y = (1/2)[x_v, y_v] - (1/2) j(x_z) y_v - (1/2) j(y_z) x_v.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "MetricNilAlgebra",
    "SingularityKind",
    "SingularityReport",
]

# Relative singular-value threshold treating a direction as zero (rank cuts),
# and the entrywise residual of the h-type identities.
_ZERO_TOL = 1e-10
# Seed and count of the Gaussian probe directions in z of the random routes.
_PROBE_SEED = 20240817
_SAMPLES = 10_000
# Cap on the entries of the j(Z) stack one level of the half-circle search
# evaluates (2^21 floats, 16 MB); past it the search gives up its certificate.
_SEARCH_ENTRIES = 2**21
# Cap on dim^3, the entries of the (dim, dim, dim) structure tensor (2^21 floats,
# 16 MB); a larger algebra is refused before anything is allocated.
_STRUCTURE_ENTRIES = 2**21


class SingularityKind(Enum):
    """Invertibility pattern of the central rotation maps j(Z), Z != 0."""

    NONSINGULAR = "nonsingular"        # every j(Z), Z != 0, is invertible
    ALMOST_NONSINGULAR = "almost"      # some invertible, some not
    SINGULAR = "singular"              # no j(Z) is invertible


class SingularityReport(NamedTuple):
    """Outcome of classify_singularity.

    exhaustive is True when the verdict is a proof: the certified
    half-circle search for dim z <= 2 (exact up to its threshold: a
    direction counts as singular when sigma_min j(Z) <= 1e-8 times the norm
    of Z -> j(Z)), the Pfaffian form for dim v = 4, the sign change of the
    odd-degree Pfaffian for dim v = 2 (mod 4), the odd-dimensional-v
    argument, the h-type shortcut, or a mixed pair of witnesses.  It is
    False when the verdict only reflects seeded random sampling of the
    central sphere, or when the half-circle search outgrows its work cap.
    """

    kind: SingularityKind
    exhaustive: bool
    method: str
    singular_direction: np.ndarray | None = None
    regular_direction: np.ndarray | None = None


def _pfaffian(a: np.ndarray) -> float:
    """Pfaffian of a real skew-symmetric matrix by Parlett-Reid elimination.

    Step k swaps the largest entry of column k below the diagonal into row
    k + 1 (a symmetric swap, which flips the sign), takes the pivot a[k, k+1]
    as a factor, and clears the rest of row and column k by a unimodular
    congruence, which keeps the Pfaffian.  Odd sizes give 0.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n % 2:
        return 0.0
    pf = 1.0
    for k in range(0, n - 1, 2):
        p = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if p != k + 1:
            a[[k + 1, p]] = a[[p, k + 1]]
            a[:, [k + 1, p]] = a[:, [p, k + 1]]
            pf = -pf
        if a[k, k + 1] == 0.0:
            return 0.0
        pf *= a[k, k + 1]
        tau = a[k, k + 2 :] / a[k, k + 1]
        col = a[k + 2 :, k + 1].copy()
        a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return float(pf)


def _as_vector(x, dim: int, what: str, rows: bool = False) -> np.ndarray:
    """A finite vector (dim,), or with rows=True also a stack of them (n, dim)."""
    v = np.asarray(x, dtype=float)
    if v.shape[-1:] != (dim,) or v.ndim > (2 if rows else 1):
        want = f"({dim},) or (n, {dim})" if rows else f"({dim},)"
        raise ValueError(f"{what} must have shape {want}, got {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{what} contains non-finite entries")
    return v


def _require_size(dim: int, what: str) -> None:
    """Refuse, before allocating, an algebra of more than _STRUCTURE_ENTRIES structure constants."""
    if dim**3 > _STRUCTURE_ENTRIES:
        raise ValueError(f"{what} is too large: dimension {dim} would need {dim}^3 structure"
                         " constants, over the cap of 2^21")


def _aligned_orthonormal(cand: np.ndarray, m: int) -> np.ndarray:
    """m orthonormal columns from the columns of cand (k, n) in order: Gram-Schmidt
    keeps a column that is more than 1e-8 out of the span of the ones before it,
    so a column equal to e_j yields e_j when the earlier ones span e_1..e_{j-1}."""
    rest, out, k = cand.copy(), np.empty((cand.shape[0], m)), 0
    for i in range(cand.shape[1] if m else 0):
        nrm = math.sqrt(rest[:, i] @ rest[:, i])
        if nrm > 1e-8:
            out[:, k] = q = rest[:, i] / nrm
            k += 1
            if k == m:
                break
            rest[:, i + 1 :] -= np.outer(q, q @ rest[:, i + 1 :])
    if k != m:
        raise ValueError("internal error: Gram-Schmidt lost rank")
    return out


class MetricNilAlgebra:
    """A 2-step nilpotent Lie algebra with inner product, adapted basis.

    Construct with the presets `heisenberg(n)` / `quaternionic(n)` or from
    raw structure constants via `from_structure`.  Vectors are plain float
    arrays of length `dim` in the internal adapted orthonormal basis
    (v-coordinates first, then z-coordinates).

    Construction keeps the structure tensor and the change of basis back to
    the user's coordinates (input_basis, input_metric; the identity unless
    from_structure gave them).  The tables derived from the structure tensor
    are built when first read and then kept: the bracket and geodesic
    matrices (read by bracket, geodesic_term and group_mul, so by the oracle
    and the group law) and the SVD of the bracket map.
    """

    def __init__(
        self,
        structure: np.ndarray,
        dim_v: int,
        dim_z: int,
        name: str = "",
        input_basis: np.ndarray | None = None,
        input_metric: np.ndarray | None = None,
    ):
        dim = dim_v + dim_z
        structure = np.asarray(structure, dtype=float)
        if structure.shape != (dim, dim, dim):
            raise ValueError("structure tensor must be (dim, dim, dim)")
        self.dim = dim
        self.dim_v = dim_v
        self.dim_z = dim_z
        self.name = name or f"nilalgebra(dim_v={dim_v}, dim_z={dim_z})"
        # central arguments bracket to zero and bracket images lie in z, so only the
        # v x v -> z block survives, made exactly antisymmetric in its first two slots
        self.structure = np.zeros((dim, dim, dim))
        block = structure[:dim_v, :dim_v, dim_v:]
        self.structure[:dim_v, :dim_v, dim_v:] = 0.5 * (block - block.transpose(1, 0, 2))
        # change of basis back to the user's coordinates (identity for presets)
        self.input_basis = np.eye(dim) if input_basis is None else np.asarray(input_basis, float)
        self.input_metric = np.eye(dim) if input_metric is None else np.asarray(input_metric, float)

    # bracket and geodesic drift as (dim, dim^2) matrices on outer(x, y).ravel(),
    # for the oracle and the group law
    _bracket_matrix = cached_property(lambda self: self.structure.transpose(2, 0, 1).reshape(self.dim, -1))
    _geodesic_matrix = cached_property(lambda self: self.structure.transpose(1, 2, 0).reshape(self.dim, -1))

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def heisenberg(cls, n: int) -> "MetricNilAlgebra":
        """Heisenberg algebra of dimension 2n + 1.

        v has the symplectic basis (X1, Y1, ..., Xn, Yn) with [Xi, Yi] = Z,
        so j(Z) is the block-diagonal quarter-turn diag(R, ..., R).
        """
        if n < 1:
            raise ValueError("heisenberg(n) needs n >= 1")
        dim_v, dim_z = 2 * n, 1
        dim = dim_v + dim_z
        _require_size(dim, f"heisenberg({n})")
        c = np.zeros((dim, dim, dim))
        for i in range(n):
            c[2 * i, 2 * i + 1, dim_v] = 1.0
            c[2 * i + 1, 2 * i, dim_v] = -1.0
        return cls(c, dim_v, dim_z, name=f"heisenberg({n})")

    @classmethod
    def quaternionic(cls, n: int) -> "MetricNilAlgebra":
        """Quaternionic Heisenberg algebra of dimension 4n + 3.

        v = H^n with per-block basis (X, Y, V, W) and a 3-dimensional center
        (Z1, Z2, Z3); the brackets realize the imaginary quaternion units:

            [X, Y] = Z1, [V, W] = Z1,
            [X, V] = Z2, [Y, W] = -Z2,
            [X, W] = Z3, [Y, V] = Z3.

        The result is h-type: j(Z)^2 = -|Z|^2 Id.
        """
        if n < 1:
            raise ValueError("quaternionic(n) needs n >= 1")
        dim_v, dim_z = 4 * n, 3
        dim = dim_v + dim_z
        _require_size(dim, f"quaternionic({n})")
        z1, z2, z3 = dim_v, dim_v + 1, dim_v + 2
        c = np.zeros((dim, dim, dim))
        for b in range(n):
            x, y, v, w = 4 * b, 4 * b + 1, 4 * b + 2, 4 * b + 3
            pairs = [
                (x, y, z1, 1.0),
                (v, w, z1, 1.0),
                (x, v, z2, 1.0),
                (y, w, z2, -1.0),
                (x, w, z3, 1.0),
                (y, v, z3, 1.0),
            ]
            for i, j, k, val in pairs:
                c[i, j, k] = val
                c[j, i, k] = -val
        return cls(c, dim_v, dim_z, name=f"quaternionic({n})")

    @classmethod
    def from_structure(
        cls,
        dim: int,
        brackets: list,
        metric: np.ndarray | None = None,
        name: str = "",
    ) -> "MetricNilAlgebra":
        """Build from structure constants in an arbitrary basis.

        brackets is a list of (i, j, k, val) with 1-based indices i < j,
        meaning [e_i, e_j] = sum_k val * e_k.  metric is an optional
        symmetric positive-definite Gram matrix of the input basis (identity
        if omitted).  The constructor finds the center, takes its metric
        orthogonal complement, orthonormalizes both (preferring directions
        aligned with the input axes, so coordinate-aligned inputs keep their
        axes), and rewrites the structure constants in that adapted basis.

        Raises ValueError if the data is not a 2-step nilpotent algebra
        (i.e. if some bracket image fails to be central) or the metric is
        not finite, symmetric and positive definite.  Abelian input (no
        brackets) is allowed and yields dim_v = 0.
        """
        if dim < 0:
            raise ValueError("dim must be nonnegative")
        _require_size(dim, "algebra.dim")
        c = np.zeros((dim, dim, dim))
        for entry in brackets:
            if len(entry) != 4:
                raise ValueError(f"bracket entries are (i, j, k, val), got {entry!r}")
            i, j, k, val = entry
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ValueError(f"bracket indices out of range 1..{dim}: {entry!r}")
            if i >= j:
                raise ValueError(f"bracket entries need i < j (one orientation), got {entry!r}")
            c[i - 1, j - 1, k - 1] += float(val)
            c[j - 1, i - 1, k - 1] -= float(val)

        if metric is None:
            g = np.eye(dim)
        else:
            g = np.asarray(metric, dtype=float)
            if g.shape != (dim, dim):
                raise ValueError("metric must be (dim, dim)")
            if not np.isfinite(g).all():
                raise ValueError("metric must be finite")
            if np.max(np.abs(g - g.T) - 1e-5 * np.abs(g.T), initial=0.0) > 1e-12:  # np.allclose's test
                raise ValueError("metric must be symmetric")
            g = 0.5 * (g + g.T)

        if dim == 0:
            return cls(c, 0, 0, name=name or "trivial")
        try:
            # g = l l^T: x -> l^T x maps (R^dim, g) isometrically onto euclidean R^dim
            chol = np.linalg.cholesky(g)
        except np.linalg.LinAlgError:
            raise ValueError("metric must be positive definite") from None

        # center = null space of x |-> [x, .]  (a metric-independent notion)
        ad_flat = c.transpose(1, 2, 0).reshape(dim * dim, dim)  # rows (j,k), cols i
        _, s, vh = np.linalg.svd(ad_flat, full_matrices=False)
        smax = s[0] if s.size and s[0] > 0 else 1.0
        center_rows = vh[s <= _ZERO_TOL * smax]  # orthonormal
        dim_z = center_rows.shape[0]
        if dim_z == 0:
            raise ValueError("input algebra has trivial center; not 2-step nilpotent")

        # every bracket image must be central (2-step condition)
        images = c.reshape(dim * dim, dim)
        if np.linalg.norm(images - (images @ center_rows.T) @ center_rows) > 1e-8 * max(1.0, np.linalg.norm(c)):
            raise ValueError("bracket images are not central; algebra is not 2-step")

        # one QR of the whitened center: its columns span l^T z, then l^T v (v the metric
        # complement of z), and coef holds the coordinates of l^T e_i in them, column i.
        # Each block is orthonormalized in the order of the input axes, so
        # coordinate-aligned subspaces keep their own axes
        q = np.linalg.qr(chol.T @ center_rows.T, mode="complete")[0]
        coef = q.T @ chol.T
        dim_v = dim - dim_z
        p = np.linalg.solve(chol.T, np.hstack([q[:, dim_z:] @ _aligned_orthonormal(coef[dim_z:], dim_v),
                                               q[:, :dim_z] @ _aligned_orthonormal(coef[:dim_z], dim_z)]))
        gram = p.T @ g @ p
        if np.max(np.abs(gram - np.eye(dim)) - 1e-5 * np.eye(dim)) > 1e-9:  # np.allclose's test
            raise ValueError("internal error: adapted basis is not orthonormal")

        # rewrite structure constants: [p_a, p_b] expressed in the new basis,
        # c_int[a, b, m] = sum p_ia p_jb c_ijk (g p)_km, one index per matmul
        c_int = p.T @ (p.T @ c.reshape(dim, dim * dim)).reshape(dim, dim, dim)
        c_int = (c_int.reshape(dim * dim, dim) @ (g @ p)).reshape(dim, dim, dim)
        if dim_v and np.max(np.abs(c_int[:, :, :dim_v])) > 1e-9 * max(1.0, np.max(np.abs(c_int))):
            raise ValueError("internal error: brackets escaped the center")
        return cls(c_int, dim_v, dim_z, name=name, input_basis=p, input_metric=g)

    def same_structure(self, other: "MetricNilAlgebra") -> bool:
        """Whether other has this v/z split and, bit for bit, this structure tensor
        (in the adapted orthonormal basis, so a rescaled bracket or metric differs)."""
        return other is self or (
            (other.dim_v, other.dim_z) == (self.dim_v, self.dim_z)
            and np.array_equal(other.structure, self.structure))

    # ------------------------------------------------------------------
    # vector bookkeeping
    # ------------------------------------------------------------------

    def v_part(self, x: np.ndarray) -> np.ndarray:
        """The first dim_v coordinates (component in v)."""
        return np.asarray(x, float)[: self.dim_v]

    def z_part(self, x: np.ndarray) -> np.ndarray:
        """The last dim_z coordinates (component in the center)."""
        return np.asarray(x, float)[self.dim_v :]

    def embed_v(self, xv: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        out[: self.dim_v] = xv
        return out

    def embed_z(self, xz: np.ndarray) -> np.ndarray:
        out = np.zeros(self.dim)
        out[self.dim_v :] = xz
        return out

    def to_internal(self, x_input: np.ndarray) -> np.ndarray:
        """Convert a vector from input coordinates to the adapted basis."""
        return self.input_basis.T @ (self.input_metric @ np.asarray(x_input, float))

    def from_internal(self, x: np.ndarray) -> np.ndarray:
        """Convert a vector from the adapted basis back to input coordinates."""
        return self.input_basis @ np.asarray(x, float)

    # ------------------------------------------------------------------
    # algebra and group operations
    # ------------------------------------------------------------------

    def bracket(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Lie bracket [x, y]_k = sum_ij x_i y_j c_ijk (always a central vector).

        Like geodesic_term it runs in the oracle's inner loop, so it checks
        the shape (ValueError) but not finiteness.
        """
        return self._bracket_matrix @ self._outer(x, y)

    def _outer(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        xy = np.outer(x, y)
        if xy.shape != (self.dim, self.dim):
            raise ValueError(f"vectors must have shape ({self.dim},)")
        return xy.ravel()

    def group_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Group product in exponential coordinates: a + b + [a, b]/2.

        a and b are points (dim,) or stacks of points (n, dim); a single
        point is multiplied with every row of a stack.
        """
        return self._group_mul(_as_vector(a, self.dim, "a", rows=True), _as_vector(b, self.dim, "b", rows=True))

    def _group_mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """group_mul's arithmetic without its input checks, for points a solver made."""
        ab = a[..., :, None] * b[..., None, :]
        return a + b + 0.5 * (ab.reshape(*ab.shape[:-2], -1) @ self._bracket_matrix.T)

    def group_inv(self, a: np.ndarray) -> np.ndarray:
        """Group inverse in exponential coordinates (just -a), rowwise on stacks."""
        return -_as_vector(a, self.dim, "a", rows=True)

    def j_map(self, z: np.ndarray) -> np.ndarray:
        """Central rotation map j(Z): v -> v for a central vector.

        Accepts either z-coordinates (dim_z,) or a full vector (dim,), whose
        central part is used.  Defined by <j(Z) V, W> = <Z, [V, W]>; the
        result is skew-symmetric.
        """
        z = np.asarray(z, dtype=float)
        if z.shape == (self.dim,):
            z = z[self.dim_v :]
        elif z.shape != (self.dim_z,):
            raise ValueError(f"central vector must be ({self.dim_z},) or ({self.dim},)")
        # (j(Z) e_a)_b = <Z, [e_a, e_b]>
        return (self.structure[: self.dim_v, : self.dim_v, self.dim_v :] @ z).T

    def geodesic_term(self, x: np.ndarray) -> np.ndarray:
        """Quadratic drift of the left-trivialized geodesic field.

        Component k is <x, [x, e_k]>; for x = x_v + x_z this equals
        j(x_z) x_v embedded in v.  Computed directly from the structure
        tensor (independently of j_map) so the two routes can cross-check.
        """
        return self._geodesic_matrix @ self._outer(x, x)

    def levi_civita(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Levi-Civita connection on constant (left-invariant) fields.

        nabla_x y = (1/2)[x_v, y_v] - (1/2) j(x_z) y_v - (1/2) j(y_z) x_v.
        """
        x = _as_vector(x, self.dim, "x")
        y = _as_vector(y, self.dim, "y")
        xv, xz = x[: self.dim_v], x[self.dim_v :]
        yv, yz = y[: self.dim_v], y[self.dim_v :]
        out = 0.5 * self.bracket(x, y)  # = (1/2)[x_v, y_v], central
        out[: self.dim_v] -= 0.5 * (self.j_map(xz) @ yv + self.j_map(yz) @ xv)
        return out

    # ------------------------------------------------------------------
    # center decomposition
    # ------------------------------------------------------------------

    @cached_property
    def _bracket_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """(u, s, vh, rank): the SVD of the bracket map, the (dim_v^2, dim_z) matrix
        whose row (a, b) is [e_a, e_b] in z-coordinates, so that row (a, b) of its
        product with Z is j(Z)_ba, and its rank at the relative cut _ZERO_TOL.
        Zero rows pad it to at least dim_z rows, so vh is square: its first rank
        rows span [n, n] and the others ker j."""
        dz = self.dim_z
        images = self.structure[: self.dim_v, : self.dim_v, self.dim_v :].reshape(-1, dz)
        if images.shape[0] < dz:
            images = np.vstack((images, np.zeros((dz - images.shape[0], dz))))
        u, s, vh = np.linalg.svd(images, full_matrices=False)
        return u, s, vh, np.count_nonzero(s > _ZERO_TOL * s[0]) if s.size else 0

    def commutator_z_basis(self) -> np.ndarray:
        """Orthonormal basis (rows, z-coordinates) of the commutator ideal [n, n]."""
        _, _, vh, rank = self._bracket_svd
        return vh[:rank]

    def kernel_z_basis(self) -> np.ndarray:
        """Orthonormal basis (rows, z-coordinates) of the flat directions ker j.

        ker j is the orthogonal complement of [n, n] inside the center: for a
        central Z, <j(Z)V, W> = <Z, [V, W]> vanishes for all V, W exactly when
        Z is orthogonal to every bracket.
        """
        _, _, vh, rank = self._bracket_svd
        return vh[rank:]

    def j_injective_on_commutator(self) -> tuple[bool, float]:
        """Whether Z |-> j(Z) is injective on the commutator directions.

        Returns (flag, sigma), sigma the smallest singular value of the map on
        [n, n], which is the bracket map's smallest kept one.  This is a
        structural identity of 2-step algebras: a commutator Z with j(Z) = 0
        would be orthogonal to all brackets, hence zero.
        """
        _, s, _, rank = self._bracket_svd
        if rank == 0:
            return True, np.inf
        return bool(s[rank - 1] > _ZERO_TOL * max(1.0, s[0])), float(s[rank - 1])

    def _j_fit(self, block: np.ndarray) -> np.ndarray:
        """The minimum-norm central Z (z-coordinates) whose j(Z) is nearest the
        (dim_v, dim_v) block in the Frobenius norm, from the bracket map's
        pseudo-inverse at the _ZERO_TOL cut; Z lies in [n, n]."""
        u, s, vh, rank = self._bracket_svd
        coef = (u[: self.dim_v**2, :rank].T @ np.asarray(block, float).T.ravel()) / s[:rank]
        return vh[:rank].T @ coef

    # ------------------------------------------------------------------
    # structural classification
    # ------------------------------------------------------------------

    def is_h_type(self) -> bool:
        """True when j(Z)^2 = -|Z|^2 Id for every central Z.

        Checked on the orthonormal central basis, entrywise to 1e-10:
        j(z_i)^2 = -Id and the anticommutators j(z_i) j(z_l) + j(z_l) j(z_i)
        = 0 for i != l; by polarization this is equivalent to the definition.
        Vacuously true when v = {0} (abelian case).
        """
        if self.dim_v == 0:
            return True
        eye = np.eye(self.dim_v)
        js = [self.j_map(np.eye(self.dim_z)[i]) for i in range(self.dim_z)]
        for i, ji in enumerate(js):
            if np.max(np.abs(ji @ ji + eye)) > _ZERO_TOL:
                return False
            for jl in js[i + 1 :]:
                if np.max(np.abs(ji @ jl + jl @ ji)) > _ZERO_TOL:
                    return False
        return True

    def classify_singularity(self) -> SingularityReport:
        """Classify the invertibility pattern of j(Z) over the central sphere.

        Proved for odd dim v (skew maps there are always singular), for
        h-type algebras, for dim z <= 2 (a certified search over the central
        half circle, _classify_half_circle), for dim v = 4 (the quadratic form
        Pf j(Z)) and for dim v = 2 (mod 4) (Pf j(Z) has odd degree, so it
        changes sign); otherwise deterministic sampling of _SAMPLES seeded
        Gaussian central directions, with `exhaustive=False` on all-regular /
        all-singular verdicts.
        """
        dv, dz = self.dim_v, self.dim_z
        if dv == 0 or dz == 0:
            # abelian (or centerless trivial) case: no nonzero j to test
            return SingularityReport(SingularityKind.NONSINGULAR, True, "vacuous")
        if dv % 2 == 1:
            # skew maps on odd-dimensional spaces are always singular
            zdir = np.zeros(dz)
            zdir[0] = 1.0
            comm = self.commutator_z_basis()
            if comm.size:
                zdir = comm[0]
            return SingularityReport(SingularityKind.SINGULAR, True, "odd_dim_v", singular_direction=zdir)
        if self.is_h_type():
            zdir = np.zeros(dz)
            zdir[0] = 1.0
            return SingularityReport(SingularityKind.NONSINGULAR, True, "h_type", regular_direction=zdir)
        if dz <= 2:
            return self._classify_half_circle()
        if dv == 4:
            return self._classify_pfaffian()
        if dv % 4 == 2:
            return self._classify_odd_pfaffian()
        return self._classify_sampling()

    def _singular_values(self, dirs: np.ndarray) -> np.ndarray:
        """Singular values of j(Z), largest first, one row per row Z of dirs."""
        jblock = self.structure[: self.dim_v, : self.dim_v, self.dim_v :]
        return np.linalg.svd(np.einsum("abk,nk->nba", jblock, dirs), compute_uv=False)

    def _sigma_ratios(self, dirs: np.ndarray) -> np.ndarray:
        """sigma_min / sigma_max of j(Z) for every row Z of dirs."""
        svals = self._singular_values(dirs)
        return svals[:, -1] / np.maximum(svals[:, 0], 1e-300)

    def _probe_directions(self, n: int, flat: bool = False) -> np.ndarray:
        """Unit probe directions in z, one per row: the axes, the commutator basis, the
        flat basis when flat is set, then n Gaussian rows seeded with _PROBE_SEED."""
        parts = [np.eye(self.dim_z), self.commutator_z_basis()]
        if flat:
            parts.append(self.kernel_z_basis())
        parts.append(np.random.default_rng(_PROBE_SEED).standard_normal((n, self.dim_z)))
        probes = np.vstack(parts)
        probes /= np.linalg.norm(probes, axis=1)[:, None]
        return probes

    def _classify_half_circle(self) -> SingularityReport:
        """Certified classification for dim z <= 2 by a Lipschitz search.

        The directions are Z(theta) = cos(theta) z1 + sin(theta) z2, theta in
        [0, pi), or z1 alone when dim z = 1.  sigma_min j(Z(theta)) moves by at
        most lam |dtheta|, lam the spectral norm of the map Z -> j(Z) (onto
        matrices with the Frobenius norm).  So an interval whose midpoint has
        sigma_min above lam times its half-width, plus a rounding margin, holds
        no singular direction and is dropped; the others are halved (Shubert,
        SIAM J. Numer. Anal. 9, 1972).  A midpoint with sigma_min <= 1e-8 lam is
        a singular witness.  The search stops at the first witness or when no
        interval is left, at the latest once the half-width is below 1e-8.

        The first level has dim_v + 2 midpoints, the two axes among them.  If
        all of them are singular, every direction is: det j(Z(theta)) is a form
        of degree dim_v in (cos theta, sin theta) with more zeros than that.
        A level that would stack more than _SEARCH_ENTRIES matrix entries
        (sigma_min small against lam over a wide arc) ends the search with an
        unproved nonsingular verdict.
        """
        dv, dz, s = self.dim_v, self.dim_z, self._bracket_svd[1]
        lam = float(s[0]) if s.size else 0.0
        witness = 1e-8 * lam
        n0 = dv + 2 if dz == 2 else 1
        theta = np.pi * np.arange(n0) / n0
        half = np.pi / (2 * n0) if dz == 2 else 0.0  # one direction: nothing to halve

        def level(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)[:, :dz]
            return dirs, self._singular_values(dirs)[:, -1]

        dirs, sigma = level(theta)
        if np.all(sigma <= witness):
            return SingularityReport(
                SingularityKind.SINGULAR, True, "half_circle", singular_direction=dirs[0])
        regular = dirs[int(np.argmax(sigma))]
        while np.min(sigma) > witness:
            theta = theta[sigma <= lam * (half + 1e-12)]
            if not theta.size or 2 * theta.size * dv * dv > _SEARCH_ENTRIES:
                return SingularityReport(SingularityKind.NONSINGULAR, not theta.size,
                                         "half_circle", regular_direction=regular)
            half /= 2
            theta = np.concatenate([theta - half, theta + half])
            dirs, sigma = level(theta)
        return SingularityReport(
            SingularityKind.ALMOST_NONSINGULAR, True, "half_circle",
            singular_direction=dirs[int(np.argmin(sigma))], regular_direction=regular)

    def _classify_pfaffian(self) -> SingularityReport:
        """Exact classification for dim v = 4 from Pf j(Z) = Z^T Q Z.

        det j(Z) = Pf j(Z)^2, so j(Z) is singular exactly on the zero set of
        this quadratic form: Q = 0 is singular, Q definite is nonsingular,
        and anything else (indefinite, or semidefinite with a kernel) is
        almost nonsingular.  For eigenpairs (lam-, e-), (lam+, e+) of
        opposite signs, sqrt(|lam-|) e+ + sqrt(lam+) e- is a zero of the form.
        Eigenvalues count as zero below _ZERO_TOL times the squared Frobenius
        norm of the j-block, the scale of |Pf j(Z)| on the unit sphere.
        """
        c = self.structure[:4, :4, 4:]
        q = np.outer(c[0, 1], c[2, 3]) - np.outer(c[0, 2], c[1, 3]) + np.outer(c[0, 3], c[1, 2])
        w, vecs = np.linalg.eigh(0.5 * (q + q.T))
        tol = _ZERO_TOL * float(np.sum(c * c))
        singular = regular = None
        if w[0] < -tol and w[-1] > tol:
            singular = math.sqrt(-w[0]) * vecs[:, -1] + math.sqrt(w[-1]) * vecs[:, 0]
            singular /= np.linalg.norm(singular)
        elif np.min(np.abs(w)) <= tol:
            singular = vecs[:, int(np.argmin(np.abs(w)))]
        if np.max(np.abs(w)) > tol:
            regular = vecs[:, int(np.argmax(np.abs(w)))]
        kind = (
            SingularityKind.SINGULAR if regular is None
            else SingularityKind.NONSINGULAR if singular is None
            else SingularityKind.ALMOST_NONSINGULAR
        )
        return SingularityReport(kind, True, "pfaffian_form", singular, regular)

    def _classify_odd_pfaffian(self) -> SingularityReport:
        """Exact classification for dim v = 2 (mod 4) and dim z >= 3.

        Pf j(Z) is a form of odd degree dim_v / 2, so Pf j(-Z) = -Pf j(Z):
        unless it vanishes identically, no algebra of this shape is
        nonsingular.  From a regular direction Z, Pf changes sign along the
        half great circle to -Z, and bisection on that sign converges to a
        singular direction.  Z is the best-conditioned of the coordinate
        axes, the commutator basis and 8 fixed random directions; if all of
        them are singular, the sampling route decides.
        """
        dz = self.dim_z
        probes = self._probe_directions(8)
        ratios = self._sigma_ratios(probes)
        best = int(np.argmax(ratios))
        if ratios[best] <= 1e-8:
            return self._classify_sampling()
        z = probes[best]
        w = np.eye(dz)[int(np.argmin(np.abs(z)))]
        w -= (w @ z) * z
        w /= np.linalg.norm(w)
        sign0 = _pfaffian(self.j_map(z)) > 0.0
        lo, hi = 0.0, math.pi
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            pf = _pfaffian(self.j_map(math.cos(mid) * z + math.sin(mid) * w))
            if pf == 0.0:
                lo = hi = mid
            elif (pf > 0.0) == sign0:
                lo = mid
            else:
                hi = mid
        theta = 0.5 * (lo + hi)
        return SingularityReport(
            SingularityKind.ALMOST_NONSINGULAR,
            True,
            "pfaffian_parity",
            singular_direction=math.cos(theta) * z + math.sin(theta) * w,
            regular_direction=z,
        )

    def _classify_sampling(self) -> SingularityReport:
        """Seeded Gaussian sphere sampling where no exact route applies.

        That is dim z >= 3 with dim v = 0 (mod 4), dim v >= 8 and no h-type
        structure, or dim v = 2 (mod 4) when every probe of the exact route
        is singular.

        Deterministic probes run first: the coordinate axes, the commutator
        basis, and flat central directions (j = 0 there, a guaranteed
        singular witness when ker j != 0).  _SAMPLES Gaussian directions then
        hunt for whichever witness is still missing.
        """
        dirs = self._probe_directions(_SAMPLES, flat=True)
        singular_mask = self._sigma_ratios(dirs) <= 1e-8
        n_sing = int(np.sum(singular_mask))
        if 0 < n_sing < len(dirs):
            return SingularityReport(
                SingularityKind.ALMOST_NONSINGULAR,
                True,  # both witnesses in hand: conclusive
                "sampling",
                singular_direction=dirs[singular_mask][0],
                regular_direction=dirs[~singular_mask][0],
            )
        if n_sing == 0:
            return SingularityReport(SingularityKind.NONSINGULAR, False, "sampling", regular_direction=dirs[0])
        return SingularityReport(SingularityKind.SINGULAR, False, "sampling", singular_direction=dirs[0])
