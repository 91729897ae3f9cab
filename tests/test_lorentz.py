"""Tests for force classification, closedness, exactness, and invariance of
closedness under conjugation by automorphisms."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nilmag.algebra import MetricNilAlgebra
from nilmag.errors import DegenerateForceError, InvalidForceError, UnsupportedForceError
from nilmag.lorentz import (
    ForceType,
    LorentzForce,
    check_closed,
    exactness_test,
    random_closed_type1,
    type2_from_vector,
)


def h3():
    return MetricNilAlgebra.heisenberg(1)


def h5():
    return MetricNilAlgebra.heisenberg(2)


def h3_times_r2():
    return MetricNilAlgebra.from_structure(5, [(1, 2, 3, 1.0)])


def _skew(rng, n):
    a = rng.normal(size=(n, n))
    return 0.5 * (a - a.T)


def test_force_requires_skew_and_finite():
    alg = h3()
    with pytest.raises(InvalidForceError):
        LorentzForce(alg, np.eye(3))
    with pytest.raises(InvalidForceError):
        LorentzForce(alg, np.full((3, 3), np.nan))
    with pytest.raises(InvalidForceError):
        LorentzForce(alg, np.zeros((4, 4)))


def test_force_type_classification():
    alg = h5()
    rng = np.random.default_rng(1)
    m_type1 = np.zeros((5, 5))
    m_type1[:4, :4] = _skew(rng, 4)
    assert LorentzForce(alg, m_type1).force_type() is ForceType.TYPE_I

    m_type2 = np.zeros((5, 5))
    m_type2[:4, 4] = [1.0, -2.0, 0.5, 0.0]
    m_type2[4, :4] = -m_type2[:4, 4]
    assert LorentzForce(alg, m_type2).force_type() is ForceType.TYPE_II

    assert LorentzForce(alg, m_type1 + m_type2).force_type() is ForceType.MIXED
    assert LorentzForce(alg, np.zeros((5, 5))).force_type() is ForceType.TYPE_I


def test_every_2form_on_h3_is_closed_with_zero_residual():
    """dim 3 has a single triple whose cyclic sum cancels identically."""
    alg = h3()
    basis_forms = []
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        m = np.zeros((3, 3))
        m[i, j], m[j, i] = -1.0, 1.0
        basis_forms.append(m)
    for m in basis_forms:
        rep = check_closed(alg, m)
        assert rep.closed
        assert rep.max_residual == 0.0
        assert rep.worst_triple is None
        assert rep.frobenius_residual == 0.0


def test_nonclosed_form_on_h5_reports_violating_triple():
    """omega = xi^1 wedge xi^5 on H5 fails d omega = 0 on (e1, e3, e4)."""
    alg = h5()
    m = np.zeros((5, 5))
    m[4, 0], m[0, 4] = 1.0, -1.0  # omega(x, y) = x1 y5 - x5 y1
    rep = check_closed(alg, m)
    assert not rep.closed
    assert rep.worst_triple == (0, 2, 3)
    assert abs(rep.max_residual - 1.0) <= 1e-15


def _central_constraint_residuals(alg, f):
    """|F on the commutator directions| and |component of F(z) along them|."""
    comm, fz = alg.commutator_z_basis(), f.block_zz
    return float(np.max(np.abs(fz @ comm.T))), float(np.max(np.abs(comm @ fz)))


def test_worst_triple_is_the_first_maximum_in_lexicographic_order():
    """check_closed agrees with a loop over i < j < k that keeps the first
    strict maximum, on integer forms whose residuals tie."""
    rng = np.random.default_rng(11)
    for alg in [h5(), MetricNilAlgebra.quaternionic(1), h3_times_r2()]:
        d = alg.dim
        for _ in range(10):
            a = rng.integers(-1, 2, size=(d, d)).astype(float)
            m = a - a.T
            t = np.einsum("ijm,km->ijk", alg.structure, m)
            resid = np.abs(t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1))
            best, worst = 0.0, None
            for i in range(d):
                for j in range(i + 1, d):
                    for k in range(j + 1, d):
                        if resid[i, j, k] > best:
                            best, worst = resid[i, j, k], (i, j, k)
            rep = check_closed(alg, m)
            assert rep.max_residual == best and rep.worst_triple == worst


def test_type1_closed_iff_vanishes_on_commutator():
    """A closed type-I force vanishes on the commutator directions [n, n] and
    maps the center into the flat directions ker j; check_closed sees both."""
    rng = np.random.default_rng(5)
    for alg in [h3(), h5(), MetricNilAlgebra.quaternionic(1), h3_times_r2()]:
        for _ in range(3):
            f = random_closed_type1(alg, rng)
            assert f.force_type() is ForceType.TYPE_I
            assert check_closed(alg, f).closed and f._closedness[1]
            comm_res, kernel_res = _central_constraint_residuals(alg, f)
            assert comm_res <= 1e-14 and kernel_res <= 1e-14
            image = f.block_zz @ np.eye(alg.dim_z)
            ker = alg.kernel_z_basis()
            assert_allclose(ker.T @ (ker @ image), image, atol=1e-14)

    # not closed: F_z rotates the commutator direction into a flat one
    alg = h3_times_r2()
    m = np.zeros((5, 5))
    m[2, 3], m[3, 2] = -1.0, 1.0  # e3 (commutator) <-> e4 (flat)
    fbad = LorentzForce(alg, m)
    assert fbad.force_type() is ForceType.TYPE_I
    assert not check_closed(alg, fbad).closed and not fbad._closedness[1]
    comm_res, kernel_res = _central_constraint_residuals(alg, fbad)
    assert comm_res == 1.0 and kernel_res == 1.0


def test_exactness_recognizes_central_derivative_forces():
    rng = np.random.default_rng(9)
    for alg in [h3(), h5(), MetricNilAlgebra.quaternionic(1)]:
        z = rng.normal(size=alg.dim_z)
        m = np.zeros((alg.dim, alg.dim))
        m[: alg.dim_v, : alg.dim_v] = alg.j_map(z)
        res = exactness_test(alg, m)
        assert res.is_exact
        assert res.residual <= 1e-12
        assert_allclose(alg.z_part(res.z_tilde), z, atol=1e-10)
        assert_allclose(alg.v_part(res.z_tilde), np.zeros(alg.dim_v), atol=0)


def test_exactness_rejects_unequal_rotation_rates_on_h5():
    """F = diag(mu1 R, mu2 R) is exact iff mu1 = mu2; residual |mu1-mu2|*sqrt(2)."""
    alg = h5()
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    for mu1, mu2 in [(1.0, 1.0), (-1.0, 2.0), (0.3, 0.7)]:
        m = np.zeros((5, 5))
        m[:2, :2] = mu1 * r
        m[2:4, 2:4] = mu2 * r
        res = exactness_test(alg, m)
        if mu1 == mu2:
            assert res.is_exact
        else:
            assert not res.is_exact
            # nearest exact force is the average rate; each 2x2 block then
            # carries 2 (|mu1-mu2|/2)^2, so the Frobenius gap is |mu1 - mu2|
            fro = abs(mu1 - mu2)
            norm_f = np.linalg.norm(m)
            assert abs(res.residual - fro / max(1.0, norm_f)) <= 1e-12
            assert_allclose(alg.z_part(res.z_tilde), [(mu1 + mu2) / 2], atol=1e-12)


def test_exactness_requires_zero_central_block():
    alg = h3_times_r2()
    rng = np.random.default_rng(13)
    m = np.zeros((5, 5))
    m[:2, :2] = alg.j_map(np.array([0.7, 0.0, 0.0]))
    ker = alg.kernel_z_basis()
    b = _skew(rng, 2)
    m[2:, 2:] = ker.T @ b @ ker
    res = exactness_test(alg, m)
    assert not res.is_exact  # nonzero action on flat directions is not j(Z~) (+) 0


def test_type2_from_vector_matrix_and_errors():
    alg = h3()
    f = type2_from_vector(alg, [2.0, -1.0])
    want = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0], [-1.0, -2.0, 0.0]])
    assert_allclose(f.matrix, want, atol=0)
    assert f.force_type() is ForceType.TYPE_II
    assert check_closed(alg, f).closed  # every 2-form on H3 is closed
    # F(V + Z) = [V, u] + j(Z) u
    rng = np.random.default_rng(3)
    u = np.array([2.0, -1.0])
    for _ in range(10):
        x = rng.normal(size=3)
        via_def = alg.bracket(alg.embed_v(x[:2]), alg.embed_v(u)) + alg.embed_v(
            alg.j_map(x[2:]) @ u
        )
        assert_allclose(f.matrix @ x, via_def, atol=1e-14)
    # kernel of F is spanned by u itself
    assert_allclose(f.matrix @ alg.embed_v(u), np.zeros(3), atol=0)

    with pytest.raises(DegenerateForceError):
        type2_from_vector(alg, [0.0, 0.0])
    with pytest.raises(UnsupportedForceError):
        type2_from_vector(h5(), [1.0, 0.0])
    with pytest.raises(InvalidForceError):
        type2_from_vector(alg, [1.0, 0.0, 0.5])  # central component not allowed


def _is_automorphism(alg, phi) -> bool:
    """phi [e_i, e_j] = [phi e_i, phi e_j] on every basis pair."""
    lhs = np.einsum("ia,jb,abm->ijm", phi.T, phi.T, alg.structure)
    rhs = np.einsum("ijm,km->ijk", alg.structure, phi)
    return bool(np.max(np.abs(lhs - rhs)) <= 1e-14)


def test_conjugate_force_by_rotation_automorphism():
    """Rotations of v (+) matching central action are automorphisms of H3."""
    alg = h3()
    theta = 0.73
    c, s = np.cos(theta), np.sin(theta)
    phi = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    assert _is_automorphism(alg, phi)
    # rotations commute with j(e3), so conjugating the exact force is neutral
    m = np.zeros((3, 3))
    m[:2, :2] = alg.j_map(np.array([0.9]))
    assert_allclose(phi @ m @ phi.T, m, atol=1e-14)
    # conjugating a type-II force rotates its direction vector
    u = np.array([1.0, -0.5])
    g = LorentzForce(alg, phi @ type2_from_vector(alg, u).matrix @ phi.T)
    assert_allclose(g.matrix, type2_from_vector(alg, phi[:2, :2] @ u).matrix, atol=1e-14)
    assert check_closed(alg, g).closed


def test_conjugation_preserves_closedness_residuals_for_basis_permutation():
    """Closedness residuals of LorentzForce(alg, phi m phi^T) for automorphisms phi:
    the max and the worst triple move with a basis permutation, and the
    Frobenius residual is invariant under any orthogonal automorphism."""
    alg = h5()
    # swap the two symplectic pairs: (X1,Y1) <-> (X2,Y2); fixes Z
    swap = np.eye(5)[[2, 3, 0, 1, 4]].T
    theta = 0.4
    c, s = np.cos(theta), np.sin(theta)
    rot = np.eye(5)
    rot[:2, :2] = [[c, -s], [s, c]]
    assert _is_automorphism(alg, swap) and _is_automorphism(alg, rot)
    assert not _is_automorphism(alg, np.eye(5)[[4, 1, 2, 3, 0]])  # e1 <-> Z is not one
    m = np.zeros((5, 5))
    m[4, 0], m[0, 4] = 1.0, -1.0
    rep = check_closed(alg, m)
    rep2 = check_closed(alg, LorentzForce(alg, swap @ m @ swap.T))
    assert rep.max_residual == rep2.max_residual
    assert rep.closed == rep2.closed
    assert rep2.worst_triple == (0, 1, 2)  # (e1, e3, e4) moved to (e3, e1, e2), sorted
    rep3 = check_closed(alg, LorentzForce(alg, rot @ m @ rot.T))
    assert abs(rep3.frobenius_residual - rep.frobenius_residual) <= 1e-12
    rng = np.random.default_rng(17)
    for _ in range(3):
        f = random_closed_type1(alg, rng)
        for phi in (swap, rot):
            conj = check_closed(alg, LorentzForce(alg, phi @ f.matrix @ phi.T))
            assert conj.closed and conj.frobenius_residual <= 1e-14


def test_random_closed_type1_is_closed_across_presets():
    rng = np.random.default_rng(21)
    for alg in [h3(), h5(), MetricNilAlgebra.quaternionic(1), h3_times_r2()]:
        for _ in range(5):
            f = random_closed_type1(alg, rng)
            assert f.force_type() is ForceType.TYPE_I
            assert check_closed(alg, f).closed



def test_force_of_another_algebra_needs_the_same_structure():
    """A LorentzForce built on another algebra is accepted only when that
    algebra has the same v/z split and structure tensor."""
    from nilmag.oracle import reconstruct_group

    m = np.zeros((3, 3))
    m[0, 1], m[1, 0] = -1.0, 1.0
    x0, ts = np.array([0.3, -0.2, 0.5]), np.linspace(0.0, 1.0, 3)
    calls = {
        "check_closed": lambda alg, f: check_closed(alg, f).frobenius_residual,
        "exactness_test": lambda alg, f: exactness_test(alg, f).z_tilde,
        "reconstruct_group": lambda alg, f: reconstruct_group(alg, f, 1.0, x0, ts).xi,
    }
    abelian = LorentzForce(MetricNilAlgebra.from_structure(3, []), m)
    twin = LorentzForce(h3(), m)  # equal algebra, another instance
    for name, call in calls.items():
        alg = h3()
        with pytest.raises(InvalidForceError):
            call(alg, abelian)
        assert_allclose(call(alg, twin), call(alg, m), rtol=0.0, atol=0.0, err_msg=name)


def _metric(seed: int, dim: int) -> np.ndarray:
    a = 0.3 * np.random.default_rng(seed).standard_normal((dim, dim))
    return np.eye(dim) + a @ a.T


# [n, n] is e5, e6 and e7 is flat, under the identity and two random metrics
FLAT_BRACKETS = [(1, 2, 5, 1.0), (3, 4, 6, 0.9), (1, 3, 5, 0.5), (2, 4, 6, -1.3)]
EXACTNESS_ALGEBRAS = {
    "h3xr2": h3_times_r2,
    "h5": h5,
    "qh7": lambda: MetricNilAlgebra.quaternionic(1),
    "abelian": lambda: MetricNilAlgebra.from_structure(3, []),
    "flat7": lambda: MetricNilAlgebra.from_structure(7, FLAT_BRACKETS),
    **{f"flat7_metric{seed}": (lambda seed=seed: MetricNilAlgebra.from_structure(
        7, FLAT_BRACKETS, metric=_metric(seed, 7))) for seed in (1, 2)},
    "odd_metric": lambda: MetricNilAlgebra.from_structure(
        6, [(1, 2, 4, 1.0), (1, 3, 5, 0.7), (2, 3, 6, 1.1)], metric=_metric(3, 6)),
}


def _commutator_basis_fit(alg, m):
    """(is_exact, z_tilde, residual) of the fit through an orthonormal basis of
    [n, n]: one lstsq on the flattened j of each basis row."""
    dv = alg.dim_v
    comm = alg.commutator_z_basis()
    z, fit = np.zeros(alg.dim_z), np.zeros((dv, dv))
    if comm.size and dv:
        cols = np.stack([alg.j_map(row).ravel() for row in comm], axis=1)
        coef = np.linalg.lstsq(cols, m[:dv, :dv].ravel(), rcond=None)[0]
        z, fit = comm.T @ coef, (cols @ coef).reshape(dv, dv)
    best = np.zeros_like(m)
    best[:dv, :dv] = fit
    rel = float(np.linalg.norm(m - best)) / max(1.0, float(np.linalg.norm(m)))
    return rel <= 1e-10, alg.embed_z(z), rel


@pytest.mark.parametrize("name", sorted(EXACTNESS_ALGEBRAS))
def test_exactness_test_matches_the_commutator_basis_fit(name):
    """One lstsq on the (dim_v^2, dim_z) j-map matrix, cut at 1e-10, gives the
    verdict, z_tilde (to 1e-12) and residual (to 1e-13) of the fit in an
    orthonormal basis of [n, n], on exact, nearly exact, closed and arbitrary
    skew forces, with flat directions and under random metrics."""
    alg = EXACTNESS_ALGEBRAS[name]()
    rng = np.random.default_rng(len(name))
    dv = alg.dim_v
    exact = np.zeros((alg.dim, alg.dim))
    exact[:dv, :dv] = alg.j_map(rng.normal(size=alg.dim_z))  # a flat part drops out of j
    noise = _skew(rng, alg.dim)
    forces = [exact, exact + 1e-12 * noise, exact + 1e-8 * noise,
              random_closed_type1(alg, rng).matrix, noise]
    for m in forces:
        got = exactness_test(alg, m)
        is_exact, z_ref, rel = _commutator_basis_fit(alg, m)
        assert got.is_exact == is_exact
        assert np.max(np.abs(got.z_tilde - z_ref), initial=0.0) <= 1e-12 * max(1.0, np.abs(z_ref).max(initial=0.0))
        assert abs(got.residual - rel) <= 1e-13
    assert exactness_test(alg, exact).is_exact


def test_bracket_map_is_factored_once(monkeypatch):
    """On a fresh algebra exactness_test, commutator_z_basis, kernel_z_basis and
    j_injective_on_commutator run one SVD between them, of the (dim_v^2, dim_z)
    bracket map.  The spans and sigma it gives equal, to 1e-14, those of the
    stacked j(e_k) maps, and the two bases split the center orthogonally."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    for name, make in EXACTNESS_ALGEBRAS.items():
        alg = make()
        dv, dz = alg.dim_v, alg.dim_z
        m = np.zeros((alg.dim, alg.dim))
        m[:dv, :dv] = alg.j_map(np.linspace(-1.0, 1.2, dz))
        cols = np.stack([alg.j_map(e).ravel() for e in np.eye(dz)], axis=1)
        _, s_ref, vh_ref = svd(cols)
        rank = int(np.sum(s_ref > 1e-10 * s_ref[0])) if s_ref.size and s_ref[0] > 0 else 0
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", counted)
            assert exactness_test(alg, m).is_exact, name
            comm, ker, (ok, sigma) = alg.commutator_z_basis(), alg.kernel_z_basis(), alg.j_injective_on_commutator()
        assert calls == [(max(dv * dv, dz), dz)], name
        assert comm.shape == (rank, dz) and ker.shape == (dz - rank, dz), name
        assert_allclose(np.vstack((comm, ker)) @ np.vstack((comm, ker)).T, np.eye(dz), atol=1e-14)
        assert_allclose(comm.T @ comm, vh_ref[:rank].T @ vh_ref[:rank], atol=1e-14)
        assert ok and (sigma == np.inf if rank == 0 else abs(sigma - s_ref[rank - 1]) <= 1e-14 * s_ref[0]), name


def test_check_closed_matches_the_einsum_contraction():
    """The matmul contraction gives the residual tensor of the einsum one."""
    rng = np.random.default_rng(29)
    for alg in [h5(), h3_times_r2(), EXACTNESS_ALGEBRAS["flat7_metric1"]()]:
        for m in (random_closed_type1(alg, rng).matrix, _skew(rng, alg.dim)):
            t = np.einsum("ijm,km->ijk", alg.structure, m)
            resid = -(t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1))
            upper = np.triu_indices(alg.dim, 1)
            rep = check_closed(alg, m)
            assert abs(rep.frobenius_residual - np.linalg.norm(resid)) <= 1e-14 * max(1.0, np.linalg.norm(resid))
            worst = max(abs(resid[i, j, k]) for i, j in zip(*upper) for k in range(j + 1, alg.dim))
            assert abs(rep.max_residual - worst) <= 1e-15 * max(1.0, worst)


# a closed type-I force with brackets, flat directions and a random metric
SCALED_ALGEBRAS = {
    "structure_5": lambda: MetricNilAlgebra.from_structure(5, [(1, 2, 3, 1.0)], metric=_metric(5, 5)),
    "structure_8": lambda: MetricNilAlgebra.from_structure(
        8, [(1, 2, 5, 1.0), (3, 4, 5, 0.8), (1, 3, 6, 1.0), (2, 4, 6, 1.2)], metric=_metric(8, 8)),
    "qh7": lambda: MetricNilAlgebra.quaternionic(1),
}


@pytest.mark.parametrize("scale", [1e2, 1e4, 1e6, 1e8])
@pytest.mark.parametrize("name", sorted(SCALED_ALGEBRAS))
def test_closedness_bound_scales_with_the_force(name, scale):
    """A closed type-I force stays closed, and solvable, at any scale: the bound
    is 1e-12 max(1, max|F| max|c|), the size of one term of the cyclic sum.
    Under an absolute 1e-12 a closed force of scale 1e6 on structure_5 read
    3.3e-11 and was refused.  A force that is not closed stays refused."""
    from nilmag.closedform import InitialCondition, solve_type1

    alg = SCALED_ALGEBRAS[name]()
    rng = np.random.default_rng(17)
    for _ in range(5):
        f = random_closed_type1(alg, rng, scale=scale)
        rep = check_closed(alg, f)
        assert rep.closed, rep
        solve_type1(alg, f, InitialCondition.from_velocity(alg, rng.normal(size=alg.dim)))
    assert not check_closed(alg, scale * _skew(rng, alg.dim)).closed


@pytest.mark.parametrize("scale", [1.0, 1e4, 1e8])
@pytest.mark.parametrize("name", sorted(SCALED_ALGEBRAS))
def test_p_is_closedness_on_type1_forces(name, scale):
    """P, F([n, n]) = 0, is read off the product F [e_i, e_j] that check_closed
    forms.  On a type-I force each cyclic sum over i < j < k is one entry of
    it, so P holds exactly when check_closed says closed, also next to the
    tolerance; on any force P implies closed."""
    alg = SCALED_ALGEBRAS[name]()
    rng = np.random.default_rng(23)
    dv = alg.dim_v
    not_closed = _skew(rng, alg.dim)
    not_closed[:dv, dv:] = not_closed[dv:, :dv] = 0.0
    verdicts = set()
    for _ in range(3):
        closed = random_closed_type1(alg, rng, scale=scale).matrix
        for eps in (0.0, 1e-13, 1e-12, 1e-11, 1.0):
            f = LorentzForce(alg, closed + eps * scale * not_closed)
            assert f.force_type() is ForceType.TYPE_I
            assert f._closedness[1] is check_closed(alg, f).closed
            verdicts.add(f._closedness[1])
    assert verdicts == {True, False}
    # a force with [n, n] projected out of its rows and columns, v-z blocks and all
    comm = alg.commutator_z_basis()
    c = np.concatenate([np.zeros((comm.shape[0], dv)), comm], axis=1)
    p = np.eye(alg.dim) - c.T @ c
    for _ in range(3):
        f = LorentzForce(alg, scale * p @ _skew(rng, alg.dim) @ p)
        assert f._closedness[1] and check_closed(alg, f).closed


def test_force_holds_its_classification(monkeypatch):
    """The force matrix and a report's z_tilde are read-only; force_type, the
    closedness report and the exactness fit are computed once per force, so
    classifying and then solving with solve_type1 and solve_exact runs each
    worker once; a fresh force of the same matrix gives equal reports."""
    from nilmag import lorentz
    from nilmag.closedform import InitialCondition, solve_exact, solve_type1

    alg = MetricNilAlgebra.quaternionic(1)
    m = np.zeros((7, 7))
    m[:4, :4] = alg.j_map(np.array([0.5, 0.2, -0.9]))
    calls = []
    for worker in ("_closedness_report", "_exactness_fit"):
        def counted(*args, _f=getattr(lorentz, worker), _name=worker):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(lorentz, worker, counted)

    force = LorentzForce(alg, m)
    with pytest.raises(ValueError):
        force.matrix[0, 1] = 1.0
    assert force.force_type() is ForceType.TYPE_I
    closed, exact = check_closed(alg, force), exactness_test(alg, force)
    ic = InitialCondition.from_velocity(alg, np.linspace(-1.0, 1.0, 7), 0.7)
    solve_type1(alg, force, ic)
    solve_exact(alg, force, ic)
    assert sorted(calls) == ["_closedness_report", "_exactness_fit"]
    assert check_closed(alg, force) is closed and exactness_test(alg, force) is exact
    with pytest.raises(ValueError):
        exact.z_tilde[4] = 0.0

    again = LorentzForce(alg, m)
    assert check_closed(alg, again) == closed
    twin = exactness_test(alg, again)
    assert (twin.is_exact, twin.residual) == (exact.is_exact, exact.residual)
    assert np.array_equal(twin.z_tilde, exact.z_tilde)
    assert again.force_type() is force.force_type()
