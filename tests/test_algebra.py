"""Tests for 2-step nilpotent metric Lie algebras."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nilmag.algebra import MetricNilAlgebra, SingularityKind, _pfaffian


def h3():
    return MetricNilAlgebra.heisenberg(1)


def h5():
    return MetricNilAlgebra.heisenberg(2)


def qh7():
    return MetricNilAlgebra.quaternionic(1)


def almost_nonsingular_6d():
    """v = e1..e4, z = e5,e6: [e1,e2] = [e3,e4] = e5, [e1,e3] = e6."""
    return MetricNilAlgebra.from_structure(
        6, [(1, 2, 5, 1.0), (3, 4, 5, 1.0), (1, 3, 6, 1.0)]
    )


def singular_5d():
    """v = e1..e3 (odd), z = e4,e5: [e1,e2] = e4, [e1,e3] = e5."""
    return MetricNilAlgebra.from_structure(5, [(1, 2, 4, 1.0), (1, 3, 5, 1.0)])


def h3_times_r2():
    """H3 with two extra flat central directions (ker j != 0)."""
    return MetricNilAlgebra.from_structure(5, [(1, 2, 3, 1.0)])


def test_heisenberg_dimensions_and_bracket():
    alg = h3()
    assert (alg.dim, alg.dim_v, alg.dim_z) == (3, 2, 1)
    e1, e2, e3 = np.eye(3)
    assert_allclose(alg.bracket(e1, e2), e3, atol=0)
    assert_allclose(alg.bracket(e2, e1), -e3, atol=0)
    assert_allclose(alg.bracket(e1, e3), np.zeros(3), atol=0)


def test_group_product_matches_explicit_heisenberg_law():
    """Oracle: (x1,y1,z1)*(x2,y2,z2) = (x1+x2, y1+y2, z1+z2+(x1 y2 - y1 x2)/2)."""
    alg = h3()
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        want = np.array(
            [a[0] + b[0], a[1] + b[1], a[2] + b[2] + 0.5 * (a[0] * b[1] - a[1] * b[0])]
        )
        assert_allclose(alg.group_mul(a, b), want, atol=1e-15)
    # exp(e1) exp(e2) = exp(e1 + e2 + e3/2)
    assert_allclose(alg.group_mul(np.eye(3)[0], np.eye(3)[1]), [1, 1, 0.5], atol=0)


def test_group_is_associative_with_inverse():
    for alg in [h3(), h5(), qh7(), almost_nonsingular_6d()]:
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b, c = rng.normal(size=(3, alg.dim))
            left = alg.group_mul(alg.group_mul(a, b), c)
            right = alg.group_mul(a, alg.group_mul(b, c))
            assert_allclose(left, right, atol=1e-13)
            assert_allclose(alg.group_mul(a, alg.group_inv(a)), np.zeros(alg.dim), atol=1e-15)
            assert_allclose(alg.group_mul(a, np.zeros(alg.dim)), a, atol=0)


def test_bracket_is_bilinear_antisymmetric_and_two_step():
    for alg in [h5(), qh7(), almost_nonsingular_6d(), singular_5d()]:
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, y, w = rng.normal(size=(3, alg.dim))
            s, t = rng.normal(size=2)
            assert_allclose(
                alg.bracket(s * x + t * y, w),
                s * alg.bracket(x, w) + t * alg.bracket(y, w),
                atol=1e-12,
            )
            assert_allclose(alg.bracket(x, y), -alg.bracket(y, x), atol=0)
            # 2-step: brackets are central
            assert_allclose(alg.bracket(alg.bracket(x, y), w), np.zeros(alg.dim), atol=0)


def test_j_map_adjoint_identity():
    """<j(Z)V, W> = <Z, [V, W]> on random inputs (the defining relation)."""
    for alg in [h3(), h5(), qh7(), almost_nonsingular_6d(), h3_times_r2()]:
        rng = np.random.default_rng(17)
        for _ in range(30):
            z = rng.normal(size=alg.dim_z)
            vv = rng.normal(size=alg.dim_v)
            ww = rng.normal(size=alg.dim_v)
            lhs = float((alg.j_map(z) @ vv) @ ww)
            rhs = float(z @ alg.z_part(alg.bracket(alg.embed_v(vv), alg.embed_v(ww))))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
            jm = alg.j_map(z)
            assert_allclose(jm, -jm.T, atol=1e-14)


def test_h3_j_map_is_quarter_turn():
    alg = h3()
    jm = alg.j_map(np.array([1.0]))
    assert_allclose(jm, [[0.0, -1.0], [1.0, 0.0]], atol=0)
    # j(e3) e1 = e2
    assert_allclose(jm @ [1.0, 0.0], [0.0, 1.0], atol=0)


def test_h5_j_map_is_block_diagonal_rotation():
    alg = h5()
    jm = alg.j_map(np.array([1.0]))
    r = np.array([[0.0, -1.0], [1.0, 0.0]])
    want = np.block([[r, np.zeros((2, 2))], [np.zeros((2, 2)), r]])
    assert_allclose(jm, want, atol=0)


def test_geodesic_term_matches_j_map_route():
    """<x,[x,e_k]> route equals j(x_z) x_v embedded in v."""
    for alg in [h3(), h5(), qh7(), almost_nonsingular_6d()]:
        rng = np.random.default_rng(23)
        for _ in range(25):
            x = rng.normal(size=alg.dim)
            direct = alg.geodesic_term(x)
            via_j = alg.embed_v(alg.j_map(alg.z_part(x)) @ alg.v_part(x))
            assert_allclose(direct, via_j, atol=1e-13)


def test_bracket_and_geodesic_term_match_einsum_definitions():
    """The matrix-product forms equal sum_ij x_i y_j c_ijk and sum_mi x_m x_i c_ikm.

    The bound is 1e-15 of the same sums taken over absolute values, the scale
    any summation order's rounding is measured against.
    """
    rng = np.random.default_rng(41)
    a = rng.normal(size=(5, 5))
    generic = MetricNilAlgebra.from_structure(
        5, [(1, 2, 5, 1.0), (3, 4, 5, 1.0)], metric=a @ a.T + 5.0 * np.eye(5)
    )
    presets = [MetricNilAlgebra.heisenberg(n) for n in (1, 2, 8)]
    presets += [MetricNilAlgebra.quaternionic(n) for n in (1, 4)]
    for alg in [*presets, generic]:
        c = alg.structure
        for _ in range(50):
            x, y = rng.normal(size=(2, alg.dim)) * rng.uniform(0.1, 100.0)
            for got, spec, u, w in [
                (alg.bracket(x, y), "i,j,ijk->k", x, y),
                (alg.geodesic_term(x), "m,i,ikm->k", x, x),
            ]:
                want = np.einsum(spec, u, w, c)
                scale = np.einsum(spec, np.abs(u), np.abs(w), np.abs(c))
                assert np.all(np.abs(got - want) <= 1e-15 * scale), (alg.name, spec)


def test_levi_civita_on_h3_basis():
    alg = h3()
    e1, e2, e3 = np.eye(3)
    assert_allclose(alg.levi_civita(e1, e2), 0.5 * e3, atol=0)
    assert_allclose(alg.levi_civita(e2, e1), -0.5 * e3, atol=0)
    assert_allclose(alg.levi_civita(e1, e3), -0.5 * e2, atol=0)
    assert_allclose(alg.levi_civita(e3, e1), -0.5 * e2, atol=0)
    assert_allclose(alg.levi_civita(e2, e3), 0.5 * e1, atol=0)
    assert_allclose(alg.levi_civita(e3, e3), np.zeros(3), atol=0)


def test_levi_civita_is_torsion_free_and_metric_compatible():
    for alg in [h3(), qh7(), almost_nonsingular_6d()]:
        rng = np.random.default_rng(29)
        for _ in range(25):
            x, y, w = rng.normal(size=(3, alg.dim))
            torsion = alg.levi_civita(x, y) - alg.levi_civita(y, x) - alg.bracket(x, y)
            assert_allclose(torsion, np.zeros(alg.dim), atol=1e-12)
            compat = float(alg.levi_civita(x, y) @ w + y @ alg.levi_civita(x, w))
            assert abs(compat) <= 1e-12


def test_from_structure_scaled_metric_rescales_j():
    """H3 with metric diag(1,1,4): the normalized center direction doubles j."""
    alg = MetricNilAlgebra.from_structure(
        3, [(1, 2, 3, 1.0)], metric=np.diag([1.0, 1.0, 4.0])
    )
    assert (alg.dim_v, alg.dim_z) == (2, 1)
    jm = alg.j_map(np.array([1.0]))
    assert_allclose(np.abs(jm), [[0.0, 2.0], [2.0, 0.0]], atol=1e-12)
    assert not alg.is_h_type()
    # conversion round trip
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=3)
        assert_allclose(alg.from_internal(alg.to_internal(x)), x, atol=1e-12)
    # internal basis is orthonormal for the given metric
    g = np.diag([1.0, 1.0, 4.0])
    p = alg.input_basis
    assert_allclose(p.T @ g @ p, np.eye(3), atol=1e-12)


def test_is_h_type():
    assert h3().is_h_type()
    assert h5().is_h_type()
    assert qh7().is_h_type()
    assert MetricNilAlgebra.quaternionic(2).is_h_type()
    assert not almost_nonsingular_6d().is_h_type()
    assert not h3_times_r2().is_h_type()  # j(flat direction) = 0 breaks j^2 = -Id


def test_center_decomposition():
    alg = h3_times_r2()
    comm = alg.commutator_z_basis()
    ker = alg.kernel_z_basis()
    assert comm.shape == (1, 3)
    assert ker.shape == (2, 3)
    # split a mixed central vector along the commutator span
    z = np.array([1.0, 2.0, 3.0])  # z-coords: (commutator dir + flat dirs)
    zc = comm.T @ (comm @ z)
    zk = z - zc
    assert_allclose(ker.T @ (ker @ z), zk, atol=1e-13)
    # zc lies in the commutator span, zk orthogonal to it
    assert_allclose(zc - comm.T @ (comm @ zc), np.zeros(3), atol=1e-13)
    assert_allclose(comm @ zk, np.zeros(1), atol=1e-13)
    # j vanishes exactly on the flat component
    assert_allclose(alg.j_map(zk), np.zeros((2, 2)), atol=1e-13)
    ok, sigma = alg.j_injective_on_commutator()
    assert ok and sigma > 0.5


def test_commutator_spans_whole_center_on_presets():
    for alg in [h3(), h5(), qh7()]:
        assert alg.commutator_z_basis().shape[0] == alg.dim_z
        assert alg.kernel_z_basis().shape[0] == 0
        ok, _ = alg.j_injective_on_commutator()
        assert ok


def test_classification_nonsingular_presets():
    for alg in [h3(), h5(), qh7()]:
        rep = alg.classify_singularity()
        assert rep.kind is SingularityKind.NONSINGULAR
        assert rep.exhaustive


def test_classification_almost_nonsingular():
    rep = h3_times_r2().classify_singularity()
    assert rep.kind is SingularityKind.ALMOST_NONSINGULAR
    rep6 = almost_nonsingular_6d().classify_singularity()
    assert rep6.kind is SingularityKind.ALMOST_NONSINGULAR
    assert rep6.exhaustive
    assert rep6.singular_direction is not None and rep6.regular_direction is not None
    # the witnesses actually witness
    alg = almost_nonsingular_6d()
    s_sing = np.linalg.svd(alg.j_map(rep6.singular_direction), compute_uv=False)
    s_reg = np.linalg.svd(alg.j_map(rep6.regular_direction), compute_uv=False)
    assert s_sing[-1] <= 1e-7 * s_sing[0]
    assert s_reg[-1] > 1e-3


def test_classification_singular_odd_v():
    rep = singular_5d().classify_singularity()
    assert rep.kind is SingularityKind.SINGULAR
    assert rep.exhaustive
    assert rep.method == "odd_dim_v"


def test_classification_sampling_path():
    """dim z = 3, non-h-type, singular directions exist: sampling must find both."""
    # two quaternionic blocks sharing only part of the center: take the
    # quaternionic structure and zero one central generator's brackets
    brackets = [
        (1, 2, 5, 1.0),
        (3, 4, 5, 1.0),
        (1, 3, 6, 1.0),
        (2, 4, 6, -1.0),
        # e7 only couples the first pair: j(e7) has rank 2 only
        (1, 2, 7, 1.0),
    ]
    alg = MetricNilAlgebra.from_structure(7, brackets)
    assert alg.dim_z == 3 and not alg.is_h_type()
    rep = alg.classify_singularity()
    assert rep.kind is SingularityKind.ALMOST_NONSINGULAR
    assert rep.exhaustive
    rep2 = alg.classify_singularity()
    assert rep.kind is rep2.kind  # deterministic
    # the same brackets plus a pair (e5, e6), with the center moved to e7, e8, e9:
    # dim v = 6 takes the exact odd-Pfaffian route
    shifted = [(i, j, k + 2, c) for i, j, k, c in brackets]
    alg6 = MetricNilAlgebra.from_structure(9, shifted + [(5, 6, 7, 1.0)])
    assert (alg6.dim_v, alg6.dim_z) == (6, 3) and not alg6.is_h_type()
    rep6 = alg6.classify_singularity()
    assert rep6.method == "pfaffian_parity"
    assert rep6.kind is SingularityKind.ALMOST_NONSINGULAR and rep6.exhaustive
    # plus two pairs (e5, e6), (e7, e8), with the center moved to e9, e10, e11:
    # dim v = 8 samples; the axis probe hits Z = e11, where j has rank 2 < 8
    shifted = [(i, j, k + 4, c) for i, j, k, c in brackets]
    alg8 = MetricNilAlgebra.from_structure(11, shifted + [(5, 6, 9, 1.0), (7, 8, 9, 1.0)])
    assert (alg8.dim_v, alg8.dim_z) == (8, 3) and not alg8.is_h_type()
    rep8 = alg8.classify_singularity()
    assert rep8.method == "sampling"
    assert rep8.kind is SingularityKind.ALMOST_NONSINGULAR and rep8.exhaustive
    # the witnesses witness, and a second call returns them bit for bit
    assert alg8._sigma_ratios(rep8.singular_direction[None])[0] <= 1e-8
    assert alg8._sigma_ratios(rep8.regular_direction[None])[0] > 1e-3
    again = alg8.classify_singularity()
    for got, want in ((again.singular_direction, rep8.singular_direction),
                      (again.regular_direction, rep8.regular_direction)):
        assert got.tobytes() == want.tobytes()


def _metric(seed: int, dim: int) -> np.ndarray:
    a = 0.3 * np.random.default_rng(seed).standard_normal((dim, dim))
    return np.eye(dim) + a @ a.T


PFAFFIAN_CASES = {
    # Pf j(Z) = 0.9 z5 z6 vanishes on two planes, which no probe hits under this metric
    "indefinite": (
        [(1, 2, 5, 1.0), (3, 4, 6, 0.9), (1, 3, 7, 1.0)],
        _metric(1, 7),
        SingularityKind.ALMOST_NONSINGULAR,
    ),
    # Pf j(Z) = z5^2 + 4 z6^2 + 9 z7^2: quaternionic units with unequal weights
    "definite": (
        [(1, 2, 5, 1.0), (3, 4, 5, 1.0), (1, 3, 6, 2.0), (2, 4, 6, -2.0), (1, 4, 7, 3.0),
         (2, 3, 7, 3.0)],
        np.eye(7),
        SingularityKind.NONSINGULAR,
    ),
    # every bracket involves e1, so every j(Z) has rank 2
    "zero": ([(1, 2, 5, 1.0), (1, 3, 6, 1.0), (1, 4, 7, 1.0)], None, SingularityKind.SINGULAR),
    # Pf j(Z) = z5^2 is semidefinite with a 2-dim kernel
    "semidefinite": (
        [(1, 2, 5, 1.0), (3, 4, 5, 1.0), (1, 3, 6, 1.0), (1, 3, 7, 0.5)],
        _metric(2, 7),
        SingularityKind.ALMOST_NONSINGULAR,
    ),
}


@pytest.mark.parametrize("name", sorted(PFAFFIAN_CASES))
def test_classification_pfaffian_form(name):
    """dim v = 4, dim z = 3: the verdict is exact and the witnesses witness."""
    brackets, metric, want = PFAFFIAN_CASES[name]
    alg = MetricNilAlgebra.from_structure(7, brackets, metric=metric)
    assert (alg.dim_v, alg.dim_z) == (4, 3) and not alg.is_h_type()
    rep = alg.classify_singularity()
    assert (rep.kind, rep.exhaustive, rep.method) == (want, True, "pfaffian_form")
    if want is not SingularityKind.NONSINGULAR:
        s = np.linalg.svd(alg.j_map(rep.singular_direction), compute_uv=False)
        assert s[-1] <= 1e-12 * s[0]
    if want is not SingularityKind.SINGULAR:
        s = np.linalg.svd(alg.j_map(rep.regular_direction), compute_uv=False)
        assert s[-1] > 1e-2 * s[0]


def test_pfaffian_squares_to_the_determinant():
    rng = np.random.default_rng(3)
    for n in (2, 4, 6, 8, 10):
        m = rng.standard_normal((n, n))
        m -= m.T
        assert_allclose(_pfaffian(m) ** 2, np.linalg.det(m), rtol=1e-12)
    # block-diagonal quarter turns: the product of the blocks, with its sign
    blocks = np.zeros((6, 6))
    for i, val in enumerate((2.0, -3.0, 0.5)):
        blocks[2 * i, 2 * i + 1], blocks[2 * i + 1, 2 * i] = val, -val
    assert _pfaffian(blocks) == -3.0
    perm = [1, 0, 2, 3, 4, 5]  # one transposition flips the sign
    assert _pfaffian(blocks[np.ix_(perm, perm)]) == 3.0
    assert _pfaffian(np.zeros((3, 3))) == 0.0


# dim v = 6, dim z = 3: Pf j(Z) is a cubic form, so Pf j(-Z) = -Pf j(Z) and
# no such algebra is nonsingular; sampling alone reported `nonsingular` here
ODD_PFAFFIAN_BRACKETS = {
    "pairs": [(1, 2, 7, 1.0), (3, 4, 7, 1.0), (1, 3, 8, 1.0), (2, 4, 8, -1.0), (1, 2, 9, 1.0),
              (5, 6, 7, 1.0)],
    "quaternionic_plus_pair": [(1, 2, 7, 1.0), (3, 4, 7, 1.0), (1, 3, 8, 1.0), (2, 4, 8, -1.0),
                               (1, 4, 9, 1.0), (2, 3, 9, 1.0), (5, 6, 8, 0.7)],
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ODD_PFAFFIAN_BRACKETS))
def test_classification_odd_pfaffian(name, seed):
    """dim v = 2 (mod 4), dim z = 3: almost nonsingular, proved, with witnesses."""
    alg = MetricNilAlgebra.from_structure(9, ODD_PFAFFIAN_BRACKETS[name], metric=_metric(seed, 9))
    assert (alg.dim_v, alg.dim_z) == (6, 3) and not alg.is_h_type()
    rep = alg.classify_singularity()
    assert (rep.kind, rep.exhaustive, rep.method) == (
        SingularityKind.ALMOST_NONSINGULAR, True, "pfaffian_parity")
    s = np.linalg.svd(alg.j_map(rep.singular_direction), compute_uv=False)
    assert s[-1] <= 1e-12 * s[0]
    s = np.linalg.svd(alg.j_map(rep.regular_direction), compute_uv=False)
    assert s[-1] > 1e-2 * s[0]
    assert abs(np.linalg.norm(rep.singular_direction) - 1.0) <= 1e-14


def test_classification_odd_pfaffian_identically_zero():
    """Every bracket involves e1 or e2, so j(Z) has rank <= 4 and Pf j(Z) = 0:
    the probes find no regular direction and the sampling route reports
    singular, unproved."""
    alg = MetricNilAlgebra.from_structure(
        9, [(1, 3, 7, 1.0), (1, 4, 8, 1.0), (1, 5, 9, 1.0), (2, 6, 7, 1.0), (2, 4, 9, 1.0),
            (2, 5, 8, 1.0)]
    )
    assert (alg.dim_v, alg.dim_z) == (6, 3)
    rep = alg.classify_singularity()
    assert (rep.kind, rep.exhaustive, rep.method) == (SingularityKind.SINGULAR, False, "sampling")


def test_classification_abelian_vacuous():
    alg = MetricNilAlgebra.from_structure(3, [])
    assert (alg.dim_v, alg.dim_z) == (0, 3)
    assert alg.is_h_type()
    rep = alg.classify_singularity()
    assert rep.kind is SingularityKind.NONSINGULAR and rep.exhaustive
    # group law degenerates to vector addition
    a, b = np.array([1.0, 2, 3]), np.array([-1.0, 0.5, 2])
    assert_allclose(alg.group_mul(a, b), a + b, atol=0)


def test_from_structure_rejects_non_2step():
    # [e1, e2] = e2 makes e2 non-central while lying in a bracket image
    with pytest.raises(ValueError):
        MetricNilAlgebra.from_structure(3, [(1, 2, 2, 1.0)])
    # 3-step: [e1,e2]=e3, [e1,e3]=e4
    with pytest.raises(ValueError):
        MetricNilAlgebra.from_structure(4, [(1, 2, 3, 1.0), (1, 3, 4, 1.0)])


def test_from_structure_input_validation():
    with pytest.raises(ValueError):
        MetricNilAlgebra.from_structure(3, [(2, 1, 3, 1.0)])  # needs i < j
    with pytest.raises(ValueError):
        MetricNilAlgebra.from_structure(3, [(1, 4, 3, 1.0)])  # index range
    with pytest.raises(ValueError):
        MetricNilAlgebra.from_structure(3, [(1, 2, 3)])  # arity
    with pytest.raises(ValueError):
        MetricNilAlgebra.from_structure(3, [(1, 2, 3, 1.0)], metric=np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        MetricNilAlgebra.from_structure(
            3, [(1, 2, 3, 1.0)], metric=np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, 1.0]])
        )
    with pytest.raises(ValueError):
        h3().bracket(np.zeros(4), np.zeros(3))
    with pytest.raises(ValueError):
        h3().group_mul(np.array([np.nan, 0, 0]), np.zeros(3))


def test_from_structure_preset_equivalence():
    """Building H5 from raw constants matches the preset's structure."""
    alg = MetricNilAlgebra.from_structure(5, [(1, 2, 5, 1.0), (3, 4, 5, 1.0)])
    assert_allclose(alg.structure, h5().structure, atol=1e-12)
    assert (alg.dim_v, alg.dim_z) == (4, 1)


def test_same_structure_is_bitwise_in_the_adapted_basis():
    """Coordinate-aligned copies of H3 and H5 have the presets' structure tensor
    bit for bit; a rescaled bracket, a flipped one or another metric does not."""
    build = MetricNilAlgebra.from_structure
    for brackets in ([(1, 2, 3, 1.0)], [(1, 3, 2, 1.0)]):
        assert build(3, brackets).same_structure(h3()) and h3().same_structure(build(3, brackets))
    assert build(5, [(1, 2, 5, 1.0), (3, 4, 5, 1.0)]).same_structure(h5())
    others = [build(3, [(1, 2, 3, 2.0)]), build(3, [(1, 2, 3, -1.0)]),
              build(3, [(1, 2, 3, 1.0)], metric=np.diag([2.0, 1.0, 1.0])), h5()]
    for other in others:
        assert not other.same_structure(h3()) and not h3().same_structure(other)
    assert not build(5, [(1, 2, 5, 2.0), (3, 4, 5, 2.0)]).same_structure(h5())


def test_from_structure_general_metric_invariants():
    """Random SPD metric on H5-like constants keeps the defining j identity."""
    rng = np.random.default_rng(31)
    a = rng.normal(size=(5, 5))
    g = a @ a.T + 5.0 * np.eye(5)
    alg = MetricNilAlgebra.from_structure(5, [(1, 2, 5, 1.0), (3, 4, 5, 1.0)], metric=g)
    assert (alg.dim_v, alg.dim_z) == (4, 1)
    for _ in range(20):
        z = rng.normal(size=alg.dim_z)
        vv, ww = rng.normal(size=(2, alg.dim_v))
        lhs = float((alg.j_map(z) @ vv) @ ww)
        rhs = float(z @ alg.z_part(alg.bracket(alg.embed_v(vv), alg.embed_v(ww))))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))
    # input-coordinate bracket is reproduced through the basis conversion
    x_in, y_in = rng.normal(size=(2, 5))
    br_int = alg.bracket(alg.to_internal(x_in), alg.to_internal(y_in))
    # in input coordinates the bracket has only an e5 component
    br_in = alg.from_internal(br_int)
    want = np.zeros(5)
    want[4] = x_in[0] * y_in[1] - x_in[1] * y_in[0] + x_in[2] * y_in[3] - x_in[3] * y_in[2]
    assert_allclose(br_in, want, atol=1e-10)
