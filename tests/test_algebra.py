"""Tests for 2-step nilpotent metric Lie algebras."""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
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


# -- dim z <= 2: the certified half-circle search ------------------------------


def _lam(alg):
    """Spectral norm of Z -> j(Z), matrices under the Frobenius norm."""
    dv = alg.dim_v
    return np.linalg.norm(alg.structure[:dv, :dv, dv:].reshape(-1, alg.dim_z), 2)


def _sigma_min(alg, z):
    return np.linalg.svd(alg.j_map(z), compute_uv=False)[-1]


def assert_half_circle(alg, want):
    """The search's verdict is want, proved, and its witnesses witness."""
    rep = alg.classify_singularity()
    assert (rep.kind, rep.exhaustive, rep.method) == (want, True, "half_circle")
    if want is not SingularityKind.NONSINGULAR:
        assert abs(np.linalg.norm(rep.singular_direction) - 1.0) <= 1e-14
        assert _sigma_min(alg, rep.singular_direction) <= 1e-8 * _lam(alg)
    if want is not SingularityKind.SINGULAR:
        assert _sigma_min(alg, rep.regular_direction) >= 1e-3 * _lam(alg)


def block_sum(*blocks):
    """Direct sum of 4-dim blocks over one centre: a block lists (i, j, k, c)
    with i < j in 1..4 and k = 1, 2, meaning [e_i, e_j] = c z_k."""
    dv = 4 * len(blocks)
    brackets = [(4 * b + i, 4 * b + j, dv + k, c)
                for b, block in enumerate(blocks) for i, j, k, c in block]
    return MetricNilAlgebra.from_structure(dv + 2, brackets)


def circle_block(c1=1.0, c2=1.0):
    """Pf = c1^2 z1^2 + c2^2 z2^2 (quaternion units i, j weighted by c1, c2)."""
    return [(1, 2, 1, c1), (3, 4, 1, c1), (1, 3, 2, c2), (2, 4, 2, -c2)]


def z2_block(c):
    """Pf = c^2 z2^2."""
    return [(1, 2, 2, c), (3, 4, 2, c)]


def tilted_h3_times_r(a, b):
    """H3 x R with [e1, e2] = a e3 + b e4: j vanishes on the central line
    orthogonal to (a, b), the kernel of j."""
    return MetricNilAlgebra.from_structure(4, [(1, 2, 3, a), (1, 2, 4, b)])


# Reported nonsingular (exhaustive) by the determinant polynomial, which found
# the double roots of det = Pf^2 only to sqrt(eps) and polished them on the flat
# ratio sigma_min / sigma_max (identically 1 at dim v = 2).
MISSED_SINGULAR = {
    "h3xr_tilted_1_0.5": lambda: tilted_h3_times_r(1.0, 0.5),
    "h3xr_tilted_0.3_-1.2": lambda: tilted_h3_times_r(0.3, -1.2),
    "h3xr_tilted_1_1": lambda: tilted_h3_times_r(1.0, 1.0),
    # Pf = c^2n z2^2n (z1^2 + z2^2)
    "blocks_n1_c3": lambda: block_sum(z2_block(3.0), circle_block()),
    "blocks_n3_c1": lambda: block_sum(*[z2_block(1.0)] * 3, circle_block()),
    "blocks_n3_c3": lambda: block_sum(*[z2_block(3.0)] * 3, circle_block()),
}


@pytest.mark.parametrize("name", sorted(MISSED_SINGULAR))
def test_half_circle_finds_missed_singular_directions(name):
    assert_half_circle(MISSED_SINGULAR[name](), SingularityKind.ALMOST_NONSINGULAR)


def test_half_circle_on_random_dim_v2_dim_z2():
    """j(Z) = <Z, w> R on a 2-dim v vanishes on the line orthogonal to w, so each
    of these is almost nonsingular; all 15 read nonsingular before."""
    for seed in range(15):
        a, b = np.random.default_rng(seed).standard_normal(2)
        alg = MetricNilAlgebra.from_structure(
            4, [(1, 2, 3, a), (1, 2, 4, b)], metric=_metric(seed, 4))
        assert_half_circle(alg, SingularityKind.ALMOST_NONSINGULAR)


def declared_split(dim_v, dim_z, brackets):
    """The raw constructor's algebra with the given v/z split, which may declare
    central vectors part of v.  Only so is dim z = 1, or dim v = 4 with dim z = 2,
    singular: a rank-2 pencil of 4x4 skew maps has a common kernel vector."""
    c = np.zeros((dim_v + dim_z,) * 3)
    for i, j, k, val in brackets:
        c[i - 1, j - 1, k - 1], c[j - 1, i - 1, k - 1] = val, -val
    return MetricNilAlgebra(c, dim_v, dim_z)


KNOWN_VERDICTS = {
    # Pf = (z1^2 + 4 z2^2) and (z1^2 + z2^2)^n up to block weights; the
    # unequal weights keep these off the h-type shortcut
    "circle_weighted": (lambda: block_sum(circle_block(1.0, 2.0)), SingularityKind.NONSINGULAR),
    "circle_n2": (lambda: block_sum(circle_block(), circle_block(2.0, 2.0)),
                  SingularityKind.NONSINGULAR),
    "circle_n3": (lambda: block_sum(circle_block(), circle_block(2.0, 2.0),
                                    circle_block(0.5, 0.5)), SingularityKind.NONSINGULAR),
    "z2_pow2_circle": (lambda: block_sum(z2_block(1.0), circle_block()),
                       SingularityKind.ALMOST_NONSINGULAR),
    "z2_pow4_circle": (lambda: block_sum(z2_block(1.0), z2_block(2.0), circle_block()),
                       SingularityKind.ALMOST_NONSINGULAR),
    "z1_z2": (lambda: block_sum([(1, 2, 1, 1.0), (3, 4, 2, 1.0)]),
              SingularityKind.ALMOST_NONSINGULAR),
    # every bracket involves e1, so j(Z) has rank 2 and Pf = 0
    "pf_zero": (lambda: declared_split(4, 2, [(1, 2, 5, 1.0), (1, 3, 6, 1.0), (1, 4, 5, 2.0)]),
                SingularityKind.SINGULAR),
    "dim_z1_regular": (lambda: MetricNilAlgebra.from_structure(
        5, [(1, 2, 5, 1.0), (3, 4, 5, 2.0)]), SingularityKind.NONSINGULAR),
    "dim_z1_singular": (lambda: declared_split(4, 1, [(1, 2, 5, 1.0)]), SingularityKind.SINGULAR),
    # tilted, it is in MISSED_SINGULAR
    "h3xr_aligned": (lambda: MetricNilAlgebra.from_structure(4, [(1, 2, 3, 1.0)]),
                     SingularityKind.ALMOST_NONSINGULAR),
}


@pytest.mark.parametrize("name", sorted(KNOWN_VERDICTS))
def test_half_circle_known_verdicts(name):
    build, want = KNOWN_VERDICTS[name]
    alg = build()
    assert alg.dim_z <= 2 and not alg.is_h_type()
    assert_half_circle(alg, want)


def test_half_circle_gives_up_its_certificate_at_the_work_cap(monkeypatch):
    """A second block of weight 1e-2 keeps sigma_min at 1e-2 of the first block's
    on every direction, so no interval is dropped until the half-width is about
    1e-2: past the cap on one level's stack the verdict is nonsingular, unproved."""
    from nilmag import algebra

    alg = block_sum(circle_block(), circle_block(1e-2, 1e-2))
    assert_half_circle(alg, SingularityKind.NONSINGULAR)
    monkeypatch.setattr(algebra, "_SEARCH_ENTRIES", 2**14)
    rep = alg.classify_singularity()
    assert (rep.kind, rep.exhaustive, rep.method) == (
        SingularityKind.NONSINGULAR, False, "half_circle")


# -- an independent reference: Pf j(z1 + s z2) in exact arithmetic --------------


def _poly_add(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return out


def _poly_mul(p, q):
    out = [0] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def pfaffian_polynomial(dim_v, brackets):
    """Coefficients, lowest power first, of P(s) = Pf j(z1 + s z2) (up to sign) for
    integer brackets (i, j, k, c), i < j <= dim_v < k, by expansion along the
    first row: Pf A = sum_j (-1)^(j+1) a_0j Pf A(0, j removed)."""
    entry = {}
    for i, j, k, c in brackets:
        poly = [0, 0]
        poly[k - dim_v - 1] = c
        entry[i - 1, j - 1] = _poly_add(entry.get((i - 1, j - 1), []), poly)

    def pf(idx):
        if not idx:
            return [1]
        total = []
        for pos, j in enumerate(idx[1:]):
            term = _poly_mul(entry.get((idx[0], j), []), pf(idx[1:pos + 1] + idx[pos + 2:]))
            total = _poly_add(total, term if pos % 2 == 0 else [-c for c in term])
        return total

    return pf(tuple(range(dim_v)))


def real_root_count(p):
    """Distinct real roots of a nonzero polynomial, by Sturm's theorem."""
    seq = [[Fraction(c) for c in _trim(p)]]
    seq.append(_trim([i * c for i, c in enumerate(seq[0])][1:]))
    while seq[-1]:
        r = seq[-2][:]
        while len(r) >= len(seq[-1]):  # r = rem(seq[-2], seq[-1])
            f, shift = r[-1] / seq[-1][-1], len(r) - len(seq[-1])
            for i, c in enumerate(seq[-1]):
                r[shift + i] -= f * c
            r = _trim(r[:-1])
        seq.append([-c for c in r])
    seq = seq[:-1]

    def changes(signs):
        return sum(a != b for a, b in zip(signs, signs[1:]))

    at_pos = [q[-1] > 0 for q in seq]
    at_neg = [(q[-1] > 0) == (len(q) % 2 == 1) for q in seq]
    return changes(at_neg) - changes(at_pos)


def reference_kind(dim_v, brackets):
    """Singular when P = 0; almost when P has a real root or Pf j(z2) (the
    coefficient of s^(dim_v/2)) vanishes; nonsingular otherwise."""
    p = pfaffian_polynomial(dim_v, brackets)
    if not _trim(p):
        return SingularityKind.SINGULAR
    p = p + [0] * (dim_v // 2 + 1 - len(p))
    if p[dim_v // 2] == 0 or real_root_count(p) > 0:
        return SingularityKind.ALMOST_NONSINGULAR
    return SingularityKind.NONSINGULAR


def test_reference_on_known_pfaffians():
    assert real_root_count([1, 0, 1]) == 0  # s^2 + 1
    assert real_root_count([1, -2, 1]) == 1  # (s - 1)^2
    assert real_root_count([-1, 0, 1]) == 2
    assert real_root_count([0, 0, 0, 1]) == 1
    quaternion = [(1, 2, 5, 1), (3, 4, 5, 1), (1, 3, 6, 1), (2, 4, 6, -1)]
    assert pfaffian_polynomial(4, quaternion) in ([1, 0, 1], [-1, 0, -1])
    assert reference_kind(4, quaternion) is SingularityKind.NONSINGULAR
    assert reference_kind(4, [(1, 2, 5, 1), (3, 4, 6, 1)]) is SingularityKind.ALMOST_NONSINGULAR
    assert reference_kind(4, [(1, 2, 5, 1), (1, 3, 6, 1), (1, 4, 5, 1)]) is SingularityKind.SINGULAR


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.data())
def test_half_circle_matches_the_exact_reference(data):
    """Integer brackets with dim z = 2: the search agrees with the real roots of
    Pf j(z1 + s z2), counted exactly, and with Pf j(z2) for s = infinity."""
    dim_v = data.draw(st.sampled_from([2, 4, 6, 8]))
    slots = [(i, j, k) for i in range(1, dim_v + 1) for j in range(i + 1, dim_v + 1)
             for k in (dim_v + 1, dim_v + 2)]
    coeffs = data.draw(st.lists(st.sampled_from([0, 1, -1, 2, -2, 0, 0]),
                                min_size=len(slots), max_size=len(slots)))
    brackets = [(i, j, k, c) for (i, j, k), c in zip(slots, coeffs) if c]
    alg = MetricNilAlgebra.from_structure(dim_v + 2, brackets)
    assume((alg.dim_v, alg.dim_z) == (dim_v, 2) and not alg.is_h_type())
    rep = alg.classify_singularity()
    assert (rep.kind, rep.exhaustive, rep.method) == (
        reference_kind(dim_v, brackets), True, "half_circle"), brackets


# -- every algebra of the suite: a flat direction is a singular one -------------


SUITE_ALGEBRAS = {
    "h3": h3, "h5": h5, "qh7": qh7, "almost_nonsingular_6d": almost_nonsingular_6d,
    "singular_5d": singular_5d, "h3_times_r2": h3_times_r2,
    "h5_times_r": lambda: MetricNilAlgebra.from_structure(6, [(1, 2, 5, 1.0), (3, 4, 5, 1.0)]),
    "qh7_times_r": lambda: MetricNilAlgebra.from_structure(
        8, [(1, 2, 5, 1.0), (3, 4, 5, 1.0), (1, 3, 6, 1.0), (2, 4, 6, -1.0), (1, 4, 7, 1.0),
            (2, 3, 7, 1.0)]),
    **{f"missed_{name}": build for name, build in MISSED_SINGULAR.items()},
    **{f"known_{name}": build for name, (build, _) in KNOWN_VERDICTS.items()},
    **{f"pfaffian_{name}": (lambda b=b, m=m: MetricNilAlgebra.from_structure(7, b, metric=m))
       for name, (b, m, _) in PFAFFIAN_CASES.items()},
    **{f"odd_pfaffian_{name}": (lambda b=b: MetricNilAlgebra.from_structure(9, b))
       for name, b in ODD_PFAFFIAN_BRACKETS.items()},
}


@pytest.mark.parametrize("name", sorted(SUITE_ALGEBRAS))
def test_flat_directions_are_never_nonsingular(name):
    """j vanishes on ker j, so an algebra with kernel_dim > 0 has a singular
    direction and is never reported nonsingular."""
    alg = SUITE_ALGEBRAS[name]()
    rep = alg.classify_singularity()
    if alg.kernel_z_basis().shape[0] > 0:
        assert rep.kind is not SingularityKind.NONSINGULAR
        assert _sigma_min(alg, rep.singular_direction) <= 1e-8 * _lam(alg)


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


FROM_STRUCTURE_CASES = {
    "h5": (5, [(1, 2, 5, 1.0), (3, 4, 5, 1.0)], None),
    "h5_metric": (5, [(1, 2, 5, 1.0), (3, 4, 5, 1.0)], _metric(7, 5)),
    "flat8_metric": (8, [(1, 2, 5, 1.0), (3, 4, 5, 0.7), (1, 3, 6, 1.0), (2, 4, 6, 1.3)], _metric(8, 8)),
    "free3_metric": (6, [(1, 2, 4, 1.0), (1, 3, 5, -0.4), (2, 3, 6, 2.5)], _metric(9, 6)),
    "tilted": (4, [(1, 2, 3, 1.0), (1, 2, 4, 0.5)], None),
    "unaligned_metric": (5, [(1, 2, 3, 1.0), (1, 2, 5, 0.3), (1, 4, 3, 0.2)], _metric(10, 5)),
}


@pytest.mark.parametrize("name", sorted(FROM_STRUCTURE_CASES))
def test_from_structure_matches_the_einsum_contraction(name):
    """The matmul rewrite of the structure constants into the adapted basis
    equals einsum("ia,jb,ijk,km->abm") on the same basis, to 1e-14."""
    dim, brackets, metric = FROM_STRUCTURE_CASES[name]
    alg = MetricNilAlgebra.from_structure(dim, brackets, metric=metric)
    c = np.zeros((dim, dim, dim))
    for i, j, k, val in brackets:
        c[i - 1, j - 1, k - 1] += val
        c[j - 1, i - 1, k - 1] -= val
    p, g, dv = alg.input_basis, alg.input_metric, alg.dim_v
    ref = np.einsum("ia,jb,ijk,km->abm", p, p, c, g @ p, optimize=True)
    ref = 0.5 * (ref - ref.transpose(1, 0, 2))
    ref[dv:], ref[:, dv:], ref[:, :, :dv] = 0.0, 0.0, 0.0
    assert np.max(np.abs(alg.structure - ref)) <= 1e-14 * max(1.0, np.abs(ref).max())
    with pytest.raises(ValueError, match="not 2-step"):  # [e1, e2] = e2 under the same metric
        MetricNilAlgebra.from_structure(dim, [*brackets, (1, 2, 2, 1.0)], metric=metric)


@pytest.mark.parametrize("scale", [0.0, 1e-13, 4e-6, 2e-5, 1e-2])
def test_from_structure_metric_symmetry_is_the_allclose_test(scale):
    """A metric is refused as asymmetric exactly when np.allclose(g, g.T,
    atol=1e-12) fails: |g - g.T| <= 1e-12 + 1e-5 |g.T| entrywise.  (At 4e-6
    the metric passes this test and then fails the orthonormality check.)"""
    g = _metric(11, 3)
    g[0, 1] += scale * abs(g[1, 0])
    try:
        MetricNilAlgebra.from_structure(3, [(1, 2, 3, 1.0)], metric=g)
        refused = False
    except ValueError as exc:
        refused = "metric must be symmetric" in str(exc)
    assert refused == (not np.allclose(g, g.T, atol=1e-12)) == (scale > 1e-5)


@pytest.mark.parametrize("build, what", [
    (lambda: MetricNilAlgebra.from_structure(129, []), "algebra.dim"),
    (lambda: MetricNilAlgebra.from_structure(10**6, [(1, 2, 3, 1.0)]), "algebra.dim"),
    (lambda: MetricNilAlgebra.heisenberg(64), "heisenberg(64)"),
    (lambda: MetricNilAlgebra.quaternionic(32), "quaternionic(32)"),
], ids=["dim129", "dim1e6", "heisenberg64", "quaternionic32"])
def test_structure_cap_refuses_before_allocating(monkeypatch, build, what):
    """An algebra of more than 2^21 structure constants (dim above 128) is
    refused with a ValueError naming it, before any array is allocated; a
    dim of 10^6 died in numpy's allocator."""
    def allocate(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    monkeypatch.setattr(np, "zeros", allocate)
    with pytest.raises(ValueError, match=re.escape(what)):
        build()


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
