"""Tests for the closed-form type-I trajectory solver."""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg import expm

import fdcheck
from nilmag.algebra import MetricNilAlgebra
from nilmag.closedform import (
    InitialCondition,
    TypeISolution,
    _plane_functions,
    solve_exact,
    solve_type1,
    spectral_decompose,
)
from nilmag.errors import InvalidForceError, UnsupportedForceError
from nilmag.h5_type1 import H5Force, H5Trajectory
from nilmag.lorentz import ForceType, LorentzForce, check_closed, random_closed_type1, solve, type2_from_vector
from nilmag.oracle import IntegratorConfig, OracleTrajectory, reconstruct_group
from nilmag.samples import PeriodicityKind, lambda_periodicity


def h3():
    return MetricNilAlgebra.heisenberg(1)


def h5():
    return MetricNilAlgebra.heisenberg(2)


def qh7():
    return MetricNilAlgebra.quaternionic(1)


def h3_times_r2():
    return MetricNilAlgebra.from_structure(5, [(1, 2, 3, 1.0)])


def rotation_force_h3(rho):
    m = np.zeros((3, 3))
    m[0, 1], m[1, 0] = -rho, rho
    return m


def random_ic(alg, rng, charge=1.0):
    return InitialCondition(
        v0=rng.normal(size=alg.dim_v), z0=rng.normal(size=alg.dim_z), charge=charge
    )


def oracle_curve(alg, force, ic, ts, tol=1e-11):
    x0 = np.concatenate([ic.v0, ic.z0])
    cfg = IntegratorConfig(scheme="dopri45", tolerance=tol)
    return reconstruct_group(alg, force, ic.charge, x0, ts, cfg)


def wedge(alg, a, b):
    """z-coordinates of [a, b]."""
    return alg.z_part(alg.bracket(a, b))


def plane_counts(sol):
    """(v planes, flat planes) among the rotating planes (rate > 0) of the solution's
    one plane list; a plane of a v rate equal to a flat rate counts in both."""
    dv, xi = sol.alg.dim_v, sol.xi[sol.rates > 0.0]
    has_v, has_flat = np.any(xi[:, :dv], axis=1), np.any(xi[:, dv:], axis=1)
    return int(np.count_nonzero(has_v)), int(np.count_nonzero(has_flat))


# -- spectral decomposition -------------------------------------------------


def test_spectral_decompose_structure():
    """Kernel and planes are orthonormal, invariant, and reassemble the matrix."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6))
    j = 0.5 * (a - a.T)
    spec = spectral_decompose(j)
    total_dim = spec.kernel.shape[0] + sum(pl.basis.shape[0] for pl in spec.planes)
    assert total_dim == 6
    for pl in spec.planes:
        b = pl.basis
        assert_allclose(b @ b.T, np.eye(b.shape[0]), atol=1e-12)
        proj = b.T @ b
        # invariance and the single-rate property J^2 = -rate^2 on the subspace
        assert np.max(np.abs((np.eye(6) - proj) @ j @ proj)) < 1e-9
        assert np.max(np.abs(j @ j @ proj + pl.rate**2 * proj)) < 1e-8
    if spec.kernel.shape[0]:
        assert np.max(np.abs(j @ spec.kernel.T)) < 1e-9
    projs = [pl.basis.T @ pl.basis for pl in spec.planes]
    assert_allclose(sum(p @ j @ p for p in projs), j, atol=1e-10)


def test_blockwise_exponential_matches_expm():
    """cos/sin evaluation on the planes reproduces the matrix exponential."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    j = 0.5 * (a - a.T)
    spec = spectral_decompose(j)
    for t in (0.0, 0.4, 2.7, -1.3):
        blockwise = np.zeros((5, 5))
        if spec.kernel.shape[0]:
            blockwise += spec.kernel.T @ spec.kernel
        for pl in spec.planes:
            proj = pl.basis.T @ pl.basis
            th = pl.rate
            blockwise += np.cos(th * t) * proj + (np.sin(th * t) / th) * (j @ proj)
        assert_allclose(blockwise, expm(t * j), atol=1e-12)


def test_equal_rates_merge_into_one_subspace():
    """An h-type central rotation has one 4-dimensional invariant subspace."""
    alg = qh7()
    z = np.array([1.1, -0.5, 0.3])
    j = alg.j_map(z)
    spec = spectral_decompose(j)
    assert spec.kernel.shape[0] == 0
    assert len(spec.planes) == 1
    pl = spec.planes[0]
    assert pl.basis.shape == (4, 4)
    assert_allclose(pl.rate, np.linalg.norm(z), atol=1e-12)
    t = 1.7
    proj = pl.basis.T @ pl.basis
    blockwise = np.cos(pl.rate * t) * proj + (np.sin(pl.rate * t) / pl.rate) * (j @ proj)
    assert_allclose(blockwise, expm(t * j), atol=1e-12)


def test_spectral_decompose_rejects_non_skew():
    with pytest.raises(ValueError):
        spectral_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))


def _rotations_h5(rates, seed):
    """A closed force on heisenberg(2) with v rates `rates`, in a random orthonormal frame."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(4, 4)))
    m = np.zeros((5, 5))
    m[:4, :4] = q @ np.kron(np.diag(rates), [[0.0, -1.0], [1.0, 0.0]]) @ q.T
    return m


def _exact_qh7(z_tilde):
    alg = qh7()
    m = np.zeros((alg.dim, alg.dim))
    m[:4, :4] = alg.j_map(np.asarray(z_tilde, float))
    return m


# name: (algebra, force matrix, x(0), charge, (kernel dim, plane dims) of A)
PLANE_SPLIT_CASES = {
    # A = j(Z0 + q Z~) is h-type: one 4-dim plane, the centre is the kernel
    "merged": (qh7(), _exact_qh7([0.4, -1.1, 0.3]), [0.3, -0.2, 0.9, 0.5, 0.2, 0.7, -0.4], 1.7, (3, (4,))),
    # F_v = diag(R, 2R) and z0 = -1: the first block and the centre are the kernel
    "kernel": (h5(), H5Force.from_rates(1.0, 2.0).matrix, [0.5, -0.3, 0.8, 0.1, -1.0], 1.0, (3, (2,))),
    # a flat central rotation next to the v plane of j(z0)
    "flat": (h3_times_r2(), random_closed_type1(h3_times_r2(), np.random.default_rng(3)).matrix,
             [0.2, 0.9, -0.7, 0.4, 1.1], 0.8, (1, (2, 2))),
    # a v rate at the kernel cutoff, 1e-9 of the largest rate; it is below the
    # sqrt(eps) resolution of eigh(-A^2), so its split is left to rounding
    "cutoff_kernel": (h5(), _rotations_h5([1.0, 1e-9], 5), [0.6, 0.2, -0.5, 0.9, 0.0], 1.0, None),
    # two v rates 1e-9 apart, at the merge cutoff
    "cutoff_merge": (h5(), _rotations_h5([1.0, 1.0 + 1e-9], 7), [0.6, 0.2, -0.5, 0.9, 0.3], 1.0, None),
}


@pytest.mark.parametrize("name", sorted(PLANE_SPLIT_CASES))
def test_one_eigh_split_matches_per_plane_projections(name):
    """The construction's components x_p, from one eigh and one product, equal
    the projections onto the kernel and the planes of spectral_decompose(A),
    plane by plane, to 1e-14 of |x(0)|; rates agree to 1e-14 of the largest."""
    alg, m, x0, charge, shape = PLANE_SPLIT_CASES[name]
    x0 = np.asarray(x0, float)
    sol = solve_type1(alg, m, InitialCondition.from_velocity(alg, x0, charge))
    spec = spectral_decompose(sol.matrix)
    if shape is not None:
        assert (spec.kernel.shape[0], tuple(pl.basis.shape[0] for pl in spec.planes)) == shape
    rates = np.array([0.0] + [pl.rate for pl in spec.planes])
    comps = np.array([spec.kernel.T @ (spec.kernel @ x0)] + [pl.basis.T @ (pl.basis @ x0) for pl in spec.planes])
    kept = np.linalg.norm(comps, axis=1) > 1e-14 * max(1.0, float(np.linalg.norm(x0)))
    assert sol.rates.shape == rates[kept].shape
    assert np.max(np.abs(sol.rates - rates[kept])) <= 1e-14 * max(1.0, rates.max())
    assert np.max(np.abs(sol.xi - comps[kept])) <= 1e-14 * np.linalg.norm(x0)


def test_construction_runs_one_eigh(monkeypatch):
    """TypeISolution and H5Trajectory run one eigh each at construction; spectrum,
    branch and sampling reuse it, and an exact force's geodesic (one more solve)
    is built when first read, once."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    rng = np.random.default_rng(97)
    alg = MetricNilAlgebra.heisenberg(3)
    force, ic = random_closed_type1(alg, rng), random_ic(alg, rng, 1.3)
    h5_force = H5Force.from_matrix(H5Force.from_rates(0.7, 1.9).matrix)
    exact_ic = InitialCondition.from_velocity(qh7(), rng.normal(size=7), -0.8)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    sol = TypeISolution(alg, force, ic)
    assert sol.spectrum.planes and calls == [(7, 7)]
    sol.sample(np.linspace(0.0, 3.0, 7))
    traj = H5Trajectory(h5_force, rng.normal(size=4), -0.7)
    assert traj.branch is not None and traj.spectrum.kernel.shape[0] >= 1
    assert calls == [(7, 7), (5, 5)]
    calls.clear()
    pair = solve_exact(qh7(), _exact_qh7([0.5, 0.2, -0.9]), exact_ic)
    assert calls == [(7, 7)]
    assert pair.geodesic is pair.geodesic
    assert calls == [(7, 7), (7, 7)]


# -- solving the equations of motion ---------------------------------------


def test_solution_satisfies_equations_of_motion():
    """Velocity and group curve pass the finite-difference residual check."""
    rng = np.random.default_rng(23)
    ts = np.linspace(0.1, 6.0, 13)
    for alg in (h3(), h5(), qh7(), h3_times_r2()):
        for charge in (1.0, 0.7):
            force = random_closed_type1(alg, rng)
            sol = solve_type1(alg, force, random_ic(alg, rng, charge))
            resid = fdcheck.max_ode_residual(
                alg, force, charge, sol.velocity, sol.position, ts
            )
            assert resid < 1e-8, f"{alg.name}: residual {resid:.2e}"


def test_matches_numerical_oracle_on_presets():
    """Closed form agrees with the high-accuracy integrator on [0, 10]."""
    rng = np.random.default_rng(31)
    ts = np.linspace(0.0, 10.0, 101)
    for alg in (h3(), h5(), qh7()):
        force = random_closed_type1(alg, rng)
        ic = random_ic(alg, rng, charge=0.9)
        sol = solve_type1(alg, force, ic)
        num = oracle_curve(alg, force, ic, ts)
        got = sol.sample(ts)
        assert np.max(np.abs(got.velocity - num.velocity)) < 1e-6
        assert np.max(np.abs(got.xi - num.xi)) < 1e-6


def kernel_cross_case(charge=1.0, omega=1.4):
    """J = j(Z0) + q F_v rotates span(X, Y) only; its kernel (V, W) brackets against it."""
    alg = qh7()
    z0 = np.array([1.3, 0.0, 0.0])
    p = np.zeros((4, 4))
    p[0, 1], p[1, 0] = -omega, omega
    m = np.zeros((7, 7))
    m[:4, :4] = (p - alg.j_map(z0)) / charge
    ic = InitialCondition(np.array([0.9, -0.4, 0.7, 0.3]), z0, charge=charge)
    return alg, LorentzForce(alg, m), ic


def test_kernel_cross_term_against_oracle():
    """Kernel velocity bracketing against the rotating part is reproduced.

    The force is tuned so J = j(Z0) + q F_v is a rotation on span(X, Y) only,
    leaving a 2-dimensional kernel spanned by (V, W) whose brackets against
    (X, Y) are nonzero.  The growing central cross terms then dominate, which
    is exactly the regime that separates correct and incorrect integrations
    of [x_v(t), X(t)].
    """
    for charge in (1.0, 0.8):
        alg, force, ic = kernel_cross_case(charge)
        sol = solve_type1(alg, force, ic)

        # preconditions: nontrivial kernel component that brackets nontrivially
        # against the one rotating plane
        assert np.linalg.norm(sol.x1) > 0.5
        assert np.count_nonzero(sol.rates) == 1
        th, xi = sol.rates[-1], sol.xi[-1]
        cross = wedge(alg, sol.x1, xi)
        assert np.linalg.norm(cross) > 0.5
        # and the cross-term contribution [X1, J^{-2}(e^{2J} - Id) xi] is far above the tolerance
        moved = (expm(2.0 * sol.matrix) - np.eye(alg.dim)) @ xi
        term = wedge(alg, sol.x1, -moved / th**2)
        assert np.linalg.norm(term) > 1e-3

        ts = np.linspace(0.0, 8.0, 81)
        num = oracle_curve(alg, force, ic, ts)
        got = sol.sample(ts)
        assert np.max(np.abs(got.velocity - num.velocity)) < 1e-6
        assert np.max(np.abs(got.xi - num.xi)) < 1e-6
        resid = fdcheck.max_ode_residual(
            alg, force, charge, sol.velocity, sol.position, np.linspace(0.1, 5.0, 9)
        )
        assert resid < 1e-8


def test_flat_central_rotation():
    """A force acting on the flat central directions rotates that velocity."""
    alg = h3_times_r2()
    charge = 1.2
    m = np.zeros((5, 5))
    m[0, 1], m[1, 0] = -0.6, 0.6
    m[3, 4], m[4, 3] = -0.9, 0.9
    force = LorentzForce(alg, m)
    ic = InitialCondition(
        v0=np.array([1.0, 0.5]), z0=np.array([0.8, 0.4, -0.3]), charge=charge
    )
    sol = solve_type1(alg, force, ic)
    assert plane_counts(sol)[1] == 1

    g_full = charge * force.block_zz
    for t in (0.0, 0.7, 3.1):
        vel = sol.velocity(t)
        want_z = np.array([0.8, 0.0, 0.0]) + expm(t * g_full) @ np.array([0.0, 0.4, -0.3])
        assert_allclose(vel[2:], want_z, atol=1e-12)

    ts = np.linspace(0.0, 6.0, 61)
    num = oracle_curve(alg, force, ic, ts)
    got = sol.sample(ts)
    assert np.max(np.abs(got.velocity - num.velocity)) < 1e-6
    assert np.max(np.abs(got.xi - num.xi)) < 1e-6


@pytest.mark.parametrize(
    "f_flat, charge, x0, t_max, vel_tol",
    [
        # a flat rate of 1.2e-10 next to a v rate of 1.52: below the merge cutoff of
        # the one decomposition, so the flat rotation joins the rate-0 plane, whose
        # b_1 = A X1 carries it with an error O((th t)^2)
        (1e-10, 1.2, [1.0, 0.5, 0.8, 0.4, -0.3], 100.0, 1e-10),
        # a v rate and a flat rate both exactly 1 share one plane, on which the v
        # part and the flat part bracket to 0
        (1.0, 1.0, [1.0, 0.5, 0.4, 0.4, -0.3], 20.0, 1e-9),
    ],
)
def test_v_and_flat_planes_against_a_tight_oracle(f_flat, charge, x0, t_max, vel_tol):
    alg = h3_times_r2()
    m = np.zeros((5, 5))
    m[0, 1], m[1, 0] = -0.6, 0.6
    m[3, 4], m[4, 3] = -f_flat, f_flat
    force = LorentzForce(alg, m)
    ic = InitialCondition.from_velocity(alg, np.array(x0), charge)
    sol = solve_type1(alg, force, ic)
    # the flat rate of 1e-10 has merged into the rate-0 plane; the flat rate 1 shares a plane
    assert plane_counts(sol) == ((1, 0) if f_flat < 1e-6 else (1, 1))
    ts = np.linspace(0.0, t_max, 201)
    num = oracle_curve(alg, force, ic, ts, tol=1e-13)
    got = sol.sample(ts)
    assert np.all(np.isfinite(got.xi)) and np.all(np.isfinite(got.velocity))
    assert np.max(np.abs(got.xi - num.xi)) < 1e-9
    assert np.max(np.abs(got.velocity - num.velocity)) < vel_tol


# -- forces that couple v with the flat centre --------------------------------


def off_commutator(alg, m):
    """m with the commutator directions [n, n] projected out of its rows and columns."""
    comm = alg.commutator_z_basis()
    c = np.concatenate([np.zeros((comm.shape[0], alg.dim_v)), comm], axis=1)
    p = np.eye(alg.dim) - c.T @ c
    return p @ m @ p


def h3_times_r_coupled(w):
    """H3 x R with F = e4* ^ w* + 0.6 e1* ^ e2*, w in v: 0 on [n, n] = e3, so
    closed, and mixed, as it couples v with the flat e4."""
    m = np.zeros((4, 4))
    m[:2, 3], m[3, :2] = w, -np.asarray(w, dtype=float)
    m[0, 1], m[1, 0] = -0.6, 0.6
    return MetricNilAlgebra.from_structure(4, [(1, 2, 3, 1.0)]), m


@pytest.mark.parametrize("charge", [1.3, -0.4])
@pytest.mark.parametrize("w", [[1.0, 0.0], [0.0, 1.0], [0.3, -0.7]])
def test_flat_coupled_force_on_h3_times_r_against_a_tight_oracle(w, charge):
    """solve gives the linear closed form for a force that maps [n, n] to 0 but
    couples v with the flat centre; solve_type1 accepts it and solve_exact
    finds it inexact.  Positions and velocities agree with a 1e-13 oracle to
    1e-11 on t <= 10."""
    alg, m = h3_times_r_coupled(w)
    force = LorentzForce(alg, m)
    assert force.force_type() is ForceType.MIXED and check_closed(alg, force).closed
    x0 = np.array([0.4, -0.2, 0.7, 0.5])
    sol = solve(alg, force, charge, x0)
    assert type(sol) is TypeISolution and sol.solver == "closed-form-type-1"
    ic = InitialCondition.from_velocity(alg, x0, charge)
    ts = np.linspace(0.0, 10.0, 201)
    got, num = sol.sample(ts), oracle_curve(alg, force, ic, ts, tol=1e-13)
    assert np.max(np.abs(got.xi - num.xi)) < 1e-11
    assert np.max(np.abs(got.velocity - num.velocity)) < 1e-11
    assert solve_type1(alg, m, ic).sample(ts).xi.tobytes() == got.xi.tobytes()
    with pytest.raises(UnsupportedForceError, match="not exact"):
        solve_exact(alg, m, ic)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["structure_5", "structure_8"])
def test_flat_coupled_forces_under_a_random_metric_against_a_tight_oracle(name, seed):
    """The benchmark's sweep shapes under a random metric, with a random force
    projected off [n, n]: the linear closed form against a 1e-13 oracle."""
    rng = np.random.default_rng(100 + seed)
    dim, brackets = {
        "structure_5": (5, [(1, 2, 3, 1.0)]),
        "structure_8": (8, [(1, 2, 5, 1.0), (3, 4, 5, 0.8), (1, 3, 6, 1.0), (2, 4, 6, 1.2)]),
    }[name]
    a = 0.3 * rng.standard_normal((dim, dim))
    alg = MetricNilAlgebra.from_structure(dim, brackets, metric=np.eye(dim) + a @ a.T)
    m = off_commutator(alg, rng.standard_normal((dim, dim)))
    force = LorentzForce(alg, m - m.T)
    assert force.force_type() is ForceType.MIXED
    ic = random_ic(alg, rng, charge=0.9)
    sol = solve(alg, force, ic.charge, np.concatenate([ic.v0, ic.z0]))
    assert type(sol) is TypeISolution
    ts = np.linspace(0.0, 10.0, 101)
    got, num = sol.sample(ts), oracle_curve(alg, force, ic, ts, tol=1e-13)
    scale = max(1.0, float(np.max(np.abs(num.xi))))
    assert np.max(np.abs(got.xi - num.xi)) < 1e-11 * scale
    assert np.max(np.abs(got.velocity - num.velocity)) < 1e-11 * scale


# -- small rotation rates ------------------------------------------------------

TIGHT = IntegratorConfig(scheme="dopri45", tolerance=1e-13)


def small_rate_case(name, eps):
    """(alg, force matrix, x0) where A = j(Z0) + F has the rotation rate eps, charge 1.

    degenerate_h2: F_v = diag(-(0.5 - eps) R, 2 R) and Z0 = 0.5 on heisenberg(2),
    so A_v = diag(eps R, 2.5 R); h3_plane: F_v = 0.8 R and Z0 = -0.8 + eps on
    heisenberg(1), so A_v = eps R."""
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    if name == "degenerate_h2":
        m = np.zeros((5, 5))
        m[0:2, 0:2], m[2:4, 2:4] = -(0.5 - eps) * rot, 2.0 * rot
        return h5(), m, np.array([0.7, -0.3, 0.5, 0.9, 0.5])
    m = np.zeros((3, 3))
    m[0:2, 0:2] = 0.8 * rot
    return h3(), m, np.array([0.7, -0.3, -0.8 + eps])


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("name", ["degenerate_h2", "h3_plane"])
def test_small_rates_against_a_tight_oracle(name, eps):
    """A small rate costs no digits: no coefficient divides by it, and below the
    merge cutoff it joins the rate-0 plane with an error O((th t)^2).  Terms in
    1/th^2 and 1/th^3 that cancel as th -> 0 were off by 6.5e-8 at th = 1e-8."""
    alg, m, x0 = small_rate_case(name, eps)
    sol = solve_type1(alg, m, InitialCondition.from_velocity(alg, x0, 1.0))
    ts = np.linspace(0.0, 10.0, 101)
    num = reconstruct_group(alg, LorentzForce(alg, m), 1.0, x0, ts, TIGHT)
    got = sol.sample(ts)
    np.testing.assert_array_equal(sol.position(0.0), np.zeros(alg.dim))
    assert np.max(np.abs(got.xi - num.xi)) < 1e-11
    assert np.max(np.abs(got.velocity - num.velocity)) < 1e-11


@settings(max_examples=25, derandomize=True, deadline=None)
@given(family=st.sampled_from(["heisenberg", "quaternionic"]), seed=st.integers(0, 2**32 - 1),
       k=st.integers(3, 12))
def test_random_force_with_one_small_rate_against_a_tight_oracle(family, seed, k):
    """A random closed force on heisenberg(2) or quaternionic(1), with the smallest
    v rate of A pushed to 10^-k, agrees with the tight oracle to 1e-11 of the
    curve's scale, which is about the oracle's own error."""
    alg = getattr(MetricNilAlgebra, family)(2 if family == "heisenberg" else 1)
    rng = np.random.default_rng(seed)
    dv = alg.dim_v
    m = random_closed_type1(alg, rng).matrix.copy()
    x0 = rng.normal(size=alg.dim)
    a_v = alg.j_map(x0[dv:]) + m[:dv, :dv]
    plane = spectral_decompose(a_v).planes[0]
    m[:dv, :dv] += (10.0**-k / plane.rate - 1.0) * (a_v @ plane.basis.T @ plane.basis)
    m = 0.5 * (m - m.T)
    sol = solve_type1(alg, m, InitialCondition.from_velocity(alg, x0, 1.0))
    ts = np.linspace(0.0, 10.0, 51)
    num = reconstruct_group(alg, LorentzForce(alg, m), 1.0, x0, ts, TIGHT)
    got = sol.sample(ts)
    np.testing.assert_array_equal(sol.position(0.0), np.zeros(alg.dim))
    scale = max(1.0, float(np.max(np.abs(num.xi))))
    assert np.max(np.abs(got.xi - num.xi)) < 1e-11 * scale
    assert np.max(np.abs(got.velocity - num.velocity)) < 1e-11 * scale


def test_speed_is_conserved():
    rng = np.random.default_rng(41)
    ts = np.linspace(0.0, 25.0, 120)
    for alg in (h3(), h5(), qh7(), h3_times_r2()):
        force = random_closed_type1(alg, rng)
        sol = solve_type1(alg, force, random_ic(alg, rng, charge=1.4))
        speeds = np.array([np.linalg.norm(sol.velocity(t)) for t in ts])
        assert np.max(np.abs(speeds - sol.speed())) < 1e-10


def test_rescaling_law():
    """Scaling the initial velocity and the charge reparametrizes time."""
    alg = h5()
    rng = np.random.default_rng(47)
    force = random_closed_type1(alg, rng)
    ic = random_ic(alg, rng, charge=0.9)
    r = 1.7
    fast = solve_type1(
        alg, force, InitialCondition(r * ic.v0, r * ic.z0, charge=r * ic.charge)
    )
    slow = solve_type1(alg, force, ic)
    for t in np.linspace(0.0, 4.0, 17):
        assert_allclose(fast.velocity(t), r * slow.velocity(r * t), atol=1e-9)
        assert_allclose(fast.position(t), slow.position(r * t), atol=1e-9)


def test_rotating_pair_quantities_are_conserved():
    """[e^{tJ} xi, e^{tJ} J^{-1} xi] is constant on each invariant subspace."""
    rng = np.random.default_rng(53)
    for alg in (h5(), qh7()):
        force = random_closed_type1(alg, rng)
        sol = solve_type1(alg, force, random_ic(alg, rng))
        rot = sol.rates > 0.0
        assert np.any(rot), "expected at least one rotating component"
        for th, xi, jxi in zip(sol.rates[rot], sol.xi[rot], sol.jxi[rot]):
            jinv_xi = -jxi / th**2
            f0 = wedge(alg, xi, jinv_xi)
            for t in (0.3, 1.9, 7.2):
                rot = expm(t * sol.matrix)
                assert_allclose(wedge(alg, rot @ xi, rot @ jinv_xi), f0, atol=1e-12)


def test_bracket_tables_match_bracket():
    """The tabulated brackets of x_p and A x_p, the rate-0 plane's X1 among them,
    equal the algebra's bracket; a plane without a v part brackets to exactly 0."""
    rng = np.random.default_rng(59)
    algs = (h5(), qh7(), h3_times_r2())
    cases = [(a, random_closed_type1(a, rng), random_ic(a, rng)) for a in algs]
    for alg, force, ic in cases + [kernel_cross_case()]:
        sol = solve_type1(alg, force, ic)
        basis = np.stack([sol.xi, sol.jxi], axis=1)
        n = len(sol.rates)
        assert sol.pair.shape == (n, 2, n, 2, alg.dim_z)
        no_v = ~np.any(sol.xi[:, : alg.dim_v], axis=1)
        assert not np.any(sol.pair[no_v]) and not np.any(sol.pair[:, :, no_v])
        kernel = np.flatnonzero(sol.rates == 0.0)
        for k, r, b in np.ndindex(kernel.size, n, 2):
            assert_allclose(sol.pair[kernel[k], 0, r, b], wedge(alg, sol.x1, basis[r, b]), atol=1e-13)
        for p, a in np.ndindex(n, 2):
            for r, b in np.ndindex(n, 2):
                want = wedge(alg, basis[p, a], basis[r, b])
                assert_allclose(sol.pair[p, a, r, b], want, atol=1e-13)


# -- explicit formulas on the 3-dimensional Heisenberg group ----------------


def test_h3_explicit_rotation_formulas():
    """H3 trajectories reduce to rotations with rate z0 + q rho."""
    rho, charge = 0.8, 1.3
    v0 = np.array([1.1, -0.4])
    z0 = 0.6
    nu = z0 + charge * rho
    alg = h3()
    sol = solve_type1(
        alg, rotation_force_h3(rho), InitialCondition(v0, np.array([z0]), charge)
    )
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    n2 = float(v0 @ v0)
    for t in (0.0, 0.5, 2.2, 9.1):
        c, s = np.cos(nu * t), np.sin(nu * t)
        rot_t = np.array([[c, -s], [s, c]])
        vel = sol.velocity(t)
        assert_allclose(vel[:2], rot_t @ v0, atol=1e-12)
        assert_allclose(vel[2], z0, atol=1e-13)
        pos = sol.position(t)
        want_x = (s / nu) * v0 + ((1.0 - c) / nu) * (rot @ v0)
        want_z = (z0 + n2 / (2 * nu)) * t - n2 / (2 * nu**2) * s
        assert_allclose(pos[:2], want_x, atol=1e-12)
        assert_allclose(pos[2], want_z, atol=1e-12)


def test_resonant_central_velocity_gives_straight_line():
    """When z0 = -q rho the rotation cancels and the curve is a ray."""
    rho, charge = 0.9, 1.5
    z0 = -charge * rho
    alg = h3()
    sol = solve_type1(
        alg,
        rotation_force_h3(rho),
        InitialCondition(np.array([0.7, 0.2]), np.array([z0]), charge),
    )
    w0 = np.array([0.7, 0.2, z0])
    for t in (0.0, 1.0, 8.5):
        assert_allclose(sol.velocity(t), w0, atol=1e-13)
        assert_allclose(sol.position(t), t * w0, atol=1e-12)


def test_zero_force_gives_geodesics():
    """With F = 0 the solver returns geodesics, checked against the oracle."""
    alg = h5()
    ic = InitialCondition(np.array([0.6, -0.2, 0.4, 0.9]), np.array([0.7]), 1.0)
    sol = solve_type1(alg, np.zeros((5, 5)), ic)
    ts = np.linspace(0.0, 6.0, 61)
    num = oracle_curve(alg, np.zeros((5, 5)), ic, ts)
    got = sol.sample(ts)
    assert np.max(np.abs(got.velocity - num.velocity)) < 1e-6
    assert np.max(np.abs(got.xi - num.xi)) < 1e-6


# -- exact forces and the geodesic shift ------------------------------------


def test_exact_force_is_a_shifted_geodesic():
    """For F = j(Z~) (+) 0 the trajectory is a geodesic minus a central shift."""
    rng = np.random.default_rng(61)
    ts = np.linspace(0.0, 5.0, 11)
    for alg in (h3(), h5(), qh7()):
        for charge in (1.0, -0.6, 2.3):
            z_tilde = rng.normal(size=alg.dim_z)
            m = np.zeros((alg.dim, alg.dim))
            m[: alg.dim_v, : alg.dim_v] = alg.j_map(z_tilde)
            pair = solve_exact(alg, m, random_ic(alg, rng, charge))
            assert_allclose(pair.shift, charge * alg.embed_z(z_tilde), atol=1e-10)
            for t in ts:
                assert_allclose(
                    pair.solution.velocity(t), pair.velocity_via_shift(t), atol=1e-12
                )
                assert_allclose(
                    pair.solution.position(t), pair.position_via_shift(t), atol=1e-12
                )


def test_solve_exact_rejects_inexact_force():
    alg = h5()
    m = np.zeros((5, 5))
    m[:2, :2] = np.array([[0.0, 1.0], [-1.0, 0.0]])
    m[2:4, 2:4] = np.array([[0.0, -2.0], [2.0, 0.0]])
    with pytest.raises(UnsupportedForceError):
        solve_exact(alg, m, InitialCondition(np.zeros(4), np.zeros(1)))


# -- forces vanishing on the center -----------------------------------------


def test_zero_central_block_gives_one_exponential_velocity():
    """With F_z = 0 the velocity is e^{t (j(Z0) + q F_v)} X0 + Z0."""
    alg = h5()
    rng = np.random.default_rng(67)
    a = rng.normal(size=(4, 4))
    m = np.zeros((5, 5))
    m[:4, :4] = 0.5 * (a - a.T)
    ic = InitialCondition(rng.normal(size=4), np.array([0.7]), charge=1.1)
    sol = solve_type1(alg, m, ic)
    gen = alg.j_map(ic.z0) + ic.charge * m[:4, :4]
    ts = np.array([0.0, 0.9, 4.2])
    vel = sol.sample(ts).velocity
    for t, row in zip(ts, vel):
        assert_allclose(row[:4], expm(t * gen) @ ic.v0, atol=1e-10)
        assert_allclose(row[4], 0.7, atol=1e-13)


# -- batched evaluation ------------------------------------------------------


def no_rotation_case():
    """Zero force and a flat Z0: J = 0, so X0 lies in ker J and nothing rotates."""
    ic = InitialCondition(np.array([1.0, 0.5]), np.array([0.0, 0.4, -0.3]))
    return h3_times_r2(), np.zeros((5, 5)), ic


def merged_plane_case():
    """Zero force on an H-type algebra: J = j(Z0) has one 4-dimensional plane."""
    ic = InitialCondition(np.array([0.9, -0.4, 0.7, 0.3]), np.array([1.1, -0.5, 0.3]), charge=1.3)
    return qh7(), np.zeros((7, 7)), ic


def flat_rotation_case():
    """Rotations on v and on the flat central directions together."""
    m = np.zeros((5, 5))
    m[0, 1], m[1, 0] = -0.6, 0.6
    m[3, 4], m[4, 3] = -0.9, 0.9
    ic = InitialCondition(np.array([1.0, 0.5]), np.array([0.8, 0.4, -0.3]), charge=1.2)
    return h3_times_r2(), m, ic


def generic_case():
    alg = qh7()
    rng = np.random.default_rng(79)
    return alg, random_closed_type1(alg, rng), random_ic(alg, rng, charge=0.8)


BATCHED_CASES = {
    "no_rotation": (no_rotation_case, 0, 0),
    "merged_plane": (merged_plane_case, 1, 0),
    "flat_rotation": (flat_rotation_case, 1, 1),
    "generic": (generic_case, None, None),
    "kernel_cross": (kernel_cross_case, 1, 0),
}


@pytest.mark.parametrize("name", sorted(BATCHED_CASES))
def test_sample_grids_match_oracle(name):
    """Forward, negative, unsorted, single-time and empty grids against the oracle.

    Negative times use time reversal: x(-t) negated solves the equation with
    charge -q from -x0, and position(-t) is the group curve of that solution.
    """
    build, n_rates, n_flat = BATCHED_CASES[name]
    alg, force, ic = build()
    sol = solve_type1(alg, force, ic)
    if n_rates is not None:
        assert plane_counts(sol) == (n_rates, n_flat)
    x0 = np.concatenate([ic.v0, ic.z0])
    cfg = IntegratorConfig(scheme="dopri45", tolerance=1e-12)
    ts = np.linspace(0.0, 6.0, 61)
    fwd = reconstruct_group(alg, force, ic.charge, x0, ts, cfg)
    back = reconstruct_group(alg, force, -ic.charge, -x0, ts, cfg)
    times = np.concatenate([ts, -ts[1:]])
    want_xi = np.concatenate([fwd.xi, back.xi[1:]])
    want_vel = np.concatenate([fwd.velocity, -back.velocity[1:]])
    order = np.random.default_rng(3).permutation(times.size)
    for idx in (np.arange(ts.size), order, order[:1]):
        got = sol.sample(times[idx])
        assert_allclose(got.t, times[idx], rtol=0.0, atol=0.0)
        assert np.max(np.abs(got.xi - want_xi[idx])) < 1e-8
        assert np.max(np.abs(got.velocity - want_vel[idx])) < 1e-8
    empty = sol.sample(np.array([]))
    assert empty.xi.shape == empty.velocity.shape == (0, alg.dim)


@pytest.mark.parametrize("name", sorted(BATCHED_CASES))
def test_scalar_calls_are_rows_of_sample(name):
    """position, velocity and eval are the one-row sample; a longer grid agrees to rounding.

    BLAS may take a different kernel (and summation order) for one row than
    for many, so rows of a longer grid are compared at a few ulps of scale.
    """
    alg, force, ic = BATCHED_CASES[name][0]()
    sol = solve_type1(alg, force, ic)
    ts = np.array([0.0, 0.35, -1.2, 4.0, 2.5])
    batch = sol.sample(ts)
    tol = 8 * np.finfo(float).eps * (np.max(np.abs(batch.xi)) + np.max(np.abs(batch.velocity)))
    for i, t in enumerate(ts):
        one = sol.sample(np.array([t]))
        pos, vel = sol.eval(t)
        for got in (sol.position(t), pos):
            np.testing.assert_array_equal(got, one.xi[0])
        for got in (sol.velocity(t), vel):
            np.testing.assert_array_equal(got, one.velocity[0])
        assert np.max(np.abs(one.xi[0] - batch.xi[i])) <= tol
        assert np.max(np.abs(one.velocity[0] - batch.velocity[i])) <= tol


def test_sample_makes_no_bracket_calls(monkeypatch):
    """sample is array products on precomputed tables, whatever the grid length."""
    alg = MetricNilAlgebra.heisenberg(3)
    rng = np.random.default_rng(89)
    sol = solve_type1(alg, random_closed_type1(alg, rng), random_ic(alg, rng))
    assert len(sol.rates) > 1
    calls = []
    bracket = MetricNilAlgebra.bracket

    def counting(self, x, y):
        calls.append((x, y))
        return bracket(self, x, y)

    monkeypatch.setattr(MetricNilAlgebra, "bracket", counting)
    for n in (1, 11, 1001):
        sol.sample(np.linspace(0.0, 10.0, n))
    sol.position(0.7)
    sol.velocity(0.7)
    assert calls == []
    alg.bracket(np.ones(alg.dim), np.arange(alg.dim, dtype=float))  # the counter does count
    assert len(calls) == 1


# -- derived quantities ------------------------------------------------------


def _oscillation_remainder(sol, ts):
    """max over ts of |Z(t) - t (linear coefficient + [X1, e^{tA} A^{-1} X2]/2)|,
    A^{-1} the pseudo-inverse of A, which inverts it on the rotating planes."""
    alg, x1 = sol.alg, sol.x1
    lin, pinv = sol.linear_coefficient(), np.linalg.pinv(sol.matrix, rcond=1e-10)
    got = sol.sample(ts)
    osc = np.array([0.5 * wedge(alg, x1, pinv @ (v - x1)) for v in got.velocity])
    return float(np.max(np.linalg.norm(got.xi[:, alg.dim_v:] - ts[:, None] * (lin + osc), axis=1)))


def test_central_oscillation_stays_within_bound():
    """Central coordinate minus its linear part is bounded by the estimate.

    On planes whose v and flat parts rotate into each other the bound takes
    each part at its largest on the orbit: F = e6* ^ e1* rotates x(0) = e6 +
    10 e2 from the flat e6 into v, the remainder reaches 10.05, and a bound
    from the parts of x(0) alone, 2/th = 2, is exceeded.  Random forces
    projected off [n, n] = e5 stay within the bound too."""
    alg = qh7()
    rng = np.random.default_rng(71)
    force = random_closed_type1(alg, rng, scale=0.3)
    ic = InitialCondition(
        v0=rng.normal(size=4), z0=np.array([1.0, 0.4, -0.2]), charge=1.0
    )
    sol = solve_type1(alg, force, ic)
    v_planes = np.any(sol.xi[:, : alg.dim_v], axis=1)
    assert np.all(sol.rates[v_planes] > 0.0), "test needs J invertible on v"
    lin = sol.linear_coefficient()
    bound = sol.central_oscillation_bound()
    assert bound > 0.0
    ts = np.linspace(0.0, 50.0, 1001)
    worst = max(np.linalg.norm(sol.position(t)[4:] - t * lin) for t in ts)
    assert worst <= bound * (1.0 + 1e-9)

    alg = MetricNilAlgebra.from_structure(6, [(1, 2, 5, 1.0), (3, 4, 5, 0.7)])
    m = np.zeros((6, 6))
    m[5, 0], m[0, 5] = 1.0, -1.0
    sol = solve(alg, m, 1.0, [0.0, 10.0, 0.0, 0.0, 0.0, 1.0])
    ts = np.linspace(0.0, 60.0, 3001)
    assert 10.0 < _oscillation_remainder(sol, ts) <= sol.central_oscillation_bound()
    rng = np.random.default_rng(73)
    for _ in range(20):
        m = off_commutator(alg, rng.standard_normal((6, 6)))
        sol = solve(alg, m - m.T, rng.uniform(-1.5, 1.5), rng.standard_normal(6))
        assert type(sol) is TypeISolution
        assert _oscillation_remainder(sol, ts) <= sol.central_oscillation_bound() * (1.0 + 1e-9)


# -- input validation ---------------------------------------------------------


def test_solver_rejects_unsupported_forces():
    alg3 = h3()
    with pytest.raises(UnsupportedForceError):
        solve_type1(alg3, type2_from_vector(alg3, [1.0, 0.0]), InitialCondition(np.zeros(2), np.zeros(1)))

    mixed = np.zeros((3, 3))
    mixed[0, 1], mixed[1, 0] = -1.0, 1.0
    mixed[0, 2], mixed[2, 0] = 1.0, -1.0
    with pytest.raises(UnsupportedForceError):
        solve_type1(alg3, mixed, InitialCondition(np.zeros(2), np.zeros(1)))

    alg5 = h5()
    coupling = np.zeros((5, 5))
    coupling[0, 4], coupling[4, 0] = 1.0, -1.0
    with pytest.raises(UnsupportedForceError):
        # a v-z coupling is type II territory, hence unsupported here
        solve_type1(alg5, coupling, InitialCondition(np.zeros(4), np.zeros(1)))

    # type I but not closed: the central block moves a commutator direction
    flat_alg = h3_times_r2()
    not_closed = np.zeros((5, 5))
    not_closed[2, 3], not_closed[3, 2] = -1.0, 1.0
    with pytest.raises(InvalidForceError):
        solve_type1(flat_alg, not_closed, InitialCondition(np.zeros(2), np.zeros(3)))


def test_closed_type1_force_off_p_goes_to_the_oracle():
    """Every 2-form on H3 is closed.  A v-z coupling of 1e-11 keeps a force type I
    (to 1e-10) but breaks P, F[n, n] = 0, beyond its 1e-12 tolerance: solve
    integrates it numerically, and solve_type1 refuses it."""
    alg = h3()
    m = rotation_force_h3(0.5)
    m[0, 2], m[2, 0] = 1e-11, -1e-11
    force = LorentzForce(alg, m)
    assert force.force_type() is ForceType.TYPE_I and check_closed(alg, force).closed
    assert type(solve(alg, force, 1.0, [0.3, -0.2, 0.5])) is OracleTrajectory
    with pytest.raises(InvalidForceError, match="F\\[n, n\\] != 0"):
        solve_type1(alg, force, InitialCondition(np.zeros(2), np.zeros(1)))


def test_solver_rejects_bad_initial_conditions():
    alg = h3()
    force = rotation_force_h3(0.5)
    with pytest.raises(ValueError):
        solve_type1(alg, force, InitialCondition(np.zeros(3), np.zeros(1)))
    with pytest.raises(ValueError):
        solve_type1(
            alg, force, InitialCondition(np.array([np.nan, 0.0]), np.zeros(1))
        )


def test_initial_condition_from_velocity():
    alg = h5()
    ic = InitialCondition.from_velocity(alg, np.arange(5.0), charge=2.0)
    assert_allclose(ic.v0, [0.0, 1.0, 2.0, 3.0])
    assert_allclose(ic.z0, [4.0])
    assert ic.charge == 2.0
    with pytest.raises(ValueError):
        InitialCondition.from_velocity(alg, np.arange(4.0))


# th t / |th t| = 1 sits on the switch between the series and x - sin x in W
PLANE_ARGS = [1e-8, 1e-3, 0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0, np.pi, 10.0, 1e3, 1e6]


@pytest.mark.parametrize("rate", [1e-9, 1e-6, 1e-3, 0.1, 0.7, 1.0, 3.3, 50.0])
def test_plane_functions_against_mpmath(rate):
    """S, V and W of the rate-0 plane and of a plane of rate th agree with
    50-digit mpmath to 4 ulp, for th t from 1e-8 to 1e6 and on both sides of
    |th t| = 1, where W switches from its series to (th t - sin th t) / th^3.
    The reference takes th t as the double it rounds to, the argument every
    evaluation of sin(th t) starts from."""
    ts = np.array([c / rate for c in PLANE_ARGS] + [-2.0 / rate])
    th = np.array([0.0, rate])
    inv = np.array([1.0 / rate])
    u, w = _plane_functions(ts, th, np.array([inv, 2.0 * inv**2, inv**3]))
    x = ts * rate
    assert np.any(np.abs(x) < 1.0 - 1e-13) and np.any((np.abs(x) > 1.0) & (np.abs(x) < 1.0 + 1e-11))
    with mpmath.workdps(50):
        r = mpmath.mpf(rate)
        for k, t in enumerate(ts):
            tt, xx = mpmath.mpf(t), mpmath.mpf(x[k])
            want = [
                (u[k, 0], tt), (u[k, 2], tt**2 / 2), (w[k, 0], tt**3 / 6),
                (u[k, 1], mpmath.sin(xx) / r),
                (u[k, 3], 2 * mpmath.sin(xx / 2) ** 2 / r**2),
                (w[k, 1], (xx - mpmath.sin(xx)) / r**3),
            ]
            for got, ref in want:
                assert abs(mpmath.mpf(got) - ref) <= 4 * np.finfo(float).eps * abs(ref), (t, got, ref)


def _mpmath_type1_positions(traj, ts, dps=30):
    """xi(t) of a TypeISolution from its own rates, xi and jxi taken as exact:
    X(t) + Z(t) = sum_p S_p b_p0 + V_p b_p1, plus Zc(t) = -(1/2) int_0^t [x, X]
    by mpmath.quad on pieces of at most half a turn of the fastest plane, with
    x = sum_p C_p b_p0 + S_p b_p1 and X the v part of the position sum."""
    alg = traj.alg
    dv, dim = alg.dim_v, alg.dim
    c = alg.structure
    entries = [(i, j, k, c[i, j, dv + k]) for i, j, k in zip(*np.nonzero(c[:dv, :dv, dv:]))]
    with mpmath.workdps(dps):
        th = [mpmath.mpf(r) for r in traj.rates.tolist()]
        b0, b1 = ([[mpmath.mpf(v) for v in row] for row in m.tolist()] for m in (traj.xi, traj.jxi))

        def functions(s):  # (C, S, V) per plane
            return [(1, s, s * s / 2) if r == 0 else
                    (mpmath.cos(r * s), mpmath.sin(r * s) / r, 2 * mpmath.sin(r * s / 2) ** 2 / r**2) for r in th]

        def combine(coef0, coef1):
            return [mpmath.fsum(a * p[i] + b * q[i] for a, b, p, q in zip(coef0, coef1, b0, b1)) for i in range(dim)]

        cache = {}

        def integrand(s):  # -(1/2) [x(s), X(s)]
            if s not in cache:
                c_s, s_s, v_s = zip(*functions(s))
                x, big_x = combine(c_s, s_s), combine(s_s, v_s)
                out = [mpmath.mpf(0)] * alg.dim_z
                for i, j, k, cijk in entries:
                    out[k] += cijk * x[i] * big_x[j]
                cache[s] = [-v / 2 for v in out]
            return cache[s]

        rows = []
        for t in ts:
            tt = mpmath.mpf(t)
            edges = mpmath.linspace(0, tt, 1 + int(np.ceil(t * max(traj.rates.max(initial=0.0), 1.0) / np.pi)))
            _, s_t, v_t = zip(*functions(tt))
            pos = combine(s_t, v_t)
            for k in range(alg.dim_z):
                pos[dv + k] += mpmath.quad(lambda s: integrand(s)[k], edges)
            rows.append([float(v) for v in pos])
    return np.array(rows)


def _type1_mpmath_cases():
    rng = np.random.default_rng(11)
    h7, q1 = MetricNilAlgebra.heisenberg(3), qh7()
    alg_r, m_r = h3_times_r_coupled([1.0, 0.0])
    return {
        "heisenberg3": solve(h7, random_closed_type1(h7, rng), 0.9, rng.standard_normal(7)),
        "quaternionic1": solve(q1, random_closed_type1(q1, rng), -1.2, rng.standard_normal(7)),
        "h3_times_r_coupled": solve(alg_r, m_r, 1.3, [0.4, -0.2, 0.7, 0.5]),
    }


def test_type1_positions_against_mpmath():
    """sample's positions on a random closed force on heisenberg(3) (a rate-0
    plane and three distinct rates), one on quaternionic(1) and the flat-coupled
    H3 x R force agree with a 30-digit reference to 1e-14 of max(1, max|xi|) at
    t = 0.7, 3.1 and 9.4.  The reference shares only the solver's rates, xi and
    jxi, and integrates the commutator term by quadrature, not by the pair sum.
    The distinct nonzero rates here lie at least 5 % of the largest rate apart
    on purpose: between near-equal rates the pair weights 1/D lose digits, a
    regime for a sweep of its own, not for this bound."""
    ts = np.array([0.7, 3.1, 9.4])
    for name, traj in _type1_mpmath_cases().items():
        th = traj.rates
        assert th[0] == 0.0 and np.all(np.diff(th[1:]) >= 0.05 * th[-1]), (name, th)
        got = traj.sample(ts).xi
        want = _mpmath_type1_positions(traj, ts)
        scale = max(1.0, np.abs(got).max())
        assert np.abs(got - want).max() <= 1e-14 * scale, (name, np.abs(got - want).max() / scale)


@pytest.mark.parametrize("scale", [1e-15, 1e-300])
def test_tiny_velocity_keeps_its_components(scale):
    """x0 = scale (1, 0, 1) on H3 with the exact force j(0.7): the kept components
    of x(0) sum to x(0), and positions at t = 1 and 3.1 agree to 1e-14 of each
    entry with the 30-digit reference and with the circle (sin(nu t) / nu,
    (1 - cos(nu t)) / nu, t) scale, nu = 0.7 + scale.  The component cut was
    1e-14 max(1, |x|), absolute below |x| = 1: it dropped both, the zero curve."""
    alg = h3()
    x0 = np.array([scale, 0.0, scale])
    traj = solve(alg, np.pad(alg.j_map([0.7]), (0, 1)), 1.0, x0)
    assert np.all(np.abs(traj.xi.sum(axis=0) - x0) <= 1e-14 * x0)
    ts = np.array([1.0, 3.1])
    got = traj.sample(ts).xi
    nu = 0.7 + scale
    circle = np.column_stack([np.sin(nu * ts) / nu, (1.0 - np.cos(nu * ts)) / nu, ts]) * scale
    for want in (_mpmath_type1_positions(traj, ts), circle):
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (got, want)


# -- lambda-periodicity of type-I curves -----------------------------------------


def _j_force(alg, z):
    m = np.zeros((alg.dim, alg.dim))
    m[: alg.dim_v, : alg.dim_v] = alg.j_map(np.asarray(z, dtype=float))
    return LorentzForce(alg, m)


# (algebra, force, x0, omega, translation): a splitting force on H5 with rates 1
# and 3, and the exact force j(e5) on the quaternionic group
TYPE1_PERIODIC = {
    "h5_rates_1_3": (h5(), LorentzForce(h5(), H5Force.from_rates(1.0, 3.0).matrix),
                     [0.3, 0.2, -0.4, 0.1, 0.0], 2.0 * np.pi, [0.0, 0.0, 0.0, 0.0, 0.5864306]),
    "q1_j_e5": (qh7(), _j_force(qh7(), [1.0, 0.0, 0.0]), np.eye(7)[0], 2.0 * np.pi,
                [0.0, 0.0, 0.0, 0.0, np.pi, 0.0, 0.0]),
}


@pytest.mark.parametrize("name", sorted(TYPE1_PERIODIC))
def test_type1_lambda_periodicity_against_oracle(name):
    """omega is the velocity period, and the translation sigma(omega) agrees
    with a 1e-12 oracle over one period."""
    alg, force, x0, omega, lam = TYPE1_PERIODIC[name]
    traj = solve_type1(alg, force, InitialCondition.from_velocity(alg, x0))
    report = lambda_periodicity(traj)
    assert report.kind is PeriodicityKind.LAMBDA_PERIODIC
    assert report.omega == pytest.approx(omega, rel=1e-14)
    assert_allclose(report.translation, lam, atol=1e-7)
    ref = reconstruct_group(alg, force, 1.0, np.asarray(x0, float), [0.0, report.omega],
                            IntegratorConfig(tolerance=1e-12)).xi[-1]
    assert np.max(np.abs(report.translation - ref)) < 1e-10
    assert report.residual < 1e-13


def test_type1_velocity_period():
    """2 pi L / th_min for commensurate rates (L the lcm of the ratio's
    denominators), 1.0 for a straight line, None otherwise; the oracle states none."""
    x0 = [0.3, 0.2, -0.4, 0.1, 0.0]

    def period(mu1, mu2, x=x0):
        return solve_type1(h5(), H5Force.from_rates(mu1, mu2).matrix,
                           InitialCondition.from_velocity(h5(), x)).velocity_period()

    assert period(1.0, 3.0) == pytest.approx(2.0 * np.pi, rel=1e-14)
    assert period(2.0, 3.0) == pytest.approx(2.0 * np.pi, rel=1e-14)  # 3/2: L = 2, th_min = 2
    assert period(0.5, 2.5 / 7.0) == pytest.approx(2.0 * np.pi * 5.0 / (2.5 / 7.0), rel=1e-14)
    assert period(1.0, np.sqrt(2.0)) is None
    assert period(1.0, 1.0 + 1e-6) is None
    assert period(1.0, 65.0 / 64.0) == pytest.approx(2.0 * np.pi * 64.0, rel=1e-14)
    assert period(1.0, 66.0 / 65.0) is None  # a denominator above 64
    assert period(1.0, np.sqrt(2.0), [0.3, 0.2, 0.0, 0.0, 0.0]) == pytest.approx(2.0 * np.pi, rel=1e-14)
    assert period(0.0, 0.0) == 1.0 and period(1.0, 3.0, [0.0] * 5) == 1.0
    report = lambda_periodicity(solve_type1(h5(), H5Force.from_rates(1.0, np.sqrt(2.0)).matrix,
                                            InitialCondition.from_velocity(h5(), x0)))
    assert report.kind is PeriodicityKind.NON_PERIODIC and report.omega is None
    with pytest.raises(UnsupportedForceError, match="oracle"):
        lambda_periodicity(OracleTrajectory(h5(), H5Force.from_rates(1.0, 3.0).matrix, 1.0, x0))
