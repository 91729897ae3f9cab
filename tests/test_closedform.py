"""Tests for the closed-form type-I trajectory solver."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

import fdcheck
from nilmag.algebra import MetricNilAlgebra
from nilmag.closedform import (
    InitialCondition,
    solve_exact,
    solve_type1,
    spectral_decompose,
)
from nilmag.errors import InvalidForceError, UnsupportedForceError
from nilmag.lorentz import LorentzForce, random_closed_type1, type2_from_vector
from nilmag.oracle import IntegratorConfig, reconstruct_group


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
    """(v planes, flat planes) in the solution's one plane list."""
    flat = int(np.count_nonzero(np.any(sol.xi[:, sol.alg.dim_v :] != 0.0, axis=1)))
    return len(sol.rates) - flat, flat


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
        assert np.linalg.norm(sol.x1) > 0.5
        assert len(sol.rates) == 1
        cross = wedge(alg, sol.x1, sol.xi[0])
        assert np.linalg.norm(cross) > 0.5
        # and the cross-term contribution [X1, J^{-2}(e^{2J} - Id) xi] is far above the tolerance
        moved = (expm(2.0 * sol.matrix) - np.eye(alg.dim)) @ sol.xi[0]
        term = wedge(alg, sol.x1, -moved / sol.rates[0] ** 2)
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
        # a flat rate of 1.2e-10 next to a v rate of 1.52: each block's kernel cutoff
        # is relative to its own rates, so the flat plane keeps rotating
        (1e-10, 1.2, [1.0, 0.5, 0.8, 0.4, -0.3], 100.0, 1e-10),
        # a v rate and a flat rate both exactly 1: their bracket and their rate gap
        # are 0, and their pair term must be 0, not NaN
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
    assert plane_counts(sol) == (1, 1)
    ts = np.linspace(0.0, t_max, 201)
    num = oracle_curve(alg, force, ic, ts, tol=1e-13)
    got = sol.sample(ts)
    assert np.all(np.isfinite(got.xi)) and np.all(np.isfinite(got.velocity))
    assert np.max(np.abs(got.xi - num.xi)) < 1e-9
    assert np.max(np.abs(got.velocity - num.velocity)) < vel_tol


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
        assert len(sol.rates), "expected at least one rotating component"
        for th, xi, jxi in zip(sol.rates, sol.xi, sol.jxi):
            jinv_xi = -jxi / th**2
            f0 = wedge(alg, xi, jinv_xi)
            for t in (0.3, 1.9, 7.2):
                rot = expm(t * sol.matrix)
                assert_allclose(wedge(alg, rot @ xi, rot @ jinv_xi), f0, atol=1e-12)


def test_bracket_tables_match_bracket():
    """The tabulated brackets of X1, xi_p and A xi_p equal the algebra's bracket."""
    rng = np.random.default_rng(59)
    algs = (h5(), qh7(), h3_times_r2())
    cases = [(a, random_closed_type1(a, rng), random_ic(a, rng)) for a in algs]
    for alg, force, ic in cases + [kernel_cross_case()]:
        sol = solve_type1(alg, force, ic)
        basis = np.stack([sol.xi, sol.jxi], axis=1)
        n = len(sol.rates)
        assert sol.pair.shape == (n, 2, n, 2, alg.dim_z)
        flat = np.any(sol.xi[:, alg.dim_v :] != 0.0, axis=1)
        assert not np.any(sol.pair[flat]) and not np.any(sol.pair[:, :, flat])
        for p, a in np.ndindex(n, 2):
            assert_allclose(sol.cross[p, a], wedge(alg, sol.x1, basis[p, a]), atol=1e-13)
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


def test_central_oscillation_stays_within_bound():
    """Central coordinate minus its linear part is bounded by the estimate."""
    alg = qh7()
    rng = np.random.default_rng(71)
    force = random_closed_type1(alg, rng, scale=0.3)
    ic = InitialCondition(
        v0=rng.normal(size=4), z0=np.array([1.0, 0.4, -0.2]), charge=1.0
    )
    sol = solve_type1(alg, force, ic)
    assert sol.spectrum.kernel.shape[0] == 0, "test needs an invertible J"
    lin = sol.linear_coefficient()
    bound = sol.central_oscillation_bound()
    assert bound > 0.0
    ts = np.linspace(0.0, 50.0, 1001)
    worst = max(np.linalg.norm(sol.position(t)[4:] - t * lin) for t in ts)
    assert worst <= bound * (1.0 + 1e-9)


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
