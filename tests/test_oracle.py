"""Tests for the numerical integration oracle."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import solve_ivp

from nilmag.algebra import MetricNilAlgebra
from nilmag.errors import IntegrationError
from nilmag.lorentz import random_closed_type1, type2_from_vector
from nilmag.oracle import (
    IntegratorConfig,
    _rhs_combined,
    _run_dopri,
    integrate_velocity,
    reconstruct_group,
)


def h3():
    return MetricNilAlgebra.heisenberg(1)


def _exact_h3_force(alg, rho):
    m = np.zeros((3, 3))
    m[:2, :2] = alg.j_map(np.array([rho]))
    return m


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(scheme="euler")
    with pytest.raises(ValueError):
        IntegratorConfig(tolerance=1e-2)
    with pytest.raises(ValueError):
        IntegratorConfig(tolerance=1e-15)
    with pytest.raises(ValueError):
        IntegratorConfig(scheme="rk4")  # missing dt
    with pytest.raises(ValueError):
        IntegratorConfig(scheme="rk4", dt=-0.1)
    IntegratorConfig()  # defaults are valid
    IntegratorConfig(scheme="rk4", dt=1e-3)


def test_grid_validation():
    alg = h3()
    f = _exact_h3_force(alg, 1.0)
    with pytest.raises(ValueError):
        integrate_velocity(alg, f, 1.0, np.zeros(4), np.linspace(0, 1, 5))
    with pytest.raises(ValueError):
        integrate_velocity(alg, f, 1.0, np.zeros(3), np.array([0.0]))
    with pytest.raises(ValueError):
        integrate_velocity(alg, f, 1.0, np.zeros(3), np.array([0.0, 1.0, 0.5]))
    with pytest.raises(ValueError):
        integrate_velocity(alg, f, 1.0, np.zeros(3), np.array([0.5, 1.0]))


def _speed_drift(velocity: np.ndarray) -> float:
    """Largest relative deviation of the speed |x(t)| from its initial value."""
    s = np.linalg.norm(velocity, axis=1)
    return float(np.max(np.abs(s - s[0])) / (s[0] if s[0] > 0 else 1.0))


def test_speed_is_conserved():
    """<x', x> = 0 exactly for the magnetic field equation."""
    alg = h3()
    f = _exact_h3_force(alg, 0.8)
    x0 = np.array([1.0, -0.4, 0.7])
    t = np.linspace(0.0, 10.0, 101)
    curve = integrate_velocity(alg, f, 1.3, x0, t)
    assert _speed_drift(curve.velocity) <= 1e-10


def test_velocity_against_analytic_rotation():
    """Exact H3 force: velocity v-part rotates with frequency z0 + q rho."""
    alg = h3()
    rho, q, z0 = 0.6, 1.4, 0.5
    f = _exact_h3_force(alg, rho)
    x0 = np.array([1.0, 0.3, z0])
    t = np.linspace(0.0, 8.0, 81)
    curve = integrate_velocity(alg, f, q, x0, t)
    nu = z0 + q * rho
    c, s = np.cos(nu * t), np.sin(nu * t)
    want_v = np.stack([c * x0[0] - s * x0[1], s * x0[0] + c * x0[1]], axis=1)
    assert_allclose(curve.velocity[:, :2], want_v, atol=1e-9)
    assert_allclose(curve.velocity[:, 2], np.full_like(t, z0), atol=1e-10)


def test_group_reconstruction_h3_exact_case():
    """Group curve of the exact H3 case against hand-integrated coordinates."""
    alg = h3()
    rho, q = 0.9, 1.0
    f = _exact_h3_force(alg, rho)
    x0v = np.array([1.2, -0.3])
    z0 = 0.4
    nu = z0 + q * rho
    x0 = np.array([x0v[0], x0v[1], z0])
    t = np.linspace(0.0, 6.0, 61)
    curve = reconstruct_group(alg, f, q, x0, t)
    # xi_v(t) = integral of the rotating v-velocity
    c, s = np.cos(nu * t), np.sin(nu * t)
    int_c, int_s = s / nu, (1.0 - c) / nu
    want_x = int_c * x0v[0] - int_s * x0v[1]
    want_y = int_s * x0v[0] + int_c * x0v[1]
    assert_allclose(curve.xi[:, 0], want_x, atol=1e-9)
    assert_allclose(curve.xi[:, 1], want_y, atol=1e-9)
    # central coordinate: z0 t + (|x0v|^2/2)(t - sin(nu t)/nu)/nu, obtained by
    # integrating x_z - [x_v, xi_v]/2 for the rotating solution
    want_z = z0 * t + 0.5 * (x0v @ x0v) * (t - s / nu) / nu
    assert_allclose(curve.xi[:, 2], want_z, atol=1e-8)


def test_rk4_matches_dopri_and_converges_at_fourth_order():
    alg = h3()
    f = type2_from_vector(alg, [0.0, 1.0])
    x0 = np.array([1.0, 0.0, 0.0])
    t = np.linspace(0.0, 2.0, 5)
    ref = integrate_velocity(alg, f, 1.0, x0, t, IntegratorConfig(tolerance=1e-12))
    err = {}
    for dt in (0.02, 0.01):
        rk = integrate_velocity(alg, f, 1.0, x0, t, IntegratorConfig(scheme="rk4", dt=dt))
        err[dt] = np.max(np.abs(rk.velocity - ref.velocity))
    order = np.log2(err[0.02] / err[0.01])
    assert 3.5 <= order <= 4.5, f"observed order {order}"
    rk_fine = integrate_velocity(alg, f, 1.0, x0, t, IntegratorConfig(scheme="rk4", dt=1e-3))
    assert np.max(np.abs(rk_fine.velocity - ref.velocity)) <= 1e-9


def test_oracle_velocity_rescaling_law():
    """x_{rF, r x0}(t) = r x_{F, x0}(r t): both sides integrate the same flow."""
    alg = MetricNilAlgebra.heisenberg(2)
    rng = np.random.default_rng(8)
    f = random_closed_type1(alg, rng)
    x0 = rng.normal(size=5)
    r = 1.7
    t = np.linspace(0.0, 3.0, 31)
    slow = integrate_velocity(alg, f, 1.0, x0, r * t)
    fast = integrate_velocity(alg, (r * f.matrix), 1.0, r * x0, t)
    assert_allclose(fast.velocity, r * slow.velocity, atol=1e-8)


def test_isometry_equivariance():
    """Rotations commuting with the force conjugate trajectories to trajectories."""
    alg = h3()
    f = _exact_h3_force(alg, 0.7)
    theta = 1.1
    c, s = np.cos(theta), np.sin(theta)
    phi = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    x0 = np.array([0.9, 0.2, -0.3])
    t = np.linspace(0.0, 5.0, 51)
    direct = reconstruct_group(alg, f, 1.0, phi @ x0, t)
    base = reconstruct_group(alg, f, 1.0, x0, t)
    assert np.max(np.abs(direct.velocity - base.velocity @ phi.T)) <= 1e-8
    assert np.max(np.abs(direct.xi - base.xi @ phi.T)) <= 1e-8


def test_rk4_and_dopri_group_curves_agree():
    alg = h3()
    f = _exact_h3_force(alg, 1.0)
    x0 = np.array([1.0, 0.0, 0.2])
    t = np.linspace(0.0, 1.0, 11)
    a = reconstruct_group(alg, f, 1.0, x0, t)
    b = reconstruct_group(alg, f, 1.0, x0, t, IntegratorConfig(scheme="rk4", dt=1e-3))
    assert np.max(np.linalg.norm(a.velocity - b.velocity, axis=1)) <= 1e-9
    assert np.max(np.linalg.norm(a.xi - b.xi, axis=1)) <= 1e-9
    assert max(_speed_drift(a.velocity), _speed_drift(b.velocity)) <= 1e-9
    assert (b.stats.nfev, b.stats.accepted_steps, b.stats.rejected_steps) == (4000, 1000, 0)
    assert integrate_velocity(alg, f, 1.0, x0, t).xi is None


def _skew(rng, d):
    a = rng.standard_normal((d, d))
    return 0.5 * (a - a.T)


@pytest.mark.parametrize("tol", [1e-11, 1e-13])
@pytest.mark.parametrize(
    "alg",
    [MetricNilAlgebra.heisenberg(1), MetricNilAlgebra.heisenberg(2),
     MetricNilAlgebra.quaternionic(1), MetricNilAlgebra.heisenberg(8)],
    ids=lambda alg: alg.name,
)
def test_dopri_matches_scipy_rk45(alg, tol):
    """Same steps as scipy's RK45 with t_eval: equal nfev, curves to 1e-12 of their scale."""
    rng = np.random.default_rng(alg.dim)
    m, x0 = _skew(rng, alg.dim), rng.standard_normal(alg.dim)
    uneven = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 4.0, 30)), [4.0]])
    for grid in (np.linspace(0.0, 4.0, 41), uneven):
        got = reconstruct_group(alg, m, 1.3, x0, grid, IntegratorConfig(tolerance=tol))
        ref = solve_ivp(_rhs_combined(alg, m, 1.3), (0.0, 4.0), np.concatenate([x0, np.zeros(alg.dim)]),
                        method="RK45", rtol=tol, atol=tol, t_eval=grid)
        assert ref.success and got.stats.nfev == ref.nfev
        dev = np.max(np.abs(np.hstack([got.velocity, got.xi]) - ref.y.T))
        assert dev <= 1e-12 * np.max(np.abs(ref.y))


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_dopri_step_control_matches_scipy_with_rejections(tol):
    """Van der Pol (mu = 5) rejects steps, exercising the controller after rejection."""
    def vdp(_t, y):
        return np.array([y[1], 5.0 * (1.0 - y[0] ** 2) * y[1] - y[0]])

    grid = np.linspace(0.0, 12.0, 25)
    ys, stats = _run_dopri(vdp, np.array([2.0, 0.0]), grid, tol)
    ref = solve_ivp(vdp, (0.0, 12.0), [2.0, 0.0], method="RK45", rtol=tol, atol=tol, t_eval=grid)
    assert stats.rejected_steps > 0 and stats.nfev == ref.nfev
    assert np.max(np.abs(ys - ref.y.T)) <= 1e-12 * np.max(np.abs(ref.y))


def test_rhs_evaluation_calls_each_algebra_method_once(monkeypatch):
    """One right-hand-side evaluation makes one geodesic_term and one bracket call."""
    counts = {"geodesic_term": 0, "bracket": 0}
    for name in counts:
        method = getattr(MetricNilAlgebra, name)

        def counted(self, *args, _method=method, _name=name):
            counts[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(MetricNilAlgebra, name, counted)
    alg = MetricNilAlgebra.heisenberg(2)
    rng = np.random.default_rng(2)
    curve = reconstruct_group(alg, _skew(rng, 5), 1.0, rng.standard_normal(5), np.linspace(0.0, 2.0, 5))
    assert counts == {"geodesic_term": curve.stats.nfev, "bracket": curve.stats.nfev}


def test_dopri_raises_on_non_finite_state_and_step_underflow():
    grid = np.linspace(0.0, 2.0, 3)
    with pytest.raises(IntegrationError, match="non-finite"):
        _run_dopri(lambda t, y: -y if t < 0.5 else np.full_like(y, np.nan), np.ones(2), grid, 1e-8)
    with pytest.raises(IntegrationError, match="underflow"):  # y' = y^2 blows up at t = 1
        _run_dopri(lambda _t, y: y * y, np.ones(1), grid, 1e-6)
    # through the public entry point: the drift of a huge velocity overflows
    with np.errstate(all="ignore"), pytest.raises(IntegrationError, match="non-finite"):
        integrate_velocity(h3(), np.zeros((3, 3)), 1.0, np.array([1e160, 0.0, 1e160]), grid)


def test_non_finite_field_raises_integration_error():
    alg = h3()
    bad = np.zeros((3, 3))
    bad[0, 1], bad[1, 0] = -np.inf, np.inf
    with pytest.raises(Exception):
        # constructing the force already rejects non-finite matrices
        integrate_velocity(alg, bad, 1.0, np.array([1.0, 0.0, 0.0]), np.linspace(0, 1, 3))
    # rk4 detects non-finite states mid-run (overflowing quadratic drift)
    grow = np.zeros((3, 3))
    grow[0, 2], grow[2, 0] = -1e8, 1e8
    with pytest.raises(IntegrationError):
        integrate_velocity(
            alg,
            grow,
            1e8,
            np.array([1e8, 1e8, 1e8]),
            np.linspace(0.0, 1e4, 3),
            IntegratorConfig(scheme="rk4", dt=1.0),
        )
