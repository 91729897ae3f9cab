"""Tests for the Jacobi-elliptic vector-force trajectories on H3."""

from __future__ import annotations

import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

import fdcheck
from nilmag.algebra import MetricNilAlgebra
from nilmag.errors import DegenerateForceError, InvalidForceError
from nilmag.h3_type2 import (
    Branch,
    PeriodicityKind,
    lambda_kernel_check,
    lambda_periodicity,
    Type2TrajectoryH3,
    solve_type2_general,
)
from nilmag.lorentz import type2_from_vector
from nilmag.oracle import IntegratorConfig, reconstruct_group
from nilmag.samples import _translation_residual
from nilmag.specfun import complete_K, jacobi, sech


def h3():
    return MetricNilAlgebra.heisenberg(1)


CANONICAL_ICS = {
    Branch.CN: [(1.0, 0.0, 0.0), (1.3, -0.4, 0.8), (0.0, 0.0, 1.0)],
    Branch.DN: [(1.0, 0.0, 3.0), (1.0, 0.0, -3.0), (-0.5, 0.3, 2.8)],
    Branch.SECH_POS: [(0.0, 0.0, 2.0), (0.75, 0.0, math.sqrt(4.5))],
    Branch.SECH_NEG: [(0.0, 0.0, -2.0)],
    Branch.LINEAR: [(0.0, 0.7, 0.0), (0.0, -1.0, 1.2), (0.0, 0.0, 0.0)],
}


def all_ics():
    return [ic for ics in CANONICAL_ICS.values() for ic in ics]


def oracle_curve(ic, ts, u=(0.0, 1.0), charge=1.0, tol=1e-11):
    alg = h3()
    force = type2_from_vector(alg, np.asarray(u, float))
    cfg = IntegratorConfig(scheme="dopri45", tolerance=tol)
    return reconstruct_group(alg, force, charge, np.asarray(ic, float), ts, cfg)


def test_branch_classification():
    for branch, ics in CANONICAL_ICS.items():
        for ic in ics:
            traj = Type2TrajectoryH3(ic)
            assert traj.branch is branch, f"{ic}: got {traj.branch}, want {branch}"


def test_speed_and_energy_conservation():
    """|velocity| and the Phi' / augmented-potential invariant are constant;
    Phi = v_z - z0 and Phi' = v_x are velocity columns."""
    ts = np.linspace(0.0, 12.0, 120)
    for ic in all_ics():
        traj = Type2TrajectoryH3(ic)
        speed0 = np.linalg.norm(np.asarray(ic))
        s2 = traj.v1_norm**2
        vel = traj.sample(ts).velocity
        assert np.max(np.abs(np.linalg.norm(vel, axis=1) - speed0)) < 1e-9
        phi, phi_prime = vel[:, 2] - traj.z0, vel[:, 0]
        w = 0.5 * phi**2 + traj.z0 * phi + traj.y1
        assert np.max(np.abs(phi_prime**2 + w**2 - s2)) < 1e-9


def test_solution_satisfies_equations_of_motion():
    alg = h3()
    force = type2_from_vector(alg, np.array([0.0, 1.0]))
    ts = np.linspace(0.1, 4.9, 9)
    for ic in all_ics():
        traj = Type2TrajectoryH3(ic)
        resid = fdcheck.max_ode_residual(
            alg, force, 1.0, traj.velocity, traj.position, ts
        )
        assert resid < 1e-7, f"{ic}: residual {resid:.2e}"


def test_matches_numerical_oracle():
    ts = np.linspace(0.0, 5.0, 51)
    for ic in all_ics():
        traj = Type2TrajectoryH3(ic)
        num = oracle_curve(ic, ts)
        got = traj.sample(ts)
        assert np.max(np.abs(got.velocity - num.velocity)) < 1e-6, f"{ic}"
        assert np.max(np.abs(got.xi - num.xi)) < 1e-6, f"{ic}"


def test_initial_conditions_reproduced():
    for ic in all_ics():
        traj = Type2TrajectoryH3(ic)
        assert_allclose(traj.velocity(0.0), np.asarray(ic), atol=1e-9)
        assert_allclose(traj.position(0.0), np.zeros(3), atol=1e-12)


def test_periods_match_the_elliptic_formulas():
    cn = Type2TrajectoryH3((1.0, 0.0, 0.0))
    assert cn.period == pytest.approx(4.0 * complete_K(cn.modulus) / cn.rate)
    dn = Type2TrajectoryH3((1.0, 0.0, 3.0))
    assert dn.period == pytest.approx(4.0 * complete_K(dn.modulus) / dn.amplitude)
    assert dn.rate == pytest.approx(0.5 * dn.amplitude)
    # the two oscillating moduli are reciprocal in the shared-amplitude sense
    assert 0.0 < cn.modulus < 1.0 and 0.0 < dn.modulus < 1.0


def test_velocity_period_is_exact_and_minimal():
    for ic in [(1.0, 0.0, 0.0), (1.0, 0.0, 3.0), (1.0, 0.0, -3.0)]:
        traj = Type2TrajectoryH3(ic)
        period = traj.period
        ts = np.linspace(0.0, period, 37)
        shift = max(
            np.max(np.abs(traj.velocity(t + period) - traj.velocity(t))) for t in ts
        )
        assert shift < 1e-9
        half = max(
            np.max(np.abs(traj.velocity(t + 0.5 * period) - traj.velocity(t)))
            for t in ts
        )
        assert half > 1e-3


def test_negative_x0_is_the_time_reflection():
    plus = Type2TrajectoryH3((1.0, 0.0, 0.0))
    minus = Type2TrajectoryH3((-1.0, 0.0, 0.0))
    for t in (0.0, 0.3, 1.1, 2.9):
        vp, vm = plus.velocity(-t), minus.velocity(t)
        assert_allclose(vm[0], -vp[0], atol=1e-10)
        assert_allclose(vm[1:], vp[1:], atol=1e-10)


def test_unit_modulus_edge_case():
    """(0, 0, 1) gives Phi(t) = cn(t, 1/2) - 1 with rate and amplitude 1."""
    traj = Type2TrajectoryH3((0.0, 0.0, 1.0))
    assert traj.branch is Branch.CN
    assert traj.modulus == pytest.approx(0.5, abs=1e-15)
    assert traj.amplitude == pytest.approx(1.0, abs=1e-15)
    assert traj.rate == pytest.approx(1.0, abs=1e-15)
    for t in (0.0, 0.4, 1.7, 5.2):
        _, cn, _ = jacobi(t, 0.5)
        assert_allclose(traj.velocity(t)[2] - traj.z0, cn - 1.0, atol=1e-12)


def test_phi_stays_in_its_image():
    ts = np.linspace(0.0, 20.0, 400)
    for ic in all_ics():
        traj = Type2TrajectoryH3(ic)
        lo, hi = traj.phi_image()
        vals = traj.sample(ts).velocity[:, 2] - traj.z0
        assert np.all(vals >= lo - 1e-9) and np.all(vals <= hi + 1e-9)


# one trajectory per branch, canonical and transported
SIX_BRANCHES = {
    "cn": lambda: Type2TrajectoryH3((1.3, -0.4, 0.8)),
    "dn+": lambda: solve_type2_general([1.5, -2.0], 0.7, [0.9, -0.3, 5.0]),
    "dn-": lambda: Type2TrajectoryH3((1.0, 0.0, -3.0)),
    "sech+": lambda: Type2TrajectoryH3((0.75, 0.0, math.sqrt(4.5))),
    "sech-": lambda: Type2TrajectoryH3((0.0, 0.0, -2.0)),
    "linear": lambda: solve_type2_general([0.0, 1.2], -0.8, [0.0, 0.6, 0.0]),
}


@pytest.mark.parametrize("name", list(SIX_BRANCHES))
def test_batched_rows_are_the_pointwise_values(name):
    """Each row of sample(ts) is position(t) and velocity(t) to 1e-14 of its
    size, on unsorted grids with negative times and at 1000 periods; an
    empty grid gives (0, 3) arrays."""
    traj = SIX_BRANCHES[name]()
    assert traj.branch.value == {"dn+": "dn", "dn-": "dn"}.get(name, name)
    if name.startswith("dn"):
        assert traj.sign == (1.0 if name == "dn+" else -1.0)
    empty = traj.sample(np.array([]))
    assert empty.xi.shape == empty.velocity.shape == (0, 3)
    period = traj.period or traj.time_scale
    ts = np.array([3.7, -1.2, 0.0, 2.5, -8.9, 0.4]) * period
    ts = np.concatenate([ts, 1000.0 * period + ts[:3], -1000.0 * period + ts[:2]])
    got = traj.sample(ts)
    for t, xi, vel in zip(ts, got.xi, got.velocity):
        want_xi, want_vel = traj.position(t), traj.velocity(t)
        assert np.max(np.abs(xi - want_xi)) <= 1e-14 * max(1.0, np.max(np.abs(want_xi))), (t, xi - want_xi)
        assert np.max(np.abs(vel - want_vel)) <= 1e-14 * max(1.0, np.max(np.abs(want_vel))), (t, vel - want_vel)


@pytest.mark.parametrize("ic", [(0.0, 0.0, 2.0), (0.0, 0.0, -2.0), (0.75, 0.0, -math.sqrt(4.5))])
def test_separatrix_far_from_the_hump_is_finite_and_quiet(ic):
    """Past |u| = 710, where cosh overflows, sech is 0 and the separatrix
    samples stay finite, with no floating-point warning; Phi tends to -z0."""
    traj = Type2TrajectoryH3(ic)
    assert traj.branch in (Branch.SECH_POS, Branch.SECH_NEG)
    ts = np.array([-2000.0, -800.0, 800.0, 2000.0]) / traj.rate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = traj.sample(ts)
        assert sech(np.array([-800.0, 0.0, 800.0])).tolist() == [0.0, 1.0, 0.0]
    assert np.all(np.isfinite(got.xi)) and np.all(np.isfinite(got.velocity))
    assert_allclose(got.velocity[:, 2], 0.0, atol=1e-300)
    assert_allclose(got.xi[:, 0], -traj.z0, rtol=1e-15)


# -- lambda-periodicity -------------------------------------------------------


def test_lambda_periodicity_of_oscillating_branches():
    for ic in [(1.0, 0.0, 0.0), (1.0, 0.0, 3.0), (1.3, -0.4, 0.8)]:
        traj = Type2TrajectoryH3(ic)
        report = lambda_periodicity(traj)
        assert report.kind is PeriodicityKind.LAMBDA_PERIODIC
        assert report.omega == pytest.approx(traj.period)
        assert abs(report.translation[0]) < 1e-9
        assert np.linalg.norm(report.translation) > 1e-6
        assert report.residual < 1e-8
        assert lambda_kernel_check(np.array([0.0, 1.0]), report.translation)


def test_lambda_periodicity_trichotomy():
    sech_report = lambda_periodicity(Type2TrajectoryH3((0.0, 0.0, 2.0)))
    assert sech_report.kind is PeriodicityKind.NON_PERIODIC
    assert sech_report.omega is None and sech_report.translation is None

    ray = lambda_periodicity(Type2TrajectoryH3((0.0, 0.7, 0.0)))
    assert ray.kind is PeriodicityKind.LAMBDA_PERIODIC
    assert ray.omega == 1.0
    assert_allclose(ray.translation, [0.0, 0.7, 0.0], atol=1e-12)
    assert ray.residual < 1e-10

    rest = lambda_periodicity(Type2TrajectoryH3((0.0, 0.0, 0.0)))
    assert rest.kind is PeriodicityKind.PERIODIC


def test_lambda_periodicity_samples_once(monkeypatch):
    """The report takes sigma(omega) and the check rows from one sample call,
    also for a started curve g sigma(t), whose translation is
    g lam g^-1 = lam + [g, lam] and whose residual is the pointwise one."""
    start = np.array([1.0, 2.0, 3.0])
    for traj in [Type2TrajectoryH3((1.0, 0.0, 0.0)), Type2TrajectoryH3((1.0, 0.0, 3.0)),
                 solve_type2_general([0.0, 1.2], -0.8, [0.0, 0.6, 0.0])]:
        grids = []
        sample = traj.sample
        monkeypatch.setattr(traj, "sample", lambda ts, sample=sample: grids.append(len(ts)) or sample(ts))
        plain = lambda_periodicity(traj)
        started = lambda_periodicity(traj, start)
        assert grids == [21, 21]
        lam = plain.translation
        assert started.kind is plain.kind and started.omega == plain.omega
        assert_allclose(started.translation, lam + h3().bracket(start, lam), rtol=1e-15, atol=1e-15)
        want = _translation_residual(traj, started.translation, started.omega, start)
        assert abs(started.residual - want) <= 1e-12 and started.residual < 1e-10


# -- general (u, charge) transport --------------------------------------------


def test_reduction_geometry():
    u, x0 = np.array([1.5, -2.0]), np.array([0.9, -0.3, 1.1])
    traj = solve_type2_general(u, 0.7, x0)
    assert traj.time_scale == pytest.approx(1.0 / 1.75)
    assert_allclose(traj.rotation @ (0.7 * u / 1.75), [0.0, 1.0], atol=1e-14)
    assert np.linalg.det(traj.rotation) == pytest.approx(1.0)
    # negative charge flips the effective direction, rotation^T e2
    flipped = solve_type2_general(u, -0.7, x0)
    assert_allclose(flipped.rotation[1], -traj.rotation[1], atol=1e-14)


def test_transported_trajectory_matches_oracle():
    u, charge = np.array([1.5, -2.0]), 0.7
    x0 = np.array([0.9, -0.3, 1.1])
    trans = solve_type2_general(u, charge, x0)
    assert_allclose(trans.velocity(0.0), x0, atol=1e-9)
    ts = np.linspace(0.0, 5.0, 51)
    num = oracle_curve(x0, ts, u=u, charge=charge)
    got = trans.sample(ts)
    assert np.max(np.abs(got.velocity - num.velocity)) < 1e-6
    assert np.max(np.abs(got.xi - num.xi)) < 1e-6


def test_transported_lambda_periodicity():
    u, charge = np.array([1.5, -2.0]), 0.7
    x0 = np.array([0.9, -0.3, 1.1])
    trans = solve_type2_general(u, charge, x0)
    q, rot = trans.time_scale, trans.rotation
    canonical = lambda_periodicity(Type2TrajectoryH3(np.append(q * (rot @ x0[:2]), q * x0[2])))
    report = lambda_periodicity(trans)
    assert report.kind is canonical.kind is PeriodicityKind.LAMBDA_PERIODIC
    assert abs(report.omega - q * canonical.omega) <= 1e-13 * report.omega
    want = np.append(rot.T @ canonical.translation[:2], canonical.translation[2])
    assert np.max(np.abs(report.translation - want)) <= 1e-13 * np.max(np.abs(want))
    assert report.residual < 1e-8
    assert lambda_kernel_check(u, report.translation)


@pytest.mark.parametrize("branch", list(CANONICAL_ICS), ids=lambda b: b.value)
def test_canonical_force_is_the_identity_reduction(branch):
    """For (e2, 1) the rotation is the identity and the time scale 1, so the
    general constructor gives the canonical samples bit for bit."""
    ts = np.linspace(-2.0, 9.0, 23)
    for ic in CANONICAL_ICS[branch]:
        canonical = Type2TrajectoryH3(ic).sample(ts)
        general = solve_type2_general((0.0, 1.0), 1.0, ic).sample(ts)
        np.testing.assert_array_equal(general.xi, canonical.xi)
        np.testing.assert_array_equal(general.velocity, canonical.velocity)


def test_degenerate_directions_are_rejected():
    x0 = np.array([1.0, 0.0, 0.0])
    with pytest.raises(DegenerateForceError):
        solve_type2_general(np.array([0.0, 0.0]), 1.0, x0)
    with pytest.raises(DegenerateForceError):
        solve_type2_general(np.array([1.0, 0.0]), 0.0, x0)
    with pytest.raises(ValueError):
        solve_type2_general(np.array([1.0, 0.0, 0.5]), 1.0, x0)
    with pytest.raises(ValueError):
        Type2TrajectoryH3(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        Type2TrajectoryH3(np.array([np.nan, 0.0, 0.0]))


BAD_DIRECTIONS = {
    "central": ([1.0, 0.0, 0.5], InvalidForceError),
    "shape4": ([1.0, 0.0, 0.0, 0.0], InvalidForceError),
    "zero": ([0.0, 0.0], DegenerateForceError),
    "nan": ([np.nan, 1.0], DegenerateForceError),
    "inf": ([np.inf, 0.0], DegenerateForceError),
}


@pytest.mark.parametrize("name", sorted(BAD_DIRECTIONS))
def test_direction_checks_agree(name):
    """The force constructor, the trajectory and the kernel check reject a bad
    direction u with the same exception class."""
    u, error = BAD_DIRECTIONS[name]
    raised = []
    for call in (
        lambda: type2_from_vector(h3(), np.array(u)),
        lambda: solve_type2_general(np.array(u), 1.0, np.array([1.0, 0.0, 0.0])),
        lambda: lambda_kernel_check(np.array(u), np.array([0.0, 1.0, 0.0])),
    ):
        with pytest.raises(ValueError) as info:
            call()
        raised.append(type(info.value))
    assert raised == [error] * 3


# -- the translation verifier ---------------------------------------------------


def periodic_trajectories():
    """Every canonical non-separatrix input, plus one transported trajectory."""
    trajs = [
        Type2TrajectoryH3(ic)
        for branch, ics in CANONICAL_ICS.items()
        if branch not in (Branch.SECH_POS, Branch.SECH_NEG)
        for ic in ics
    ]
    return trajs + [solve_type2_general(np.array([1.5, -2.0]), 0.7, np.array([0.9, -0.3, 1.1]))]


def test_translation_residual_is_the_pointwise_definition():
    """The batched residual is max |sigma(t + omega) - lam sigma(t)| over the check times."""
    alg = h3()
    for traj in periodic_trajectories():
        report = lambda_periodicity(traj)
        omega, lam = report.omega, report.translation
        want = max(
            float(np.max(np.abs(traj.position(t + omega) - alg.group_mul(lam, traj.position(t)))))
            for t in np.linspace(0.0, 2.0 * omega, 10)
        )
        assert abs(report.residual - want) <= 1e-12, (traj.branch, report.residual, want)


def test_perturbed_translation_fails_the_check():
    for traj in periodic_trajectories():
        report = lambda_periodicity(traj)
        for k in range(3):
            lam = report.translation + 1e-4 * np.eye(3)[k]
            assert _translation_residual(traj, lam, report.omega) > 1e-6, (traj.branch, k)


def _ic_with_modulus(branch: str, k: float, x0: float = 0.6, y0: float = 0.3):
    """Canonical initial velocity whose cn or dn branch has modulus k.

    k = a / (2 sqrt(S)) on cn and 2 sqrt(S) / a on dn, a^2 = 2 (S - y1) + z0^2;
    a cn modulus below sqrt((S - y1) / (2 S)) needs a smaller x0."""
    s, y1 = math.hypot(x0, y0 + 1.0), y0 + 1.0
    s_minus_y1 = x0 * x0 / (s + y1)
    if branch == "cn":
        return x0, y0, math.sqrt(4.0 * s * k * k - 2.0 * s_minus_y1)
    z0 = math.sqrt(4.0 * s / (k * k) - 2.0 * s_minus_y1)
    return x0, y0, z0 if branch == "dn+" else -z0


@pytest.mark.parametrize("k", [0.35, 0.75, 0.99])
@pytest.mark.parametrize("branch", ["cn", "dn+", "dn-"])
def test_period_integrals_match_quadrature(branch, k):
    """The closed-form I_m over one velocity period equal quad of Phi^m,
    with Phi = v_z - z0 read from the velocity."""
    traj = Type2TrajectoryH3(_ic_with_modulus(branch, k))
    assert traj.branch is (Branch.CN if branch == "cn" else Branch.DN)
    assert abs(traj.modulus - k) <= 1e-12

    def phi(s):
        return traj.velocity(s)[2] - traj.z0

    want = [
        quad(lambda s: phi(s) ** m, 0.0, traj.period, epsabs=1e-13, epsrel=1e-13, limit=400)[0]
        for m in (1, 2, 3)
    ]
    scale = max(abs(w) for w in want)
    got = [traj.period * mean for mean in traj._means]
    assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def _mpmath_position(traj, t: float, dps: int = 40) -> np.ndarray:
    """dps-digit position at t: I_m by mpmath quadrature of Phi^m from the same
    phase, over whole velocity periods and the remainder on cn and dn, and over
    [0, t], split at the hump, on the separatrix; Phi = 0 on the straight line."""
    with mpmath.workdps(dps):
        x0, y0, z0 = (mpmath.mpf(v) for v in (traj.x0, traj.y0, traj.z0))
        y1 = y0 + 1
        s = mpmath.sqrt(x0**2 + y1**2)
        a = mpmath.sqrt(2 * s - 2 * y1 + z0**2)
        phase, sign = mpmath.mpf(traj.phase), 1 if traj.z0 > 0 else -1
        t = mpmath.mpf(t)
        if traj.branch is Branch.LINEAR:
            def phi(u):
                return mpmath.mpf(0)

            i1 = i2 = i3 = mpmath.mpf(0)
        elif traj.branch in (Branch.SECH_POS, Branch.SECH_NEG):
            rate = mpmath.sqrt(s)

            @functools.lru_cache(maxsize=None)
            def phi(u):
                return sign * 2 * rate * mpmath.sech(phase - rate * u) - z0

            hump = phase / rate
            nodes = [0, hump, t] if min(0, t) < hump < max(0, t) else [0, t]
            i1, i2, i3 = (mpmath.quad(lambda u: phi(u) ** j, nodes) for j in (1, 2, 3))
        else:
            if traj.branch is Branch.CN:
                m, rate, fun, sign = a**2 / (4 * s), mpmath.sqrt(s), "cn", 1
            else:
                m, rate, fun = 4 * s / a**2, a / 2, "dn"
            period = 4 * mpmath.ellipk(m) / rate

            @functools.lru_cache(maxsize=None)  # the three powers share their nodes
            def phi(u):
                return sign * a * mpmath.ellipfun(fun, phase - rate * u, m=m) - z0

            n = int(mpmath.floor(t / period))
            tau = t - n * period
            i1, i2, i3 = (
                n * mpmath.quad(lambda u: phi(u) ** j, [0, period / 2, period], method="gauss-legendre")
                + mpmath.quad(lambda u: phi(u) ** j, [0, tau], method="gauss-legendre")
                for j in (1, 2, 3)
            )
        xi_y = y0 * t + z0 * i1 + i2 / 2
        xi_z = z0 * t + y1 * i1 + z0 * i2 + i3 / 2 - phi(t) * xi_y / 2
        return np.array([float(phi(t)), float(xi_y), float(xi_z)])


def test_period_integrals_keep_their_digits_at_large_z0():
    """Positions at 3.3 velocity periods agree with a 40-digit reference to
    1e-12 of their size: on the dn branch with |z0| >> sqrt(S), and on cn
    (k = 1e-6, 0.5, 0.99) and dn+/dn- at moderate and large moduli.
    Expanding Phi^m about z0 instead of about its period mean loses about
    |z0|^2 eps at z0 = 1000 (3e-10), and so does a zeta function taken as
    E(am u) - (E/K) u (8e-11)."""
    ics = [
        (0.7, -0.4, 1000.0),
        (0.7, -0.4, -1000.0),
        _ic_with_modulus("cn", 1e-6, x0=1e-6),
        _ic_with_modulus("cn", 0.5),
        _ic_with_modulus("cn", 0.99),
    ] + [_ic_with_modulus(b, k) for b in ("dn+", "dn-") for k in (0.5, 0.99)]
    for ic in ics:
        traj = Type2TrajectoryH3(ic)
        assert traj.branch in (Branch.CN, Branch.DN)
        t = 3.3 * traj.period
        want = _mpmath_position(traj, t)
        got = traj.position(t)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (ic, got - want)


@pytest.mark.parametrize("ic", [(0.0, 0.0, 2.0), (0.75, 0.0, math.sqrt(4.5)), (-0.75, 0.0, -math.sqrt(4.5)),
                                (0.75, 0.0, -math.sqrt(4.5)), (0.0, 0.7, 0.0), (0.0, -1.0, 1.2)])
def test_separatrix_and_line_positions_keep_their_digits(ic):
    """Positions on sech+, sech- and the straight line agree with the 40-digit
    reference to 1e-12 of their size at the hump phase - rate t = 0 (t = 0.5
    on the line and where the hump is at t = 0) and 12 and 30 canonical time
    units before and after it."""
    traj = Type2TrajectoryH3(ic)
    assert traj.branch in (Branch.SECH_POS, Branch.SECH_NEG, Branch.LINEAR)
    hump = traj.phase / traj.rate if traj.rate else 0.0
    for t in (hump or 0.5, hump - 12.0, hump + 12.0, hump - 30.0, hump + 30.0):
        want = _mpmath_position(traj, t)
        got = traj.position(t)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (ic, t, got - want)


@pytest.mark.parametrize("z0", [1e15, 1e16, 1e18])
def test_huge_central_velocity_keeps_its_positions(z0):
    """Velocity (0, 0, z0) is a dn curve of modulus 2 / z0; at t = 30 / z0 each
    position component agrees with a 70-digit reference to 1e-12 of itself.  A
    modulus k <= 1e-15 once took no AGM step, so 1 - M read 0, not about k^2/4,
    and the O(1) term z0 h was lost: from z0 = 1e16 on, xi_y read exactly 0 and
    xi_z 29.0119684 instead of 30."""
    traj = Type2TrajectoryH3((0.0, 0.0, z0))
    assert traj.branch is Branch.DN
    want = _mpmath_position(traj, 30.0 / z0, dps=70)
    got = traj.position(30.0 / z0)
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (got, want)


START_GRID = [
    (x0, y0, z0)
    for x0 in (0.7, 1e-3, 1e-5, 1e-7, 1e-9, -1e-7)
    for y0 in (-0.4, 0.3, -1.7)  # -1.7: y1 < 0, where S + y1 = x0^2 / (S - y1)
    for z0 in (0.5, -1.2, 3.0, 1e2, 1e4, 1e6, -1e6, 1e8)
]


@pytest.mark.parametrize("branch", [Branch.CN, Branch.DN], ids=lambda b: b.value)
def test_start_velocity_keeps_x0_to_the_last_digit(branch):
    """velocity(0) returns x0 to 1e-14 of the speed on both oscillating branches:
    the start amplitude goes to F as its (sn, cn) pair, from S - y1, and not
    through inverse_cn(z0/a) or inverse_dn(|z0|/a), which round z0/a to 1 once
    x0 is small against z0 (x0 = 1e-9 read 0 at z0 = 0.5, and x0 = 0.7 read 0
    at z0 = 1e8)."""
    cases = [ic for ic in START_GRID if Type2TrajectoryH3(ic).branch is branch]
    assert len(cases) >= 24
    for ic in cases:
        vel = Type2TrajectoryH3(ic).sample(np.array([0.0])).velocity[0]
        assert abs(vel[0] - ic[0]) <= 1e-14 * np.linalg.norm(ic), (ic, vel[0])
        assert abs(vel[2] - ic[2]) <= 1e-14 * np.linalg.norm(ic), (ic, vel[2])


@pytest.mark.parametrize("x0", [1e-7, -1e-7, 1e-9, -1e-9])
def test_z0_zero_next_to_the_separatrix_is_a_cn_curve(x0):
    """(x0, -1.7, 0) is a cn curve with k' of order |x0|: disc = 2 x0^2 / (S - y1)
    > 0.  Taken as 2 (S + y1), disc cancelled to rounding or to 0, the curve
    snapped to sech with z0 = 0 and construction divided by 0.  The AGM table
    takes k' = sqrt(disc) / (2 sqrt(S)) from the data, not from k."""
    ic = (x0, -1.7, 0.0)
    traj = Type2TrajectoryH3(ic)
    assert traj.branch is Branch.CN and traj.disc > 0.0
    ts = np.linspace(0.0, 12.0, 61)
    want = oracle_curve(ic, ts, tol=1e-13)
    got = traj.sample(ts)
    assert np.max(np.abs(got.xi - want.xi)) < 1e-6
    assert np.max(np.abs(got.velocity - want.velocity)) < 1e-6


@pytest.mark.parametrize("ic", [(1e-170, -1.7, 0.0), (1e-200, -1.0, 0.0), (1e-200, 0.3, 0.0)])
def test_underflowing_x0_squared_stays_a_cn_curve(ic):
    """x0^2 underflows to 0 here, and with it S + y1 (y1 < 0), S - y1 (y1 > 0)
    or both (y1 = 0).  The roots of S -/+ y1 come from |x0| / sqrt(S + |y1|),
    the branch from the sign of sqrt(2 (S + y1)) - |z0|, so these stay on cn;
    from x0^2 they raised ZeroDivisionError."""
    traj = Type2TrajectoryH3(ic)
    assert traj.branch is Branch.CN
    ts = np.linspace(0.0, 12.0, 61)
    want = oracle_curve(ic, ts, tol=1e-13)
    got = traj.sample(ts)
    assert np.max(np.abs(got.xi - want.xi)) < 1e-6
    assert np.max(np.abs(got.velocity - want.velocity)) < 1e-6


@pytest.mark.parametrize("ic", [(-1e-7, 0.0, 2.0000000000000027), (1e-7, 0.0, 2.0000000000000027),
                                (-1e-7, 0.0, -2.0000000000000027)])
def test_separatrix_start_velocity_keeps_x0(ic):
    """On the separatrix (disc = 0 exactly here) velocity(0) returns x0 to 1e-14
    of the speed: the start phase is asinh(sqrt(2 (S - y1) + disc) / |z0|),
    where acosh(2 sqrt(S) / |z0|) read -9.42e-8 for -1e-7."""
    traj = Type2TrajectoryH3(ic)
    assert traj.branch in (Branch.SECH_POS, Branch.SECH_NEG) and traj.disc == 0.0
    vel = traj.sample(np.array([0.0])).velocity[0]
    assert abs(vel[0] - ic[0]) <= 1e-14 * np.linalg.norm(ic), vel[0]


@pytest.mark.parametrize("z0", [1e4, -1e4, 1e6, -1e6, 1e8, -1e8])
def test_dn_start_velocity_keeps_y0_at_large_z0(z0):
    """velocity(0) returns y0 to 1e-14 of the speed on dn at large |z0|: the y
    velocity y0 + z0 Phi + Phi^2 / 2 needs Phi = sign (a dn - |z0|) without the
    cancellation of psi - z0, which read -1.89 for y0 = -0.4 at z0 = 1e8."""
    ic = (0.7, -0.4, z0)
    traj = Type2TrajectoryH3(ic)
    assert traj.branch is Branch.DN
    vel = traj.sample(np.array([0.0])).velocity[0]
    assert abs(vel[1] - ic[1]) <= 1e-14 * np.linalg.norm(ic), vel[1]


def test_construction_runs_the_agm_once(monkeypatch):
    """A cn or dn trajectory builds one AGM table, at construction, for its
    period and start phase; sampling and the periodicity report reuse it."""
    from nilmag import h3_type2, specfun

    built = []
    table = specfun._descent_table

    def counted(k, kp=None):
        built.append(k)
        return table(k, kp)

    monkeypatch.setattr(specfun, "_descent_table", counted)
    monkeypatch.setattr(h3_type2, "_descent_table", counted)
    for ic in [(1.3, -0.4, 0.8), (1.0, 0.0, -3.0)]:
        built.clear()
        traj = Type2TrajectoryH3(ic)
        assert built == [traj.modulus]
        traj.sample(np.linspace(0.0, 5.0, 11))
        lambda_periodicity(traj)
        assert built == [traj.modulus]
