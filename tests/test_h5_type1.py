"""Tests for the H5 block-diagonal solver and periodic-orbit construction."""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from nilmag.algebra import MetricNilAlgebra
from nilmag.errors import ExactForceError, InputError, NoCertificateError, UnsupportedForceError
from nilmag.h5_type1 import (
    H5Branch,
    H5Force,
    PeriodicCertificate,
    periodic_at_energy,
    solve_h5,
    verify_periodic,
)
from nilmag.lorentz import LorentzForce, exactness_test
from nilmag.oracle import IntegratorConfig, reconstruct_group

from fdcheck import max_ode_residual


def h5() -> MetricNilAlgebra:
    return MetricNilAlgebra.heisenberg(2)


def oracle_curve(force_matrix, charge, x0, ts, tol=1e-11):
    alg = h5()
    force = LorentzForce(alg, force_matrix)
    cfg = IntegratorConfig(scheme="dopri45", tolerance=tol)
    return reconstruct_group(alg, force, charge, np.asarray(x0, float), ts, cfg)


def test_matches_oracle():
    """Blockwise H5 formulas agree with the numerical integrator."""
    force = H5Force.from_rates(0.4, 2.1)
    v0 = np.array([1.0, 0.3, -0.5, 0.8])
    z0 = -0.6
    charge = 0.9
    traj = solve_h5(force, v0, z0, charge)
    ts = np.linspace(0.0, 8.0, 81)
    ref = oracle_curve(force.matrix, charge, np.concatenate([v0, [z0]]), ts)
    ours = traj.sample(ts)
    assert np.max(np.abs(ours.velocity - ref.velocity)) < 1e-6
    assert np.max(np.abs(ours.xi - ref.xi)) < 1e-6


def test_equations_of_motion():
    """Finite differences of the H5 solution satisfy the magnetic system."""
    alg = h5()
    force = H5Force.from_rates(-0.8, 1.4)
    lf = LorentzForce(alg, force.matrix)
    traj = solve_h5(force, np.array([0.7, -0.2, 0.4, 0.5]), 0.45, charge=1.2)
    ts = np.linspace(0.1, 6.0, 40)
    res = max_ode_residual(alg, lf, 1.2, traj.velocity, traj.position, ts)
    assert res < 1e-8


def test_drift_is_mean_central_velocity():
    """drift() matches the long-time average of the central position."""
    force = H5Force.from_rates(-1.0, 2.0)
    traj = solve_h5(force, np.array([1.1, 0.0, 0.4, -0.3]), 0.35)
    t_long = 1000.0
    avg = traj.position(t_long)[4] / t_long
    # the oscillatory part is bounded, so the average converges like 1/t
    assert abs(avg - traj.drift()) < 1e-2
    assert abs(traj.drift() - (0.35 + (1.1**2) / (2 * (0.35 - 1.0)) + (0.4**2 + 0.3**2) / (2 * (0.35 + 2.0)))) < 1e-12


def test_one_resonant_block():
    """A vanishing block frequency degenerates to a straight line."""
    force = H5Force.from_rates(-0.5, 1.7)
    z0 = 0.5  # nu_1 = z0 + mu_1 = 0
    v0 = np.array([0.8, -0.3, 0.2, 0.6])
    traj = solve_h5(force, v0, z0)
    assert traj.branch is H5Branch.ONE_RESONANT
    ts = np.linspace(0.0, 6.0, 61)
    ref = oracle_curve(force.matrix, 1.0, np.concatenate([v0, [z0]]), ts)
    ours = traj.sample(ts)
    assert np.max(np.abs(ours.velocity - ref.velocity)) < 1e-6
    assert np.max(np.abs(ours.xi - ref.xi)) < 1e-6


def test_fully_resonant():
    """Equal rates with z0 = -mu give a totally geodesic straight line."""
    force = H5Force.from_rates(0.9, 0.9)
    v0 = np.array([0.4, 0.1, -0.2, 0.7])
    traj = solve_h5(force, v0, -0.9)
    assert traj.branch is H5Branch.FULLY_RESONANT
    ts = np.linspace(0.0, 5.0, 51)
    ref = oracle_curve(force.matrix, 1.0, np.concatenate([v0, [-0.9]]), ts)
    ours = traj.sample(ts)
    assert np.max(np.abs(ours.velocity - ref.velocity)) < 1e-6
    assert np.max(np.abs(ours.xi - ref.xi)) < 1e-6
    # velocity is constant and the curve is a line through the identity
    assert_allclose(traj.velocity(3.7), traj.velocity(0.0), atol=1e-14)
    assert_allclose(traj.position(2.0), 2.0 * traj.velocity(0.0), atol=1e-14)


def test_from_matrix_recovers_rates():
    """Diagonalization of a random j-commuting skew v-block."""
    rng = np.random.default_rng(57)
    # random anti-Hermitian 2x2 complex matrix, realified
    diag = 1j * rng.standard_normal(2)
    off = rng.standard_normal() + 1j * rng.standard_normal()
    a = np.array([[diag[0], off], [-np.conj(off), diag[1]]])
    fv = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            x, y = a[i, j].real, a[i, j].imag
            fv[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = np.array([[x, -y], [y, x]])
    m = np.zeros((5, 5))
    m[:4, :4] = fv
    force = H5Force.from_matrix(m)
    assert force.mu1 <= force.mu2
    # frame is orthogonal and block-diagonalizes the v-block
    assert_allclose(force.frame @ force.frame.T, np.eye(4), atol=1e-12)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    want = np.zeros((4, 4))
    want[0:2, 0:2] = force.mu1 * rot
    want[2:4, 2:4] = force.mu2 * rot
    assert_allclose(force.frame @ fv @ force.frame.T, want, atol=1e-10)
    # the diagonalized trajectory still matches the oracle for this matrix
    v0 = np.array([0.6, -0.1, 0.3, 0.5])
    traj = solve_h5(force, v0, 0.25)
    ts = np.linspace(0.0, 5.0, 51)
    ref = oracle_curve(m, 1.0, np.concatenate([v0, [0.25]]), ts)
    ours = traj.sample(ts)
    assert np.max(np.abs(ours.velocity - ref.velocity)) < 1e-6
    assert np.max(np.abs(ours.xi - ref.xi)) < 1e-6


def test_from_matrix_rejects_non_commuting():
    """A skew v-block that fails to commute with j(Z) is refused."""
    m = np.zeros((5, 5))
    m[0, 2] = 1.0
    m[2, 0] = -1.0  # swaps the two complex lines without the conjugate twin
    with pytest.raises(UnsupportedForceError):
        H5Force.from_matrix(m)


def test_from_matrix_rejects_coupling():
    """A v-z coupling block means F[n, n] != 0 (F e5 != 0), alone or beside a
    j-commuting v-block that from_matrix would diagonalize."""
    m = np.zeros((5, 5))
    m[0, 4] = 1.0
    m[4, 0] = -1.0
    for force in (m, m + H5Force.from_rates(-1.0, 2.0).matrix):
        assert not LorentzForce(h5(), force)._linear
        with pytest.raises(UnsupportedForceError):
            H5Force.from_matrix(force)


def test_exact_force_rejected():
    """Equal rates mean an exact force: below mu^2/2 = 1.125 it has a verified
    single-mode orbit, and from mu^2/2 on it has none, which raises ExactForceError."""
    force = H5Force.from_rates(1.5, 1.5)
    assert force.is_exact()
    cert = periodic_at_energy(force, 1.0)
    assert verify_periodic(solve_h5(force, cert.v0, cert.z0), cert.period)[0]
    for energy in (1.125, 2.0):
        with pytest.raises(ExactForceError):
            periodic_at_energy(force, energy)


@pytest.mark.parametrize("mu, energy", [(2.0, 1.0), (2.0, 1.99), (1.5, 1.0), (-1.5, 1.0)])
def test_exact_force_certificates_below_half_mu_squared(mu, energy):
    """An exact force (rates mu, mu) has a closed orbit at every energy below
    mu^2/2: its single-mode certificate verifies, and a 1e-12 oracle run over
    one period ends at the identity (|sigma(T)| measured 7.1e-12 at (2, 1),
    6.3e-11 at (2, 1.99), 1.5e-11 at (1.5, 1)).  At mu^2/2 and above the drift
    z0 + (2E - z0^2) / (2 (z0 + mu)) has no zero with z0 + mu != 0, and
    periodic_at_energy raises ExactForceError."""
    force = H5Force.from_rates(mu, mu)
    cert = periodic_at_energy(force, energy)
    traj = solve_h5(force, cert.v0, cert.z0)
    assert cert.mode == "single-1" and abs(traj.energy() - energy) < 1e-12 and abs(traj.drift()) < 1e-12
    assert verify_periodic(traj, cert.period)[0]
    end = oracle_curve(force.matrix, 1.0, np.append(cert.v0, cert.z0), [0.0, cert.period], tol=1e-12).xi[-1]
    assert np.linalg.norm(end) < 1e-9, end
    for refused in (0.5 * mu * mu, 0.5 * mu * mu + 1e-9, 10.0 * mu * mu):
        with pytest.raises(ExactForceError):
            periodic_at_energy(force, refused)


@pytest.mark.parametrize("gap", [1e-13, 1e-11, 1e-10, 1e-9])
def test_is_exact_is_the_exactness_test_verdict(gap):
    """H5Force.is_exact and lorentz.exactness_test give one verdict for rates
    (1, 1 + gap): exact up to 1e-10 (a fit residual of gap / 2), not at 1e-9.
    Above (1 + gap)^2 / 2 only that verdict raises ExactForceError; below it
    both rates have a single-mode certificate."""
    force = H5Force.from_rates(1.0, 1.0 + gap)
    verdict = exactness_test(h5(), force.matrix).is_exact
    assert force.is_exact() is verdict is (gap <= 1e-10)
    with pytest.raises(ExactForceError) if verdict else contextlib.suppress(NoCertificateError):
        periodic_at_energy(force, 0.6)
    cert = periodic_at_energy(force, 0.4)
    assert verify_periodic(solve_h5(force, cert.v0, cert.z0), cert.period)[0]


def test_negative_energy_rejected():
    force = H5Force.from_rates(-1.0, 2.0)
    with pytest.raises(InputError):
        periodic_at_energy(force, -0.5)


def test_periodic_certificates_across_energy_range():
    """Periodic orbits exist at every tested energy for rates (-1, 2)."""
    force = H5Force.from_rates(-1.0, 2.0)
    expected_modes = {
        0.1: "single-1",
        0.3: "single-1",
        0.5: "single-2",
        1.0: "single-2",
        2.0: "two-mode -1:1",
        10.0: "two-mode -1:1",
        100.0: "two-mode -1:1",
    }
    for energy, mode in expected_modes.items():
        cert = periodic_at_energy(force, energy)
        assert cert.mode == mode, (energy, cert.mode)
        traj = solve_h5(force, cert.v0, cert.z0)
        assert abs(traj.energy() - energy) < 1e-12
        assert abs(traj.drift()) < 1e-12
        ok, residual = verify_periodic(traj, cert.period)
        assert ok, (energy, residual)


def test_certificate_closed_against_oracle():
    """The certified period closes the numerically integrated orbit too."""
    force = H5Force.from_rates(-1.0, 2.0)
    cert = periodic_at_energy(force, 2.0)
    x0 = np.concatenate([cert.v0, [cert.z0]])
    ts = np.array([0.0, cert.period])
    ref = reconstruct_group(
        h5(), LorentzForce(h5(), force.matrix), 1.0, x0, ts, IntegratorConfig(tolerance=1e-12)
    )
    alg = h5()
    gap = alg.group_mul(alg.group_inv(ref.xi[0]), ref.xi[1])
    assert np.linalg.norm(gap) < 1e-7


def test_single_mode_explicit_value():
    """Mode-1 certificate at E = 0.3 uses the quadratic-formula root."""
    force = H5Force.from_rates(-1.0, 2.0)
    cert = periodic_at_energy(force, 0.3)
    assert abs(cert.z0 - (1.0 - math.sqrt(0.4))) < 1e-12
    nu1 = cert.z0 - 1.0
    assert abs(cert.period - 2.0 * math.pi / abs(nu1)) < 1e-12
    # the active block is the first one; the second carries no velocity
    tilde = force.frame @ cert.v0
    assert np.linalg.norm(tilde[2:]) < 1e-14
    assert abs(tilde[0] ** 2 - (2 * 0.3 - cert.z0**2)) < 1e-12


def test_two_mode_explicit_period():
    """At E = 2 the 1:-1 ratio gives period 4 pi / 3 for rates (-1, 2)."""
    force = H5Force.from_rates(-1.0, 2.0)
    cert = periodic_at_energy(force, 2.0)
    assert abs(cert.z0 + 0.5) < 1e-12
    assert abs(cert.period - 4.0 * math.pi / 3.0) < 1e-12
    tilde = force.frame @ cert.v0
    assert abs(tilde[0] ** 2 - 1.125) < 1e-12
    assert abs(tilde[2] ** 2 - 2.625) < 1e-12


def test_certificate_with_resonant_partner_block():
    """Rates (-3, -1) at E = 2.5: the single-1 orbit leaves block 2 resonant."""
    force = H5Force.from_rates(-3.0, -1.0)
    cert = periodic_at_energy(force, 2.5)
    assert cert.mode == "single-1"
    assert abs(cert.z0 - 1.0) < 1e-12
    traj = solve_h5(force, cert.v0, cert.z0)
    assert traj.branch is H5Branch.ONE_RESONANT
    ok, residual = verify_periodic(traj, cert.period)
    assert ok, residual
    ts = np.linspace(0.0, cert.period, 41)
    ref = oracle_curve(
        force.matrix, 1.0, np.concatenate([cert.v0, [cert.z0]]), ts
    )
    ours = traj.sample(ts)
    assert np.max(np.abs(ours.xi - ref.xi)) < 1e-6


def test_zero_energy_certificate():
    """E = 0 yields the stationary orbit (zero velocity), trivially periodic."""
    force = H5Force.from_rates(-1.0, 2.0)
    cert = periodic_at_energy(force, 0.0)
    assert np.linalg.norm(cert.v0) < 1e-14
    assert abs(cert.z0) < 1e-14
    traj = solve_h5(force, cert.v0, cert.z0)
    ok, residual = verify_periodic(traj, cert.period)
    assert ok, residual


def test_energy_conserved_along_orbit():
    """The kinetic energy of the trajectory is constant in time."""
    force = H5Force.from_rates(-1.0, 2.0)
    cert = periodic_at_energy(force, 10.0)
    traj = solve_h5(force, cert.v0, cert.z0)
    e0 = traj.energy()
    for t in np.linspace(0.0, 3.0 * cert.period, 25):
        v = traj.velocity(t)
        assert abs(0.5 * float(v @ v) - e0) < 1e-10


def test_certificate_is_frozen_dataclass():
    force = H5Force.from_rates(-1.0, 2.0)
    cert = periodic_at_energy(force, 1.0)
    assert isinstance(cert, PeriodicCertificate)
    with pytest.raises(AttributeError):
        cert.period = 1.0


def test_bad_initial_data():
    force = H5Force.from_rates(-1.0, 2.0)
    with pytest.raises(InputError):
        solve_h5(force, np.array([1.0, 2.0, 3.0]), 0.0)
    with pytest.raises(InputError):
        solve_h5(force, np.array([np.nan, 0.0, 0.0, 0.0]), 0.0)
    with pytest.raises(InputError):
        solve_h5(force, np.zeros(4), np.inf)


CERTIFIED_ENERGIES = (0.1, 0.5, 2.0, 10.0, 100.0)


def test_verify_periodic_rejects_a_wrong_period():
    force = H5Force.from_rates(-1.0, 2.0)
    for energy in CERTIFIED_ENERGIES:
        cert = periodic_at_energy(force, energy)
        ok, residual = verify_periodic(solve_h5(force, cert.v0, cert.z0), 0.9 * cert.period)
        assert not ok and residual > 1e-3, (energy, residual)


def test_verify_periodic_bound_scales_with_the_curve():
    """The bound is _VERIFY_TOL max(1, max |sigma|) over the check times, as
    positions grow with the energy and the period.  This two-mode certificate
    has period 1591.77 and max |sigma| = 1.37e4 on [0, 3T]: its group gap of
    1e-6 is 7e-11 of that, and it verifies (an absolute 1e-8 refused it).  A
    period off by 1e-7 of itself, and a velocity off by 1e-6, still fail."""
    force = H5Force.from_rates(0.06180203129424319, 0.06969662823489138)
    cert = periodic_at_energy(force, 731.0379722620145)
    assert cert.mode == "two-mode -1:1" and abs(cert.period - 1591.77) < 0.01
    traj = solve_h5(force, cert.v0, cert.z0)
    ok, residual = verify_periodic(traj, cert.period)
    assert ok and 1e-8 < residual < 1e-5
    assert not verify_periodic(traj, (1.0 + 1e-7) * cert.period)[0]
    assert not verify_periodic(solve_h5(force, (1.0 + 1e-6) * cert.v0, cert.z0), cert.period)[0]


def test_verify_periodic_residual_is_the_group_gap():
    """At a certified period, m times omega, the residual is max(m |lam|,
    max |sigma(t + omega) - lam sigma(t)|) over the check times, lam = sigma(omega);
    at another time T it is max |sigma(t + T) - sigma(t)|, and not ok."""
    alg = h5()
    force = H5Force.from_rates(-1.0, 2.0)
    for energy in CERTIFIED_ENERGIES:
        cert = periodic_at_energy(force, energy)
        traj = solve_h5(force, cert.v0, cert.z0)
        omega = traj.velocity_period()
        for period in (cert.period, 2.0 * cert.period, 0.9 * cert.period):
            m = round(period / omega)
            multiple = abs(period - m * omega) <= 1e-9 * period
            step, lam = (omega, traj.position(omega)) if multiple else (period, np.zeros(5))
            want = max(
                float(np.max(np.abs(traj.position(t + step) - alg.group_mul(lam, traj.position(t)))))
                for t in np.linspace(0.0, 2.0 * step, 10)
            )
            if multiple:
                want = max(want, m * float(np.linalg.norm(lam)))
            ok, residual = verify_periodic(traj, period)
            assert ok is multiple, (energy, period)
            assert abs(residual - want) <= 1e-12 * max(1.0, want), (energy, period)


def test_verify_periodic_needs_a_whole_multiple_of_the_velocity_period():
    """A period that is not finite and positive raises InputError; a time that
    is not a whole multiple of the velocity period, however small its group
    gap, is not a period, and a lambda-periodic curve has none."""
    force = H5Force.from_rates(-1.0, 2.0)
    cert = periodic_at_energy(force, 2.0)
    traj = solve_h5(force, cert.v0, cert.z0)
    for bad in (0.0, -cert.period, math.nan, math.inf, -math.inf):
        with pytest.raises(InputError):
            verify_periodic(traj, bad)
    ok, residual = verify_periodic(traj, 1e-12)
    assert not ok and residual < 1e-8
    assert not verify_periodic(traj, 1.5 * cert.period)[0]
    assert verify_periodic(traj, 3.0 * cert.period)[0]
    drifting = solve_h5(force, [1.0, 0.0, 0.0, 0.0], 0.3)
    omega = drifting.velocity_period()
    with pytest.raises(InputError):
        verify_periodic(drifting, 0.0)
    for period in (1e-12, omega, 2.0 * omega):
        ok, residual = verify_periodic(drifting, period)
        assert not ok, period
    # the stationary orbit has a constant velocity, which every time is a period of
    still = periodic_at_energy(force, 0.0)
    assert verify_periodic(solve_h5(force, still.v0, still.z0), still.period) == (True, 0.0)


def test_velocity_period_is_the_certified_period():
    force = H5Force.from_rates(-1.0, 2.0)
    for energy in (0.1, 0.3, 0.5, 1.0, 2.0, 10.0, 100.0):
        cert = periodic_at_energy(force, energy)
        omega = solve_h5(force, cert.v0, cert.z0).velocity_period()
        assert abs(omega - cert.period) <= 1e-12 * cert.period, (energy, omega, cert.period)
