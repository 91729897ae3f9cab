"""Acceptance gate: one test per criterion, run with `pytest tests/test_acceptance.py -v`.

Each criterion appears as exactly one test function, so the verbose pytest
report shows one PASSED/FAILED line per criterion.  Expected values are
either independently integrated (adaptive Dormand-Prince at tolerance
1e-11/1e-12), algebraically forced (conservation laws, group identities), or
closed-form constants of the solver's own documented formulas.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from nilmag.algebra import MetricNilAlgebra
from nilmag.cli import main as cli_main
from nilmag.closedform import InitialCondition, solve_exact, solve_type1
from nilmag.h3_type2 import (
    Branch,
    PeriodicityKind,
    lambda_kernel_check,
    lambda_periodicity,
    Type2TrajectoryH3,
    solve_type2_general,
)
from nilmag.h5_type1 import H5Force, periodic_at_energy, solve_h5, verify_periodic
from nilmag.lorentz import (
    LorentzForce,
    check_closed,
    random_closed_type1,
    type2_from_vector,
)
from nilmag.oracle import IntegratorConfig, integrate_velocity, reconstruct_group
from nilmag.specfun import cn, complete_K, sech

from fdcheck import max_ode_residual


def h3() -> MetricNilAlgebra:
    return MetricNilAlgebra.heisenberg(1)


def h5() -> MetricNilAlgebra:
    return MetricNilAlgebra.heisenberg(2)


def qh7() -> MetricNilAlgebra:
    return MetricNilAlgebra.quaternionic(1)


def test_criterion_01_type1_oracle_equivalence():
    """20 random splitting-preserving forces across three algebras vs oracle."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    algebras = [h3()] * 7 + [h5()] * 7 + [qh7()] * 6
    ts = np.linspace(0.0, 10.0, 101)
    cfg = IntegratorConfig(tolerance=1e-11)
    worst = 0.0
    for case, alg in enumerate(algebras):
        force = random_closed_type1(alg, rng)
        assert check_closed(alg, force).closed
        x0 = 0.8 * rng.standard_normal(alg.dim)
        charge = rng.uniform(0.4, 1.6) * rng.choice([-1.0, 1.0])
        sol = solve_type1(alg, force, InitialCondition.from_velocity(alg, x0, charge))
        ours = sol.sample(ts)
        ref = reconstruct_group(alg, force, charge, x0, ts, cfg)
        dev = max(
            float(np.max(np.abs(ours.velocity - ref.velocity))),
            float(np.max(np.abs(ours.xi - ref.xi))),
        )
        assert dev <= 1e-6, (case, alg.name, dev)
        worst = max(worst, dev)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_02_exact_force_shift_identity():
    """Exact-force trajectories are shifted geodesics, pointwise to 1e-12."""
    rng = np.random.default_rng(311)
    ts = np.linspace(0.0, 6.0, 37)
    for case in range(10):
        alg = h3() if case < 5 else h5()
        z_tilde = rng.uniform(0.3, 1.5) * rng.choice([-1.0, 1.0], size=alg.dim_z)
        m = np.zeros((alg.dim, alg.dim))
        m[: alg.dim_v, : alg.dim_v] = alg.j_map(z_tilde)
        force = LorentzForce(alg, m)
        charge = rng.uniform(0.4, 1.8) * rng.choice([-1.0, 1.0])
        x0 = rng.standard_normal(alg.dim)
        sol = solve_exact(alg, force, InitialCondition.from_velocity(alg, x0, charge))
        for t in ts:
            dv = sol.solution.velocity(t) - sol.velocity_via_shift(t)
            dx = sol.solution.position(t) - sol.position_via_shift(t)
            assert float(np.max(np.abs(dv))) <= 1e-12
            assert float(np.max(np.abs(dx))) <= 1e-12


def test_criterion_03_h3_rotation_formula():
    """H3 splitting force: velocity is a rigid rotation of (a, b) plus c e3."""
    rng = np.random.default_rng(47)
    alg = h3()
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    for _ in range(5):
        rho = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        q = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        a, b, c = rng.uniform(-1.5, 1.5, size=3)
        if abs(c + q * rho) < 0.05:
            c += 0.2
        m = np.zeros((3, 3))
        m[:2, :2] = rho * rot
        force = LorentzForce(alg, m)
        sol = solve_type1(
            alg, force, InitialCondition(v0=np.array([a, b]), z0=np.array([c]), charge=q)
        )
        nu = c + q * rho
        for t in np.linspace(0.0, 8.0, 33):
            cs, sn_ = math.cos(nu * t), math.sin(nu * t)
            want = np.array([cs * a - sn_ * b, sn_ * a + cs * b, c])
            assert float(np.max(np.abs(sol.velocity(t) - want))) <= 1e-12


# the 15 initial conditions covering every classification row plus Linear
_TABLE_ICS = [
    # dn branch, z0 below the negative threshold
    ((1.0, 0.0, -3.0), Branch.DN),
    ((-0.5, 0.3, -2.8), Branch.DN),
    ((0.6, -0.2, -2.9), Branch.DN),
    # separatrix at the negative threshold
    ((0.0, 0.0, -2.0), Branch.SECH_NEG),
    ((0.75, 0.0, -math.sqrt(4.5)), Branch.SECH_NEG),
    # cn branch, z0 strictly between the thresholds
    ((1.0, 0.0, 0.0), Branch.CN),
    ((1.3, -0.4, 0.8), Branch.CN),
    ((0.0, 0.0, 1.0), Branch.CN),
    ((-1.0, 0.5, -0.5), Branch.CN),
    # separatrix at the positive threshold
    ((0.0, 0.0, 2.0), Branch.SECH_POS),
    ((0.75, 0.0, math.sqrt(4.5)), Branch.SECH_POS),
    # dn branch, z0 above the positive threshold
    ((1.0, 0.0, 3.0), Branch.DN),
    ((-0.5, 0.3, 2.8), Branch.DN),
    # linear solutions
    ((0.0, 0.7, 0.0), Branch.LINEAR),
    ((0.0, -1.0, 1.2), Branch.LINEAR),
]


def _oracle_velocity_at(alg, force, x0, t, tol=1e-12):
    if t <= 0.0:
        return np.asarray(x0, dtype=float)
    samples = integrate_velocity(
        alg, force, 1.0, np.asarray(x0, float), np.array([0.0, t]), IntegratorConfig(tolerance=tol)
    )
    return samples.velocity[-1]


def _oracle_return_time(alg, force, x0, t_guess):
    """Measure the velocity's return time near t_guess from the ODE alone.

    Solves w(t) = 0 where w = (v(t) - v(0)) . a(t) is half the derivative of
    |v(t) - v(0)|^2 and a is the magnetic acceleration; at the true period
    this is a simple zero crossed from below.
    """
    x0 = np.asarray(x0, dtype=float)

    def w(t: float) -> float:
        v = _oracle_velocity_at(alg, force, x0, t)
        accel = alg.geodesic_term(v) + force.matrix @ v
        return float((v - x0) @ accel)

    lo, hi = 0.7 * t_guess, 1.3 * t_guess
    if w(lo) >= 0.0 or w(hi) <= 0.0:
        grid = np.linspace(0.55 * t_guess, 1.45 * t_guess, 13)
        vals = [w(t) for t in grid]
        for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
            if fa < 0.0 <= fb:
                lo, hi = a, b
                break
        else:
            raise AssertionError("no sign change bracketing the return time")
    return brentq(w, lo, hi, xtol=1e-12, rtol=8.9e-16)


def test_criterion_04_h3_type2_table():
    """15 initial conditions: conservation, ODE residual, period, oracle match."""
    alg = h3()
    force = type2_from_vector(alg, np.array([0.0, 1.0]))
    ts_cons = np.linspace(0.0, 12.0, 121)
    ts_oracle = np.linspace(0.0, 5.0, 51)
    cfg = IntegratorConfig(tolerance=1e-11)
    seen = set()
    for ic, want_branch in _TABLE_ICS:
        traj = Type2TrajectoryH3(np.array(ic))
        assert traj.branch is want_branch, (ic, traj.branch)
        seen.add(want_branch)

        # (a) the planar conservation law x'^2 + (y'+1)^2 = x0^2 + (y0+1)^2
        s2 = ic[0] ** 2 + (ic[1] + 1.0) ** 2
        worst = max(
            abs(traj.velocity(t)[0] ** 2 + (traj.velocity(t)[1] + 1.0) ** 2 - s2)
            for t in ts_cons
        )
        assert worst <= 1e-9, (ic, worst)

        # (b) the magnetic equation itself, via finite differences
        res = max_ode_residual(
            alg, force, 1.0, traj.velocity, traj.position, np.linspace(0.1, 4.0, 27)
        )
        assert res <= 1e-7, (ic, res)

        # (c) stored period: translation identity + independent return time
        if traj.period is not None:
            T = traj.period
            shift = max(
                float(np.max(np.abs(traj.velocity(t + T) - traj.velocity(t))))
                for t in np.linspace(0.0, 1.5 * T, 25)
            )
            assert shift <= 1e-9, (ic, shift)
            t_star = _oracle_return_time(alg, force, ic, T)
            assert abs(t_star - T) <= 1e-9 * max(1.0, T), (ic, t_star, T)

        # (d) full-curve oracle comparison
        ours = traj.sample(ts_oracle)
        ref = reconstruct_group(alg, force, 1.0, np.array(ic, float), ts_oracle, cfg)
        dev = max(
            float(np.max(np.abs(ours.velocity - ref.velocity))),
            float(np.max(np.abs(ours.xi - ref.xi))),
        )
        assert dev <= 1e-6, (ic, dev)
    assert seen == set(Branch)


def _boundary_z0(x0: float, y0: float) -> float:
    return math.sqrt(2.0 * (math.hypot(x0, y0 + 1.0) + y0 + 1.0))


_TRICHOTOMY_SUITE = [
    # linear family: lambda-periodic with omega = 1 (periodic when lambda = e)
    ((0.0, 0.7, 0.0), PeriodicityKind.LAMBDA_PERIODIC),
    ((0.0, -1.0, 1.2), PeriodicityKind.LAMBDA_PERIODIC),
    ((0.0, 0.0, 0.0), PeriodicityKind.PERIODIC),
    # separatrix family, including the exact floating-point boundary values
    ((0.0, 0.0, 2.0), PeriodicityKind.NON_PERIODIC),
    ((0.3, 0.2, _boundary_z0(0.3, 0.2)), PeriodicityKind.NON_PERIODIC),
    ((0.75, 0.0, -_boundary_z0(0.75, 0.0)), PeriodicityKind.NON_PERIODIC),
    # oscillating family: always lambda-periodic for lambda = sigma(omega)
    ((1.0, 0.0, 0.0), PeriodicityKind.LAMBDA_PERIODIC),
    ((1.3, -0.4, 0.8), PeriodicityKind.LAMBDA_PERIODIC),
    ((1.0, 0.0, 3.0), PeriodicityKind.LAMBDA_PERIODIC),
    ((-0.5, 0.3, -2.8), PeriodicityKind.LAMBDA_PERIODIC),
]


def test_criterion_05_lambda_periodicity_trichotomy():
    """Verdicts match the designed suite; the translation identity holds to 1e-8."""
    alg = h3()
    for ic, want in _TRICHOTOMY_SUITE:
        traj = Type2TrajectoryH3(np.array(ic))
        report = lambda_periodicity(traj)
        assert report.kind is want, (ic, report.kind)
        if report.kind is PeriodicityKind.NON_PERIODIC:
            assert report.omega is None and report.translation is None
            continue
        omega, lam = report.omega, report.translation
        assert omega is not None and lam is not None
        for t in np.linspace(0.0, 2.0 * omega, 10):
            lhs = traj.position(t + omega)
            rhs = alg.group_mul(lam, traj.position(t))
            assert float(np.max(np.abs(lhs - rhs))) <= 1e-8, (ic, t)


def test_criterion_06_translation_in_force_kernel():
    """Every translation's planar part lies in the force direction's kernel."""
    cases = []
    for ic, _ in _TRICHOTOMY_SUITE:
        cases.append((np.array([0.0, 1.0]), 1.0, np.array(ic)))
    # transported directions exercise the conjugation route as well
    cases.append((np.array([1.5, -2.0]), 0.7, np.array([0.9, -0.3, 1.1])))
    cases.append((np.array([0.6, 0.8]), -1.1, np.array([1.0, 0.0, 0.2])))
    for u, charge, ic in cases:
        traj = (
            Type2TrajectoryH3(ic)
            if charge == 1.0 and u[0] == 0.0 and u[1] == 1.0
            else solve_type2_general(u, charge, ic)
        )
        report = lambda_periodicity(traj)
        if report.translation is None:
            continue
        lam_v = report.translation[:2]
        u_hat = u / np.linalg.norm(u)
        residual = float(np.linalg.norm(lam_v - (lam_v @ u_hat) * u_hat))
        assert residual <= 1e-12, (u.tolist(), ic.tolist(), residual)
        assert lambda_kernel_check(u, report.translation)


def test_criterion_07_h5_periodic_at_every_energy():
    """Certificates at all seven energies: exact energy, zero drift, closure."""
    start = time.monotonic()
    force = H5Force.from_rates(-1.0, 2.0)
    for energy in (0.1, 0.3, 0.5, 1.0, 2.0, 10.0, 100.0):
        cert = periodic_at_energy(force, energy)
        traj = solve_h5(force, cert.v0, cert.z0)
        assert abs(traj.energy() - energy) <= 1e-12, energy
        assert abs(traj.drift()) <= 1e-12, energy
        ok, residual = verify_periodic(traj, cert.period)
        assert ok and residual <= 1e-8, (energy, residual)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_08_special_functions():
    """Quarter period and Jacobi functions against their defining limits."""
    assert abs(complete_K(0.0) - math.pi / 2.0) <= 1e-14
    for k in (0.1, 0.5, 0.9):
        assert abs(cn(complete_K(k), k)) <= 1e-12
    for u in np.linspace(-5.0, 5.0, 41):
        assert abs(cn(u, 0.0) - math.cos(u)) <= 1e-13
        assert abs(cn(u, 1.0) - sech(u)) <= 1e-13
    for k in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(
                lambda th: 1.0 / math.sqrt(1.0 - (k * math.sin(th)) ** 2),
                0.0,
                math.pi / 2.0,
                epsabs=1e-14,
                epsrel=1e-14,
            )
        assert abs(complete_K(k) - val) <= 1e-12, k


def test_criterion_09_closedness_of_2forms():
    """All H3 basis 2-forms are exactly closed; the H5 v-z pairing is not."""
    alg3 = h3()
    for i in range(3):
        for j in range(i + 1, 3):
            m = np.zeros((3, 3))
            m[i, j], m[j, i] = 1.0, -1.0
            report = check_closed(alg3, LorentzForce(alg3, m))
            assert report.closed
            assert report.max_residual == 0.0
    alg5 = h5()
    m = np.zeros((5, 5))
    m[0, 4], m[4, 0] = 1.0, -1.0
    report = check_closed(alg5, LorentzForce(alg5, m))
    assert not report.closed
    assert report.max_residual > 0.0
    assert report.worst_triple == (0, 2, 3)


def test_criterion_10_structural_selftest(capsys):
    """The full structural identity suite passes in well under a minute."""
    start = time.monotonic()
    code = cli_main(["selftest"])
    elapsed = time.monotonic() - start
    out = capsys.readouterr().out
    assert code == 0
    passes = [line for line in out.splitlines() if line.startswith("PASS")]
    assert len(passes) >= 7
    assert "FAIL" not in out
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
