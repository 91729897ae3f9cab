"""The four workloads: inputs made from the seed, timed operations, untimed checks.

A workload is a list of rounds; every round runs the same operation kinds in
the same order, so a run always attempts whole rounds and a failing kind is
the same share of every run.  Inputs are drawn from the seed only.  Random
type-I forces are redrawn until the rotation rates of J = j(Z0) + q F_v
(and of the flat block) are at least 0.05 apart and away from 0: generic
cases must never fail by chance, and the near-degenerate regime is covered
on purpose by the fixed `degenerate_h2` reproducer and the `control_h2`
case in `type1-sweep`.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np
from scipy.special import ellipk

import checks as ck
from nilmag import (
    H5Force,
    InitialCondition,
    LorentzForce,
    MetricNilAlgebra,
    check_closed,
    exactness_test,
    lambda_kernel_check,
    lambda_periodicity,
    periodic_at_energy,
    solve_exact,
    solve_h5,
    solve_type1,
    solve_type2_general,
    verify_periodic,
)
from nilmag.oracle import IntegratorConfig, reconstruct_group

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".bench_tmp")
ORACLE = IntegratorConfig(tolerance=1e-11)
# Near the sech separatrices the 1e-11 oracle drifts by up to 1e-6 over 12
# canonical time units, as far as the check's own tolerance; the H3
# references therefore run at 1e-13, where that drift is 1e-8.
ORACLE_H3 = IntegratorConfig(tolerance=1e-13)
ROT = np.array([[0.0, -1.0], [1.0, 0.0]])
RATE_FLOOR = 0.05

# type1-dense: one force per preset, grid length per preset, horizon
DENSE_PRESETS = {
    "heisenberg1": ("heisenberg", 1, 501),
    "heisenberg2": ("heisenberg", 2, 501),
    "quaternionic1": ("quaternionic", 1, 501),
    "heisenberg8": ("heisenberg", 8, 101),
    "quaternionic4": ("quaternionic", 4, 101),
}
DENSE_T = 10.0

# type1-sweep: distinct input variants cycled by round, sample times
SWEEP_VARIANTS = 8
SWEEP_TIMES = np.linspace(0.0, 10.0, 6)
DEGENERATE = "degenerate_h2"

# h3-elliptic: branch mix of one round (ops per branch), samples per op, periods spanned
H3_MIX = {"cn": 6, "dn+": 4, "dn-": 4, "sech+": 2, "sech-": 2, "linear": 2}
H3_POINTS = 41
H3_PERIODS = 3.5
H3_FREE_T = 12.0  # canonical horizon of the branches without a period

# cli-cold: trajectory horizon and samples; H3 scenarios use the middle third
# of the modulus and angle ranges, and the H3 trajectory spans CLI_H3_PERIODS
# velocity periods (a fixed horizon would cover 0.3 to 1 period, and the
# cost grows with it), so their cost varies little between seeds
CLI_T, CLI_SAMPLES = 4.0, 401
CLI_H3_PERIODS = 1.5
MID_STRATUM = (1, 3)
# classify_inline: fixed inputs, the same for every seed.  With a generic
# metric the sampling classifier answers "nonsingular" where the algebra is
# almost nonsingular, so this op fails on every run until that is fixed.
INLINE = "classify_inline"
INLINE_BETA = 0.9
INLINE_METRIC_SEED = 1


@dataclass
class Case:
    """One operation kind: run(tracer) is timed, check(output) is not."""

    name: str
    points: int
    run: Callable[[Any], Any]
    check: Callable[[Any], list]
    argv: list | None = None  # cli-cold: the nilmag arguments before --out


@dataclass
class Workload:
    name: str
    rounds: list  # round r runs rounds[r % len(rounds)], a list of Case
    known_faults: frozenset = frozenset()
    in_children: bool = False  # peak RSS is the largest child's


@dataclass
class Traj:
    """A sampled trajectory plus a sampler used only by the checks."""

    t: np.ndarray
    xi: np.ndarray
    vel: np.ndarray
    sampler: Callable = field(repr=False)
    info: dict = field(default_factory=dict)

    def digest(self) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        for a in (self.t, self.xi, self.vel):
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(repr(sorted(self.info.items())).encode())
        return h.digest()


def _traj(samples, sampler, **info) -> Traj:
    return Traj(samples.t, samples.xi, samples.velocity, sampler, info)


def _sampler(obj):
    def sample(ts):
        s = obj.sample(ts)
        return s.xi, s.velocity

    return sample


# -- input generation ----------------------------------------------------------


def sweep_structures(c) -> dict:
    """The sweep's from_structure algebras; c holds two bracket coefficients."""
    return {
        # [e1, e2] = e3 with e4, e5 flat
        "structure_5": (5, [(1, 2, 3, 1.0)]),
        # v = e1..e4, commutators e5, e6, flat e7, e8
        "structure_8": (8, [(1, 2, 5, 1.0), (3, 4, 5, c[0]), (1, 3, 6, 1.0), (2, 4, 6, c[1])]),
    }


def inline_brackets(beta) -> list:
    """cli-cold's inline algebra: a 3-dim center, Pf j(a, b, c) = beta a b, so "almost"."""
    return [[1, 2, 5, 1.0], [3, 4, 6, beta], [1, 3, 7, 1.0]]


def build_algebra(spec) -> MetricNilAlgebra:
    """spec is ("heisenberg" | "quaternionic", n) or (dim, brackets, metric)."""
    if spec[0] == "heisenberg":
        return MetricNilAlgebra.heisenberg(spec[1])
    if spec[0] == "quaternionic":
        return MetricNilAlgebra.quaternionic(spec[1])
    dim, brackets, metric = spec
    return MetricNilAlgebra.from_structure(dim, brackets, metric=metric)


def j_of(structure, dv: int, z) -> np.ndarray:
    """j(Z) on v from <j(Z) V, W> = <Z, [V, W]>."""
    return np.einsum("abk,k->ba", structure[:dv, :dv, dv:], np.asarray(z, float))


def flat_basis(structure, dv: int) -> np.ndarray:
    """Rows spanning the central directions orthogonal to every bracket."""
    dz = structure.shape[0] - dv
    images = structure[:dv, :dv, dv:].reshape(-1, dz)
    _, s, vh = np.linalg.svd(images)
    return vh[int(np.sum(s > 1e-10 * s[0])) :]


def is_exact(structure, dv: int, m) -> bool:
    """Whether F = j(Z) (+) 0 for a central Z: least squares over the j-maps of a central basis."""
    dz = structure.shape[0] - dv
    basis = np.stack([j_of(structure, dv, e).ravel() for e in np.eye(dz)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, m[:dv, :dv].ravel(), rcond=None)
    fit = np.zeros_like(m)
    fit[:dv, :dv] = (basis @ coef).reshape(dv, dv)
    return bool(np.linalg.norm(m - fit) <= 1e-10 * max(1.0, float(np.linalg.norm(m))))


def pfaffian_form(structure, dv: int) -> np.ndarray:
    """Symmetric Q with Pf j(Z) = Z^T Q Z, for dim v = 4."""
    if dv != 4:
        raise ValueError("the Pfaffian form is written out for dim v = 4 only")
    c = structure[:4, :4, 4:]
    q = np.outer(c[0, 1], c[2, 3]) - np.outer(c[0, 2], c[1, 3]) + np.outer(c[0, 3], c[1, 2])
    return 0.5 * (q + q.T)


def singularity_kind(structure, dv: int) -> str:
    """Singularity class from Pf j(Z): zero everywhere is singular, definite
    is nonsingular, anything else (indefinite, or semi-definite with a
    kernel) is almost nonsingular."""
    w = np.linalg.eigvalsh(pfaffian_form(structure, dv))
    tol = 1e-10 * max(1.0, float(np.max(np.abs(w))))
    if np.all(np.abs(w) <= tol):
        return "singular"
    if np.all(w > tol) or np.all(w < -tol):
        return "nonsingular"
    return "almost"


def rotation_rates(skew) -> np.ndarray:
    """One rate per invariant plane of an even-dimensional skew matrix, ascending."""
    w = np.linalg.eigvalsh(-skew @ skew)
    return np.sqrt(np.clip(w, 0.0, None))[::2]


def _well_separated(rates) -> bool:
    return rates.min() >= RATE_FLOOR and np.all(np.diff(rates) >= RATE_FLOOR)


def _velocity(rng, dim):
    return 0.8 * rng.standard_normal(dim)


def _charge(rng):
    return float(rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0]))


def closed_type1(rng, alg, x0, charge) -> np.ndarray:
    """Random closed type-I force (skew on v and on the flat directions)."""
    s, dv = alg.structure, alg.dim_v
    flat = flat_basis(s, dv)
    jz = j_of(s, dv, x0[dv:])
    while True:
        a = rng.standard_normal((dv, dv))
        m = np.zeros((alg.dim, alg.dim))
        m[:dv, :dv] = 0.5 * (a - a.T)
        ok = _well_separated(rotation_rates(jz + charge * m[:dv, :dv]))
        if flat.shape[0] >= 2:
            b = rng.standard_normal((flat.shape[0],) * 2)
            b = 0.5 * (b - b.T)
            m[dv:, dv:] = flat.T @ b @ flat
            ok = ok and _well_separated(rotation_rates(charge * b))
        if ok:
            return m


def random_metric(rng, dim) -> np.ndarray:
    a = 0.3 * rng.standard_normal((dim, dim))
    g = np.eye(dim) + a @ a.T
    return 0.5 * (g + g.T)


def h3_input(rng, branch, stratum=(0, 1)):
    """(u, charge, x0, period) of an H3 direction force on the requested branch.

    The canonical velocity (x, y, z) is drawn on the branch with modulus k and
    S = |(x, y + 1)| chosen first, then carried to a random (u, charge) frame.
    period is the velocity period in outer time (None without one).  With
    stratum = (j, n), k and the angle of (x, y + 1) are drawn from the j-th
    of n equal slices of their ranges, so n cases of a branch cover the
    ranges evenly and their summed cost varies little between seeds.
    """
    j, n = stratum

    def sliced(lo, hi):
        return lo + (hi - lo) * (j + rng.uniform()) / n

    if branch == "linear":
        u = np.array([0.0, rng.uniform(0.6, 1.4)])  # axis-aligned: x stays exactly 0
        charge = float(rng.uniform(0.6, 1.4))
        return u, charge, np.array([0.0, rng.uniform(-1.0, 1.0), 0.0]), None
    s_norm = rng.uniform(0.8, 1.5)
    k = sliced(0.35, 0.75)
    frac = sliced(0.2, 0.8)
    sx = rng.choice([-1.0, 1.0])
    if branch == "cn":
        theta = frac * math.acos(1.0 - 2.0 * k * k)
        y1 = s_norm * math.cos(theta)
        z = math.sqrt(4.0 * s_norm * k * k - 2.0 * s_norm + 2.0 * y1) * rng.choice([-1.0, 1.0])
        period = 4.0 * ellipk(k * k) / math.sqrt(s_norm)
    elif branch in ("dn+", "dn-"):
        theta = frac * math.pi
        y1 = s_norm * math.cos(theta)
        a = 2.0 * math.sqrt(s_norm) / k
        z = math.sqrt(a * a - 2.0 * s_norm + 2.0 * y1) * (1.0 if branch == "dn+" else -1.0)
        period = 4.0 * ellipk(k * k) / a
    else:
        theta = frac * 0.85 * math.pi
        y1 = s_norm * math.cos(theta)
        z = math.sqrt(2.0 * s_norm + 2.0 * y1) * (1.0 if branch == "sech+" else -1.0)
        period = None
    inner = np.array([sx * s_norm * math.sin(theta), y1 - 1.0, z])
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    u = rng.uniform(0.6, 1.4) * np.array([math.cos(alpha), math.sin(alpha)])
    charge = _charge(rng)
    w = charge * u
    rho = float(np.linalg.norm(w))
    wh = w / rho
    rot = np.array([[wh[1], -wh[0]], [wh[0], wh[1]]])
    x0 = np.empty(3)
    x0[:2] = rho * (rot.T @ inner[:2])
    x0[2] = rho * inner[2]
    return u, charge, x0, None if period is None else float(period) / rho


def type2_matrix(u) -> np.ndarray:
    """F(V + Z) = [V, u] + j(Z) u on heisenberg(1)."""
    m = np.zeros((3, 3))
    m[0, 2], m[1, 2], m[2, 0], m[2, 1] = -u[1], u[0], u[1], -u[0]
    return m


def h5_matrix(mu1, mu2) -> np.ndarray:
    m = np.zeros((5, 5))
    m[0:2, 0:2] = min(mu1, mu2) * ROT
    m[2:4, 2:4] = max(mu1, mu2) * ROT
    return m


# -- shared checks ---------------------------------------------------------------


def _oracle(alg, m, charge, x0, ts, config=ORACLE):
    return functools.cache(lambda: reconstruct_group(alg, m, charge, x0, np.asarray(ts), config))


def check_traj(out: Traj, structure, ref=None, h3=None) -> list:
    """Origin, conserved speed, the reconstruction identity and, when given,
    the oracle curve and the H3 conservation law (h3 = (u, charge))."""
    centers = float(out.t[-1]) * np.array([0.31, 0.62, 0.93])
    xi_s, vel_s = out.sampler(ck.stencil_times(centers))
    dim = out.xi.shape[1]
    res = {
        "origin": (ck.origin_residual(out.xi), ck.TOL_ORIGIN),
        "speed": (ck.speed_residual(out.vel), ck.TOL_SPEED),
        "reconstruction": (
            ck.reconstruction_residual(
                structure, xi_s.reshape(-1, 5, dim), vel_s.reshape(-1, 5, dim)[:, 2], ck.FD_STEP
            ),
            ck.TOL_FD,
        ),
    }
    if ref is not None:
        r = ref()
        res["oracle"] = (ck.oracle_residual(out.xi, out.vel, r.xi, r.velocity), ck.TOL_ORACLE)
    if h3 is not None:
        res["h3_law"] = (ck.h3_law_residual(h3[0], h3[1], out.vel), ck.TOL_H3_LAW)
    return ck.verdicts(**res)


def _expect(**pairs) -> list:
    return [f"{k}: got {got!r}, expected {want!r}" for k, (got, want) in pairs.items() if got != want]


# -- type1-dense -------------------------------------------------------------------


def make_dense(rng, tmp) -> Workload:
    cases = []
    for label, (family, n, points) in DENSE_PRESETS.items():
        alg = build_algebra((family, n))
        x0, charge = _velocity(rng, alg.dim), _charge(rng)
        m = closed_type1(rng, alg, x0, charge)
        ts = np.linspace(0.0, DENSE_T, points)
        cases.append(_dense_case(label, (family, n), m, x0, charge, ts))
    return Workload("type1-dense", [cases])


def _dense_case(name, spec, m, x0, charge, ts) -> Case:
    base = build_algebra(spec)
    ref = _oracle(base, m, charge, x0, ts)

    def run(tr):
        # fresh algebra, force, initial condition and grid: no object is reused across ops
        with tr.span("algebra.construct"):
            alg = build_algebra(spec)
        with tr.span("lorentz.LorentzForce"):
            force = LorentzForce(alg, m.copy())
        ic = InitialCondition.from_velocity(alg, x0.copy(), charge)
        with tr.span("closedform.solve_type1"):
            sol = solve_type1(alg, force, ic)
        with tr.span("closedform.sample"):
            return _traj(sol.sample(ts.copy()), _sampler(sol))

    return Case(name, len(ts), run, lambda out: check_traj(out, base.structure, ref))


# -- type1-sweep -------------------------------------------------------------------


def make_sweep(rng, tmp) -> Workload:
    rounds = [_sweep_round(rng, v == 0) for v in range(SWEEP_VARIANTS)]
    return Workload("type1-sweep", rounds, known_faults=frozenset({DEGENERATE}))


def _sweep_round(rng, oracle_all: bool) -> list:
    cases = []
    presets = {"preset_h1": ("heisenberg", 1), "preset_h2": ("heisenberg", 2),
               "preset_q1": ("quaternionic", 1)}
    for name, spec in presets.items():
        alg = build_algebra(spec)
        x0, charge = _velocity(rng, alg.dim), _charge(rng)
        cases.append(_type1_case(name, spec, closed_type1(rng, alg, x0, charge), x0, charge, oracle_all))
    for name, (dim, brackets) in sweep_structures(rng.uniform(0.5, 1.5, size=2)).items():
        spec = (dim, brackets, random_metric(rng, dim))
        alg = build_algebra(spec)
        x0, charge = _velocity(rng, alg.dim), _charge(rng)
        cases.append(_type1_case(name, spec, closed_type1(rng, alg, x0, charge), x0, charge, oracle_all))
    cases.append(_exact_case(rng, oracle_all))
    mu1, mu2 = rng.uniform(-1.5, -0.5), rng.uniform(1.5, 2.5)
    cases.append(_h5_case("h5_single", mu1, mu2, rng.uniform(0.2, 0.8)))
    cases.append(_h5_case("h5_two", mu1, mu2, rng.uniform(3.0, 10.0)))
    # fixed inputs that differ only in the rotation rate of J: 1e-3 is accurate
    # today; at 1e-8 the J^{-1}/J^{-2} terms cancel and position(0) is off by 0.125
    x0 = np.array([0.7, -0.3, 0.5, 0.9, 0.5])
    cases.append(_type1_case("control_h2", ("heisenberg", 2), _rates_h2(0.5 - 1e-3), x0, 1.0, True))
    cases.append(_type1_case(DEGENERATE, ("heisenberg", 2), _rates_h2(0.5 - 1e-8), x0, 1.0, True))
    return cases


def _rates_h2(r1) -> np.ndarray:
    m = np.zeros((5, 5))
    m[0:2, 0:2] = -r1 * ROT
    m[2:4, 2:4] = 2.0 * ROT
    return m


def _classify(tr, alg, force):
    with tr.span("lorentz.force_type"):
        ftype = force.force_type().value
    with tr.span("lorentz.check_closed"):
        closed = check_closed(alg, force).closed
    with tr.span("lorentz.exactness_test"):
        ex = exactness_test(alg, force)
    return {"type": ftype, "closed": closed, "exact": ex.is_exact}, ex


def _type1_case(name, spec, m, x0, charge, with_oracle) -> Case:
    base = build_algebra(spec)

    def run(tr):
        with tr.span("algebra.construct"):
            alg = build_algebra(spec)
        with tr.span("lorentz.LorentzForce"):
            force = LorentzForce(alg, m)
        info, _ = _classify(tr, alg, force)
        with tr.span("closedform.solve_type1"):
            sol = solve_type1(alg, force, InitialCondition.from_velocity(alg, x0, charge))
        with tr.span("closedform.sample"):
            return _traj(sol.sample(SWEEP_TIMES), _sampler(sol), **info)

    ref = _oracle(base, m, charge, x0, SWEEP_TIMES) if with_oracle else None

    want = {"type": "type_I", "closed": True, "exact": is_exact(base.structure, base.dim_v, m)}

    def check(out):
        return _expect(info=(out.info, want)) + check_traj(out, base.structure, ref)

    return Case(name, len(SWEEP_TIMES), run, check)


def _exact_case(rng, with_oracle) -> Case:
    spec = ("quaternionic", 1)
    base = build_algebra(spec)
    z_tilde = rng.uniform(0.3, 1.5, size=3) * rng.choice([-1.0, 1.0], size=3)
    m = np.zeros((base.dim, base.dim))
    m[:4, :4] = j_of(base.structure, 4, z_tilde)
    x0, charge = _velocity(rng, base.dim), _charge(rng)
    ref = _oracle(base, m, charge, x0, SWEEP_TIMES) if with_oracle else None

    def run(tr):
        with tr.span("algebra.construct"):
            alg = build_algebra(spec)
        with tr.span("lorentz.LorentzForce"):
            force = LorentzForce(alg, m)
        info, ex = _classify(tr, alg, force)
        info["z_tilde_error"] = float(np.max(np.abs(ex.z_tilde[4:] - z_tilde)))
        with tr.span("closedform.solve_exact"):
            sol = solve_exact(alg, force, InitialCondition.from_velocity(alg, x0, charge)).solution
        with tr.span("closedform.sample"):
            return _traj(sol.sample(SWEEP_TIMES), _sampler(sol), **info)

    def check(out):
        info = dict(out.info)
        err = info.pop("z_tilde_error")
        msgs = _expect(info=(info, {"type": "type_I", "closed": True, "exact": True}))
        return msgs + ck.verdicts(z_tilde=(err, 1e-9)) + check_traj(out, base.structure, ref)

    return Case("exact_q1", len(SWEEP_TIMES), run, check)


def _h5_case(name, mu1, mu2, energy) -> Case:
    base = build_algebra(("heisenberg", 2))
    m = h5_matrix(mu1, mu2)

    def run(tr):
        with tr.span("algebra.construct"):
            alg = build_algebra(("heisenberg", 2))
        with tr.span("h5_type1.H5Force"):
            h5f = H5Force.from_rates(mu1, mu2)
        with tr.span("lorentz.LorentzForce"):
            force = LorentzForce(alg, h5f.matrix)
        info, _ = _classify(tr, alg, force)
        with tr.span("h5_type1.periodic_at_energy"):
            cert = periodic_at_energy(h5f, energy)
        with tr.span("h5_type1.solve_h5"):
            traj = solve_h5(h5f, cert.v0, cert.z0)
        with tr.span("h5_type1.verify_periodic"):
            ok, _res = verify_periodic(traj, cert.period)
        ts = np.linspace(0.0, cert.period, len(SWEEP_TIMES))
        with tr.span("h5_type1.sample"):
            samples = traj.sample(ts)
        return _traj(samples, _sampler(traj), **info, verified=bool(ok), v0=tuple(cert.v0),
                     z0=cert.z0, period=cert.period)

    def check(out):
        info = out.info
        ref = _oracle(base, m, 1.0, np.concatenate([info["v0"], [info["z0"]]]), out.t)
        got = {k: info[k] for k in ("type", "closed", "exact", "verified")}
        msgs = _expect(info=(got, {"type": "type_I", "closed": True, "exact": False, "verified": True}))
        msgs += ck.verdicts(
            energy=(ck.energy_residual(info["v0"], info["z0"], energy), ck.TOL_ENERGY),
            closure=(ck.closure_residual(ref().xi), ck.TOL_CLOSURE),
        )
        return msgs + check_traj(out, base.structure, ref)

    return Case(name, len(SWEEP_TIMES), run, check)


# -- h3-elliptic -------------------------------------------------------------------


def make_h3(rng, tmp) -> Workload:
    cases = [_h3_case(rng, b, j, n) for b, n in H3_MIX.items() for j in range(n)]
    return Workload("h3-elliptic", [cases])


_BRANCH_VALUE = {"cn": "cn", "dn+": "dn", "dn-": "dn", "sech+": "sech+", "sech-": "sech-", "linear": "linear"}


def _h3_case(rng, branch, j, n) -> Case:
    u, charge, x0, period = h3_input(rng, branch, (j, n))
    rho = abs(charge) * float(np.linalg.norm(u))
    span = H3_PERIODS * period if period else H3_FREE_T / rho
    ts = np.linspace(0.0, span, H3_POINTS)
    alg = build_algebra(("heisenberg", 1))
    m = type2_matrix(u)
    ref = _oracle(alg, m, charge, x0, ts, ORACLE_H3)
    # the straight line's translation is taken at canonical time 1
    omega = period if period else (1.0 / rho if branch == "linear" else None)
    ref_omega = _oracle(alg, m, charge, x0, [0.0, omega], ORACLE_H3) if omega else None

    def run(tr):
        with tr.span("h3_type2.solve_type2_general"):
            traj = solve_type2_general(u, charge, x0)
        with tr.span("h3_type2.sample"):
            samples = traj.sample(ts)
        with tr.span("h3_type2.lambda_periodicity"):
            rep = lambda_periodicity(traj)
        kernel = None
        if rep.translation is not None:
            with tr.span("h3_type2.lambda_kernel_check"):
                kernel = lambda_kernel_check(u, rep.translation)
        lam = None if rep.translation is None else tuple(rep.translation)
        return _traj(samples, _sampler(traj), branch=traj.branch.value, kind=rep.kind.value,
                     omega=rep.omega, translation=lam, kernel=kernel)

    def check(out):
        info = out.info
        msgs = _expect(branch=(info["branch"], _BRANCH_VALUE[branch]))
        msgs += check_traj(out, alg.structure, ref, h3=(u, charge))
        if omega is None:
            return msgs + _expect(kind=(info["kind"], "non-periodic"))
        if info["translation"] is None:
            return msgs + [f"no translation for a periodic velocity ({info['kind']})"]
        lam = np.array(info["translation"])
        starts = ts[:5]
        xi_t, _ = out.sampler(starts)
        xi_tw, _ = out.sampler(starts + info["omega"])
        msgs += _expect(kernel=(info["kernel"], True))
        return msgs + ck.verdicts(
            omega=(abs(info["omega"] - omega) / omega, 1e-10),
            translation=(float(np.max(np.abs(lam - ref_omega().xi[-1]))) / max(1.0, abs(lam).max()),
                         ck.TOL_ORACLE),
            lambda_periodic=(ck.lambda_residual(alg.structure, lam, xi_t, xi_tw), ck.TOL_LAMBDA),
        )

    return Case(f"{branch}.{j}", H3_POINTS, run, check)


# -- cli-cold ----------------------------------------------------------------------


def make_cli(rng, tmp) -> Workload:
    t_grid = np.linspace(0.0, CLI_T, CLI_SAMPLES)
    time_spec = {"t_max": CLI_T, "samples": CLI_SAMPLES}
    cases = []

    def scenario(name, doc):
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    # trajectory, type I (csv)
    h2 = build_algebra(("heisenberg", 2))
    x0, charge = _velocity(rng, 5), _charge(rng)
    m = closed_type1(rng, h2, x0, charge)
    path = scenario("traj_type1", {"algebra": "heisenberg(2)", "force": {"matrix": m.tolist()},
                                   "charge": charge, "initial": {"velocity": x0.tolist()}, "time": time_spec})
    ref = _oracle(h2, m, charge, x0, t_grid)
    cases.append(_cli_case(tmp, "traj_type1", ["trajectory", "--scenario", path, "--format", "csv"],
                           _csv_check(h2, ref, "closed-form-type-1")))

    # trajectory, type II (json)
    h3 = build_algebra(("heisenberg", 1))
    u, charge, x0, period = h3_input(rng, "cn", MID_STRATUM)
    h3_t = CLI_H3_PERIODS * period
    path = scenario("traj_type2", {"algebra": "h3", "force": {"type2_U": u.tolist()}, "charge": charge,
                                   "initial": {"velocity": x0.tolist()},
                                   "time": {"t_max": h3_t, "samples": CLI_SAMPLES}})
    ref = _oracle(h3, type2_matrix(u), charge, x0, np.linspace(0.0, h3_t, CLI_SAMPLES), ORACLE_H3)
    cases.append(_cli_case(tmp, "traj_type2", ["trajectory", "--scenario", path],
                           _json_check(h3, ref, "closed-form-type-2", h3_law=(u, charge))))

    # trajectory, mixed force: oracle fallback (json)
    a = rng.standard_normal((3, 3))
    m = 0.5 * (a - a.T)
    x0, charge = _velocity(rng, 3), _charge(rng)
    path = scenario("traj_mixed", {"algebra": "heisenberg(1)", "force": {"matrix": m.tolist()},
                                   "charge": charge, "initial": {"velocity": x0.tolist()}, "time": time_spec})
    ref = _oracle(h3, m, charge, x0, t_grid)
    cases.append(_cli_case(tmp, "traj_mixed", ["trajectory", "--scenario", path],
                           _json_check(h3, ref, "oracle")))

    # trajectory --oracle, exact force on quaternionic(1) (csv)
    q1 = build_algebra(("quaternionic", 1))
    z_tilde = rng.uniform(0.3, 1.5, size=3) * rng.choice([-1.0, 1.0], size=3)
    m = np.zeros((7, 7))
    m[:4, :4] = j_of(q1.structure, 4, z_tilde)
    x0, charge = _velocity(rng, 7), _charge(rng)
    path = scenario("traj_oracle", {"algebra": "quaternionic(1)", "force": {"exact": {"Z": z_tilde.tolist()}},
                                    "charge": charge, "initial": {"velocity": x0.tolist()}, "time": time_spec})
    ref = _oracle(q1, m, charge, x0, t_grid)
    cases.append(_cli_case(tmp, "traj_oracle", ["trajectory", "--scenario", path, "--format", "csv", "--oracle"],
                           _csv_check(q1, ref, "closed-form-type-1", oracle_flag=True)))

    # classify, preset with a closed type-I force
    x0, charge = _velocity(rng, 7), 1.0
    m = closed_type1(rng, q1, x0, charge)
    path = scenario("classify_preset", {"algebra": "quaternionic(1)", "force": {"matrix": m.tolist()}})
    want = {"dim_z": 3, "commutator_dim": 3, "kernel_dim": 0, "singularity": singularity_kind(q1.structure, 4),
            "h_type": True}
    want_force = {"type": "type_I", "closed": _closed_residual(q1.structure, m) <= 1e-12,
                  "exact": is_exact(q1.structure, q1.dim_v, m)}
    cases.append(_cli_case(tmp, "classify_preset", ["classify", "--scenario", path],
                           _classify_check(want, want_force)))

    # classify, inline algebra with fixed inputs (see INLINE): Pf j(Z) vanishes
    # on two planes of the center, a set of measure zero
    brackets = inline_brackets(INLINE_BETA)
    metric = random_metric(np.random.default_rng(INLINE_METRIC_SEED), 7)
    path = scenario(INLINE, {"algebra": {"dim": 7, "brackets": brackets, "metric": metric.tolist()}})
    inline = build_algebra((7, brackets, metric))
    want = {"dim_z": 3, "commutator_dim": _rank_of_brackets(7, brackets), "kernel_dim": 0,
            "singularity": singularity_kind(inline.structure, inline.dim_v), "h_type": False}
    cases.append(_cli_case(tmp, INLINE, ["classify", "--scenario", path], _classify_check(want)))

    # periodicity, H3 dn branch
    u, charge, x0, period = h3_input(rng, "dn+", MID_STRATUM)
    path = scenario("periodicity_h3", {"algebra": "h3", "force": {"type2_U": u.tolist()}, "charge": charge,
                                       "initial": {"velocity": x0.tolist()}})
    ref = _oracle(h3, type2_matrix(u), charge, x0, np.linspace(0.0, 2.0 * period, 21), ORACLE_H3)
    cases.append(_cli_case(tmp, "periodicity_h3", ["periodicity", "--scenario", path],
                           _periodicity_check(h3.structure, ref, period)))

    # h5-periodic from rates and an energy
    mu1, mu2, energy = rng.uniform(-1.5, -0.5), rng.uniform(1.5, 2.5), rng.uniform(3.0, 10.0)
    argv = ["h5-periodic", "--rates", repr(mu1), repr(mu2), "--energy", repr(energy)]
    cases.append(_cli_case(tmp, "h5_periodic", argv, _h5_cli_check(h5_matrix(mu1, mu2), energy)))
    return Workload("cli-cold", [cases], known_faults=frozenset({INLINE}), in_children=True)


@dataclass
class CliOut:
    returncode: int
    out_dir: str
    stderr_path: str
    maxrss_kb: int

    def read_json(self, name):
        return load_json(os.path.join(self.out_dir, name))


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_case(tmp, name, argv, check) -> Case:
    counter = itertools.count()
    env = cli_env()

    def run(tr):
        out_dir = os.path.join(tmp, "out", f"{name}-{next(counter)}")
        err_path = out_dir + ".stderr"
        os.makedirs(os.path.dirname(out_dir), exist_ok=True)
        with open(err_path, "wb") as err, tr.span("cli.process"):
            proc = subprocess.Popen([sys.executable, "-m", "nilmag.cli", *argv, "--out", out_dir],
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=tmp, env=env)
            _pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliOut(proc.returncode, out_dir, err_path, usage.ru_maxrss)

    def checked(out):
        if out.returncode != 0:
            with open(out.stderr_path, encoding="utf-8", errors="replace") as fh:
                return [f"exit status {out.returncode}: {fh.read().strip()[-300:]}"]
        return check(out)

    points = CLI_SAMPLES if argv[0] == "trajectory" else 0
    return Case(name, points, run, checked, argv=list(argv))


def _fd_on_grid(structure, t, xi, vel) -> float:
    """Reconstruction identity on five-row windows of a uniform output grid."""
    idx = np.arange(2, len(t) - 2, 37)
    windows = np.stack([xi[i - 2 : i + 3] for i in idx])
    return ck.reconstruction_residual(structure, windows, vel[idx], float(t[1] - t[0]))


def _curve_verdicts(structure, t, xi, vel, speed, ref, h3_law=None) -> list:
    r = ref()
    res = {
        "grid": (float(np.max(np.abs(t - r.t))), 0.0),
        "oracle": (ck.oracle_residual(xi, vel, r.xi, r.velocity), ck.TOL_ORACLE),
        "origin": (ck.origin_residual(xi), ck.TOL_ORIGIN),
        "speed": (ck.speed_residual(speed[:, None]), ck.TOL_SPEED),
        "reconstruction": (_fd_on_grid(structure, t, xi, vel), ck.TOL_FD),
    }
    if h3_law is not None:
        res["h3_law"] = (ck.h3_law_residual(h3_law[0], h3_law[1], vel), ck.TOL_H3_LAW)
    return ck.verdicts(**res)


def _csv_check(alg, ref, solver, oracle_flag=False):
    def check(out):
        table = np.loadtxt(os.path.join(out.out_dir, "trajectory.csv"), delimiter=",", skiprows=1, ndmin=2)
        meta = out.read_json("metadata.json")
        msgs = _expect(solver=(meta.get("solver"), solver))
        if oracle_flag:
            msgs += _expect(oracle_passed=(meta.get("oracle", {}).get("passed"), True))
        t, xi, speed = table[:, 0], table[:, 1:-1], table[:, -1]
        # the csv holds no velocity: positions are checked against the oracle's
        vel = ref().velocity
        msgs += ck.verdicts(speed_column=(float(np.max(np.abs(speed - np.linalg.norm(vel, axis=1)))), 1e-9))
        return msgs + _curve_verdicts(alg.structure, t, xi, vel, speed, ref)

    return check


def _json_check(alg, ref, solver, h3_law=None):
    def check(out):
        doc = out.read_json("trajectory.json")
        s = doc["samples"]
        msgs = _expect(solver=(doc["metadata"].get("solver"), solver))
        t, xi, vel = np.array(s["t"]), np.array(s["position"]), np.array(s["velocity"])
        return msgs + _curve_verdicts(alg.structure, t, xi, vel, np.array(s["speed"]), ref, h3_law)

    return check


def _rank_of_brackets(dim, brackets) -> int:
    c = np.zeros((dim, dim, dim))
    for i, j, k, v in brackets:
        c[i - 1, j - 1, k - 1], c[j - 1, i - 1, k - 1] = v, -v
    return int(np.linalg.matrix_rank(c.reshape(dim * dim, dim)))


def _closed_residual(structure, m) -> float:
    """Largest |d omega(e_i, e_j, e_k)| with omega(x, y) = <F x, y>."""
    t = np.einsum("ijm,km->ijk", structure, m)
    return float(np.max(np.abs(t + t.transpose(1, 2, 0) + t.transpose(2, 0, 1))))


def _classify_check(want, want_force=None):
    def check(out):
        doc = out.read_json("classify.json")
        alg = doc["algebra"]
        msgs = _expect(**{k: (alg.get(k), v) for k, v in want.items()})
        if want_force is not None:
            msgs += _expect(**{k: (doc["force"].get(k), v) for k, v in want_force.items()})
        return msgs

    return check


def _periodicity_check(structure, ref, period):
    def check(out):
        doc = out.read_json("periodicity.json")
        msgs = _expect(branch=(doc.get("branch"), "Dn"), kernel=(doc.get("translation_in_force_kernel"), True))
        if doc.get("translation") is None:
            return msgs + [f"no translation ({doc.get('kind')})"]
        lam = np.array(doc["translation"])
        r = ref().xi  # 21 samples on [0, 2 omega]: r[i + 10] is r[i] one period later
        return msgs + ck.verdicts(
            omega=(abs(doc["omega"] - period) / period, 1e-10),
            translation=(float(np.max(np.abs(lam - r[10]))) / max(1.0, abs(lam).max()), ck.TOL_ORACLE),
            lambda_periodic=(ck.lambda_residual(structure, lam, r[:11], r[10:]), ck.TOL_ORACLE),
            residual=(doc["residual"], 1e-9),
        )

    return check


def _h5_cli_check(m, energy):
    h5 = build_algebra(("heisenberg", 2))

    def check(out):
        doc = out.read_json("h5_certificate.json")
        x0 = np.concatenate([doc["v0"], [doc["z0"]]])
        ref = reconstruct_group(h5, m, 1.0, x0, np.linspace(0.0, doc["period"], 21), ORACLE)
        return _expect(verified=(doc["verify"]["ok"], True)) + ck.verdicts(
            energy=(ck.energy_residual(doc["v0"], doc["z0"], energy), ck.TOL_ENERGY),
            closure=(ck.closure_residual(ref.xi), ck.TOL_CLOSURE),
        )

    return check


MAKERS = {
    "type1-dense": make_dense,
    "type1-sweep": make_sweep,
    "h3-elliptic": make_h3,
    "cli-cold": make_cli,
}


def make(name: str, seed: int, tmp: str) -> Workload:
    index = list(MAKERS).index(name)
    return MAKERS[name](np.random.default_rng([seed, index]), tmp)
