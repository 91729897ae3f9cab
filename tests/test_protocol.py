"""The trajectory protocol shared by every solver, and the package's exported names."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import nilmag
from nilmag import h3_type2
from nilmag.algebra import MetricNilAlgebra
from nilmag.closedform import InitialCondition, TypeISolution, solve_type1
from nilmag.errors import InputError, InvalidForceError
from nilmag.h3_type2 import Type2TrajectoryH3, solve_type2_general
from nilmag.h5_type1 import H5Force, periodic_at_energy, solve_h5, verify_periodic
from nilmag.lorentz import LorentzForce, random_closed_type1, solve, type2_from_vector
from nilmag.oracle import OracleTrajectory
from nilmag.samples import lambda_periodicity
from test_imports import FLAT_COUPLED, MIXED


def _type1():
    alg = MetricNilAlgebra.quaternionic(1)
    rng = np.random.default_rng(5)
    ic = InitialCondition(v0=rng.standard_normal(4), z0=rng.standard_normal(3), charge=0.8)
    return solve_type1(alg, random_closed_type1(alg, rng), ic), alg.dim


def _solve_type1():
    alg = MetricNilAlgebra.quaternionic(1)
    rng = np.random.default_rng(5)
    return solve(alg, random_closed_type1(alg, rng), 0.8, rng.standard_normal(7)), alg.dim


def _solve(alg, force, charge, x0):
    return solve(alg, force, charge, x0), alg.dim


H3 = MetricNilAlgebra.heisenberg(1)
SOLVERS = {
    "type1": _type1,
    "solve_type1": _solve_type1,
    "solve_h3_cn": lambda: _solve(H3, type2_from_vector(H3, [1.5, -2.0]), 0.7, [1.3, -0.4, 0.8]),
    "solve_oracle": lambda: _solve(H3, MIXED["force"]["matrix"], MIXED["charge"], MIXED["initial"]["velocity"]),
    "h5": lambda: (solve_h5(H5Force.from_rates(-1.3, 0.7), [0.9, -0.4, 0.6, 0.2], 0.8, 1.1), 5),
    "h3_cn": lambda: (Type2TrajectoryH3((1.3, -0.4, 0.8)), 3),
    "h3_sech": lambda: (Type2TrajectoryH3((0.0, 0.0, 2.0)), 3),
    "h3_general": lambda: (solve_type2_general([1.5, -2.0], 0.7, [0.9, -0.3, 1.1]), 3),
}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_sample_is_the_evaluation_primitive(name):
    """An empty grid gives (0, dim) arrays; position, velocity and eval are
    rows of sample."""
    traj, dim = SOLVERS[name]()
    empty = traj.sample(np.array([]))
    assert empty.t.shape == (0,)
    assert empty.xi.shape == empty.velocity.shape == (0, dim)
    for t in (0.0, 0.7, 3.9):
        one = traj.sample(np.array([t]))
        np.testing.assert_array_equal(traj.position(t), one.xi[0])
        np.testing.assert_array_equal(traj.velocity(t), one.velocity[0])
        xi, vel = traj.eval(t)
        np.testing.assert_array_equal(xi, traj.position(t))
        np.testing.assert_array_equal(vel, traj.velocity(t))


def test_solve_picks_the_solver_by_force_type_and_structure():
    """solve returns a closed form where one covers the force on this very
    structure tensor, else the oracle; each object names its solver."""
    rng = np.random.default_rng(3)
    q1 = MetricNilAlgebra.quaternionic(1)
    scaled_h3 = MetricNilAlgebra.from_structure(3, [(1, 2, 3, 2.0)])
    h3_r = MetricNilAlgebra.from_structure(4, [(1, 2, 3, 1.0)])
    u, x0 = np.array([0.3, 1.0]), np.array([0.7, -0.4, 0.3])
    cases = [
        (q1, random_closed_type1(q1, rng), rng.standard_normal(7), TypeISolution, "closed-form-type-1"),
        (H3, type2_from_vector(H3, u), x0, Type2TrajectoryH3, "closed-form-type-2"),
        (scaled_h3, type2_from_vector(scaled_h3, u), x0, OracleTrajectory, "oracle"),
        (H3, MIXED["force"]["matrix"], x0, OracleTrajectory, "oracle"),
        # mixed, but 0 on [n, n]: the linear closed form
        (h3_r, FLAT_COUPLED["force"]["matrix"], [0.4, -0.2, 0.7, 0.5], TypeISolution, "closed-form-type-1"),
    ]
    for alg, force, start, cls, solver in cases:
        traj = solve(alg, force, 1.3, start)
        assert type(traj) is cls and traj.solver == solver
    # a force built on another structure is rejected, not reinterpreted
    with pytest.raises(InvalidForceError, match="different structure"):
        solve(H3, LorentzForce(scaled_h3, type2_from_vector(scaled_h3, u).matrix), 1.3, x0)
    # on H3 the front door is the general-direction solver, bit for bit
    ts = np.linspace(0.0, 9.0, 37)
    got = solve(H3, type2_from_vector(H3, u), -1.3, x0).sample(ts)
    want = solve_type2_general(u, -1.3, x0).sample(ts)
    assert got.xi.tobytes() == want.xi.tobytes()
    assert got.velocity.tobytes() == want.velocity.tobytes()


@pytest.mark.parametrize("route", ["type1", "h3", "oracle"])
@pytest.mark.parametrize("charge, x0", [
    (1.3, [0.4, -0.2]), (1.3, [0.4, np.nan, 0.7]), (np.nan, [0.4, -0.2, 0.7]), (np.inf, [0.4, -0.2, 0.7])])
def test_solve_rejects_bad_initial_data_on_every_route(route, charge, x0):
    """A short or non-finite x0 and a non-finite charge raise ValueError from
    solve itself on each route, not in a later sample, and with no warning
    first (on H3, u = e2 would give inf * 0 in charge * u)."""
    force = {"type1": np.zeros((3, 3)), "h3": type2_from_vector(H3, [0.0, 1.0]), "oracle": MIXED["force"]["matrix"]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            solve(H3, force[route], charge, x0)


@pytest.mark.parametrize("route", ["type1", "h3"])
@pytest.mark.parametrize("z0", [1e150, 1e155])
def test_solve_answers_or_refuses_a_huge_initial_velocity_on_every_closed_form(route, z0):
    """A huge central velocity gets an answer or an InputError from solve itself,
    never a zero curve, an OverflowError or a warning.  Along the centre the
    linear closed form's tables hold x0 alone, so it answers the straight line
    t x0, and refuses an x0 whose norm overflows; the H3 position table
    holds the cube of the amplitude |z0|, so it refuses."""
    force = {"type1": np.pad(H3.j_map([0.7]), (0, 1)), "h3": type2_from_vector(H3, [0.6, -0.8])}
    x0, ts = np.array([0.0, 0.0, z0]), np.linspace(0.0, 2.0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if route == "h3":
            with pytest.raises(InputError, match="out of the H3 closed form's range"):
                solve(H3, force[route], 1.0, x0)
        else:
            got = solve(H3, force[route], 1.0, x0).sample(ts)
            assert np.array_equal(got.xi, ts[:, None] * x0) and np.array_equal(got.velocity, np.tile(x0, (5, 1)))
            with pytest.raises(InputError, match="norm overflows"):  # |x0| past the float range
                solve(H3, force[route], 1.0, [1.5e308, 1.5e308, 0.0])


@pytest.mark.parametrize("x0", [(1e308, 1e308, 0.0), (-1e308, 1e308, 5.0), (1e308, 0.0, 0.0), (0.0, -1e308, 0.0)])
def test_h3_refuses_a_huge_planar_velocity(x0):
    """A planar velocity near the float range gets an InputError from solve on
    H3 (u = e2), with no warning: at (1e308, 1e308, 0) the root of S + |y0 + 1|
    overflowed and construction divided by zero, and at (1e308, 0, 0) the
    position table overflowed with warnings before it was refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError, match="out of the H3 closed form's range"):
            solve(H3, type2_from_vector(H3, [0.0, 1.0]), 1.0, x0)


class CountingTrajectory:
    """Forwards sample and position to a trajectory and records each call;
    velocity_period, alg and rates, which evaluate nothing, pass through."""

    def __init__(self, traj):
        self.traj = traj
        self.calls = []
        self.velocity_period, self.alg = traj.velocity_period, traj.alg
        self.rates = getattr(traj, "rates", None)

    def sample(self, ts):
        self.calls.append("sample")
        return self.traj.sample(ts)

    def position(self, t):
        self.calls.append("position")
        return self.traj.position(t)


def _h5_verifier():
    force = H5Force.from_rates(-1.0, 2.0)
    cert = periodic_at_energy(force, 2.0)
    return solve_h5(force, cert.v0, cert.z0), lambda traj: verify_periodic(traj, cert.period)[1]


def _translation_verifier(traj):
    return traj, lambda t: lambda_periodicity(t).residual


# a type-I curve with commensurate rates 1 and 3
TYPE1_H5 = (MetricNilAlgebra.heisenberg(2), H5Force.from_rates(1.0, 3.0).matrix, [0.3, 0.2, -0.4, 0.1, 0.0])

# verifier -> (trajectory and check, sample calls): every check is the translation
# check of lambda_periodicity, which samples omega and [ts, ts + omega] as one grid
VERIFIERS = {
    "verify_periodic": (_h5_verifier, 1),
    "translation_h3_cn": (lambda: _translation_verifier(SOLVERS["h3_cn"]()[0]), 1),
    "translation_h3_general": (lambda: _translation_verifier(SOLVERS["h3_general"]()[0]), 1),
    "translation_type1": (lambda: _translation_verifier(solve(*TYPE1_H5[:2], 1.0, TYPE1_H5[2])), 1),
}


@pytest.mark.parametrize("name", sorted(VERIFIERS))
def test_verifiers_sample_each_grid_once(name):
    """Each periodicity verifier makes one sample call per grid and no scalar calls."""
    make, grids = VERIFIERS[name]
    traj, verify = make()
    counting = CountingTrajectory(traj)
    assert verify(counting) < 1e-8
    assert counting.calls == ["sample"] * grids


def test_exported_names_resolve():
    """Every name in the package's and each module's __all__ exists, and the
    lazy package namespace lists, binds and rejects names like an eager one."""
    for name in nilmag.__all__:
        assert hasattr(nilmag, name), name
    assert set(nilmag.__all__) <= set(dir(nilmag))
    namespace: dict = {}
    exec("from nilmag import *", namespace)
    assert set(nilmag.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        nilmag.no_such_name  # noqa: B018
    # a submodule resolves as an attribute in an interpreter that has not imported it
    code = "import nilmag, sys; assert 'nilmag.oracle' not in sys.modules; print(nilmag.oracle.__name__)"
    src = str(Path(nilmag.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True, timeout=120)
    assert res.stdout.strip() == "nilmag.oracle"
    for info in pkgutil.iter_modules(nilmag.__path__):
        module = importlib.import_module(f"nilmag.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"nilmag.{info.name}.{name}"


def _resolves(module: str, name: str) -> bool:
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_imports_resolve():
    """Every `from nilmag... import name` in benchmarks/*.py names something
    that exists; the suite does not run the benchmark, so a removed public
    name would otherwise break it unnoticed.  The files are only parsed."""
    files = sorted((Path(__file__).resolve().parents[1] / "benchmarks").glob("*.py"))
    assert files
    imported = [
        (node.module, alias.name, path.name)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nilmag"
        for alias in node.names
    ]
    assert imported
    missing = [f"{f}: from {m} import {n}" for m, n, f in imported if not _resolves(m, n)]
    assert not missing, missing


def test_h3_type2_keeps_its_patchable_names(monkeypatch):
    """Call counters patch the kernel h3_type2._jacobi_zeta by name, so it
    stays a module attribute that sample looks up on every call.  On the cn
    and dn branches one call covers the whole grid and the start phase."""
    assert callable(h3_type2._jacobi_zeta)
    trajs = [Type2TrajectoryH3(x0) for x0 in ([0.7, -0.4, 0.3], [0.7, -0.4, 3.0])]
    assert [t.branch.value for t in trajs] == ["cn", "dn"]
    calls = []
    kernel = h3_type2._jacobi_zeta

    def counted(u, table):
        calls.append(np.shape(u))
        return kernel(u, table)

    monkeypatch.setattr(h3_type2, "_jacobi_zeta", counted)
    for traj in trajs:
        for grid in (np.linspace(0.0, 9.0, 17), np.array([2.5])):
            calls.clear()
            traj.sample(grid)
            assert calls == [(grid.size + 1,)]
