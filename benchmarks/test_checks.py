"""Each benchmark check accepts the oracle's own curve and rejects a perturbed one.

Run from the repository root:  python3 -m pytest benchmarks/test_checks.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks as ck  # noqa: E402
import workloads as wk  # noqa: E402
from nilmag import H5Force, periodic_at_energy  # noqa: E402
from nilmag.oracle import IntegratorConfig, reconstruct_group  # noqa: E402
from spans import Tracer  # noqa: E402

EPS = 1e-4
OFF = Tracer(False)


def _noise(rng, a):
    return a + EPS * rng.standard_normal(np.shape(a))


@pytest.fixture(scope="module")
def type1():
    rng = np.random.default_rng(5)
    alg = wk.build_algebra(("heisenberg", 2))
    x0, charge = wk._velocity(rng, 5), 0.9
    m = wk.closed_type1(rng, alg, x0, charge)
    centers = np.array([1.0, 2.5, 4.0])
    grid = np.concatenate([[0.0], ck.stencil_times(centers)])
    return alg, m, charge, x0, reconstruct_group(alg, m, charge, x0, grid, wk.ORACLE)


@pytest.fixture(scope="module")
def h3_cn():
    rng = np.random.default_rng(6)
    u, charge, x0, period = wk.h3_input(rng, "cn")
    alg = wk.build_algebra(("heisenberg", 1))
    ref = reconstruct_group(alg, wk.type2_matrix(u), charge, x0, np.linspace(0.0, 2.0 * period, 21), wk.ORACLE)
    return alg, u, charge, ref


def test_oracle_residual(type1):
    alg, m, charge, x0, ref = type1
    tight = reconstruct_group(alg, m, charge, x0, ref.t, IntegratorConfig(tolerance=1e-13))
    assert ck.oracle_residual(tight.xi, tight.velocity, ref.xi, ref.velocity) <= ck.TOL_ORACLE
    assert ck.oracle_residual(tight.xi + EPS, tight.velocity, ref.xi, ref.velocity) > ck.TOL_ORACLE


def test_origin_and_speed(type1):
    ref = type1[-1]
    rng = np.random.default_rng(0)
    assert ck.origin_residual(ref.xi) <= ck.TOL_ORIGIN
    assert ck.origin_residual(ref.xi + EPS) > ck.TOL_ORIGIN
    assert ck.speed_residual(ref.velocity) <= ck.TOL_SPEED
    assert ck.speed_residual(_noise(rng, ref.velocity)) > ck.TOL_SPEED


def test_reconstruction_identity(type1):
    alg, ref = type1[0], type1[-1]
    rng = np.random.default_rng(1)
    xi = ref.xi[1:].reshape(3, 5, -1)
    vel = ref.velocity[1:].reshape(3, 5, -1)[:, 2]
    good = ck.reconstruction_residual(alg.structure, xi, vel, ck.FD_STEP)
    assert good <= ck.TOL_FD
    assert ck.reconstruction_residual(alg.structure, _noise(rng, xi), vel, ck.FD_STEP) > ck.TOL_FD
    # a constant offset leaves differences alone but breaks the bracket term
    shift = np.zeros(5)
    shift[:4] = EPS
    assert ck.reconstruction_residual(alg.structure, xi + shift, vel, ck.FD_STEP) > ck.TOL_FD


def test_h3_conservation_law(h3_cn):
    _, u, charge, ref = h3_cn
    rng = np.random.default_rng(2)
    assert ck.h3_law_residual(u, charge, ref.velocity) <= ck.TOL_H3_LAW
    assert ck.h3_law_residual(u, charge, _noise(rng, ref.velocity)) > ck.TOL_H3_LAW


def test_lambda_periodicity(h3_cn):
    alg, _, _, ref = h3_cn
    lam = ref.xi[10]
    assert ck.lambda_residual(alg.structure, lam, ref.xi[:11], ref.xi[10:]) <= ck.TOL_ORACLE
    assert ck.lambda_residual(alg.structure, lam + EPS, ref.xi[:11], ref.xi[10:]) > ck.TOL_ORACLE


def test_h5_energy_and_closure():
    h5f = H5Force.from_rates(-1.0, 2.0)
    cert = periodic_at_energy(h5f, 5.0)
    assert ck.energy_residual(cert.v0, cert.z0, 5.0) <= ck.TOL_ENERGY
    assert ck.energy_residual(cert.v0 + EPS, cert.z0, 5.0) > ck.TOL_ENERGY
    alg = wk.build_algebra(("heisenberg", 2))
    x0 = np.concatenate([cert.v0, [cert.z0]])
    for period, ok in ((cert.period, True), (cert.period * (1.0 + EPS), False)):
        ref = reconstruct_group(alg, wk.h5_matrix(-1.0, 2.0), 1.0, x0, np.linspace(0.0, period, 21), wk.ORACLE)
        assert (ck.closure_residual(ref.xi) <= ck.TOL_CLOSURE) is ok


def _perturbed(out, rng):
    return wk.Traj(out.t, _noise(rng, out.xi), out.vel, out.sampler, out.info)


@pytest.mark.parametrize("workload,index", [("type1-dense", 0), ("type1-sweep", 0), ("type1-sweep", 7),
                                            ("h3-elliptic", 0), ("h3-elliptic", 3)])
def test_workload_checks(tmp_path, workload, index):
    case = wk.make(workload, 3, str(tmp_path)).rounds[0][index]
    out = case.run(OFF)
    assert case.check(out) == []
    assert case.check(_perturbed(out, np.random.default_rng(3)))


def test_degenerate_case_is_caught(tmp_path):
    case = next(c for c in wk.make("type1-sweep", 3, str(tmp_path)).rounds[0] if c.name == wk.DEGENERATE)
    assert any("oracle" in msg for msg in case.check(case.run(OFF)))


def test_cli_trajectory_check(tmp_path):
    case = next(c for c in wk.make("cli-cold", 3, str(tmp_path)).rounds[0] if c.name == "traj_type2")
    out = case.run(OFF)
    assert case.check(out) == []
    path = os.path.join(out.out_dir, "trajectory.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["samples"]["position"] = (np.array(doc["samples"]["position"]) + EPS).tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert case.check(out)


def test_singularity_kind():
    q1 = wk.build_algebra(("quaternionic", 1))
    assert wk.singularity_kind(q1.structure, q1.dim_v) == "nonsingular"
    brackets = wk.inline_brackets(wk.INLINE_BETA)
    for metric in (np.eye(7), wk.random_metric(np.random.default_rng(wk.INLINE_METRIC_SEED), 7)):
        inline = wk.build_algebra((7, brackets, metric))
        assert wk.singularity_kind(inline.structure, inline.dim_v) == "almost"
        # a central Z on the zero set of Pf j(Z) gives a singular j(Z), a generic one does not
        w, vecs = np.linalg.eigh(wk.pfaffian_form(inline.structure, inline.dim_v))
        z0 = np.sqrt(w[-1]) * vecs[:, 0] + np.sqrt(-w[0]) * vecs[:, -1]
        z0 /= np.linalg.norm(z0)
        assert abs(np.linalg.det(wk.j_of(inline.structure, 4, z0))) < 1e-12
        z1 = vecs[:, -1]
        assert abs(np.linalg.det(wk.j_of(inline.structure, 4, z1))) > 1e-3


def test_cli_classify_check(tmp_path):
    """The inline classify op fails on the program's verdict and passes on the right one."""
    case = next(c for c in wk.make("cli-cold", 3, str(tmp_path)).rounds[0] if c.name == wk.INLINE)
    out = case.run(OFF)
    msgs = case.check(out)
    assert msgs and all("singularity" in msg for msg in msgs)
    path = os.path.join(out.out_dir, "classify.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["algebra"]["singularity"] = "almost"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert case.check(out) == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "type1-sweep", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
