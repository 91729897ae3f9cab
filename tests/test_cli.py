"""Tests for the command-line front end (in-process, via main(argv))."""

from __future__ import annotations

import csv
import json
import math
import warnings

import numpy as np
import pytest

from nilmag.algebra import MetricNilAlgebra
from nilmag.cli import main, parse_scenario
from nilmag.h5_type1 import H5Force
from nilmag.lorentz import solve, type2_from_vector
from nilmag.oracle import IntegratorConfig, reconstruct_group
from test_h3_type2 import _mpmath_position
from test_imports import FLAT_COUPLED, MIXED, TYPE1


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    """Run main, returning (exit_code, parsed stdout JSON or None)."""
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


EXACT_H3 = {
    "algebra": "h3",
    "force": {"exact": {"Z": [0.7]}},
    "charge": 1.3,
    "initial": {"velocity": [0.9, -0.4, 0.5]},
    "time": {"t_max": 3.0, "samples": 31},
    "checks": {"oracle": True, "tolerance": 1e-6},
}

TYPE2_H3 = {
    "algebra": "heisenberg(1)",
    "force": {"type2_U": [0.0, 1.0]},
    "initial": {"velocity": [1.0, 0.0, 0.0]},
    "time": {"t_max": 4.0, "samples": 41},
}


def test_scenario_round_trip():
    """Canonical serialization re-parses to an identical canonical form."""
    docs = [
        EXACT_H3,
        TYPE2_H3,
        {
            "algebra": {"dim": 5, "brackets": [[1, 2, 3, 1.0]], "metric": None},
            "force": {"matrix": np.zeros((5, 5)).tolist()},
            "initial": {"X0": [1.0, 0.5], "Z0": [0.2, 0.0, -0.1]},
            "energy": 2.5,
        },
    ]
    for doc in docs:
        first = parse_scenario(doc).canonical()
        second = parse_scenario(first).canonical()
        assert first == second


def test_scenario_initial_forms_agree():
    """X0/Z0 split and the flat velocity produce the same initial vector."""
    a = parse_scenario(
        {"algebra": "h3", "initial": {"velocity": [1.0, 2.0, 3.0]}}
    )
    b = parse_scenario(
        {"algebra": "h3", "initial": {"X0": [1.0, 2.0], "Z0": [3.0]}}
    )
    assert np.array_equal(a.velocity0, b.velocity0)


def test_trajectory_exact_h3(tmp_path, capsys):
    """Exact force dispatches to the splitting solver with exact: true."""
    path = write_scenario(tmp_path, EXACT_H3)
    code, doc = run_json(capsys, ["trajectory", "--scenario", path])
    assert code == 0
    meta = doc["metadata"]
    assert meta["solver"] == "closed-form-type-1"
    assert meta["exact"] is True
    assert meta["closed_form"] is True
    assert meta["oracle"]["passed"] is True
    assert meta["oracle"]["max_position_deviation"] < 1e-6
    # constant speed column
    speeds = doc["samples"]["speed"]
    assert max(abs(s - speeds[0]) for s in speeds) < 1e-9


def test_trajectory_type2_branch_metadata(tmp_path, capsys):
    """Vector-force scenario reports the Cn branch, a period, the elliptic
    modulus and the separatrix margin.  For velocity (1, 0, 0) and u = e2,
    S = sqrt(2), k^2 = (S - 1) / (2 S) = sin^2(pi/8) and
    |disc| / max(1, S) = 2 (S + 1) / S = 2 + sqrt(2)."""
    path = write_scenario(tmp_path, TYPE2_H3)
    code, doc = run_json(capsys, ["trajectory", "--scenario", path])
    assert code == 0
    meta = doc["metadata"]
    assert meta["solver"] == "closed-form-type-2"
    assert meta["branch"] == "Cn"
    assert meta["period"] is not None and meta["period"] > 0
    assert meta["exact"] is False
    assert meta["modulus"] == pytest.approx(math.sin(math.pi / 8.0), rel=1e-14)
    assert meta["boundary_margin"] == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-14)


def test_trajectory_mixed_falls_back_to_oracle(tmp_path, capsys):
    """A mixed force is integrated numerically with closed_form: false."""
    m = np.zeros((5, 5))
    m[0, 1], m[1, 0] = -0.5, 0.5
    m[0, 4], m[4, 0] = 1.0, -1.0
    doc_in = {
        "algebra": "heisenberg(2)",
        "force": {"matrix": m.tolist()},
        "initial": {"velocity": [0.5, 0.2, -0.1, 0.3, 0.4]},
        "time": {"t_max": 2.0, "samples": 21},
    }
    path = write_scenario(tmp_path, doc_in)
    code, doc = run_json(capsys, ["trajectory", "--scenario", path])
    assert code == 0
    meta = doc["metadata"]
    assert meta["solver"] == "oracle"
    assert meta["closed_form"] is False
    assert "warning" in meta


def test_trajectory_flat_coupled_force_has_the_linear_closed_form(tmp_path):
    """A force on H3 x R that couples v with the flat centre and maps [n, n]
    to 0 is mixed, yet solved in closed form, and passes the oracle check."""
    out = tmp_path / "out"
    path = write_scenario(tmp_path, FLAT_COUPLED)
    assert main(["trajectory", "--scenario", path, "--oracle", "--format", "csv", "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["force_type"] == "mixed" and meta["solver"] == "closed-form-type-1"
    assert meta["closed_form"] is True and meta["exact"] is False
    assert meta["oracle"]["passed"] is True


def _assert_integrator_stats(stats, scheme):
    assert stats["scheme"] == scheme
    for key in ("nfev", "accepted_steps"):
        assert isinstance(stats[key], int) and stats[key] > 0
    assert isinstance(stats["rejected_steps"], int) and stats["rejected_steps"] >= 0


def test_trajectory_metadata_reports_integrator_work(tmp_path, capsys):
    """Every oracle run, solver or check, writes its scheme and work counts."""
    m = np.zeros((3, 3))
    m[0, 1], m[1, 0], m[0, 2], m[2, 0] = -0.5, 0.5, 0.8, -0.8
    mixed = {"algebra": "h3", "force": {"matrix": m.tolist()},
             "initial": {"velocity": [0.5, 0.2, -0.1]}, "time": {"t_max": 2.0, "samples": 21}}
    code, doc = run_json(capsys, ["trajectory", "--scenario", write_scenario(tmp_path, mixed), "--oracle"])
    assert code == 0
    meta = doc["metadata"]
    _assert_integrator_stats(meta["integrator"], "dopri45")
    assert meta["integrator"]["tolerance"] == 1e-11
    _assert_integrator_stats(meta["oracle"]["integrator"], "rk4")
    assert meta["oracle"]["integrator"]["dt"] > 0
    out = tmp_path / "csv"
    path = write_scenario(tmp_path, EXACT_H3, "exact.json")
    assert main(["trajectory", "--scenario", path, "--oracle", "--format", "csv", "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert "integrator" not in meta  # the closed form did the work
    _assert_integrator_stats(meta["oracle"]["integrator"], "dopri45")


_COMMON_KEYS = ["scenario", "algebra", "force_type", "charge", "exact", "closed_form", "branch", "period", "solver"]
_DOPRI = {"scheme": "dopri45", "tolerance": 1e-11, "dt": None}


@pytest.mark.parametrize("doc, route_keys, want", [
    (TYPE1, ["exact_center"], dict(exact=True, exact_center=[0.0, 0.0, 0.7], closed_form=True)),
    (FLAT_COUPLED, [], dict(exact=False, closed_form=True)),
    (TYPE2_H3, ["modulus", "boundary_margin"], dict(exact=False, closed_form=True, branch="Cn")),
    (MIXED, ["warning", "integrator"], dict(exact=False, closed_form=False, integrator=_DOPRI,
                                             warning="no closed-form solver covers this force class; "
                                                     "the curve was integrated numerically")),
], ids=["exact-type-1", "flat-coupled", "h3-cn", "oracle"])
def test_trajectory_metadata_contract(tmp_path, capsys, doc, route_keys, want):
    """Each route writes its metadata keys in one order.  exact and
    exact_center are the force's own exactness, closed_form, warning and
    integrator say whether the curve was integrated, and branch and period
    are set on the H3 closed form only."""
    code, out = run_json(capsys, ["trajectory", "--scenario", write_scenario(tmp_path, doc)])
    assert code == 0
    meta = out["metadata"]
    assert list(meta) == _COMMON_KEYS + route_keys + ["speed", "energy"]
    assert meta["exact"] is want["exact"] and meta["closed_form"] is want["closed_form"]
    if "exact_center" in want:
        assert meta["exact_center"] == pytest.approx(want["exact_center"], abs=1e-15)
    assert meta["branch"] == want.get("branch") and meta.get("warning") == want.get("warning")
    if "integrator" in want:
        assert {k: meta["integrator"][k] for k in _DOPRI} == _DOPRI
        _assert_integrator_stats(meta["integrator"], "dopri45")
    if meta["branch"] is None:
        assert meta["period"] is None
    else:
        h3 = MetricNilAlgebra.heisenberg(1)
        traj = solve(h3, type2_from_vector(h3, doc["force"]["type2_U"]), 1.0, doc["initial"]["velocity"])
        assert meta["period"] == traj.period


def test_trajectory_oracle_check_of_the_fallback_at_a_long_horizon(tmp_path, capsys):
    """The RK4 step that checks the numerical fallback follows the rate scale
    rho = max(1, |x0| + |q| max|F|), not the horizon: with about 2000 steps
    whatever t_max, the check read a deviation of 2.4e-6 at t_max = 50
    (exit 4) while the fallback itself was accurate to 1e-8."""
    doc = dict(MIXED, time={"t_max": 50.0, "samples": 101})
    code, out = run_json(capsys, ["trajectory", "--scenario", write_scenario(tmp_path, doc), "--oracle"])
    assert code == 0
    check = out["metadata"]["oracle"]
    assert check["passed"] is True and max(check["max_velocity_deviation"], check["max_position_deviation"]) < 1e-7
    rho = np.linalg.norm(doc["initial"]["velocity"]) + doc["charge"] * np.abs(doc["force"]["matrix"]).max()
    assert check["integrator"]["scheme"] == "rk4" and check["integrator"]["dt"] <= 0.005 / rho


def test_trajectory_csv_round_trip(tmp_path, capsys):
    """CSV floats are written with enough digits to round-trip exactly."""
    path = write_scenario(tmp_path, TYPE2_H3)
    out = tmp_path / "out"
    code = main(
        ["trajectory", "--scenario", path, "--format", "csv", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["branch"] == "Cn"
    with open(out / "trajectory.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "xi_1", "xi_2", "xi_3", "speed"]
    assert len(rows) == 1 + 41
    # compare against a fresh JSON run of the same scenario
    code, doc = run_json(capsys, ["trajectory", "--scenario", path])
    assert code == 0
    positions = doc["samples"]["position"]
    for row, pos in zip(rows[1:], positions):
        for got, want in zip(row[1:4], pos):
            assert float(got) == want


def test_trajectory_csv_bytes(tmp_path, capsys):
    """trajectory.csv is a header and one row per sample, comma-separated with CRLF
    line ends, every float in %.17g: 0.1 reads 0.10000000000000001."""
    doc = {"algebra": {"dim": 2, "brackets": []}, "force": {"matrix": [[0.0, 0.0], [0.0, 0.0]]},
           "initial": {"velocity": [0.5, -3.0]}, "time": {"t_max": 0.2, "samples": 3}}
    out = tmp_path / "out"
    assert main(["trajectory", "--scenario", write_scenario(tmp_path, doc), "--format", "csv",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "trajectory.csv").read_bytes() == (
        b"t,xi_1,xi_2,speed\r\n"
        b"0,0,0,3.0413812651491097\r\n"
        b"0.10000000000000001,0.050000000000000003,-0.30000000000000004,3.0413812651491097\r\n"
        b"0.20000000000000001,0.10000000000000001,-0.60000000000000009,3.0413812651491097\r\n"
    )


def test_trajectory_csv_needs_out(tmp_path, capsys):
    path = write_scenario(tmp_path, TYPE2_H3)
    code = main(["trajectory", "--scenario", path, "--format", "csv"])
    capsys.readouterr()
    assert code == 2


def test_trajectory_oracle_mismatch_exit_code(tmp_path, capsys):
    """An unattainable tolerance makes the oracle check fail with exit 4."""
    path = write_scenario(tmp_path, EXACT_H3)
    code, doc = run_json(
        capsys, ["trajectory", "--scenario", path, "--oracle", "--tol", "1e-16"]
    )
    assert code == 4
    assert doc["metadata"]["oracle"]["passed"] is False


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_trajectory_tol_flag_follows_the_scenario_rule(tmp_path, capsys, tol):
    """--tol takes the values checks.tolerance takes: finite and positive."""
    path = write_scenario(tmp_path, EXACT_H3)
    out = tmp_path / "out"
    code = main(["trajectory", "--scenario", path, "--oracle", "--tol", tol, "--out", str(out)])
    assert code == 2
    assert "--tol must be positive" in capsys.readouterr().err
    assert not out.exists()


# a curve whose central position, about 7e299 t, leaves the float range before t = 1e10
FAR_H3 = {"algebra": "h3", "force": {"exact": {"Z": [0.7]}}, "initial": {"velocity": [1e150, 0.0, 0.0]},
          "time": {"t_max": 1e10, "samples": 3}}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow this test provokes
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_trajectory_refuses_non_finite_samples(tmp_path, capsys, fmt):
    """Samples that overflowed to inf are not written, neither as the bare token
    Infinity, which is not JSON, nor as a CSV row: the command exits 4 and says why."""
    path = write_scenario(tmp_path, FAR_H3)
    out = tmp_path / "out"
    argv = ["trajectory", "--scenario", path, "--format", fmt] + (["--out", str(out)] if fmt == "csv" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 4 and captured.out == "" and not out.exists()
    assert "not finite" in captured.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the speed's square overflows at 1e155
@pytest.mark.parametrize("force, z0, code", [
    ({"exact": {"Z": [0.7]}}, 1e150, 0), ({"exact": {"Z": [0.7]}}, 1e155, 4),
    ({"type2_U": [0.6, -0.8]}, 1e150, 0), ({"type2_U": [0.6, -0.8]}, 1e155, 2)])
def test_trajectory_huge_central_velocity(tmp_path, capsys, force, z0, code):
    """The linear closed form answers the straight line t x0, which the CLI writes
    while its speed squared, the energy, is finite (exit 4 at 1e155, not a zero
    curve).  The H3 elliptic closed form answers 1e150 with no warning, each
    position component to 1e-12 of itself against the mpmath reference, and
    refuses 1e155, where the square of its amplitude overflows, with exit 2 (not
    an OverflowError)."""
    doc = {"algebra": "h3", "force": force, "initial": {"velocity": [0.0, 0.0, z0]},
           "time": {"t_max": 2.0, "samples": 3}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["trajectory", "--scenario", write_scenario(tmp_path, doc)]) == code
    captured = capsys.readouterr()
    if code:
        message = "not finite" if code == 4 else "out of the H3 closed form's range"
        assert captured.out == "" and message in captured.err
    elif "exact" in force:
        positions = json.loads(captured.out)["samples"]["position"]
        assert positions == [[0.0, 0.0, t * z0] for t in (0.0, 1.0, 2.0)]
    else:
        positions = np.array(json.loads(captured.out)["samples"]["position"])
        h3 = MetricNilAlgebra.heisenberg(1)
        traj = solve(h3, type2_from_vector(h3, force["type2_U"]), 1.0, [0.0, 0.0, z0])
        want = np.array([_mpmath_position(traj, t) for t in (0.0, 1.0, 2.0)])
        assert caught == [] and np.all(np.abs(positions - want) <= 1e-12 * np.abs(want)), (positions, want)


def test_trajectory_huge_planar_velocity_on_h3(tmp_path, capsys):
    """The H3 elliptic closed form refuses a velocity (1e308, 1e308, 0) with exit
    2; its construction raised ZeroDivisionError, exit 1 with a traceback."""
    doc = {"algebra": "h3", "force": {"type2_U": [0.0, 1.0]}, "initial": {"velocity": [1e308, 1e308, 0.0]}}
    assert main(["trajectory", "--scenario", write_scenario(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "out of the H3 closed form's range" in captured.err


def test_trajectory_csv_refuses_non_finite_metadata_before_writing(tmp_path, capsys, monkeypatch):
    """Finite samples with a NaN in the metadata (here an oracle deviation, from
    an oracle that returns a NaN velocity) write neither CSV nor metadata."""
    from nilmag import oracle

    real = oracle.reconstruct_group
    monkeypatch.setattr(oracle, "reconstruct_group",
                        lambda *a: real(*a)._replace(velocity=np.full((3, 3), np.nan)))
    path = write_scenario(tmp_path, {**EXACT_H3, "time": {"t_max": 1.0, "samples": 3}})
    out = tmp_path / "out"
    code = main(["trajectory", "--scenario", path, "--oracle", "--format", "csv", "--out", str(out)])
    assert code == 4 and not out.exists()
    assert "metadata.json not written, the result is not finite" in capsys.readouterr().err


def test_trajectory_start_translation(tmp_path, capsys):
    """A start point left-translates the whole sampled curve."""
    doc_in = dict(EXACT_H3)
    doc_in["initial"] = {"velocity": [0.9, -0.4, 0.5], "start": [1.0, 2.0, 3.0]}
    doc_in["checks"] = {"oracle": False}
    path = write_scenario(tmp_path, doc_in)
    code, doc = run_json(capsys, ["trajectory", "--scenario", path])
    assert code == 0
    assert doc["samples"]["position"][0] == [1.0, 2.0, 3.0]


def test_classify_heisenberg(tmp_path, capsys):
    """heisenberg(1) is nonsingular and H-type; zero force is exact."""
    doc_in = {"algebra": "heisenberg(1)", "force": {"matrix": np.zeros((3, 3)).tolist()}}
    path = write_scenario(tmp_path, doc_in)
    code, doc = run_json(capsys, ["classify", "--scenario", path])
    assert code == 0
    alg = doc["algebra"]
    assert alg["dim"] == 3
    assert alg["singularity"] == "nonsingular"
    assert alg["h_type"] is True
    force = doc["force"]
    assert force["closed"] is True
    assert force["exact"] is True
    assert force["z_tilde"] == [0.0, 0.0, 0.0]


def test_classify_quaternionic(tmp_path, capsys):
    path = write_scenario(tmp_path, {"algebra": "quaternionic(1)"})
    code, doc = run_json(capsys, ["classify", "--scenario", path])
    assert code == 0
    assert doc["algebra"]["dim"] == 7
    assert doc["algebra"]["dim_z"] == 3
    assert doc["algebra"]["h_type"] is True
    assert "force" not in doc


def test_classify_reports_j_injectivity_flag(tmp_path, capsys, monkeypatch):
    """The injectivity field is the flag of the (flag, sigma) pair, not its truth
    value.  An abelian algebra has no commutator, so the map Z -> j(Z) on it is
    vacuously injective and has no smallest singular value: sigma is null."""
    abelian = write_scenario(tmp_path, {"algebra": {"dim": 3, "brackets": []}}, name="abelian.json")
    code, doc = run_json(capsys, ["classify", "--scenario", abelian])
    assert code == 0 and doc["algebra"]["commutator_dim"] == 0
    assert doc["algebra"]["j_injective_on_commutator"] is True
    assert doc["algebra"]["j_injective_sigma"] is None

    path = write_scenario(tmp_path, {"algebra": "heisenberg(1)"})
    code, doc = run_json(capsys, ["classify", "--scenario", path])
    assert code == 0
    assert doc["algebra"]["j_injective_on_commutator"] is True
    assert doc["algebra"]["j_injective_sigma"] > 0.0

    monkeypatch.setattr(MetricNilAlgebra, "j_injective_on_commutator", lambda self: (False, 0.0))
    code, doc = run_json(capsys, ["classify", "--scenario", path])
    assert code == 0
    assert doc["algebra"]["j_injective_on_commutator"] is False
    assert doc["algebra"]["j_injective_sigma"] == 0.0


def test_classify_reports_nonclosed(tmp_path, capsys):
    """A non-closed 2-form is reported with its worst basis triple."""
    m = np.zeros((5, 5))
    m[0, 4], m[4, 0] = 1.0, -1.0  # v-z pairing fails closedness on h5
    path = write_scenario(
        tmp_path, {"algebra": "h5", "force": {"matrix": m.tolist()}}
    )
    code, doc = run_json(capsys, ["classify", "--scenario", path])
    assert code == 0
    assert doc["force"]["closed"] is False
    assert doc["force"]["max_residual"] > 0
    assert doc["force"]["worst_triple"] is not None


def test_output_names_cover_every_enum_value():
    """The CLI names branches and periodicity kinds by enum value, so that it
    need not import h3_type2 at start; each value must have a name."""
    from nilmag.cli import _BRANCH_NAMES, _KIND_NAMES
    from nilmag.h3_type2 import Branch, PeriodicityKind

    assert set(_BRANCH_NAMES) == {b.value for b in Branch}
    assert set(_KIND_NAMES) == {k.value for k in PeriodicityKind}


def test_periodicity_h3_oscillating(tmp_path, capsys):
    path = write_scenario(tmp_path, TYPE2_H3)
    code, doc = run_json(capsys, ["periodicity", "--scenario", path])
    assert code == 0
    assert doc["kind"] == "LambdaPeriodic"
    assert doc["branch"] == "Cn"
    assert doc["omega"] > 0
    assert doc["residual"] < 1e-8
    assert doc["translation_in_force_kernel"] is True
    # the v-part of the translation is along the force direction's kernel
    assert abs(doc["translation"][0]) < 1e-9


def test_periodicity_h3_with_start_translates_the_started_curve(tmp_path, capsys):
    """With a start point g the curve g sigma(t) is translated by g lam g^-1 = lam + [g, lam]."""
    doc_in = dict(TYPE2_H3)
    doc_in["initial"] = {"velocity": [1.0, 0.0, 0.0], "start": [1.0, 2.0, 3.0]}
    path = write_scenario(tmp_path, doc_in)
    code, doc = run_json(capsys, ["periodicity", "--scenario", path])
    assert code == 0
    assert doc["kind"] == "LambdaPeriodic"
    assert doc["residual"] < 1e-12
    assert doc["translation_in_force_kernel"] is True
    lam = np.array(doc["translation"])
    assert np.allclose(lam, [0.0, 1.1155, 1.1155], atol=1e-4)
    # the curve that trajectory writes, sampled so that row i + 10 is row i one period later
    doc_in["time"] = {"t_max": 2.0 * doc["omega"], "samples": 21}
    path = write_scenario(tmp_path, doc_in, "curve.json")
    code, traj = run_json(capsys, ["trajectory", "--scenario", path])
    assert code == 0
    pos = np.array(traj["samples"]["position"])
    h3 = MetricNilAlgebra.heisenberg(1)
    assert np.max(np.abs(pos[10:] - h3.group_mul(lam, pos[:11]))) < 1e-12


def test_periodicity_h3_linear_and_escaping(tmp_path, capsys):
    lin = dict(TYPE2_H3)
    lin["initial"] = {"velocity": [0.0, 0.7, 0.0]}
    path = write_scenario(tmp_path, lin)
    code, doc = run_json(capsys, ["periodicity", "--scenario", path])
    assert code == 0
    assert doc["kind"] == "LambdaPeriodic"
    assert doc["omega"] == 1.0
    assert np.allclose(doc["translation"], [0.0, 0.7, 0.0], atol=1e-12)

    esc = dict(TYPE2_H3)
    esc["initial"] = {"velocity": [0.0, 0.0, 2.0]}  # separatrix branch
    path = write_scenario(tmp_path, esc, "esc.json")
    code, doc = run_json(capsys, ["periodicity", "--scenario", path])
    assert code == 0
    assert doc["kind"] == "NonPeriodic"
    assert doc["omega"] is None and doc["translation"] is None


def test_periodicity_h5_certificate(tmp_path, capsys):
    doc_in = {"algebra": "h5", "force": {"rates": [-1.0, 2.0]}, "energy": 10.0}
    path = write_scenario(tmp_path, doc_in)
    code, doc = run_json(capsys, ["periodicity", "--scenario", path])
    assert code == 0
    assert doc["kind"] == "Periodic"
    assert doc["mode"].startswith("two-mode")
    assert doc["verify"]["ok"] is True
    assert doc["verify"]["residual"] < 1e-8
    assert abs(doc["drift"]) < 1e-12


def test_periodicity_with_energy_builds_the_force_once(tmp_path, capsys, monkeypatch):
    """periodicity with energy makes as many LorentzForce objects as
    h5-periodic on the same scenario: the force is built once."""
    from nilmag import lorentz

    made = []
    init = lorentz.LorentzForce.__init__

    def counted(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(lorentz.LorentzForce, "__init__", counted)
    path = write_scenario(tmp_path, {"algebra": "h5", "force": {"rates": [-1.0, 2.0]}, "energy": 3.0})
    counts = {}
    for command in ("periodicity", "h5-periodic"):
        made.clear()
        code, doc = run_json(capsys, [command, "--scenario", path])
        assert code == 0 and doc["verify"]["ok"] is True
        counts[command] = len(made)
    assert counts["periodicity"] == counts["h5-periodic"]


def test_h5_certificate_tolerance_is_the_bound_that_decided_ok(capsys):
    """verify.tolerance is the absolute bound verify_periodic applied, 1e-8 of
    max |sigma| over the check times, so ok holds exactly when residual <= tolerance:
    here a residual of about 1e-6 passes (the fixed 1e-8 was printed before)."""
    argv = ["h5-periodic", "--rates", "0.06180203129424319", "0.06969662823489138",
            "--energy", "731.0379722620145"]
    code, doc = run_json(capsys, argv)
    ok, residual, tolerance = doc["verify"]["ok"], doc["verify"]["residual"], doc["verify"]["tolerance"]
    assert code == 0 and ok is True and residual > 1e-8
    assert ok == (residual <= tolerance)


@pytest.mark.parametrize("command", ["periodicity", "h5-periodic"])
def test_h5_certificate_uses_the_scenario_charge(tmp_path, capsys, command):
    """The certified orbit closes under the scenario's own charge, checked
    by the oracle over one period."""
    doc_in = {"algebra": "heisenberg(2)", "force": {"rates": [-1, 2]}, "charge": 2, "energy": 3}
    path = write_scenario(tmp_path, doc_in)
    code, doc = run_json(capsys, [command, "--scenario", path])
    assert code == 0 and doc["verify"]["ok"] is True
    assert doc["rates"] == [-2.0, 4.0]
    alg = MetricNilAlgebra.heisenberg(2)
    force = H5Force.from_rates(-1.0, 2.0).matrix
    x0 = np.append(doc["v0"], doc["z0"])
    cfg = IntegratorConfig(tolerance=1e-12)
    end = reconstruct_group(alg, force, 2.0, x0, [0.0, doc["period"]], cfg).xi[-1]
    assert np.max(np.abs(end)) <= 1e-8, end


def test_periodicity_h5_needs_energy(tmp_path, capsys):
    doc_in = {"algebra": "h5", "force": {"rates": [-1.0, 2.0]}}
    path = write_scenario(tmp_path, doc_in)
    code = main(["periodicity", "--scenario", path])
    capsys.readouterr()
    assert code == 2


def test_periodicity_unsupported_combination(tmp_path, capsys):
    """Every closed form reports, the exact force j(e5) on the quaternionic
    group among them; the numerical fallback states no period and exits 3."""
    doc_in = {
        "algebra": "quaternionic(1)",
        "force": {"exact": {"Z": [1.0, 0.0, 0.0]}},
        "initial": {"velocity": [1, 0, 0, 0, 0, 0, 0]},
    }
    path = write_scenario(tmp_path, doc_in)
    code, doc = run_json(capsys, ["periodicity", "--scenario", path])
    assert code == 0
    assert doc["kind"] == "LambdaPeriodic"
    assert doc["omega"] == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert np.allclose(doc["translation"], [0, 0, 0, 0, math.pi, 0, 0], atol=1e-12)
    assert doc["residual"] < 1e-12
    mixed = {"algebra": "h3", "force": {"matrix": [[0.0, 0.3, -0.5], [-0.3, 0.0, 0.8], [0.5, -0.8, 0.0]]},
             "initial": {"velocity": [0.4, -0.2, 0.7]}}
    assert main(["periodicity", "--scenario", write_scenario(tmp_path, mixed, "mixed.json")]) == 3
    capsys.readouterr()


def test_periodicity_type1_from_initial(tmp_path, capsys):
    """A type-I force with 'initial' and no 'energy' gets the lambda-periodicity
    report of its curve, translated by a start point as on H3; with 'energy'
    the H5 certificate takes precedence."""
    doc_in = {"algebra": "heisenberg(2)", "force": {"rates": [1.0, 3.0]},
              "initial": {"velocity": [0.3, 0.2, -0.4, 0.1, 0.0]}}
    code, doc = run_json(capsys, ["periodicity", "--scenario", write_scenario(tmp_path, doc_in)])
    assert code == 0
    assert set(doc) == {"scenario", "kind", "omega", "translation", "residual", "tolerance"}
    assert doc["kind"] == "LambdaPeriodic"
    assert doc["omega"] == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert np.allclose(doc["translation"], [0, 0, 0, 0, 0.5864306], atol=1e-7)
    assert doc["residual"] < 1e-12
    start = [1.0, -0.5, 0.2, 0.3, 0.7]
    started = dict(doc_in, initial=dict(doc_in["initial"], start=start))
    code, moved = run_json(capsys, ["periodicity", "--scenario", write_scenario(tmp_path, started, "s.json")])
    h5 = MetricNilAlgebra.heisenberg(2)
    lam = np.array(doc["translation"])
    assert code == 0 and moved["residual"] < 1e-12
    assert np.allclose(moved["translation"], lam + h5.bracket(np.array(start), lam), atol=1e-14)
    incommensurate = dict(doc_in, force={"rates": [1.0, math.sqrt(2.0)]})
    code, doc = run_json(capsys, ["periodicity", "--scenario", write_scenario(tmp_path, incommensurate, "i.json")])
    assert code == 0 and doc["kind"] == "NonPeriodic" and doc["omega"] is None
    certified = dict(doc_in, force={"rates": [-1.0, 2.0]}, energy=2.0)
    code, doc = run_json(capsys, ["periodicity", "--scenario", write_scenario(tmp_path, certified, "c.json")])
    assert code == 0 and doc["mode"] == "two-mode -1:1" and doc["verify"]["ok"] is True


# A type-II force on an inline copy of H3.  The elliptic closed form solves
# heisenberg(1) itself; the coordinate-aligned copies have its structure tensor
# bit for bit, a rescaled, reoriented or re-metricised copy does not.
H3_COPY = {
    "force": {"type2_U": [0.3, 1.0]},
    "initial": {"velocity": [0.7, -0.4, 0.3]},
    "time": {"t_max": 4.0, "samples": 41},
}
OTHER_H3_STRUCTURES = {
    "scaled": {"dim": 3, "brackets": [[1, 2, 3, 2.0]]},
    "reoriented": {"dim": 3, "brackets": [[1, 2, 3, -1.0]]},
    "metric": {"dim": 3, "brackets": [[1, 2, 3, 1.0]], "metric": np.diag([2.0, 1.0, 1.0]).tolist()},
}


@pytest.mark.parametrize("name", sorted(OTHER_H3_STRUCTURES))
def test_type2_on_another_h3_structure_falls_back_to_oracle(tmp_path, capsys, caplog, name):
    """The H3 closed form is chosen by structure tensor, not by dimensions:
    these copies are integrated numerically (and agree with the check), and
    periodicity, which needs the closed form, refuses them."""
    path = write_scenario(tmp_path, dict(H3_COPY, algebra=OTHER_H3_STRUCTURES[name]))
    code, doc = run_json(capsys, ["trajectory", "--scenario", path, "--oracle"])
    assert code == 0
    meta = doc["metadata"]
    assert meta["solver"] == "oracle" and meta["closed_form"] is False
    assert "no closed-form solver" in meta["warning"]
    assert any(r.levelname == "WARNING" and "no closed-form solver" in r.getMessage() for r in caplog.records)
    assert meta["oracle"]["passed"] is True
    assert main(["periodicity", "--scenario", path]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("brackets", [[[1, 2, 3, 1.0]], [[1, 3, 2, 1.0]]])
def test_type2_on_an_aligned_h3_copy_keeps_the_closed_form(tmp_path, capsys, brackets):
    path = write_scenario(tmp_path, dict(H3_COPY, algebra={"dim": 3, "brackets": brackets}))
    code, doc = run_json(capsys, ["trajectory", "--scenario", path])
    assert code == 0 and doc["metadata"]["solver"] == "closed-form-type-2"
    preset = write_scenario(tmp_path, dict(H3_COPY, algebra="h3"), "preset.json")
    _, want = run_json(capsys, ["trajectory", "--scenario", preset])
    assert json.dumps(doc["samples"]) == json.dumps(want["samples"])  # bit for bit, signed zeros too


def test_h5_certificates_need_heisenberg2_itself(tmp_path, capsys):
    """Rates build a type-I force on any algebra with dim 5 and dim v 4, and its
    trajectory is a correct closed form there.  The certificate is constructed
    and verified on heisenberg(2), though: on a copy with doubled brackets the
    certified orbit does not close, so both certificate commands refuse it,
    while the coordinate-aligned copy keeps its certificate."""
    doc_in = {"force": {"rates": [-1, 2]}, "energy": 3,
              "initial": {"velocity": [0.5, 0.2, -0.1, 0.3, 0.4]}, "time": {"t_max": 3.0, "samples": 31}}
    scaled = {"dim": 5, "brackets": [[1, 2, 5, 2.0], [3, 4, 5, 2.0]]}
    path = write_scenario(tmp_path, dict(doc_in, algebra=scaled))
    assert main(["periodicity", "--scenario", path]) == 3
    assert main(["h5-periodic", "--scenario", path]) == 3
    capsys.readouterr()
    code, doc = run_json(capsys, ["trajectory", "--scenario", path, "--oracle"])
    assert code == 0
    assert doc["metadata"]["solver"] == "closed-form-type-1" and doc["metadata"]["oracle"]["passed"] is True

    aligned = {"dim": 5, "brackets": [[1, 2, 5, 1.0], [3, 4, 5, 1.0]]}
    path = write_scenario(tmp_path, dict(doc_in, algebra=aligned), "aligned.json")
    code, cert = run_json(capsys, ["h5-periodic", "--scenario", path])
    assert code == 0 and cert["verify"]["ok"] is True
    # the same orbit, integrated on the scaled copy, ends far from the identity
    alg = MetricNilAlgebra.from_structure(5, scaled["brackets"])
    x0 = np.append(cert["v0"], cert["z0"])
    cfg = IntegratorConfig(tolerance=1e-12)
    end = reconstruct_group(alg, H5Force.from_rates(-1.0, 2.0).matrix, 1.0, x0, [0.0, cert["period"]], cfg).xi[-1]
    assert np.linalg.norm(end) > 1.0, end


def test_h5_periodic_flags(capsys):
    code, doc = run_json(
        capsys, ["h5-periodic", "--rates", "-1", "2", "--energy", "0.3"]
    )
    assert code == 0
    assert doc["mode"] == "single-1"
    assert doc["verify"]["ok"] is True


def test_h5_periodic_writes_file(tmp_path, capsys):
    out = tmp_path / "certs"
    code = main(
        ["h5-periodic", "--rates", "-1", "2", "--energy", "2", "--out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    doc = json.loads((out / "h5_certificate.json").read_text())
    assert doc["mode"] == "two-mode -1:1"


def test_h5_periodic_error_codes(capsys):
    """Equal rates 2 are an exact force: below mu^2/2 = 2 it has a verified
    certificate, and from 2 on none, which exits 2 as a negative energy does."""
    code, doc = run_json(capsys, ["h5-periodic", "--rates", "2", "2", "--energy", "1"])
    assert code == 0 and doc["mode"] == "single-1" and doc["verify"]["ok"] is True
    for energy in ("2", "2.5"):
        assert main(["h5-periodic", "--rates", "2", "2", "--energy", energy]) == 2
        assert "exact force" in capsys.readouterr().err
    assert main(["h5-periodic", "--rates", "-1", "2", "--energy", "-1"]) == 2
    assert main(["h5-periodic"]) == 2
    capsys.readouterr()


def test_h5_certificate_kind_is_the_verdict(tmp_path, capsys):
    """A certificate is written Periodic only when it verifies; else its kind is
    lambda_periodicity's.  At rates 1 and 1.0001, energy 0.6, the residual
    1.1e-3 exceeds the tolerance 2.0e-4: exit 4, LambdaPeriodic.  A certificate
    that verifies is Periodic to periodicity too, by the same tolerance."""
    code, doc = run_json(capsys, ["h5-periodic", "--rates", "1", "1.0001", "--energy", "0.6"])
    assert code == 4 and doc["verify"]["ok"] is False and doc["kind"] == "LambdaPeriodic"
    rates = [-1.236412581957445, -1.2328298650991105]
    code, cert = run_json(capsys, ["h5-periodic", "--rates", *map(str, rates), "--energy", "2.2687615073035166"])
    assert code == 0 and cert["kind"] == "Periodic" and cert["verify"]["ok"] is True
    doc_in = {"algebra": "h5", "force": {"rates": rates}, "initial": {"velocity": [*cert["v0"], cert["z0"]]}}
    code, doc = run_json(capsys, ["periodicity", "--scenario", write_scenario(tmp_path, doc_in)])
    assert code == 0 and doc["kind"] == "Periodic" and doc["tolerance"] == cert["verify"]["tolerance"]


def test_periodicity_energy_selects_the_certificate_route(tmp_path, capsys):
    """'energy' alone asks periodicity for the H5 certificate: a force that the
    construction cannot take, or another group, exits 3 even with 'initial',
    and without 'energy' the same H3 scenario gets its lambda-periodicity report."""
    h3 = {"algebra": "h3", "force": {"type2_U": [0.8, -0.6]}, "initial": {"velocity": [0.9, -0.4, 0.5]}}
    coupled = [[0, 1, 0, 0, 0.5], [-1, 0, 0, 0, 0], [0, 0, 0, 2, 0], [0, 0, -2, 0, 0], [-0.5, 0, 0, 0, 0]]
    mixed_h5 = {"algebra": "h5", "force": {"matrix": coupled}, "energy": 1.0,
                "initial": {"velocity": [0.3, 0.2, -0.4, 0.1, 0.0]}}
    for name, doc_in in (("h3.json", dict(h3, energy=1.0)), ("h5.json", mixed_h5)):
        assert main(["periodicity", "--scenario", write_scenario(tmp_path, doc_in, name)]) == 3
        assert "certificates need" in capsys.readouterr().err
    code, doc = run_json(capsys, ["periodicity", "--scenario", write_scenario(tmp_path, h3, "plain.json")])
    assert code == 0 and doc["branch"] == "Cn"


def test_selftest(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    names = [l.split(" (worst residual")[0] for l in out.splitlines()[:-1]]
    assert names == [f"PASS {name}" for name in SELFTEST_CHECKS]
    assert out.splitlines()[-1] == "selftest: all structural checks passed"


SELFTEST_CHECKS = [
    "j-map defining identity <j(Z)V,W> = <Z,[V,W]>",
    "torsion-free connection",
    "metric-compatible connection",
    "covariant-derivative block rules",
    "group multiplication associativity",
    "all basis 2-forms closed on the 3-dim Heisenberg group",
    "rotating-pair bracket invariants constant in time",
    "H3 elliptic curves conserve the magnetic momentum map",
]


def test_selftest_exponential_matches_expm():
    """The selftest's eigendecomposition-free e^A against scipy's expm, on random
    skew matrices and on the cases a spectral shortcut gets wrong."""
    from scipy.linalg import expm

    from nilmag.cli import _expm

    rng = np.random.default_rng(12)
    cases = []
    for n in rng.integers(2, 10, size=40):
        a = rng.uniform(0.01, 5.0) * rng.standard_normal((n, n))
        cases.append(a - a.T)
    # quaternionic(1): j(Z)^2 = -|Z|^2 Id, all rates equal
    cases.append(3.0 * MetricNilAlgebra.quaternionic(1).j_map(np.array([0.3, -0.5, 0.8])))
    kernel = np.zeros((5, 5))  # rates 2 and 0.7 and a 1-dim kernel
    kernel[0, 1], kernel[2, 3] = 2.0, 0.7
    cases += [kernel - kernel.T, np.zeros((4, 4))]
    big = rng.standard_normal((6, 6))
    big -= big.T
    cases.append(49.7 / np.linalg.norm(big, 1) * big)  # seven squarings
    for a in cases:
        want = expm(a)
        assert np.linalg.norm(_expm(a) - want) <= 1e-12 * np.linalg.norm(want)


def test_input_error_paths(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["classify", "--scenario", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", "--scenario", str(bad)]) == 2
    unknown = write_scenario(tmp_path, {"algebra": "h3", "wat": 1}, "unknown.json")
    assert main(["classify", "--scenario", unknown]) == 2
    noinit = write_scenario(
        tmp_path, {"algebra": "h3", "force": {"exact": {"Z": [1.0]}}}, "noinit.json"
    )
    assert main(["trajectory", "--scenario", noinit]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, doc, code, field", [
    ("classify", {"algebra": "h7"}, 2, "unknown algebra preset 'h7'"),
    ("classify", {"algebra": "heisenberg(0)"}, 2, "preset index must be a positive integer"),
    ("classify", {"algebra": 3}, 2, "algebra must be a preset name or an inline definition object"),
    ("classify", {"algebra": "h3", "force": {"rates": [1.0, 2.0]}}, 3, "rate-pair forces"),
    ("classify", {"algebra": "h3", "force": {"exact": {"Z": [1.0]}, "type2_U": [0.0, 1.0]}}, 2,
     "force must be an object with exactly one of"),
    ("classify", {"algebra": "h3", "force": []}, 2, "force must be an object with exactly one of"),
    ("classify", {"algebra": "h3", "force": {"vector": [0.0, 1.0]}}, 2, "unknown force kind 'vector'"),
    ("classify", {"charge": 1.0}, 2, "scenario needs an 'algebra' field"),
    ("classify", {"algebra": "h3", "charge": float("nan")}, 2, "charge must be finite"),
    ("classify", {"algebra": "h3", "time": {"t_max": 0.0}}, 2, "time.t_max must be positive"),
    ("classify", {"algebra": "h3", "time": {"samples": 1}}, 2, "time.samples must be at least 2"),
    ("classify", {"algebra": "h3", "energy": float("inf")}, 2, "energy must be finite"),
    ("trajectory", {"algebra": "h3", "initial": {"velocity": [1.0, 0.0, 0.0]}}, 2, "needs a 'force' field"),
    ("h5-periodic", {"algebra": "h5", "force": {"rates": [-1.0, 2.0]}}, 2, "needs an 'energy' field"),
], ids=["unknown-preset", "preset-index", "algebra-type", "rates-off-h5", "force-two-kinds", "force-list",
        "force-kind", "no-algebra", "charge-nan", "t_max-zero", "samples-one", "energy-inf",
        "trajectory-no-force", "h5-periodic-no-energy"])
def test_scenario_refusals_name_the_field(tmp_path, capsys, command, doc, code, field):
    """Each refusal of a scenario exits with its code (2 for input, 3 for a
    force the command cannot take) and says which field is at fault."""
    assert main([command, "--scenario", write_scenario(tmp_path, doc)]) == code
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("algebra, force, field", [
    ("h3", {"exact": [1.0]}, "force.exact must be an object"),
    ("h3", {"exact": {}}, "force.exact needs a 'Z' field"),
    ("h3", {"exact": {"Z": [1.0], "W": 1.0}}, "unknown force.exact fields: ['W']"),
    ("h3", {"exact": {"Z": [0.0, 0.0, 1.0]}}, "force.exact.Z must be an array of 1 numbers"),
    ("h3", {"matrix": [[0.0, 1.0], [-1.0, 0.0]]}, "force.matrix must be an array of 3 x 3 numbers"),
    ("h3", {"type2_U": [0.0, 1.0, 0.0]}, "force.type2_U must be an array of 2 numbers"),
    ("h5", {"rates": 1.0}, "force.rates must be an array of 2 numbers"),
    ("h5", {"rates": [1, 2, 3]}, "force.rates must be an array of 2 numbers"),
    ("h5", {"rates": [1.0, float("inf")]}, "force.rates must be finite"),
], ids=["exact-list", "exact-empty", "exact-extra", "exact-long", "matrix-2x2", "type2_U-3", "rates-number",
        "rates-3", "rates-inf"])
def test_bad_force_payloads_exit_2(tmp_path, capsys, algebra, force, field):
    """Each force kind's payload has one shape: exact is exactly {"Z": [dim_z
    numbers]}, matrix dim x dim, type2_U and rates two numbers.  A payload of
    another shape exits 2 and says why; {"exact": [1.0]}, {"exact": {}} and
    {"rates": 1.0} raised TypeError or KeyError, a traceback with exit 1."""
    velocity = [0.3, -0.2, 0.5] if algebra == "h3" else [0.3, -0.2, 0.5, 0.1, 0.4]
    doc = {"algebra": algebra, "force": force, "initial": {"velocity": velocity}}
    assert main(["trajectory", "--scenario", write_scenario(tmp_path, doc)]) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("section, extra, message", [
    ("algebra", {"metrc": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}, "unknown algebra fields: ['metrc']"),
    ("time", {"tmax": 5.0}, "unknown time fields: ['tmax']"),
    ("checks", {"orcale": False}, "unknown checks fields: ['orcale']"),
    ("initial", {"velocity0": [1.0, 0.0, 0.0]}, "unknown initial fields: ['velocity0']"),
    ("initial", {"Z0": [0.3]}, "initial needs either 'velocity' or both 'X0' and 'Z0'"),
], ids=["algebra-metrc", "time-tmax", "checks-orcale", "initial-velocity0", "initial-velocity-and-Z0"])
def test_unknown_fields_exit_2_at_every_level(tmp_path, capsys, section, extra, message):
    """A misspelt field below the top level was dropped without a word (the
    metrc typo solved on the identity metric and exited 0), and Z0 beside a
    velocity was ignored; each now exits 2 naming the field."""
    doc = {**EXACT_H3, "algebra": dict(INLINE_H3), "checks": {"oracle": False}}
    doc[section] = {**doc[section], **extra}
    assert main(["trajectory", "--scenario", write_scenario(tmp_path, doc)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, field, value",
    [
        ("checks", "oracle", "false"),
        ("checks", "oracle", 1),
        ("time", "samples", 2.9),
        ("time", "samples", True),
        ("time", "samples", "201"),
    ],
)
def test_scenario_field_types(tmp_path, capsys, section, field, value):
    """checks.oracle takes a JSON boolean and time.samples an integer; others exit 2."""
    doc_in = dict(EXACT_H3)
    doc_in[section] = {**EXACT_H3[section], field: value}
    path = write_scenario(tmp_path, doc_in)
    assert main(["trajectory", "--scenario", path]) == 2
    assert f"{section}.{field}" in capsys.readouterr().err


INLINE_H3 = {"dim": 3, "brackets": [[1, 2, 3, 1.0]]}


@pytest.mark.parametrize("value", ["2.5", True])
@pytest.mark.parametrize("field", ["charge", "energy", "time.t_max", "checks.tolerance"])
def test_scenario_number_fields_take_json_numbers(tmp_path, capsys, field, value):
    """A numeric string or a bool in a number field exits 2 and names the field;
    "2.5" read 2.5 and true read 1.0."""
    doc_in = {**EXACT_H3, "energy": 1.0}
    section, _, key = field.rpartition(".")
    if section:
        doc_in[section] = {**EXACT_H3[section], key: value}
    else:
        doc_in[key] = value
    assert main(["classify", "--scenario", write_scenario(tmp_path, doc_in)]) == 2
    assert f"{field} must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("algebra, field", [
    ({**INLINE_H3, "dim": 3.7}, "algebra.dim"),
    ({**INLINE_H3, "dim": "3"}, "algebra.dim"),
    ({**INLINE_H3, "brackets": [[1.9, 2, 3, 1.0]]}, "algebra.brackets[0] index"),
    ({**INLINE_H3, "brackets": [[1, 2, 3, "1.0"]]}, "algebra.brackets[0] value"),
], ids=["dim-3.7", "dim-string", "index-1.9", "value-string"])
def test_inline_algebra_integer_fields(tmp_path, capsys, algebra, field):
    """dim and bracket indices take integral JSON numbers: "dim": 3.7 built a
    3-dimensional algebra and index 1.9 read as 1.  Each exits 2, naming the field."""
    path = write_scenario(tmp_path, {"algebra": algebra})
    assert main(["classify", "--scenario", path]) == 2
    assert field in capsys.readouterr().err


def test_inline_algebra_takes_integral_floats():
    scn = parse_scenario({"algebra": {"dim": 3.0, "brackets": [[1.0, 2, 3.0, 1]]}})
    assert scn.algebra.same_structure(MetricNilAlgebra.heisenberg(1))
    assert scn.canonical()["algebra"]["brackets"] == [[1, 2, 3, 1.0]]


@pytest.mark.parametrize("doc, field", [
    ({**TYPE2_H3, "initial": {"velocity": [True, "0.5", 0]}}, "initial velocity[0]"),
    ({**TYPE2_H3, "initial": {"velocity": [1, "0.5", 0]}}, "initial velocity[1]"),
    ({**TYPE2_H3, "initial": {"X0": [1.0, 0.0], "Z0": [False]}}, "initial Z0[0]"),
    ({**TYPE2_H3, "force": {"type2_U": ["0", True]}}, "force.type2_U[0]"),
    ({**EXACT_H3, "force": {"exact": {"Z": ["0.7"]}}}, "force.exact.Z[0]"),
    ({**EXACT_H3, "force": {"matrix": [[0, 1, 0], [-1, 0, 0], [0, 0, True]]}}, "force.matrix[2][2]"),
    ({**EXACT_H3, "algebra": "h5", "force": {"rates": [1.0, "2"]}, "initial": {"velocity": [1, 0, 0, 0, 0]}},
     "force.rates[1]"),
    ({**EXACT_H3, "algebra": {**INLINE_H3, "metric": [[1, 0, 0], [0, "1", 0], [0, 0, 1]]}}, "algebra.metric[1][1]"),
], ids=["velocity-bool", "velocity-string", "Z0-bool", "type2_U", "exact-Z", "matrix", "rates", "metric"])
def test_vector_and_matrix_fields_take_json_numbers(tmp_path, capsys, doc, field):
    """Each entry of a vector or matrix field goes through the number check: a
    bool or a numeric string exits 2 and names the entry; velocity
    [true, "0.5", 0] read (1, 0.5, 0) and type2_U ["0", true] read (0, 1)."""
    assert main(["trajectory", "--scenario", write_scenario(tmp_path, doc)]) == 2
    assert f"{field} must be a number" in capsys.readouterr().err


@pytest.mark.parametrize("algebra, name", [
    ({"dim": 1000000, "brackets": []}, "algebra.dim"),
    ({"dim": 129, "brackets": [[1, 2, 3, 1.0]]}, "algebra.dim"),
    ("heisenberg(64)", "heisenberg(64)"),
    ("quaternionic(1000)", "quaternionic(1000)"),
], ids=["dim-1e6", "dim-129", "heisenberg64", "quaternionic1000"])
def test_oversized_algebra_exits_2(tmp_path, capsys, algebra, name):
    """An algebra of more than 2^21 structure constants exits 2 and names the
    field or preset; dim 10^6 died with numpy's _ArrayMemoryError."""
    assert main(["classify", "--scenario", write_scenario(tmp_path, {"algebra": algebra})]) == 2
    assert name in capsys.readouterr().err


def test_bad_vectors_rejected(tmp_path, capsys):
    doc_in = {
        "algebra": "h3",
        "force": {"type2_U": [0.0, 1.0]},
        "initial": {"velocity": [1.0, 0.0]},
    }
    path = write_scenario(tmp_path, doc_in)
    assert main(["trajectory", "--scenario", path]) == 2
    zero_u = dict(doc_in)
    zero_u["force"] = {"type2_U": [0.0, 0.0]}
    zero_u["initial"] = {"velocity": [1.0, 0.0, 0.0]}
    path = write_scenario(tmp_path, zero_u, "zero_u.json")
    assert main(["trajectory", "--scenario", path]) == 2
    capsys.readouterr()


def test_inline_algebra_trajectory(tmp_path, capsys):
    """An inline structure-constant algebra runs through the same pipeline."""
    m = np.zeros((5, 5))
    m[0, 1], m[1, 0] = -0.8, 0.8
    doc_in = {
        "algebra": {"dim": 5, "brackets": [[1, 2, 3, 1.0]], "metric": None},
        "force": {"matrix": m.tolist()},
        "initial": {"velocity": [1.0, 0.2, 0.3, 0.1, -0.4]},
        "time": {"t_max": 3.0, "samples": 31},
        "checks": {"oracle": True, "tolerance": 1e-6},
    }
    path = write_scenario(tmp_path, doc_in)
    code, doc = run_json(capsys, ["trajectory", "--scenario", path])
    assert code == 0
    assert doc["metadata"]["solver"] == "closed-form-type-1"
    assert doc["metadata"]["oracle"]["passed"] is True
