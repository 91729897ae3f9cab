"""Tests for the command-line front end (in-process, via main(argv))."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from nilmag.algebra import MetricNilAlgebra
from nilmag.cli import main, parse_scenario
from nilmag.h5_type1 import H5Force
from nilmag.oracle import IntegratorConfig, reconstruct_group


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
    """The injectivity field is the flag of the (flag, sigma) pair, not its truth value."""
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
    doc_in = {
        "algebra": "quaternionic(1)",
        "force": {"exact": {"Z": [1.0, 0.0, 0.0]}},
        "initial": {"velocity": [1, 0, 0, 0, 0, 0, 0]},
    }
    path = write_scenario(tmp_path, doc_in)
    code = main(["periodicity", "--scenario", path])
    capsys.readouterr()
    assert code == 3


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
    assert main(["h5-periodic", "--rates", "2", "2", "--energy", "1"]) == 2
    assert main(["h5-periodic", "--rates", "-1", "2", "--energy", "-1"]) == 2
    assert main(["h5-periodic"]) == 2
    capsys.readouterr()


def test_selftest(capsys):
    code = main(["selftest"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) >= 6
    assert "FAIL" not in out


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
