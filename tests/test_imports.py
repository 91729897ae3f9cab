"""scipy stays unloaded until a routine that needs it runs.

Closed-form use (type-I and H3 trajectories, classification, H3 and H5
periodicity) and the numerical oracle (both schemes, the CLI fallback and
`--oracle`) run on numpy only.  Each check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import nilmag

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nilmag.__file__)))

LOADED_SCIPY = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"


def _scipy_modules_after(code: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    res = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\n{LOADED_SCIPY}"],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(res.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert _scipy_modules_after("import nilmag") == []


def test_closed_form_cli_runs_load_no_scipy(tmp_path):
    type1 = {
        "algebra": "heisenberg(1)",
        "force": {"exact": {"Z": [0.7]}},
        "charge": 1.3,
        "initial": {"velocity": [0.9, -0.4, 0.5]},
        "time": {"t_max": 3.0, "samples": 31},
    }
    h3 = {
        "algebra": "h3",
        "force": {"type2_U": [0.8, -0.6]},
        "charge": 1.2,
        "initial": {"velocity": [0.9, -0.4, 0.5]},  # the cn branch
        "time": {"t_max": 7.3, "samples": 31},
    }
    (tmp_path / "type1.json").write_text(json.dumps(type1))
    (tmp_path / "q1.json").write_text(json.dumps({"algebra": "quaternionic(1)"}))
    (tmp_path / "h3.json").write_text(json.dumps(h3))
    runs = [
        ["trajectory", "--scenario", str(tmp_path / "type1.json"), "--out", str(tmp_path / "a")],
        ["classify", "--scenario", str(tmp_path / "q1.json"), "--out", str(tmp_path / "b")],
        ["h5-periodic", "--rates", "-1.3", "0.7", "--energy", "2.0", "--out", str(tmp_path / "c")],
        ["trajectory", "--scenario", str(tmp_path / "h3.json"), "--out", str(tmp_path / "d")],
        ["periodicity", "--scenario", str(tmp_path / "h3.json"), "--out", str(tmp_path / "e")],
    ]
    code = f"from nilmag.cli import main\nassert [main(argv) for argv in {runs!r}] == [0] * 5"
    assert _scipy_modules_after(code) == []
    for name in ("a/trajectory.json", "b/classify.json", "c/h5_certificate.json",
                 "d/trajectory.json", "e/periodicity.json"):
        assert (tmp_path / name).exists()
    assert json.loads((tmp_path / "e/periodicity.json").read_text())["branch"] == "Cn"


def test_oracle_runs_load_no_scipy(tmp_path):
    mixed = {
        "algebra": "h3",
        "force": {"matrix": [[0.0, 0.3, -0.5], [-0.3, 0.0, 0.8], [0.5, -0.8, 0.0]]},
        "charge": 1.1,
        "initial": {"velocity": [0.4, -0.2, 0.7]},
        "time": {"t_max": 3.0, "samples": 31},
    }
    (tmp_path / "mixed.json").write_text(json.dumps(mixed))
    runs = [
        ["trajectory", "--scenario", str(tmp_path / "mixed.json"), "--out", str(tmp_path / "a")],
        ["trajectory", "--scenario", str(tmp_path / "mixed.json"), "--oracle", "--out", str(tmp_path / "b")],
    ]
    code = (
        "import numpy as np\n"
        "from nilmag import IntegratorConfig, MetricNilAlgebra, reconstruct_group\n"
        "from nilmag.cli import main\n"
        "for cfg in (IntegratorConfig(), IntegratorConfig(scheme='rk4', dt=0.1)):\n"
        "    reconstruct_group(MetricNilAlgebra.heisenberg(1), np.zeros((3, 3)), 1.0,"
        " np.array([1.0, 0.0, 0.2]), np.linspace(0.0, 1.0, 3), cfg)\n"
        f"assert [main(argv) for argv in {runs!r}] == [0, 0]"
    )
    assert _scipy_modules_after(code) == []
    for name in ("a", "b"):
        meta = json.loads((tmp_path / name / "trajectory.json").read_text())["metadata"]
        assert meta["solver"] == "oracle"
