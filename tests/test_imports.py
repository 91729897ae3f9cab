"""scipy stays unloaded until a routine that needs it runs.

Closed-form use (type-I trajectories, classification, H5 certificates) must
start with numpy only; the oracle and the H3 remainder quadrature load scipy
on first use.  Each check runs in a fresh interpreter.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import nilmag
from nilmag import h3_type2

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
    (tmp_path / "type1.json").write_text(json.dumps(type1))
    (tmp_path / "q1.json").write_text(json.dumps({"algebra": "quaternionic(1)"}))
    runs = [
        ["trajectory", "--scenario", str(tmp_path / "type1.json"), "--out", str(tmp_path / "a")],
        ["classify", "--scenario", str(tmp_path / "q1.json"), "--out", str(tmp_path / "b")],
        ["h5-periodic", "--rates", "-1.3", "0.7", "--energy", "2.0", "--out", str(tmp_path / "c")],
    ]
    code = f"from nilmag.cli import main\nassert [main(argv) for argv in {runs!r}] == [0, 0, 0]"
    assert _scipy_modules_after(code) == []
    for name in ("a/trajectory.json", "b/classify.json", "c/h5_certificate.json"):
        assert (tmp_path / name).exists()


def test_oracle_loads_scipy_on_first_use():
    code = (
        "import numpy as np\n"
        "from nilmag import MetricNilAlgebra, reconstruct_group\n"
        "reconstruct_group(MetricNilAlgebra.heisenberg(1), np.zeros((3, 3)), 1.0,"
        " np.array([1.0, 0.0, 0.2]), np.linspace(0.0, 1.0, 3))"
    )
    assert "scipy.integrate" in _scipy_modules_after(code)


def test_patched_quad_counts_cn_sampling(monkeypatch):
    """h3_type2.quad stays a patchable module name that cn sampling calls."""
    calls = []
    real = h3_type2.quad
    monkeypatch.setattr(h3_type2, "quad", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    traj = h3_type2.solve_h3_type2((1.3, -0.4, 0.8))
    assert traj.branch is h3_type2.Branch.CN
    traj.sample(np.linspace(0.1, 2.5 * traj.period, 7))  # no whole periods
    assert len(calls) == 3 * 7
