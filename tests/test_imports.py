"""Each entry point loads only the modules it runs.

The package runs on numpy alone: no module under `nilmag` imports scipy, and
every CLI command runs with scipy imports made to fail.  `import nilmag` loads
no submodule, and each CLI command loads only the solver modules it
dispatches to.  No CLI run loads dataclasses, and only one that logs a record
loads logging.  Each check runs in a fresh interpreter.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import subprocess
import sys

import nilmag

SRC = os.path.dirname(os.path.dirname(os.path.abspath(nilmag.__file__)))

SOLVER_MODULES = {"closedform", "h3_type2", "h5_type1", "oracle", "specfun"}


def _modules_after(code: str, prefix: str | tuple[str, ...]) -> list[str]:
    """The loaded modules whose names start with prefix (or one of them) after
    running code with NILMAG_LOG unset."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("NILMAG_LOG", None)
    loaded = f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    res = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\n{loaded}"],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return json.loads(res.stdout.strip().splitlines()[-1])


def _nilmag_modules_after(code: str) -> set[str]:
    return {m.removeprefix("nilmag.") for m in _modules_after(code, "nilmag.")}


def _cli_runs(runs: list, codes: list | None = None, warns: bool = False) -> str:
    """Code that runs main on each argv and asserts its exit code (0 unless codes says),
    then that no run loaded dataclasses, and logging only if one warns: with NILMAG_LOG
    unset, only the oracle fallback's warning is logged."""
    codes = [0] * len(runs) if codes is None else codes
    return (f"from nilmag.cli import main\nassert [main(argv) for argv in {runs!r}] == {codes!r}\n"
            f"assert 'dataclasses' not in sys.modules and ('logging' in sys.modules) is {warns!r}")


def test_import_loads_no_scipy():
    assert _modules_after("import nilmag", "scipy") == []


def test_import_loads_no_submodule():
    assert _nilmag_modules_after("import nilmag") == set()


def test_cli_import_loads_no_dataclasses_or_logging():
    assert _modules_after("import nilmag.cli", ("dataclasses", "logging")) == []


def test_info_log_names_each_file_written(tmp_path):
    """NILMAG_LOG=INFO logs every file a command writes on stderr."""
    _write_scenarios(tmp_path)
    env = dict(os.environ, PYTHONPATH=SRC, NILMAG_LOG="INFO")
    out = tmp_path / "out"
    argv = ["trajectory", "--scenario", str(tmp_path / "type1.json"), "--format", "csv", "--out", str(out)]
    res = subprocess.run([sys.executable, "-m", "nilmag.cli", *argv],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    wrote = [f"INFO nilmag: wrote {out / name}" for name in ("trajectory.csv", "metadata.json")]
    assert res.stderr.splitlines() == wrote


TYPE1 = {
    "algebra": "heisenberg(1)",
    "force": {"exact": {"Z": [0.7]}},
    "charge": 1.3,
    "initial": {"velocity": [0.9, -0.4, 0.5]},
    "time": {"t_max": 3.0, "samples": 31},
}
H3 = {
    "algebra": "h3",
    "force": {"type2_U": [0.8, -0.6]},
    "charge": 1.2,
    "initial": {"velocity": [0.9, -0.4, 0.5]},  # the cn branch
    "time": {"t_max": 7.3, "samples": 31},
}
MIXED = {
    "algebra": "h3",
    "force": {"matrix": [[0.0, 0.3, -0.5], [-0.3, 0.0, 0.8], [0.5, -0.8, 0.0]]},
    "charge": 1.1,
    "initial": {"velocity": [0.4, -0.2, 0.7]},
    "time": {"t_max": 3.0, "samples": 31},
}

# F = e4* ^ e1* + 0.6 e1* ^ e2* on H3 x R couples v with the flat e4 and maps
# [n, n] = e3 to 0: the linear closed form covers it
FLAT_COUPLED = {
    "algebra": {"dim": 4, "brackets": [[1, 2, 3, 1.0]]},
    "force": {"matrix": [[0.0, -0.6, 0.0, 1.0], [0.6, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]},
    "charge": 1.3,
    "initial": {"velocity": [0.4, -0.2, 0.7, 0.5]},
    "time": {"t_max": 10.0, "samples": 51},
}

# dim v = 8, dim z = 3: classify takes the sampling route
V8 = {"algebra": {"dim": 11, "brackets": [[1, 2, 9, 1.0], [3, 4, 9, 1.0], [1, 3, 10, 1.0], [2, 4, 10, -1.0],
                                          [1, 2, 11, 1.0], [5, 6, 9, 1.0], [7, 8, 9, 1.0]]}}
# an H3 curve on the dn branch, the periodicity of a rates force, and a horizon
# past the linear closed form's range, which trajectory refuses with exit 4
DN = {"algebra": "h3", "force": {"type2_U": [0.6, -0.8]}, "charge": 1.4,
      "initial": {"velocity": [0.5, -0.3, 6.0]}, "time": {"t_max": 12.0, "samples": 61}}
RATES = {"algebra": "heisenberg(2)", "force": {"rates": [1.0, 3.0]},
         "initial": {"velocity": [0.3, 0.2, -0.4, 0.1, 0.0]}}
FAR = {"algebra": "h3", "force": {"exact": {"Z": [0.7]}}, "initial": {"velocity": [0.9, -0.4, 0.5]},
       "time": {"t_max": 1e200, "samples": 3}}
SCENARIOS = {"q1.json": {"algebra": "quaternionic(1)"}, "v8.json": V8, "type1.json": TYPE1, "h3.json": H3,
             "mixed.json": MIXED, "coupled.json": FLAT_COUPLED, "dn.json": DN, "rates.json": RATES,
             "far.json": FAR}


def _write_scenarios(tmp_path) -> None:
    for name, doc in SCENARIOS.items():
        (tmp_path / name).write_text(json.dumps(doc))


def test_solve_loads_each_solver_module_when_called():
    """nilmag.solve resolves without loading a solver module, and a call loads
    only the module of the solver it returns."""
    assert _nilmag_modules_after("import nilmag\nnilmag.solve") & SOLVER_MODULES == set()
    calls = {
        "h3, np.array([[0, 0.7, 0], [-0.7, 0, 0], [0, 0, 0]])": {"closedform"},
        "h3, type2_from_vector(h3, [0.8, -0.6])": {"h3_type2", "specfun"},
        f"h3, np.array({MIXED['force']['matrix']})": {"oracle"},
    }
    for args, modules in calls.items():
        code = ("import numpy as np\nimport nilmag\nfrom nilmag import MetricNilAlgebra, type2_from_vector\n"
                f"h3 = MetricNilAlgebra.heisenberg(1)\nnilmag.solve({args}, 1.2, [0.9, -0.4, 0.5])")
        assert _nilmag_modules_after(code) & SOLVER_MODULES == modules, args


def test_each_command_loads_only_its_solvers(tmp_path):
    _write_scenarios(tmp_path)

    def scenario(command, name):
        return [command, "--scenario", str(tmp_path / name), "--out", str(tmp_path / command / name)]

    classify = [scenario("classify", "q1.json"), scenario("classify", "type1.json")]
    assert _nilmag_modules_after(_cli_runs(classify)) & SOLVER_MODULES == set()
    type1 = [scenario("trajectory", "type1.json"), scenario("periodicity", "type1.json")]
    loaded = _nilmag_modules_after(_cli_runs(type1))
    assert "closedform" in loaded and loaded & {"specfun", "h3_type2", "h5_type1", "oracle"} == set()
    h3 = [scenario("trajectory", "h3.json"), scenario("periodicity", "h3.json")]
    loaded = _nilmag_modules_after(_cli_runs(h3))
    assert "h3_type2" in loaded and loaded & {"closedform", "h5_type1", "oracle"} == set()
    loaded = _nilmag_modules_after(_cli_runs([scenario("trajectory", "coupled.json")]))
    assert "closedform" in loaded and loaded & {"specfun", "h3_type2", "h5_type1", "oracle"} == set()
    h5 = [["h5-periodic", "--rates", "-1.3", "0.7", "--energy", "2.0", "--out", str(tmp_path / "h5")]]
    loaded = _nilmag_modules_after(_cli_runs(h5))
    assert "h5_type1" in loaded and loaded & {"specfun", "h3_type2", "oracle"} == set()
    # the mixed H3 force falls back to the oracle, and --oracle asks for it
    for extra in ([], ["--oracle"]):
        run = scenario("trajectory", "mixed.json") + extra
        assert "oracle" in _nilmag_modules_after(_cli_runs([run], warns=True))
    run = scenario("trajectory", "type1.json") + ["--oracle"]
    assert "oracle" in _nilmag_modules_after(_cli_runs([run]))


def test_closed_form_cli_runs_load_no_scipy(tmp_path):
    _write_scenarios(tmp_path)
    runs = [
        ["trajectory", "--scenario", str(tmp_path / "type1.json"), "--out", str(tmp_path / "a")],
        ["classify", "--scenario", str(tmp_path / "q1.json"), "--out", str(tmp_path / "b")],
        ["h5-periodic", "--rates", "-1.3", "0.7", "--energy", "2.0", "--out", str(tmp_path / "c")],
        ["trajectory", "--scenario", str(tmp_path / "h3.json"), "--out", str(tmp_path / "d")],
        ["periodicity", "--scenario", str(tmp_path / "h3.json"), "--out", str(tmp_path / "e")],
    ]
    assert _modules_after(_cli_runs(runs), "scipy") == []
    for name in ("a/trajectory.json", "b/classify.json", "c/h5_certificate.json",
                 "d/trajectory.json", "e/periodicity.json"):
        assert (tmp_path / name).exists()
    assert json.loads((tmp_path / "e/periodicity.json").read_text())["branch"] == "Cn"


def test_oracle_runs_load_no_scipy(tmp_path):
    _write_scenarios(tmp_path)
    runs = [
        ["trajectory", "--scenario", str(tmp_path / "mixed.json"), "--out", str(tmp_path / "a")],
        ["trajectory", "--scenario", str(tmp_path / "mixed.json"), "--oracle", "--out", str(tmp_path / "b")],
    ]
    code = (
        "import numpy as np\n"
        "from nilmag import IntegratorConfig, MetricNilAlgebra, reconstruct_group\n"
        "for cfg in (IntegratorConfig(), IntegratorConfig(scheme='rk4', dt=0.1)):\n"
        "    reconstruct_group(MetricNilAlgebra.heisenberg(1), np.zeros((3, 3)), 1.0,"
        " np.array([1.0, 0.0, 0.2]), np.linspace(0.0, 1.0, 3), cfg)\n"
        + _cli_runs(runs, warns=True)
    )
    assert _modules_after(code, "scipy") == []
    for name in ("a", "b"):
        meta = json.loads((tmp_path / name / "trajectory.json").read_text())["metadata"]
        assert meta["solver"] == "oracle"


def test_package_source_imports_no_scipy():
    for path in sorted(glob.glob(os.path.join(SRC, "nilmag", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), (path, node.lineno)


def test_cli_runs_with_scipy_blocked(tmp_path):
    """A None entry in sys.modules makes every scipy import raise ImportError.  The
    CI workflow's numpy-only step runs this test on the installed package, in a
    virtual environment that has no scipy."""
    _write_scenarios(tmp_path)

    def scenario(command, name, *extra):
        return [command, "--scenario", str(tmp_path / name), *extra, "--out", str(tmp_path / command / name)]

    runs = [
        ["selftest"],
        scenario("classify", "v8.json"),
        scenario("trajectory", "type1.json"),
        scenario("trajectory", "h3.json"),
        scenario("trajectory", "type1.json", "--oracle"),
        scenario("periodicity", "h3.json"),
        ["h5-periodic", "--rates", "-1.3", "0.7", "--energy", "2.0", "--out", str(tmp_path / "h5")],
        scenario("trajectory", "coupled.json", "--oracle", "--format", "csv"),
        scenario("trajectory", "dn.json", "--oracle", "--format", "csv"),
        scenario("periodicity", "rates.json"),
        scenario("trajectory", "far.json"),
    ]
    block = "sys.modules['scipy'] = None\n"
    codes = [0] * (len(runs) - 1) + [4]
    assert _modules_after(block + _cli_runs(runs, codes), "scipy") == ["scipy"]  # the blocking entry only
    mixed = [scenario("trajectory", "mixed.json")]
    assert _modules_after(block + _cli_runs(mixed, warns=True), "scipy") == ["scipy"]
    assert not (tmp_path / "trajectory" / "far.json").exists()
    algebra = json.loads((tmp_path / "classify/v8.json/classify.json").read_text())["algebra"]
    assert (algebra["dim_v"], algebra["singularity"], algebra["singularity_exhaustive"]) == (8, "almost", True)
    for name, solver in (("coupled.json", "closed-form-type-1"), ("dn.json", "closed-form-type-2")):
        meta = json.loads((tmp_path / "trajectory" / name / "metadata.json").read_text())
        assert meta["solver"] == solver and meta["oracle"]["passed"] is True
    assert meta["branch"] == "Dn"
    kind = json.loads((tmp_path / "periodicity/rates.json/periodicity.json").read_text())["kind"]
    assert kind in ("LambdaPeriodic", "Periodic")
