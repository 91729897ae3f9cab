"""Command-line front end for magnetic trajectories on 2-step nilpotent groups.

Subcommands
-----------
trajectory    sample a magnetic trajectory from a scenario file by the solver
              lorentz.solve picks: a closed form, else the numerical
              integrator (with a warning); optional oracle check.
classify      report the algebra's singularity/H-type classification and the
              force's splitting type, closedness residual, and exactness.
periodicity   lambda-periodicity trichotomy for vector forces on the
              3-dimensional Heisenberg group, or a constructive periodic
              certificate at a prescribed energy on the 5-dimensional one
              (each group itself: a rescaled or re-metricised copy exits 3).
h5-periodic   the energy-indexed periodic-orbit construction directly from
              a pair of rotation rates.
selftest      structural identity suite on randomized inputs.

Scenario files are JSON:

    {
      "algebra": "heisenberg(1)" | "heisenberg(2)" | "quaternionic(1)"
                 | {"dim": 5, "brackets": [[1, 2, 3, 1.0]], "metric": null},
      "force":   {"matrix": [[...], ...]}
                 | {"exact": {"Z": [...]}}        # F = j(Z) on v
                 | {"type2_U": [u1, u2]}           # H3 vector force
                 | {"rates": [mu1, mu2]},          # H5 block rates
      "charge":  1.0,
      "initial": {"velocity": [...]} or {"X0": [...], "Z0": [...]},
                 optional "start": [...] group point (curve is left-translated),
      "time":    {"t_max": 10.0, "samples": 201},
      "checks":  {"oracle": false, "tolerance": 1e-6},
      "energy":  10.0                              # periodicity on H5 only
    }

Exit codes: 0 success, 2 input/scenario error, 3 unsupported force/solver
combination, 4 numeric failure (oracle mismatch, failed certificate search,
failed verification).  Set NILMAG_LOG=DEBUG|INFO|... for diagnostics.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import re
import sys
from typing import TYPE_CHECKING, Any

import numpy as np

from .algebra import MetricNilAlgebra
from .errors import (
    ExactForceError,
    InputError,
    IntegrationError,
    NoCertificateError,
    UnsupportedForceError,
)
from .lorentz import (
    ForceType,
    LorentzForce,
    check_closed,
    exactness_test,
    random_closed_type1,
    solve,
    type2_from_vector,
)

# The solver modules (closedform, h3_type2, h5_type1, oracle) are imported by
# solve or where a command needs them, so each process loads only what it runs.
if TYPE_CHECKING:
    from .h5_type1 import H5Force
    from .oracle import IntegratorConfig
    from .samples import IntegratorStats

__all__ = ["main", "parse_scenario", "Scenario"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_NUMERIC = 4

log = logging.getLogger("nilmag")

# Output names of h3_type2.Branch and h3_type2.PeriodicityKind, by enum value.
_BRANCH_NAMES = {
    "cn": "Cn",
    "dn": "Dn",
    "sech+": "SechPos",
    "sech-": "SechNeg",
    "linear": "Linear",
}
_KIND_NAMES = {
    "periodic": "Periodic",
    "lambda-periodic": "LambdaPeriodic",
    "non-periodic": "NonPeriodic",
}
_PRESET_RE = re.compile(r"^(heisenberg|quaternionic)\((\d+)\)$")
_PRESET_ALIASES = {"h3": "heisenberg(1)", "h5": "heisenberg(2)"}


# -- scenario ------------------------------------------------------------------


@dataclasses.dataclass
class Scenario:
    """Parsed, validated scenario with its canonical JSON form."""

    algebra: MetricNilAlgebra
    algebra_spec: Any
    force_spec: dict | None
    charge: float
    velocity0: np.ndarray | None
    start: np.ndarray | None
    t_max: float
    samples: int
    oracle: bool
    tolerance: float
    energy: float | None

    def canonical(self) -> dict:
        doc: dict[str, Any] = {"algebra": self.algebra_spec}
        if self.force_spec is not None:
            doc["force"] = self.force_spec
        doc["charge"] = self.charge
        if self.velocity0 is not None:
            initial: dict[str, Any] = {"velocity": [float(x) for x in self.velocity0]}
            if self.start is not None:
                initial["start"] = [float(x) for x in self.start]
            doc["initial"] = initial
        doc["time"] = {"t_max": self.t_max, "samples": self.samples}
        doc["checks"] = {"oracle": self.oracle, "tolerance": self.tolerance}
        if self.energy is not None:
            doc["energy"] = self.energy
        return doc


def _parse_algebra(spec: Any) -> tuple[MetricNilAlgebra, Any]:
    if isinstance(spec, str):
        name = _PRESET_ALIASES.get(spec.strip().lower(), spec.strip().lower())
        m = _PRESET_RE.match(name)
        if not m:
            raise InputError(f"unknown algebra preset {spec!r}")
        n = int(m.group(2))
        if n < 1:
            raise InputError("preset index must be a positive integer")
        alg = (
            MetricNilAlgebra.heisenberg(n)
            if m.group(1) == "heisenberg"
            else MetricNilAlgebra.quaternionic(n)
        )
        return alg, name
    if isinstance(spec, dict):
        try:
            dim = _integer(spec["dim"], "algebra.dim")
            brackets = [
                (*(_integer(i, f"algebra.brackets[{n}] index") for i in b[:3]),
                 _number(b[3], f"algebra.brackets[{n}] value"))
                for n, b in enumerate(spec["brackets"])
            ]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"bad inline algebra definition: {exc}") from exc
        metric = spec.get("metric")
        name = str(spec.get("name", "custom"))
        alg = MetricNilAlgebra.from_structure(
            dim, brackets, metric=None if metric is None else np.asarray(metric, float), name=name
        )
        canon = {
            "dim": dim,
            "brackets": [[i, j, k, c] for (i, j, k, c) in brackets],
            "metric": None if metric is None else [[float(x) for x in row] for row in metric],
            "name": name,
        }
        return alg, canon
    raise InputError("algebra must be a preset name or an inline definition object")


def _parse_vector(data: Any, length: int, what: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.shape != (length,):
        raise InputError(f"{what} must be a flat list of {length} numbers")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite")
    return arr


def _canonical_force(spec: dict) -> dict:
    kind, payload = next(iter(spec.items()))
    if kind == "matrix":
        return {"matrix": [[float(x) for x in row] for row in payload]}
    if kind == "exact":
        return {"exact": {"Z": [float(x) for x in payload["Z"]]}}
    if kind == "type2_U":
        return {"type2_U": [float(x) for x in payload]}
    if kind == "rates":
        return {"rates": [float(x) for x in payload]}
    raise InputError(f"unknown force kind {kind!r}")


def parse_scenario(data: dict) -> Scenario:
    """Validate a scenario JSON object and normalize it."""
    if not isinstance(data, dict):
        raise InputError("scenario must be a JSON object")
    known = {"algebra", "force", "charge", "initial", "time", "checks", "energy"}
    unknown = set(data) - known
    if unknown:
        raise InputError(f"unknown scenario fields: {sorted(unknown)}")
    if "algebra" not in data:
        raise InputError("scenario needs an 'algebra' field")
    alg, alg_spec = _parse_algebra(data["algebra"])

    force_spec = None
    if "force" in data:
        fs = data["force"]
        if not isinstance(fs, dict) or len(fs) != 1:
            raise InputError(
                "force must be an object with exactly one of: matrix, exact, type2_U, rates"
            )
        force_spec = _canonical_force(fs)

    charge = _number(data.get("charge", 1.0), "charge")
    if not np.isfinite(charge):
        raise InputError("charge must be finite")

    velocity0 = start = None
    if "initial" in data:
        init = data["initial"]
        if not isinstance(init, dict):
            raise InputError("initial must be an object")
        if "velocity" in init:
            velocity0 = _parse_vector(init["velocity"], alg.dim, "initial velocity")
        elif "X0" in init and "Z0" in init:
            x0 = _parse_vector(init["X0"], alg.dim_v, "initial X0")
            z0 = _parse_vector(init["Z0"], alg.dim_z, "initial Z0")
            velocity0 = np.concatenate([x0, z0])
        else:
            raise InputError("initial needs either 'velocity' or both 'X0' and 'Z0'")
        if "start" in init:
            start = _parse_vector(init["start"], alg.dim, "start point")

    time = data.get("time", {})
    if not isinstance(time, dict):
        raise InputError("time must be an object")
    t_max = _number(time.get("t_max", 10.0), "time.t_max")
    samples = _integer(time.get("samples", 201), "time.samples")
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise InputError("time.t_max must be positive")
    if samples < 2:
        raise InputError("time.samples must be at least 2")

    checks = data.get("checks", {})
    if not isinstance(checks, dict):
        raise InputError("checks must be an object")
    oracle = checks.get("oracle", False)
    if not isinstance(oracle, bool):
        raise InputError("checks.oracle must be true or false")
    tolerance = _tolerance(checks.get("tolerance", 1e-6), "checks.tolerance")

    energy = None
    if "energy" in data:
        energy = _number(data["energy"], "energy")
        if not np.isfinite(energy):
            raise InputError("energy must be finite")

    return Scenario(
        algebra=alg,
        algebra_spec=alg_spec,
        force_spec=force_spec,
        charge=charge,
        velocity0=velocity0,
        start=start,
        t_max=t_max,
        samples=samples,
        oracle=oracle,
        tolerance=tolerance,
        energy=energy,
    )


def _number(value: Any, what: str) -> float:
    """A JSON number as a float; a bool or a numeric string is not one."""
    if type(value) not in (int, float):
        raise InputError(f"{what} must be a number")
    return float(value)


def _integer(value: Any, what: str) -> int:
    """A JSON number with an integer value (3 or 3.0, not 3.7, true or "3")."""
    if type(value) not in (int, float) or value % 1 != 0:
        raise InputError(f"{what} must be an integer")
    return int(value)


def _tolerance(value: Any, what: str) -> float:
    """An oracle mismatch tolerance: a finite positive number."""
    tol = _number(value, what)
    if not (np.isfinite(tol) and tol > 0.0):
        raise InputError(f"{what} must be positive")
    return tol


def _load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(json.load(fh))


def _build_force(scn: Scenario) -> LorentzForce:
    if scn.force_spec is None:
        raise InputError("scenario needs a 'force' field for this command")
    alg = scn.algebra
    kind, payload = next(iter(scn.force_spec.items()))
    if kind == "matrix":
        return LorentzForce(alg, np.asarray(payload, dtype=float))
    if kind == "exact":
        z = np.asarray(payload["Z"], dtype=float)
        m = np.zeros((alg.dim, alg.dim))
        m[: alg.dim_v, : alg.dim_v] = alg.j_map(z)
        return LorentzForce(alg, m)
    if kind == "type2_U":
        return type2_from_vector(alg, np.asarray(payload, dtype=float))
    if kind == "rates":
        if alg.dim != 5 or alg.dim_v != 4:
            raise UnsupportedForceError(
                "rate-pair forces are defined on the 5-dimensional Heisenberg group"
            )
        from .h5_type1 import H5Force

        mu1, mu2 = (float(x) for x in payload)
        return LorentzForce(alg, H5Force.from_rates(mu1, mu2).matrix)
    raise InputError(f"unknown force kind {kind!r}")


# -- output helpers ------------------------------------------------------------


def _json_default(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit_json(doc: dict, out_dir: str | None, filename: str) -> None:
    text = json.dumps(doc, indent=2, default=_json_default)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        log.info("wrote %s", path)
    else:
        print(text)


def _write_csv(out_dir: str, filename: str, ts, xi, speeds) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    dim = xi.shape[1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"xi_{i + 1}" for i in range(dim)] + ["speed"])
        for t, row, s in zip(ts, xi, speeds):
            writer.writerow([f"{t:.17g}"] + [f"{x:.17g}" for x in row] + [f"{s:.17g}"])
    log.info("wrote %s", path)


# -- trajectory ----------------------------------------------------------------


def cmd_trajectory(args: argparse.Namespace) -> int:
    scn = _load_scenario(args.scenario)
    if args.oracle:
        scn.oracle = True
    if args.tol is not None:
        scn.tolerance = _tolerance(args.tol, "--tol")
    if scn.velocity0 is None:
        raise InputError("trajectory needs an 'initial' field")
    alg = scn.algebra
    force = _build_force(scn)
    ts = np.linspace(0.0, scn.t_max, scn.samples)

    meta: dict[str, Any] = {
        "scenario": scn.canonical(),
        "algebra": {"name": alg.name, "dim": alg.dim, "dim_v": alg.dim_v, "dim_z": alg.dim_z},
        "force_type": force.force_type().value,
        "charge": scn.charge,
        "exact": False,
        "closed_form": True,
        "branch": None,
        "period": None,
    }

    traj = solve(alg, force, scn.charge, scn.velocity0)
    samples = traj.sample(ts)
    meta["solver"] = traj.solver
    if traj.solver == "closed-form-type-1":
        ex = exactness_test(alg, force)
        meta["exact"] = bool(ex.is_exact)
        if ex.is_exact:
            meta["exact_center"] = [float(x) for x in ex.z_tilde]
    elif traj.solver == "closed-form-type-2":
        meta["branch"] = _BRANCH_NAMES[traj.branch.value]
        meta["period"] = traj.period
        meta["modulus"] = traj.modulus
        meta["boundary_margin"] = traj.boundary_margin
    else:
        meta["closed_form"] = False
        meta["warning"] = (
            "no closed-form solver covers this force class; "
            "the curve was integrated numerically"
        )
        log.warning("%s", meta["warning"])
        meta["integrator"] = _integrator_meta(traj.config, samples.stats)

    speeds = np.linalg.norm(samples.velocity, axis=1)
    meta["speed"] = float(speeds[0])
    meta["energy"] = 0.5 * float(speeds[0] ** 2)

    status = EXIT_OK
    if scn.oracle:
        from .oracle import IntegratorConfig, reconstruct_group

        if traj.solver == "oracle":
            dt = scn.t_max / max(2000, 20 * scn.samples)
            cfg = IntegratorConfig(scheme="rk4", dt=dt)
        else:
            cfg = IntegratorConfig(tolerance=1e-11)
        ref = reconstruct_group(alg, force, scn.charge, scn.velocity0, ts, cfg)
        dev_v = float(np.max(np.abs(samples.velocity - ref.velocity)))
        dev_x = float(np.max(np.abs(samples.xi - ref.xi)))
        passed = max(dev_v, dev_x) <= scn.tolerance
        meta["oracle"] = {
            "max_velocity_deviation": dev_v,
            "max_position_deviation": dev_x,
            "tolerance": scn.tolerance,
            "passed": passed,
            "integrator": _integrator_meta(cfg, ref.stats),
        }
        if not passed:
            print(
                f"oracle mismatch: deviation {max(dev_v, dev_x):.3e} "
                f"exceeds tolerance {scn.tolerance:.3e}",
                file=sys.stderr,
            )
            status = EXIT_NUMERIC

    xi = samples.xi
    if scn.start is not None:
        xi = alg.group_mul(scn.start, xi)

    if args.format == "csv":
        if not args.out:
            raise InputError("--format csv needs --out to hold the output files")
        _write_csv(args.out, "trajectory.csv", samples.t, xi, speeds)
        _emit_json(meta, args.out, "metadata.json")
    else:
        doc = {
            "metadata": meta,
            "samples": {
                "t": samples.t,
                "position": xi,
                "velocity": samples.velocity,
                "speed": speeds,
            },
        }
        _emit_json(doc, args.out, "trajectory.json")
    return status


def _integrator_meta(cfg: IntegratorConfig, stats: IntegratorStats) -> dict[str, Any]:
    """Scheme, step control and work counts of one oracle run."""
    tol = cfg.tolerance if cfg.scheme == "dopri45" else None
    return {"scheme": cfg.scheme, "tolerance": tol, "dt": cfg.dt, **dataclasses.asdict(stats)}


# -- classify ------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> int:
    scn = _load_scenario(args.scenario)
    alg = scn.algebra
    sing = alg.classify_singularity()
    injective, sigma = alg.j_injective_on_commutator()
    report: dict[str, Any] = {
        "scenario": scn.canonical(),
        "algebra": {
            "name": alg.name,
            "dim": alg.dim,
            "dim_v": alg.dim_v,
            "dim_z": alg.dim_z,
            "commutator_dim": int(alg.commutator_z_basis().shape[0]),
            "kernel_dim": int(alg.kernel_z_basis().shape[0]),
            "singularity": sing.kind.value,
            "singularity_exhaustive": bool(sing.exhaustive),
            "h_type": bool(alg.is_h_type()),
            "j_injective_on_commutator": bool(injective),
            "j_injective_sigma": float(sigma),
        },
    }
    if scn.force_spec is not None:
        force = _build_force(scn)
        closed = check_closed(alg, force)
        ex = exactness_test(alg, force)
        report["force"] = {
            "type": force.force_type().value,
            "closed": bool(closed.closed),
            "max_residual": closed.max_residual,
            "worst_triple": None if closed.worst_triple is None else list(closed.worst_triple),
            "frobenius_residual": closed.frobenius_residual,
            "exact": bool(ex.is_exact),
            "z_tilde": [float(x) for x in ex.z_tilde],
            "exactness_residual": ex.residual,
        }
    _emit_json(report, args.out, "classify.json")
    return EXIT_OK


# -- periodicity ---------------------------------------------------------------


def _h5_force(scn: Scenario) -> H5Force:
    """The scenario's H5 force with its charge folded in: a trajectory of
    (F, charge) is one of (charge F, 1), the charge periodic_at_energy uses."""
    from .h5_type1 import H5Force

    return H5Force.from_matrix(scn.charge * _build_force(scn).matrix)


def _h5_certificate_doc(force: H5Force, energy: float) -> tuple[dict, int]:
    from .h5_type1 import _VERIFY_TOL, periodic_at_energy, solve_h5, verify_periodic

    cert = periodic_at_energy(force, energy)
    traj = solve_h5(force, cert.v0, cert.z0)
    ok, residual = verify_periodic(traj, cert.period)
    doc = {
        "kind": "Periodic",
        "mode": cert.mode,
        "energy": cert.energy,
        "rates": [force.mu1, force.mu2],
        "v0": [float(x) for x in cert.v0],
        "z0": cert.z0,
        "period": cert.period,
        "drift": cert.drift,
        "verify": {"ok": bool(ok), "residual": residual, "tolerance": _VERIFY_TOL},
    }
    status = EXIT_OK
    if not ok:
        print(
            f"certificate verification failed: residual {residual:.3e}", file=sys.stderr
        )
        status = EXIT_NUMERIC
    return doc, status


def cmd_periodicity(args: argparse.Namespace) -> int:
    scn = _load_scenario(args.scenario)
    alg = scn.algebra
    force = _build_force(scn)
    ftype = force.force_type()

    traj = None
    if ftype is ForceType.TYPE_II:
        if scn.velocity0 is None:
            raise InputError("periodicity of a type-II force needs 'initial'")
        traj = solve(alg, force, scn.charge, scn.velocity0)
    if traj is not None and traj.solver == "closed-form-type-2":
        from .h3_type2 import lambda_kernel_check, lambda_periodicity

        # the report is for the started curve g sigma(t), translated by g lam g^-1
        report = lambda_periodicity(traj, scn.start)
        lam = report.translation
        doc: dict[str, Any] = {
            "scenario": scn.canonical(),
            "kind": _KIND_NAMES[report.kind.value],
            "branch": _BRANCH_NAMES[traj.branch.value],
            "omega": report.omega,
            "translation": None if lam is None else [float(x) for x in lam],
            "residual": report.residual,
        }
        if lam is not None:
            # row 1 of the rotation is charge u / |charge u|, which spans u's line
            doc["translation_in_force_kernel"] = bool(lambda_kernel_check(traj.rotation[1], lam))
        _emit_json(doc, args.out, "periodicity.json")
        return EXIT_OK

    if ftype is ForceType.TYPE_I and alg.same_structure(MetricNilAlgebra.heisenberg(2)):
        if scn.energy is None:
            raise InputError("periodicity on the 5-dim Heisenberg group needs 'energy'")
        doc, status = _h5_certificate_doc(_h5_force(scn), scn.energy)
        doc["scenario"] = scn.canonical()
        _emit_json(doc, args.out, "periodicity.json")
        return status

    raise UnsupportedForceError(
        "periodicity analysis covers vector forces on the 3-dim Heisenberg group "
        "and splitting-preserving forces on the 5-dim one"
    )


def cmd_h5_periodic(args: argparse.Namespace) -> int:
    if args.scenario:
        scn = _load_scenario(args.scenario)
        if not scn.algebra.same_structure(MetricNilAlgebra.heisenberg(2)):
            raise UnsupportedForceError("h5-periodic needs the 5-dim Heisenberg group")
        if scn.energy is None:
            raise InputError("h5-periodic needs an 'energy' field in the scenario")
        force = _h5_force(scn)
        energy = scn.energy
    else:
        if args.rates is None or args.energy is None:
            raise InputError("h5-periodic needs either --scenario or --rates and --energy")
        from .h5_type1 import H5Force

        force = H5Force.from_rates(args.rates[0], args.rates[1])
        energy = args.energy
    doc, status = _h5_certificate_doc(force, energy)
    _emit_json(doc, args.out, "h5_certificate.json")
    return status


# -- selftest ------------------------------------------------------------------


def _selftest_algebras() -> list[MetricNilAlgebra]:
    return [
        MetricNilAlgebra.heisenberg(1),
        MetricNilAlgebra.heisenberg(2),
        MetricNilAlgebra.quaternionic(1),
        MetricNilAlgebra.from_structure(5, [(1, 2, 3, 1.0)], name="h3_plus_r2"),
    ]


def _check(name: str, worst: float, tol: float, failures: list[str]) -> None:
    ok = worst <= tol
    print(f"{'PASS' if ok else 'FAIL'} {name} (worst residual {worst:.3e}, tol {tol:.0e})")
    if not ok:
        failures.append(name)


def _expm(a: np.ndarray) -> np.ndarray:
    """e^A by scaling and squaring a degree-16 Taylor polynomial (Moler & Van Loan, SIAM Review
    45, 2003): no eigendecomposition, so it checks the closed form's spectral split independently."""
    squarings = max(0, int(np.frexp(np.linalg.norm(a, 1))[1]) + 1)  # |A / 2^s|_1 < 1/2
    a, eye = a / 2.0**squarings, np.eye(len(a))
    out = eye
    for k in range(16, 0, -1):  # Horner: I + A/1 (I + A/2 (... (I + A/16)))
        out = eye + a @ out / k
    return np.linalg.matrix_power(out, 2**squarings)


def cmd_selftest(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    failures: list[str] = []
    tol = 1e-10

    worst = 0.0
    for alg in _selftest_algebras():
        for _ in range(25):
            z = rng.standard_normal(alg.dim_z)
            v = rng.standard_normal(alg.dim_v)
            w = rng.standard_normal(alg.dim_v)
            lhs = float(alg.j_map(z) @ v @ w)
            rhs = float(
                z @ alg.z_part(alg.bracket(alg.embed_v(v), alg.embed_v(w)))
            )
            worst = max(worst, abs(lhs - rhs))
    _check("j-map defining identity <j(Z)V,W> = <Z,[V,W]>", worst, tol, failures)

    worst = 0.0
    for alg in _selftest_algebras():
        for _ in range(25):
            x = rng.standard_normal(alg.dim)
            y = rng.standard_normal(alg.dim)
            res = alg.levi_civita(x, y) - alg.levi_civita(y, x) - alg.bracket(x, y)
            worst = max(worst, float(np.max(np.abs(res))))
    _check("torsion-free connection", worst, tol, failures)

    worst = 0.0
    for alg in _selftest_algebras():
        for _ in range(25):
            x = rng.standard_normal(alg.dim)
            y = rng.standard_normal(alg.dim)
            w = rng.standard_normal(alg.dim)
            s = float(alg.levi_civita(x, y) @ w) + float(y @ alg.levi_civita(x, w))
            worst = max(worst, abs(s))
    _check("metric-compatible connection", worst, tol, failures)

    worst = 0.0
    for alg in _selftest_algebras():
        for _ in range(25):
            zc = alg.embed_z(rng.standard_normal(alg.dim_z))
            zd = alg.embed_z(rng.standard_normal(alg.dim_z))
            xv = alg.embed_v(rng.standard_normal(alg.dim_v))
            yv = alg.embed_v(rng.standard_normal(alg.dim_v))
            worst = max(worst, float(np.max(np.abs(alg.levi_civita(zc, zd)))))
            jzx = -0.5 * alg.embed_v(alg.j_map(alg.z_part(zc)) @ alg.v_part(xv))
            worst = max(worst, float(np.max(np.abs(alg.levi_civita(zc, xv) - jzx))))
            worst = max(worst, float(np.max(np.abs(alg.levi_civita(xv, zc) - jzx))))
            half = 0.5 * alg.bracket(xv, yv)
            worst = max(worst, float(np.max(np.abs(alg.levi_civita(xv, yv) - half))))
    _check("covariant-derivative block rules", worst, tol, failures)

    worst = 0.0
    for alg in _selftest_algebras():
        a, b, c = rng.standard_normal((3, 25, alg.dim))
        lhs = alg.group_mul(alg.group_mul(a, b), c)
        rhs = alg.group_mul(a, alg.group_mul(b, c))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    _check("group multiplication associativity", worst, tol, failures)

    h3 = MetricNilAlgebra.heisenberg(1)
    worst = 0.0
    for i in range(3):
        for j in range(i + 1, 3):
            m = np.zeros((3, 3))
            m[i, j], m[j, i] = 1.0, -1.0
            worst = max(worst, check_closed(h3, LorentzForce(h3, m)).max_residual)
    _check("all basis 2-forms closed on the 3-dim Heisenberg group", worst, tol, failures)

    worst = 0.0
    for alg in _selftest_algebras()[1:3]:
        for _ in range(5):
            force = random_closed_type1(alg, rng)
            v0 = rng.standard_normal(alg.dim_v)
            z0 = rng.standard_normal(alg.dim_z)
            sol = solve(alg, force, 1.0, np.concatenate([v0, z0]))
            moving = sol.rates > 0.0  # the rate-0 plane has no A^{-1}
            for th, xi, jxi in zip(sol.rates[moving], sol.xi[moving], sol.jxi[moving]):
                f0 = None
                for t in np.linspace(0.0, 8.0, 9):
                    rot = _expm(t * sol.matrix)  # [e^{tA} xi, e^{tA} A^{-1} xi]
                    ft = alg.z_part(alg.bracket(rot @ xi, rot @ (-jxi / th**2)))
                    if f0 is None:
                        f0 = ft
                    worst = max(worst, float(np.max(np.abs(ft - f0))))
    _check("rotating-pair bracket invariants constant in time", worst, tol, failures)

    if failures:
        print(f"selftest: {len(failures)} check(s) failed", file=sys.stderr)
        return EXIT_NUMERIC
    print("selftest: all structural checks passed")
    return EXIT_OK


# -- argument parsing / entry point --------------------------------------------


def _add_common(sub: argparse.ArgumentParser, scenario_required: bool = True) -> None:
    sub.add_argument(
        "--scenario",
        required=scenario_required,
        help="path to a scenario JSON file",
    )
    sub.add_argument("--out", help="directory for output files (default: print JSON)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nilmag",
        description="magnetic trajectories on 2-step nilpotent Lie groups",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("trajectory", help="sample a magnetic trajectory")
    _add_common(p)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--oracle", action="store_true", help="cross-check numerically")
    p.add_argument("--tol", type=float, default=None, help="oracle mismatch tolerance")
    p.set_defaults(func=cmd_trajectory)

    p = subs.add_parser("classify", help="classify the algebra and force")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("periodicity", help="periodicity analysis / certificate")
    _add_common(p)
    p.set_defaults(func=cmd_periodicity)

    p = subs.add_parser("h5-periodic", help="periodic orbit at a prescribed energy")
    _add_common(p, scenario_required=False)
    p.add_argument("--rates", type=float, nargs=2, metavar=("MU1", "MU2"))
    p.add_argument("--energy", type=float)
    p.set_defaults(func=cmd_h5_periodic)

    p = subs.add_parser("selftest", help="structural identity suite")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_selftest)

    return parser


def _setup_logging() -> None:
    level_name = os.environ.get("NILMAG_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ExactForceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedForceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (NoCertificateError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
