"""Command-line front end for magnetic trajectories on 2-step nilpotent groups.

Subcommands
-----------
trajectory    sample a magnetic trajectory from a scenario file by the solver
              lorentz.solve picks: the linear closed form when F maps [n, n]
              to 0, the H3 elliptic one for a direction force, else the
              numerical integrator (with a warning); optional oracle check.
classify      report the algebra's singularity/H-type classification and the
              force's splitting type, closedness residual, and exactness.
periodicity   with 'energy', the periodic-orbit certificate at that energy of
              a j-commuting force on the 5-dimensional Heisenberg group itself
              (else exit 3; an exact force, rates mu = mu, has one exactly for
              0 < energy < mu^2/2, exit 2 above); without it, the lambda-periodicity trichotomy
              of the curve from 'initial' and its tolerance (the numerical fallback exits 3).
h5-periodic   the same certificate, from a scenario or directly from a pair
              of rotation rates.
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
      "energy":  10.0                              # asks periodicity for the H5 certificate
    }

Scenario vectors and matrices (initial, X0/Z0, start, the force matrix, exact
Z) and all output positions and velocities are in the adapted orthonormal
basis, v coordinates first, not the input basis: for brackets [[1, 3, 2, 1.0]]
the velocity [1, 0, 0.5] puts 0.5 on the centre e2, and
MetricNilAlgebra.to_internal maps e1 + 0.5 e3 to [1, 0.5, 0].

Force payloads have fixed shapes (matrix dim x dim, exact {"Z": [dim_z
numbers]}, type2_U and rates two numbers); a malformed payload or an unknown
field at any level exits 2.  trajectory's exact is the force's own exactness
on every route.  --oracle checks the numerical fallback against RK4 at step
min(t_max / max(2000, 20 samples), 0.005 / max(1, |x0| + |charge| max|F|)).

Exit codes: 0 success, 2 input/scenario error, 3 unsupported force/solver
combination, 4 numeric failure (oracle mismatch, failed certificate search,
failed verification, a NaN or infinite result, which is not written).  Set
NILMAG_LOG=DEBUG|INFO|... for diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import TYPE_CHECKING, Any, NamedTuple

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

_INFO, _WARNING = 20, 30  # logging's levels, which _log reads without importing it

# Output names of h3_type2.Branch and samples.PeriodicityKind, by enum value.
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


class Scenario(NamedTuple):
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
        return getattr(MetricNilAlgebra, m.group(1))(n), name
    if isinstance(spec, dict):
        _fields(spec, {"dim", "brackets", "metric", "name"}, "algebra")
        try:
            dim = _integer(spec["dim"], "algebra.dim")
            brackets = [
                (*(_integer(i, f"algebra.brackets[{n}] index") for i in b[:3]),
                 _number(b[3], f"algebra.brackets[{n}] value"))
                for n, b in enumerate(spec["brackets"])
            ]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"bad inline algebra definition: {exc}") from exc
        metric = None if spec.get("metric") is None else _numbers(spec["metric"], "algebra.metric")
        name = str(spec.get("name", "custom"))
        alg = MetricNilAlgebra.from_structure(dim, brackets, metric=metric, name=name)
        return alg, {"dim": dim, "brackets": [list(b) for b in brackets], "metric": metric, "name": name}
    raise InputError("algebra must be a preset name or an inline definition object")


def _parse_array(data: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A finite array of JSON numbers of the given shape."""
    arr = np.array(_numbers(data, what), dtype=float)
    if arr.shape != shape:
        raise InputError(f"{what} must be an array of {' x '.join(map(str, shape))} numbers")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite")
    return arr


def _fields(obj: Any, known: set[str], what: str) -> dict:
    """obj, a JSON object whose fields all lie in known."""
    if not isinstance(obj, dict):
        raise InputError(f"{what} must be an object")
    unknown = set(obj) - known
    if unknown:
        raise InputError(f"unknown {what} fields: {sorted(unknown)}")
    return obj


def _rates_force(alg: MetricNilAlgebra, rates: list) -> LorentzForce:
    if alg.dim != 5 or alg.dim_v != 4:
        raise UnsupportedForceError("rate-pair forces are defined on the 5-dimensional Heisenberg group")
    from .h5_type1 import H5Force

    return LorentzForce(alg, H5Force.from_rates(*rates).matrix)


# force kind -> (shape of its payload on an algebra, the force built from a
# canonical payload); the exact payload is the object {"Z": central vector}
_FORCE_KINDS = {
    "matrix": (lambda alg: (alg.dim, alg.dim), LorentzForce),
    "exact": (lambda alg: (alg.dim_z,),
              lambda alg, p: LorentzForce(alg, np.pad(alg.j_map(p["Z"]), (0, alg.dim_z)))),
    "type2_U": (lambda alg: (2,), type2_from_vector),
    "rates": (lambda alg: (2,), _rates_force),
}


def _canonical_force(spec: Any, alg: MetricNilAlgebra) -> dict:
    """The force object with its payload checked against _FORCE_KINDS, as floats."""
    if not isinstance(spec, dict) or len(spec) != 1:
        raise InputError(f"force must be an object with exactly one of: {', '.join(_FORCE_KINDS)}")
    ((kind, payload),) = spec.items()
    if kind not in _FORCE_KINDS:
        raise InputError(f"unknown force kind {kind!r}")
    shape = _FORCE_KINDS[kind][0](alg)
    if kind == "exact":
        if "Z" not in _fields(payload, {"Z"}, "force.exact"):
            raise InputError("force.exact needs a 'Z' field")
        return {"exact": {"Z": _parse_array(payload["Z"], shape, "force.exact.Z").tolist()}}
    return {kind: _parse_array(payload, shape, f"force.{kind}").tolist()}


def parse_scenario(data: dict) -> Scenario:
    """Validate a scenario JSON object and normalize it."""
    _fields(data, {"algebra", "force", "charge", "initial", "time", "checks", "energy"}, "scenario")
    if "algebra" not in data:
        raise InputError("scenario needs an 'algebra' field")
    alg, alg_spec = _parse_algebra(data["algebra"])
    force_spec = _canonical_force(data["force"], alg) if "force" in data else None

    charge = _number(data.get("charge", 1.0), "charge")
    if not np.isfinite(charge):
        raise InputError("charge must be finite")

    velocity0 = start = None
    if "initial" in data:
        init = _fields(data["initial"], {"velocity", "X0", "Z0", "start"}, "initial")
        if set(init) - {"start"} not in ({"velocity"}, {"X0", "Z0"}):
            raise InputError("initial needs either 'velocity' or both 'X0' and 'Z0', not both")
        if "velocity" in init:
            velocity0 = _parse_array(init["velocity"], (alg.dim,), "initial velocity")
        else:
            x0 = _parse_array(init["X0"], (alg.dim_v,), "initial X0")
            z0 = _parse_array(init["Z0"], (alg.dim_z,), "initial Z0")
            velocity0 = np.concatenate([x0, z0])
        if "start" in init:
            start = _parse_array(init["start"], (alg.dim,), "start point")

    time = _fields(data.get("time", {}), {"t_max", "samples"}, "time")
    t_max = _number(time.get("t_max", 10.0), "time.t_max")
    samples = _integer(time.get("samples", 201), "time.samples")
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise InputError("time.t_max must be positive")
    if samples < 2:
        raise InputError("time.samples must be at least 2")

    checks = _fields(data.get("checks", {}), {"oracle", "tolerance"}, "checks")
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


def _numbers(data: Any, what: str) -> Any:
    """A JSON number, or a list of such (nested), as floats read by _number."""
    if isinstance(data, (list, tuple)):
        return [_numbers(x, f"{what}[{i}]") for i, x in enumerate(data)]
    return _number(data, what)


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
    ((kind, payload),) = scn.force_spec.items()
    return _FORCE_KINDS[kind][1](scn.algebra, payload)


# -- output helpers ------------------------------------------------------------


def _json_default(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


class _NonFiniteOutput(ArithmeticError):
    """A result holds a NaN or an infinity, so it is not written (exit 4)."""


def _json_text(doc: dict, filename: str) -> str:
    try:
        return json.dumps(doc, indent=2, default=_json_default, allow_nan=False)
    except ValueError as exc:  # JSON has no token for a NaN or an infinity
        raise _NonFiniteOutput(f"{filename} not written, the result is not finite: {exc}") from None


def _emit_json(doc: dict, out_dir: str | None, filename: str) -> None:
    _write_text(_json_text(doc, filename), out_dir, filename)


def _write_text(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _log(_INFO, "wrote %s", path)
    else:
        print(text)


def _write_csv(out_dir: str, filename: str, ts, xi, speeds) -> None:
    if not (np.isfinite(xi).all() and np.isfinite(speeds).all()):
        raise _NonFiniteOutput(f"{filename} not written, the samples are not finite")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, filename)
    header = ["t"] + [f"xi_{i + 1}" for i in range(xi.shape[1])] + ["speed"]
    row = ",".join(["%.17g"] * len(header)) + "\r\n"  # as csv.writer wrote it, with CRLF line ends
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(row % tuple(r) for r in np.column_stack([ts, xi, speeds]).tolist()))
    _log(_INFO, "wrote %s", path)


# -- trajectory ----------------------------------------------------------------


def cmd_trajectory(args: argparse.Namespace) -> int:
    scn = _load_scenario(args.scenario)
    if args.oracle:
        scn = scn._replace(oracle=True)
    if args.tol is not None:
        scn = scn._replace(tolerance=_tolerance(args.tol, "--tol"))
    if scn.velocity0 is None:
        raise InputError("trajectory needs an 'initial' field")
    alg = scn.algebra
    force = _build_force(scn)
    ts = np.linspace(0.0, scn.t_max, scn.samples)

    traj = solve(alg, force, scn.charge, scn.velocity0)
    samples = traj.sample(ts)
    ex = exactness_test(alg, force)
    meta: dict[str, Any] = {
        "scenario": scn.canonical(),
        "algebra": {"name": alg.name, "dim": alg.dim, "dim_v": alg.dim_v, "dim_z": alg.dim_z},
        "force_type": force.force_type().value,
        "charge": scn.charge,
        "exact": bool(ex.is_exact),
        "closed_form": samples.stats is None,
        "branch": None,
        "period": None,
        "solver": traj.solver,
    }
    if ex.is_exact:
        meta["exact_center"] = [float(x) for x in ex.z_tilde]
    if traj.solver == "closed-form-type-2":
        meta.update(branch=_BRANCH_NAMES[traj.branch.value], period=traj.period, modulus=traj.modulus,
                    boundary_margin=traj.boundary_margin)
    if samples.stats is not None:
        meta["warning"] = (
            "no closed-form solver covers this force class; "
            "the curve was integrated numerically"
        )
        _log(_WARNING, "%s", meta["warning"])
        meta["integrator"] = _integrator_meta(traj.config, samples.stats)

    speeds = np.linalg.norm(samples.velocity, axis=1)
    meta["speed"] = float(speeds[0])
    meta["energy"] = 0.5 * float(speeds[0] ** 2)

    status = EXIT_OK
    if scn.oracle:
        from .oracle import IntegratorConfig, reconstruct_group

        if samples.stats is None:
            cfg = IntegratorConfig(tolerance=1e-11)
        else:  # RK4 checks the adaptive fallback, its step set by the rate scale of x' = a(x) + qFx
            rate = np.linalg.norm(scn.velocity0) + abs(scn.charge) * np.abs(force.matrix).max()
            dt = min(scn.t_max / max(2000, 20 * scn.samples), 0.005 / max(1.0, float(rate)))
            cfg = IntegratorConfig(scheme="rk4", dt=dt)
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
        meta_text = _json_text(meta, "metadata.json")  # refused before either file is written
        _write_csv(args.out, "trajectory.csv", samples.t, xi, speeds)
        _write_text(meta_text, args.out, "metadata.json")
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
    return {"scheme": cfg.scheme, "tolerance": tol, "dt": cfg.dt, **stats._asdict()}


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
            # null on an algebra with no commutator, where the map has no singular value
            "j_injective_sigma": float(sigma) if np.isfinite(sigma) else None,
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
    """The scenario's force as an H5Force for a periodic-orbit certificate, with its
    charge folded in: a trajectory of (F, charge) is one of (charge F, 1), the charge
    periodic_at_energy uses.  H5Force.from_matrix refuses a force the construction
    cannot take."""
    if not scn.algebra.same_structure(MetricNilAlgebra.heisenberg(2)):
        raise UnsupportedForceError("periodic-orbit certificates need the 5-dim Heisenberg group")
    if scn.energy is None:
        raise InputError("a periodic-orbit certificate needs an 'energy' field in the scenario")
    from .h5_type1 import H5Force

    return H5Force.from_matrix(scn.charge * _build_force(scn).matrix)


def _h5_certificate_doc(force: H5Force, energy: float) -> tuple[dict, int]:
    from .h5_type1 import _periodic_check, periodic_at_energy, solve_h5

    cert = periodic_at_energy(force, energy)
    traj = solve_h5(force, cert.v0, cert.z0)
    ok, residual, bound, kind = _periodic_check(traj, cert.period)
    doc = {
        "kind": "Periodic" if ok else _KIND_NAMES[kind.value],
        "mode": cert.mode,
        "energy": cert.energy,
        "rates": [force.mu1, force.mu2],
        "v0": [float(x) for x in cert.v0],
        "z0": cert.z0,
        "period": cert.period,
        "drift": traj.drift(),
        "verify": {"ok": bool(ok), "residual": residual, "tolerance": bound},
    }
    if not ok:
        print(f"certificate verification failed: residual {residual:.3e}", file=sys.stderr)
    return doc, EXIT_OK if ok else EXIT_NUMERIC


def cmd_periodicity(args: argparse.Namespace) -> int:
    scn = _load_scenario(args.scenario)
    if scn.energy is not None:
        doc, status = _h5_certificate_doc(_h5_force(scn), scn.energy)
        doc["scenario"] = scn.canonical()
        _emit_json(doc, args.out, "periodicity.json")
        return status
    force = _build_force(scn)
    if scn.velocity0 is None:
        raise InputError("periodicity needs 'initial', or 'energy' for an H5 certificate")
    from .samples import lambda_periodicity

    traj = solve(scn.algebra, force, scn.charge, scn.velocity0)
    # the report is for the started curve g sigma(t), translated by g lam g^-1; the oracle raises
    report = lambda_periodicity(traj, scn.start)
    lam, h3 = report.translation, traj.solver == "closed-form-type-2"
    doc: dict[str, Any] = {"scenario": scn.canonical(), "kind": _KIND_NAMES[report.kind.value]}
    if h3:
        doc["branch"] = _BRANCH_NAMES[traj.branch.value]
    doc.update(omega=report.omega, translation=None if lam is None else [float(x) for x in lam],
               residual=report.residual, tolerance=report.tolerance)
    if h3 and lam is not None:
        from .h3_type2 import lambda_kernel_check

        # row 1 of the rotation is charge u / |charge u|, which spans u's line
        doc["translation_in_force_kernel"] = bool(lambda_kernel_check(traj.rotation[1], lam))
    _emit_json(doc, args.out, "periodicity.json")
    return EXIT_OK


def cmd_h5_periodic(args: argparse.Namespace) -> int:
    if args.scenario:
        scn = _load_scenario(args.scenario)
        force, energy = _h5_force(scn), scn.energy
    elif args.rates is None or args.energy is None:
        raise InputError("h5-periodic needs either --scenario or --rates and --energy")
    else:
        from .h5_type1 import H5Force

        force, energy = H5Force.from_rates(*args.rates), args.energy
    doc, status = _h5_certificate_doc(force, energy)
    _emit_json(doc, args.out, "h5_certificate.json")
    return status


# -- selftest ------------------------------------------------------------------


def _j_identity(alg: MetricNilAlgebra, rng: np.random.Generator) -> float:
    z, v, w = rng.standard_normal(alg.dim_z), rng.standard_normal(alg.dim_v), rng.standard_normal(alg.dim_v)
    return abs(float(alg.j_map(z) @ v @ w) - float(z @ alg.z_part(alg.bracket(alg.embed_v(v), alg.embed_v(w)))))


def _torsion(alg: MetricNilAlgebra, rng: np.random.Generator) -> float:
    x, y = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
    return float(np.max(np.abs(alg.levi_civita(x, y) - alg.levi_civita(y, x) - alg.bracket(x, y))))


def _metric_compatibility(alg: MetricNilAlgebra, rng: np.random.Generator) -> float:
    x, y, w = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
    return abs(float(alg.levi_civita(x, y) @ w) + float(y @ alg.levi_civita(x, w)))


def _block_rules(alg: MetricNilAlgebra, rng: np.random.Generator) -> float:
    zc, zd = alg.embed_z(rng.standard_normal(alg.dim_z)), alg.embed_z(rng.standard_normal(alg.dim_z))
    xv, yv = alg.embed_v(rng.standard_normal(alg.dim_v)), alg.embed_v(rng.standard_normal(alg.dim_v))
    jzx = -0.5 * alg.embed_v(alg.j_map(alg.z_part(zc)) @ alg.v_part(xv))
    res = (alg.levi_civita(zc, zd), alg.levi_civita(zc, xv) - jzx, alg.levi_civita(xv, zc) - jzx,
           alg.levi_civita(xv, yv) - 0.5 * alg.bracket(xv, yv))
    return float(np.max([np.max(np.abs(r)) for r in res]))


def _associativity(alg: MetricNilAlgebra, rng: np.random.Generator) -> float:
    a, b, c = rng.standard_normal((3, 25, alg.dim))
    return float(np.max(np.abs(alg.group_mul(alg.group_mul(a, b), c) - alg.group_mul(a, alg.group_mul(b, c)))))


def _basis_2forms_closed(alg: MetricNilAlgebra, rng: np.random.Generator) -> float:
    e = np.eye(alg.dim)
    forms = [np.outer(e[i], e[j]) - np.outer(e[j], e[i]) for i in range(alg.dim) for j in range(i + 1, alg.dim)]
    return float(np.max([check_closed(alg, LorentzForce(alg, m)).max_residual for m in forms]))


def _expm(a: np.ndarray) -> np.ndarray:
    """e^A by scaling and squaring a degree-16 Taylor polynomial (Moler & Van Loan, SIAM Review
    45, 2003): no eigendecomposition, so it checks the closed form's spectral split independently."""
    squarings = max(0, int(np.frexp(np.linalg.norm(a, 1))[1]) + 1)  # |A / 2^s|_1 < 1/2
    a, eye = a / 2.0**squarings, np.eye(len(a))
    out = eye
    for k in range(16, 0, -1):  # Horner: I + A/1 (I + A/2 (... (I + A/16)))
        out = eye + a @ out / k
    return np.linalg.matrix_power(out, 2**squarings)


def _rotating_pairs(alg: MetricNilAlgebra, rng: np.random.Generator) -> float:
    force = random_closed_type1(alg, rng)
    x0 = np.concatenate([rng.standard_normal(alg.dim_v), rng.standard_normal(alg.dim_z)])
    sol = solve(alg, force, 1.0, x0)
    moving = sol.rates > 0.0  # the rate-0 plane has no A^{-1}
    residuals = [0.0]
    for th, xi, jxi in zip(sol.rates[moving], sol.xi[moving], sol.jxi[moving]):
        rots = [_expm(t * sol.matrix) for t in np.linspace(0.0, 8.0, 9)]
        # [e^{tA} xi, e^{tA} A^{-1} xi] at t = 0, 1, ..., 8
        f = [alg.z_part(alg.bracket(rot @ xi, rot @ (-jxi / th**2))) for rot in rots]
        residuals += [np.max(np.abs(ft - f[0])) for ft in f]
    return float(np.max(residuals))


def _h3_momentum(alg: MetricNilAlgebra, rng: np.random.Generator) -> float:
    """Drift of the momentum of left translations, J_Y = <x, Y - [xi, Y]> + q (<F Y, xi> -
    <F [xi, Y], xi> / 2) for Y = e2, e3, along an H3 elliptic curve, over max(1, |xi|, |x|)."""
    from .h3_type2 import Type2TrajectoryH3

    u, q = rng.standard_normal(2), rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 3.0)
    f = type2_from_vector(alg, u).matrix
    got = Type2TrajectoryH3(rng.standard_normal(3), u, q).sample(np.linspace(0.0, 50.0, 401))
    xi, x, drift = got.xi, got.velocity, 0.0
    for y in np.eye(3)[1:]:
        ad = xi @ np.array([alg.bracket(e, y) for e in np.eye(3)])  # rows [xi, Y]
        j = np.sum(x * (y - ad), axis=1) + q * (xi @ (f @ y) - 0.5 * np.sum(ad @ f.T * xi, axis=1))
        drift = max(drift, float(np.max(np.abs(j - j[0]))))
    return drift / max(1.0, float(np.max(np.abs(xi))), float(np.max(np.abs(x))))


# name, the selftest algebras it runs on (heisenberg(1), heisenberg(2),
# quaternionic(1), H3 x R^2), draws per algebra, the residual of one draw
_SELFTEST_CHECKS = (
    ("j-map defining identity <j(Z)V,W> = <Z,[V,W]>", slice(None), 25, _j_identity),
    ("torsion-free connection", slice(None), 25, _torsion),
    ("metric-compatible connection", slice(None), 25, _metric_compatibility),
    ("covariant-derivative block rules", slice(None), 25, _block_rules),
    ("group multiplication associativity", slice(None), 1, _associativity),
    ("all basis 2-forms closed on the 3-dim Heisenberg group", slice(0, 1), 1, _basis_2forms_closed),
    ("rotating-pair bracket invariants constant in time", slice(1, 3), 5, _rotating_pairs),
    ("H3 elliptic curves conserve the magnetic momentum map", slice(0, 1), 5, _h3_momentum),
)


def cmd_selftest(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    algebras = [
        MetricNilAlgebra.heisenberg(1),
        MetricNilAlgebra.heisenberg(2),
        MetricNilAlgebra.quaternionic(1),
        MetricNilAlgebra.from_structure(5, [(1, 2, 3, 1.0)], name="h3_plus_r2"),
    ]
    failed, tol = 0, 1e-10
    for name, which, draws, residual in _SELFTEST_CHECKS:
        # np.max, unlike max, keeps a NaN residual, which then fails the check
        worst = float(np.max([residual(alg, rng) for alg in algebras[which] for _ in range(draws)]))
        ok = worst <= tol
        print(f"{'PASS' if ok else 'FAIL'} {name} (worst residual {worst:.3e}, tol {tol:.0e})")
        failed += not ok
    if failed:
        print(f"selftest: {failed} check(s) failed", file=sys.stderr)
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


def _log(level: int, msg: str, *args: Any) -> None:
    """Log msg on the "nilmag" logger, set up from NILMAG_LOG (default WARNING).  logging
    is imported only for a record at WARNING or above or at a level NILMAG_LOG enables."""
    level_name = os.environ.get("NILMAG_LOG", "WARNING").upper()
    if level < {"INFO": _INFO, "DEBUG": 10, "NOTSET": 0}.get(level_name, _WARNING):
        return
    import logging

    logging.basicConfig(level=getattr(logging, level_name, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("nilmag").log(level, msg, *args)


def main(argv: list[str] | None = None) -> int:
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
    except (NoCertificateError, IntegrationError, _NonFiniteOutput) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InputError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
