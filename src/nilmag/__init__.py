"""Magnetic trajectories on 2-step nilpotent Lie groups with left-invariant metrics.

The package computes solutions of the magnetic equation (the Lorentz-force
perturbation of the geodesic equation) in closed form where the force class
allows it, classifies their periodicity, and cross-checks everything against
an independent numerical integrator:

- `algebra`: metric 2-step nilpotent Lie algebras, their j-maps, group law in
  exponential coordinates, and singularity/H-type classification.
- `lorentz`: skew force tensors, splitting classification, closedness of the
  associated 2-form, exactness (shifted-geodesic) detection, and `solve`.
- `closedform`: the linear closed form, for every force with F([n, n]) = 0,
  via the rotation spectrum of the combined central + force operator.
- `h3_type2`: trajectories of direction forces on the 3-dim Heisenberg group
  (Jacobi elliptic branches) and the kernel condition on their translations.
- `h5_type1`: j-commuting forces on the 5-dim Heisenberg group (trajectories
  evaluated by `closedform`) and constructive periodic orbits at every
  prescribed energy.
- `specfun`: Jacobi elliptic functions, the Jacobi zeta function and the
  elliptic integral of the first kind, from one AGM table per modulus.
- `oracle`: numpy-only adaptive Dormand-Prince / fixed-step RK4 reference
  integrator, and `OracleTrajectory`, the fallback that `solve` returns.
- `samples`: `CurveSamples`, the sampled curve every solver returns, the
  oracle's `IntegratorStats`, the solvers' base class `Trajectory`, and
  `lambda_periodicity`, the periodicity trichotomy of every closed form.
- `cli`: the `nilmag` command-line front end.
"""

import importlib

__version__ = "0.1.0"

# Public name table: submodule -> the names the package re-exports from it.
# A name's submodule is imported on first access (PEP 562), so `import nilmag`
# loads no submodule and each command loads only the modules it runs.
_EXPORTS = {
    "algebra": ("MetricNilAlgebra", "SingularityKind", "SingularityReport"),
    "lorentz": (
        "LorentzForce",
        "ForceType",
        "solve",
        "ClosednessReport",
        "ExactnessResult",
        "check_closed",
        "exactness_test",
        "type2_from_vector",
        "random_closed_type1",
    ),
    "closedform": (
        "InitialCondition",
        "TypeISolution",
        "ExactShiftSolution",
        "SkewSpectrum",
        "spectral_decompose",
        "solve_type1",
        "solve_exact",
    ),
    "h3_type2": ("Type2TrajectoryH3", "Branch", "solve_type2_general", "lambda_kernel_check"),
    "h5_type1": (
        "H5Force",
        "H5Branch",
        "H5Trajectory",
        "PeriodicCertificate",
        "solve_h5",
        "periodic_at_energy",
        "verify_periodic",
    ),
    "oracle": ("IntegratorConfig", "integrate_velocity", "reconstruct_group", "OracleTrajectory"),
    "samples": ("IntegratorStats", "CurveSamples", "Trajectory", "PeriodicityKind", "PeriodicityReport",
                "lambda_periodicity"),
    "specfun": ("complete_K", "jacobi", "cn", "inverse_cn", "inverse_dn"),
    "errors": (
        "NilmagError",
        "InputError",
        "InvalidForceError",
        "DegenerateForceError",
        "UnsupportedForceError",
        "ExactForceError",
        "NoCertificateError",
        "IntegrationError",
    ),
}
_SUBMODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = [*_SUBMODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    mod = _SUBMODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{mod}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
