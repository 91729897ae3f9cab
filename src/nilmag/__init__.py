"""Magnetic trajectories on 2-step nilpotent Lie groups with left-invariant metrics.

The package computes solutions of the magnetic equation (the Lorentz-force
perturbation of the geodesic equation) in closed form where the force class
allows it, classifies their periodicity, and cross-checks everything against
an independent numerical integrator:

- `algebra`: metric 2-step nilpotent Lie algebras, their j-maps, group law in
  exponential coordinates, and singularity/H-type classification.
- `lorentz`: skew force tensors, splitting classification, closedness of the
  associated 2-form, and exactness (shifted-geodesic) detection.
- `closedform`: trajectories of splitting-preserving forces via the rotation
  spectrum of the combined central + force operator.
- `h3_type2`: trajectories of direction forces on the 3-dim Heisenberg group
  (Jacobi elliptic branches) and their lambda-periodicity trichotomy.
- `h5_type1`: j-commuting forces on the 5-dim Heisenberg group (trajectories
  evaluated by `closedform`) and constructive periodic orbits at every
  prescribed energy.
- `specfun`: complete and incomplete elliptic integrals and Jacobi elliptic
  functions.
- `oracle`: numpy-only adaptive Dormand-Prince / fixed-step RK4 reference
  integrator.
- `cli`: the `nilmag` command-line front end.
"""

from .algebra import MetricNilAlgebra, SingularityKind, SingularityReport
from .closedform import (
    ExactShiftSolution,
    InitialCondition,
    SkewSpectrum,
    TypeISolution,
    solve_exact,
    solve_type1,
    spectral_decompose,
)
from .errors import (
    DegenerateForceError,
    ExactForceError,
    InputError,
    IntegrationError,
    InvalidForceError,
    NilmagError,
    NoCertificateError,
    UnsupportedForceError,
)
from .h3_type2 import (
    Branch,
    PeriodicityKind,
    PeriodicityReport,
    Type2TrajectoryH3,
    lambda_kernel_check,
    lambda_periodicity,
    solve_h3_type2,
    solve_type2_general,
)
from .h5_type1 import (
    H5Branch,
    H5Force,
    H5Trajectory,
    PeriodicCertificate,
    periodic_at_energy,
    solve_h5,
    verify_periodic,
)
from .lorentz import (
    ClosednessReport,
    ExactnessResult,
    ForceType,
    LorentzForce,
    check_closed,
    exactness_test,
    random_closed_type1,
    type2_from_vector,
)
from .oracle import (
    CurveSamples,
    IntegratorConfig,
    IntegratorStats,
    integrate_velocity,
    reconstruct_group,
)
from .specfun import cn, complete_E, complete_K, dn, inverse_cn, inverse_dn, jacobi, sn

__version__ = "0.1.0"

__all__ = [
    "MetricNilAlgebra",
    "SingularityKind",
    "SingularityReport",
    "LorentzForce",
    "ForceType",
    "ClosednessReport",
    "ExactnessResult",
    "check_closed",
    "exactness_test",
    "type2_from_vector",
    "random_closed_type1",
    "InitialCondition",
    "TypeISolution",
    "ExactShiftSolution",
    "SkewSpectrum",
    "spectral_decompose",
    "solve_type1",
    "solve_exact",
    "Type2TrajectoryH3",
    "Branch",
    "PeriodicityKind",
    "PeriodicityReport",
    "solve_h3_type2",
    "solve_type2_general",
    "lambda_periodicity",
    "lambda_kernel_check",
    "H5Force",
    "H5Branch",
    "H5Trajectory",
    "PeriodicCertificate",
    "solve_h5",
    "periodic_at_energy",
    "verify_periodic",
    "IntegratorConfig",
    "IntegratorStats",
    "CurveSamples",
    "integrate_velocity",
    "reconstruct_group",
    "complete_K",
    "complete_E",
    "jacobi",
    "sn",
    "cn",
    "dn",
    "inverse_cn",
    "inverse_dn",
    "NilmagError",
    "InputError",
    "InvalidForceError",
    "DegenerateForceError",
    "UnsupportedForceError",
    "ExactForceError",
    "NoCertificateError",
    "IntegrationError",
    "__version__",
]
