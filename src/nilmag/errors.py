"""Exception types shared across the package."""

from __future__ import annotations


class NilmagError(Exception):
    """Base class for errors raised by this package."""


class InputError(NilmagError, ValueError):
    """Malformed user input (scenario files, CLI arguments, bad shapes)."""


class InvalidForceError(NilmagError, ValueError):
    """A force matrix violates a structural requirement (skewness, closedness)."""


class DegenerateForceError(InvalidForceError):
    """A force family parameter collapses (zero direction vector, etc.)."""


class UnsupportedForceError(NilmagError):
    """The requested solver does not apply to this force/algebra combination."""


class ExactForceError(UnsupportedForceError):
    """An exact H5 force (equal rates mu) has closed orbits at 0 < E < mu^2/2 only, not at this E."""


class NoCertificateError(NilmagError, RuntimeError):
    """No rational frequency-ratio certificate found within the search bounds."""


class IntegrationError(NilmagError, RuntimeError):
    """The numerical integrator failed (step underflow, non-finite state)."""
