"""Exception types raised by the package."""

__all__ = [
    "CoincidentRoots",
    "DegenerateAction",
    "DegenerateCubic",
    "EnergyDriftExceeded",
    "NewtonDiverged",
    "NoCrossing",
    "NonConvergent",
    "OrbitSchemaError",
    "PoleProximity",
    "SemiclassicsError",
    "StepSizeUnderflow",
]


class SemiclassicsError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateCubic(SemiclassicsError, ValueError):
    """The cubic coupling is zero (or otherwise unusable), so the well
    has no barrier and no third turning point."""


class CoincidentRoots(SemiclassicsError, ValueError):
    """Two turning points coincide to within the degeneracy threshold;
    the energy sits at or near the bottom of the well or the barrier
    top."""


class StepSizeUnderflow(SemiclassicsError):
    """The adaptive integrator demanded a step below its representable
    minimum; the trajectory cannot be continued."""


class EnergyDriftExceeded(SemiclassicsError):
    """|H(x, p) - E| grew past the failure threshold; the integration
    is not trustworthy."""


class NoCrossing(SemiclassicsError):
    """The trajectory never reached the real part of the rightmost
    turning point within the configured horizon."""


class PoleProximity(SemiclassicsError):
    """The response function was evaluated within the exclusion radius
    of one of its poles."""


class NonConvergent(SemiclassicsError):
    """The repetition sum of the response function does not decay
    (instability exponent with nonpositive real part), or decays too
    slowly to sum within the response function's term cap."""


class NewtonDiverged(SemiclassicsError):
    """The complex Newton iteration did not converge within the
    iteration budget."""


class DegenerateAction(SemiclassicsError):
    """dS/dE vanished at a Newton iterate; the pole condition cannot be
    inverted there."""


class OrbitSchemaError(SemiclassicsError, ValueError):
    """An orbit-model document violates the expected schema; the message
    names the offending field."""
