"""Exception types raised by the library."""


class XTWaveError(ValueError):
    """Base class for all library errors."""


class InvalidRegularityError(XTWaveError):
    """Requested inter-element regularity is incompatible with the degree."""


class OutOfDomainError(XTWaveError):
    """Evaluation point lies outside the closed interval of the space."""


class UnsupportedRuleError(XTWaveError):
    """Requested quadrature rule size is out of the supported range."""


class AssemblyError(XTWaveError):
    """Coefficient or data function is invalid at a quadrature node."""


class InvalidSpaceError(XTWaveError):
    """Spline space is malformed, or has the wrong constraints or interval."""


class SingularSystemError(XTWaveError):
    """A space mode's time system has an exactly zero pivot, or the solution
    fails the residual guard."""


class ConfigError(XTWaveError):
    """Run configuration file is malformed or violates the schema."""


class SolutionFileError(XTWaveError):
    """Solution file is of an unknown or unsupported format, or malformed."""


class InvalidProblemError(XTWaveError):
    """Problem data violate the assumptions of the method (c^2 > 0, c0 bound),
    or a solution that needs its problem carries none."""
