"""Exception types raised by the library."""


class XTWaveError(ValueError):
    """Base class for all library errors."""


class InvalidRegularityError(XTWaveError):
    """Requested inter-element regularity is incompatible with the degree."""


class OutOfDomainError(XTWaveError):
    """Evaluation point lies outside the closed interval of the space."""


class InvalidTestSpaceError(XTWaveError):
    """Test space can only be derived from a zero-left constrained trial space."""


class UnsupportedRuleError(XTWaveError):
    """Requested quadrature rule size is out of the supported range."""


class IntegrationError(XTWaveError):
    """Integrand returned a non-finite value at a quadrature node."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node


class DomainMismatchError(XTWaveError):
    """Trial and test spaces do not live on the same interval."""


class AssemblyError(XTWaveError):
    """Coefficient or data function is invalid at a quadrature node."""


class InvalidSpaceError(XTWaveError):
    """Space passed to the system assembler carries the wrong constraints."""


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
