"""Exception types shared across the package."""


class RemsumError(Exception):
    """Base class for all library errors."""


class IncompatibleField(RemsumError):
    """Arithmetic between quadratic irrationals over different radicands."""


class PeriodNotFound(RemsumError):
    """Continued-fraction period longer than the allowed number of terms."""


class NotIrrational(RemsumError):
    """An operation defined only for irrational arguments got a rational one."""


class DomainError(RemsumError):
    """Argument outside the stated domain of an operation."""


class NotNeighbors(RemsumError):
    """Two fractions are not consecutive in the relevant Farey sequence."""


class TooLarge(RemsumError):
    """An enumeration guard was exceeded."""


class BoundViolated(RemsumError):
    """An asserted inequality failed; carries the witness."""


class NotMember(RemsumError):
    """A sample point is outside the set a verification run requires."""


class PoleAtOne(RemsumError):
    """zeta evaluated at s = 1."""
