"""remsum: exact arithmetic for sawtooth remainder sums, Farey sequences,
continued fractions and the associated Dirichlet series."""

from . import cfrac, dirichlet, farey, limits, measure, sums, verify
from .errors import (BoundViolated, DomainError, IncompatibleField,
                     NotIrrational, NotMember, NotNeighbors, PeriodNotFound,
                     PoleAtOne, RemsumError, TooLarge)
from .exactnum import (HALF, QuadExt, Scalar, as_fraction, beta, beta0, floor,
                       format_scalar, is_integer, is_rational, parse_scalar,
                       to_float)

__version__ = "0.1.0"

__all__ = [
    "cfrac", "dirichlet", "farey", "limits", "measure", "sums", "verify",
    "QuadExt", "Scalar", "HALF", "floor", "beta", "beta0", "as_fraction",
    "is_integer", "is_rational", "to_float", "format_scalar", "parse_scalar",
    "RemsumError", "IncompatibleField", "PeriodNotFound", "NotIrrational",
    "DomainError", "NotNeighbors", "TooLarge", "BoundViolated", "NotMember",
    "PoleAtOne",
    "__version__",
]
