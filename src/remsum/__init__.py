"""remsum: exact arithmetic for sawtooth remainder sums, Farey sequences,
continued fractions and the associated Dirichlet series.

`import remsum` loads the exact core only: `errors`, `exactnum`, `cfrac`
and `sums`, all S(n,t) needs.  The other layers, `dirichlet`, `farey`,
`limits`, `measure` and `verify`, load the first time a run uses them:
`remsum.farey`, `from remsum import farey` and `from remsum import *` all
import the module then (PEP 562), and later uses find it in place."""

from . import cfrac, sums
from .errors import (BoundViolated, DomainError, IncompatibleField,
                     NotIrrational, NotMember, NotNeighbors, PeriodNotFound,
                     PoleAtOne, RemsumError, TooLarge)
from .exactnum import (HALF, QuadExt, Scalar, as_fraction, beta, beta0, floor,
                       format_scalar, is_integer, is_rational, parse_scalar,
                       to_float)

__version__ = "0.1.0"

_LAZY = ("dirichlet", "farey", "limits", "measure", "verify")

__all__ = [
    "cfrac", "dirichlet", "farey", "limits", "measure", "sums", "verify",
    "QuadExt", "Scalar", "HALF", "floor", "beta", "beta0", "as_fraction",
    "is_integer", "is_rational", "to_float", "format_scalar", "parse_scalar",
    "RemsumError", "IncompatibleField", "PeriodNotFound", "NotIrrational",
    "DomainError", "NotNeighbors", "TooLarge", "BoundViolated", "NotMember",
    "PoleAtOne",
    "__version__",
]


def __getattr__(name: str):
    # called only for names not yet bound: importing a submodule binds it
    # on the package, so each layer comes through here once
    if name in _LAZY:
        from importlib import import_module
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
