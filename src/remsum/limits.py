"""The rescaling limit profile of B_n near a fixed fraction, and its exact
closed form eta_tilde(x) = frac(x)(frac(x)-1)/(2x) with eta_tilde(0) = -1/2."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exactnum import HALF, Scalar, floor


def eta_tilde(x: Scalar) -> Scalar:
    """Exact limit profile; continuous except at 0, vanishes at nonzero integers."""
    if isinstance(x, int):
        x = Fraction(x)
    if x == 0:
        return -HALF
    frac = x - floor(x)
    return frac * (frac - 1) / (2 * x)


def eta_tilde_prime(x: Scalar) -> Scalar:
    """Derivative 1/2 - floor(x)(floor(x)+1)/(2x^2), off the integers."""
    if isinstance(x, int):
        x = Fraction(x)
    fl = floor(x)
    if x == fl or x == 0:
        raise DomainError("derivative undefined at integers and 0")
    return HALF - fl * (fl + 1) / (2 * x * x)


def rescaled_eta(a_over_b: Fraction, n: int, x: Scalar) -> Scalar:
    """b * B_n(a/b + x/(bn)), the profile of B_n rescaled around a/b."""
    from .sums import B

    if isinstance(x, int):
        x = Fraction(x)
    ab = Fraction(a_over_b)
    b = ab.denominator
    if b > n:
        raise DomainError("need b <= n")
    return b * B(n, ab + x / (b * n))


@dataclass
class DeviationReport:
    a_over_b: Fraction
    n: int
    x_star: Scalar
    grid_step: Scalar
    sup_abs_dev: float
    argmax_x: Scalar


def convergence_report(a_over_b: Fraction, n_list, x_star: Scalar,
                       grid_step: Scalar) -> list[DeviationReport]:
    """Sup-grid deviation of the rescaled profile from eta_tilde, per n.

    Grid points sit at odd multiples of grid_step/2 so they avoid the jump
    set of the rescaled functions.
    """
    ab = Fraction(a_over_b)
    step = Fraction(grid_step)
    xs: list[Fraction] = []
    i = 0
    while True:
        x = (2 * i + 1) * step / 2
        if x > x_star:
            break
        xs.extend([x, -x])
        i += 1
    reports = []
    for n in sorted(n_list):
        sup = -1.0
        argmax: Scalar = Fraction(0)
        for x in xs:
            dev = abs(float(rescaled_eta(ab, n, x) - eta_tilde(x)))
            if dev > sup:
                sup = dev
                argmax = x
        reports.append(DeviationReport(ab, n, x_star, step, sup, argmax))
    return reports
