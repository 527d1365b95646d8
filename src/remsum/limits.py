"""The rescaling limit profile of B_n near a fixed fraction, and its exact
closed form eta_tilde(x) = frac(x)(frac(x)-1)/(2x) with eta_tilde(0) = -1/2."""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .errors import DomainError
from .exactnum import HALF, Scalar, _exact, floor


def eta_tilde(x: Scalar) -> Scalar:
    """Exact limit profile; continuous except at 0, vanishes at nonzero integers."""
    x = _exact(x)
    if x == 0:
        return -HALF
    frac = x - floor(x)
    return frac * (frac - 1) / (2 * x)


def eta_tilde_prime(x: Scalar) -> Scalar:
    """Derivative 1/2 - floor(x)(floor(x)+1)/(2x^2), off the integers."""
    x = _exact(x)
    fl = floor(x)
    if x == fl or x == 0:
        raise DomainError("derivative undefined at integers and 0")
    return HALF - fl * (fl + 1) / (2 * x * x)


def rescaled_eta(a_over_b: Fraction, n: int, x: Scalar) -> Scalar:
    """b * B_n(a/b + x/(bn)), the profile of B_n rescaled around a/b."""
    from .sums import B

    x = _exact(x)
    ab = Fraction(a_over_b)
    b = ab.denominator
    if b > n:
        raise DomainError("need b <= n")
    return b * B(n, ab + x / (b * n))


DeviationReport = namedtuple(
    "DeviationReport", "a_over_b n x_star grid_step sup_abs_dev argmax_x")


def convergence_report(a_over_b: Fraction, n_list, x_star: Scalar,
                       grid_step: Scalar) -> list[DeviationReport]:
    """Sup-grid deviation of the rescaled profile from eta_tilde, per n.

    Grid points sit at odd multiples of grid_step/2 so they avoid the jump
    set of the rescaled functions.  ValueError for grid_step <= 0 and for
    x_star < grid_step/2, where the grid is empty.
    """
    ab = Fraction(a_over_b)
    step = _exact(grid_step)
    if step <= 0:
        raise ValueError("grid_step must be > 0")
    if x_star < step / 2:
        raise ValueError("x_star < grid_step/2: the grid is empty")
    xs: list[Scalar] = []
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
