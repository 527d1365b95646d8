"""Dirichlet series of the centered remainders and their Moebius companions,
with explicit truncation-tail accounting, plus an Euler-Maclaurin zeta.

All tail bounds are conservative: integral comparison for Re(s) > 1, Abel
summation with the observed maximum of |S0(n,t)| in the strip 0 < Re(s) <= 1
("evidence" mode; no analytic claim is attached to those numbers).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from . import sums
from .errors import DomainError, PoleAtOne
# `to_float` is no longer used here; the name stays because the benchmark
# tracer (perfbench/tracer.py) wraps it in every layer namespace and its
# self-test reaches it as `dirichlet.to_float`.
from .exactnum import Scalar, to_float  # noqa: F401
from .farey import ArithTables


@dataclass
class SeriesEval:
    value: complex
    truncation_K: int
    tail_bound: float
    mode: str = "strict"


# Bernoulli numbers B_2, B_4, ..., B_20
_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
              Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
              Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
              Fraction(-174611, 330)]

_ZETA_CUTOFF = 50
_ZETA_MAX_IM = 50


def zeta(s) -> complex:
    """Riemann zeta by Euler-Maclaurin; error below 1e-12 for Re(s) in (0, 30]
    and |Im(s)| <= 50.  Raises DomainError for |Im(s)| > 50, where the fixed
    cutoff no longer meets that bound."""
    s = complex(s)
    if s == 1:
        raise PoleAtOne("zeta has a pole at s = 1")
    if s.real <= 0:
        raise ValueError("evaluation restricted to Re(s) > 0")
    if abs(s.imag) > _ZETA_MAX_IM:
        raise DomainError(f"|Im(s)| > {_ZETA_MAX_IM}: error bound does not hold")
    N = _ZETA_CUTOFF
    total = sum(n ** (-s) for n in range(1, N))
    total += N ** (1 - s) / (s - 1) + N ** (-s) / 2
    for k, b2k in enumerate(_BERNOULLI, start=1):
        # term: B_{2k}/(2k)! * s(s+1)...(s+2k-2) * N^{-s-2k+1}
        fact = math.factorial(2 * k)
        poch = 1 + 0j
        for i in range(2 * k - 1):
            poch *= s + i
        total += float(b2k) / fact * poch * N ** (-s - 2 * k + 1)
    return total


# -- term tables -----------------------------------------------------------


def beta0_float_table(t: Scalar, K: int, s0=None) -> list[float]:
    """[0.0, beta0(t), beta0(2t), ...] as floats, derived from exact values."""
    if s0 is None:
        s0 = sums.s0_prefix(t, K)
    return [0.0] + [float(s0[k] - s0[k - 1]) for k in range(1, K + 1)]


def _s0_floats(t: Scalar, K: int, s0=None) -> list[float]:
    if s0 is None:
        s0 = sums.s0_prefix(t, K)
    return [float(v) for v in s0[:K + 1]]


# -- series ----------------------------------------------------------------


def f_beta_partial(t: Scalar, s, K: int, s0=None) -> SeriesEval:
    """Partial sum of beta0(kt)/k^s through K with an explicit tail bound."""
    s = complex(s)
    terms = beta0_float_table(t, K, s0=s0)
    value = sum(terms[k] * k ** (-s) for k in range(1, K + 1))
    sigma = s.real
    if sigma > 1:
        tail = 0.5 * K ** (1 - sigma) / (sigma - 1)
        mode = "strict"
    elif sigma > 0:
        a = max(abs(v) for v in _s0_floats(t, K, s0=s0))
        tail = a * (sigma + abs(s)) / (sigma * K ** sigma)
        mode = "evidence"
    else:
        raise ValueError("need Re(s) > 0")
    return SeriesEval(value, K, tail, mode)


def f_beta_mellin(t: Scalar, s, X: int, s0=None) -> SeriesEval:
    """s * integral_1^X B_{x,0}(t) x^{-s} dx in closed form, using the
    piecewise-constant structure of the exact prefix sums S0(n,t)."""
    s = complex(s)
    sf = _s0_floats(t, X, s0=s0)
    value = sum(sf[n] * (n ** (-s) - (n + 1) ** (-s)) for n in range(1, X))
    sigma = s.real
    if sigma > 1:
        # |S0(x,t)| <= x/2 gives |s * int_X^inf S0 x^{-s-1} dx| <= ...
        tail = abs(s) * X ** (1 - sigma) / (2 * (sigma - 1))
        mode = "strict"
    elif sigma > 0:
        a = max(abs(v) for v in sf)
        tail = abs(s) * a * X ** (-sigma) / sigma
        mode = "evidence"
    else:
        raise ValueError("need Re(s) > 0")
    return SeriesEval(value, X, tail, mode)


def f_q_partial(t: Scalar, s, K: int, tables: ArithTables,
                s0=None) -> SeriesEval:
    """Partial sum of q_{k,0}(t)/k^s through K.

    The tail bound uses |q_{k,0}| <= d(k)/2 <= sqrt(k) and needs Re(s) > 3/2;
    otherwise it is reported as infinity."""
    if K > tables.N:
        raise ValueError("K exceeds table size")
    s = complex(s)
    b0 = beta0_float_table(t, K, s0=s0)
    q = [0.0] * (K + 1)
    for d in range(1, K + 1):
        m = tables.mu[d]
        if m:
            for k in range(d, K + 1, d):
                q[k] -= m * b0[k // d]
    value = sum(q[k] * k ** (-s) for k in range(1, K + 1))
    sigma = s.real
    tail = K ** (1.5 - sigma) / (sigma - 1.5) if sigma > 1.5 else math.inf
    return SeriesEval(value, K, tail, "strict" if sigma > 1.5 else "evidence")


def continuation_evidence(t: Scalar, s_grid, K: int, s0=None) -> list[dict]:
    """Abel-summed series at increasing truncation levels; decreasing Cauchy
    differences are the (purely numerical) continuation evidence."""
    sf = _s0_floats(t, K, s0=s0)
    levels = [max(K // 25, 2), max(K // 5, 3), K]
    out = []
    for s in s_grid:
        s = complex(s)
        if s.real <= 0:
            raise ValueError("need Re(s) > 0")
        diffs = [sf[n] * (n ** (-s) - (n + 1) ** (-s)) for n in range(1, K)]
        values = [sum(diffs[:L - 1]) for L in levels]
        cauchy = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
        out.append({"s": s, "levels": levels, "values": values,
                    "cauchy_diffs": cauchy,
                    "decreasing": all(cauchy[i + 1] < cauchy[i]
                                      for i in range(len(cauchy) - 1))})
    return out
