"""Dirichlet series of the centered remainders and their Moebius companions,
with explicit truncation-tail accounting, plus an Euler-Maclaurin zeta.

All tail bounds are conservative: integral comparison for Re(s) > 1, Abel
summation with the observed maximum of |S0(n,t)| in the strip 0 < Re(s) <= 1
("evidence" mode; no analytic claim is attached to those numbers).

Every series reads two float tables, beta0(kt) for k <= K and the prefix
S0(n,t) for n <= K.  The tables hold no formula of their own.  Each is one
pass over the integers (n, F(n,t)), F(n,t) = sum of floor(kt) for k <= n,
handed in bulk to `sums._numerators`, the map to the integer numerators of
S0(n,t); beta0(nt) = S0(n,t) - S0(n-1,t) is taken on those numerators.
`_s0_numerators` is that pass, shared by both tables.  Both stages read one
fixed-point constant per (t, K) and are exact: `sums._floor_sums` takes
floor(kt) from k floor(t 2^E) >> E, and `exactnum._quad_floats` rounds each
entry from one floor(sqrt(d) 2^E) by two int true divisions that bracket it.
Where a bracket cannot decide, at a multiple of 2^E or at a rounding
boundary, the entry falls back to the exact isqrt floor or to
`exactnum._quad_float`, so each entry equals float() of the exact value bit
for bit.  Each table is retained for the last (t, K) it
was built for, so an s grid at one (t, K) builds it once.  The retained
tables stay allocated until a call with another (t, K): about 6 MB for the
pair at K = 10^5, growing linearly in K.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, pairwise

from . import sums
from .errors import DomainError, PoleAtOne
from .exactnum import Scalar, _parts, _quad_floats
# `to_float` is no longer used here; the name stays because the benchmark
# tracer (perfbench/tracer.py) wraps it in every layer namespace and its
# self-test reaches it as `dirichlet.to_float`.
from .exactnum import to_float  # noqa: F401
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


def _s0_numerators(t: Scalar, K: int):
    """(d, 2r, the (u, v) of S0(n,t) = (u + v sqrt(d))/(2r) for n = 0..K),
    read from `sums._numerators` in one pass over the integers F(n,t).
    Every table, and so every series, needs K >= 1; ValueError otherwise."""
    if K < 1:
        raise ValueError("K must be >= 1")
    _, _, d, r = _parts(t)
    return d, 2 * r, chain([(0, 0)], sums._numerators(
        t, True, enumerate(sums._floor_sums(t, K), 1)))


def _rounded(d: int, r2: int, uv, K: int) -> tuple[float, ...]:
    """Each (u + v sqrt(d))/r2 of `uv`, correctly rounded in bulk.  The
    numerators of these tables are O(K^2) and their values O(K), so the
    bracket of E = 64 + 3 K.bit_length() bits leaves fallbacks rare."""
    return tuple(_quad_floats(d, r2, uv, 64 + 3 * K.bit_length()))


@functools.lru_cache(maxsize=1)
def _beta0_floats(t: Scalar, K: int) -> tuple[float, ...]:
    """(0.0, beta0(t), ..., beta0(Kt)), each correctly rounded."""
    d, r2, uv = _s0_numerators(t, K)
    # beta0(0) = 0 and beta0(nt) = S0(n) - S0(n-1)
    return _rounded(d, r2, chain([(0, 0)], (
        (u - u0, v - v0) for (u0, v0), (u, v) in pairwise(uv))), K)


@functools.lru_cache(maxsize=1)
def _s0_floats(t: Scalar, K: int) -> tuple[float, ...]:
    """(S0(0,t), S0(1,t), ..., S0(K,t)), each correctly rounded."""
    return _rounded(*_s0_numerators(t, K), K)


def beta0_float_table(t: Scalar, K: int) -> list[float]:
    """[0.0, beta0(t), beta0(2t), ..., beta0(Kt)], each entry float() of the
    exact value, computed from the integers F(k,t).  The table is retained
    for the last (t, K); the list returned is a fresh copy."""
    return list(_beta0_floats(t, K))


# -- series ----------------------------------------------------------------


def _abel_terms(sf, s: complex, X: int):
    """Yield sf[n] * (n^(-s) - (n+1)^(-s)) for n = 1..X-1, computing each
    power once: (n+1)^(-s) is carried into the next term."""
    upper = 1 ** (-s)
    for n in range(1, X):
        lower, upper = upper, (n + 1) ** (-s)
        yield sf[n] * (lower - upper)


def f_beta_partial(t: Scalar, s, K: int, s0=None) -> SeriesEval:
    """Partial sum of beta0(kt)/k^s through K with an explicit tail bound.

    `s0` is accepted for old callers and not read: the terms come from the
    retained float tables."""
    s = complex(s)
    terms = _beta0_floats(t, K)
    value = sum(terms[k] * k ** (-s) for k in range(1, K + 1))
    sigma = s.real
    if sigma > 1:
        tail = 0.5 * K ** (1 - sigma) / (sigma - 1)
        mode = "strict"
    elif sigma > 0:
        a = max(map(abs, _s0_floats(t, K)))
        tail = a * (sigma + abs(s)) / (sigma * K ** sigma)
        mode = "evidence"
    else:
        raise ValueError("need Re(s) > 0")
    return SeriesEval(value, K, tail, mode)


def f_beta_mellin(t: Scalar, s, X: int, s0=None) -> SeriesEval:
    """s * integral_1^X B_{x,0}(t) x^{-s} dx in closed form, using the
    piecewise-constant structure of the exact prefix sums S0(n,t).

    `s0` is accepted for old callers and not read."""
    s = complex(s)
    sf = _s0_floats(t, X)
    value = sum(_abel_terms(sf, s, X))
    sigma = s.real
    if sigma > 1:
        # |S0(x,t)| <= x/2 gives |s * int_X^inf S0 x^{-s-1} dx| <= ...
        tail = abs(s) * X ** (1 - sigma) / (2 * (sigma - 1))
        mode = "strict"
    elif sigma > 0:
        a = max(map(abs, sf))
        tail = abs(s) * a * X ** (-sigma) / sigma
        mode = "evidence"
    else:
        raise ValueError("need Re(s) > 0")
    return SeriesEval(value, X, tail, mode)


def f_q_partial(t: Scalar, s, K: int, tables: ArithTables,
                s0=None) -> SeriesEval:
    """Partial sum of q_{k,0}(t)/k^s through K.

    The tail bound uses |q_{k,0}| <= d(k)/2 <= sqrt(k) and needs Re(s) > 3/2;
    otherwise it is reported as infinity.  `s0` is accepted for old callers
    and not read."""
    if K > tables.N:
        raise ValueError("K exceeds table size")
    s = complex(s)
    b0 = _beta0_floats(t, K)
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
    differences are the (purely numerical) continuation evidence.

    The three levels must increase strictly within [2, K], which needs
    K >= 4; DomainError otherwise.  `s0` is accepted for old callers and not
    read."""
    levels = [max(K // 25, 2), max(K // 5, 3), K]
    if not levels[0] < levels[1] < levels[2]:
        raise DomainError(f"K = {K}: levels {levels} do not increase within "
                          f"[2, K]; need K >= 4")
    sf = _s0_floats(t, K)
    out = []
    for s in s_grid:
        s = complex(s)
        if s.real <= 0:
            raise ValueError("need Re(s) > 0")
        diffs = list(_abel_terms(sf, s, K))
        values = [sum(diffs[:L - 1]) for L in levels]
        cauchy = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
        out.append({"s": s, "levels": levels, "values": values,
                    "cauchy_diffs": cauchy,
                    "decreasing": all(cauchy[i + 1] < cauchy[i]
                                      for i in range(len(cauchy) - 1))})
    return out
