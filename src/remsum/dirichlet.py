"""Dirichlet series of the centered remainders and their Moebius companions,
with explicit truncation-tail accounting, plus an Euler-Maclaurin zeta.

All tail bounds are conservative: integral comparison for Re(s) > 1, Abel
summation with the observed maximum of |S0(n,t)| in the strip 0 < Re(s) <= 1
("evidence" mode; no analytic claim is attached to those numbers).

Every series reads two float tables, beta0(kt) for k <= K and the prefix
S0(n,t) for n <= K, and `_float_tables` makes both in one pass over k, each
entry float() of the exact value bit for bit.  Rational t = p/r is exact in
ints: beta0(kt) = (2(kp mod r) - r)/(2r), and 0 where r | k.  Irrational t
reads one fixed-point constant floor(t 2^E) per (t, K): each entry is
bracketed between two integers over 2^E, and where both ends round to the
same float that float is the entry's (Ziv's rounding test).  Next to an
integer k t the pass takes the exact floor of k t, and an entry whose
bracket straddles a rounding boundary is float() of its exact value.
Every series also reads the powers 1^(-s), ..., K^(-s) (`_powers`), each
k ** (-s) as Python computes it, and sums the products with a float table
in one C-level `map`, term for term and in the order of a loop over
k = 1..K.  The Abel sums read the differences n^(-s) - (n+1)^(-s) of those
powers, each the one float subtraction of the two, the same way.  Each
product is taken complex operand first: a float times a complex first
tries float's multiply, which declines, and then complex's, which reads the
float as (x, 0.0); the complex first goes straight there.  The four real
products are the same and each part adds the same two of them, so every
term keeps its bits (IEEE products and sums commute), and the sums add the
terms in the same order.  Every series refuses an s that is not finite
with Re(s) > 0 (ValueError) before it builds or reads a table, and a K
whose tables cannot be allocated raises TooLarge before any entry is
computed.

The q_{k,0} float table is q[k] = -sum of mu(d) beta0(kt/d) over d | k,
each q[k] taking its terms in increasing d, as one subtraction per multiple
of each d in turn would.  It is built from strided slices: one per d <= K/6
with mu(d) != 0 (q[k] - (-y) is q[k] + y bit for bit), then for the d past
K/6 one per multiple index i <= c of the d that share c = K // d, these
groups taken in increasing d (`f_q_partial`).

Two memos hold tables between calls; callers only read them.
- `_float_tables` keeps the pair of float tables of the last (t, K) it was
  built for, keyed on t's integer parts, so an s grid at one (t, K) builds
  it once and hashes no QuadExt.  It stays allocated until a call with
  another (t, K): two lists of K + 1 floats, 6.4 MB at K = 10^5
  (tracemalloc), growing linearly in K.  The first `f_q_partial`
  at that (t, K) adds its q_{k,0} float table to the pair (`_Pair.q`),
  K + 1 more floats (3.2 MB at K = 10^5), and later calls at that (t, K)
  read it; it is dropped with the pair.  q depends on t and K alone: the
  Moebius values of every `ArithTables` with N >= K agree on d <= K.  The
  strip's tail bounds read max |S0(n,t)| over n <= K, which the pair
  computes on its first read and keeps (`_Pair.s0_max`).
- `_powers` keeps the power tables of the current K, keyed by s, so a grid
  of t that shares an s grid computes each power once; the first Abel sum
  at an s adds the K - 1 differences of its table (`_Powers.diffs`), which
  go with it.  One rule decides what is kept: an s is kept whole or not at
  all.  If its 2K - 1 entries, powers and differences, fit in
  _POWERS_BUDGET = 2^18, each kept s reserves them, so at most
  _POWERS_BUDGET // (2K - 1) values of s are kept, the oldest dropped
  before a new one is stored: never more than 2^18 entries in all (41 bytes
  an entry, 10.2 MiB by tracemalloc).  Otherwise nothing is stored, and
  the powers and their differences are computed as the sum reads them.  A
  call at another K drops every kept s; until then they stay allocated.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import islice, pairwise, repeat, starmap
from operator import add, mul, sub

from . import sums
from .errors import DomainError, PoleAtOne, TooLarge
from .exactnum import Scalar, _make, _parts, beta0, floor
# `to_float` is no longer used here; the name stays because the benchmark
# tracer (perfbench/tracer.py) wraps it in every layer namespace and its
# self-test reaches it as `dirichlet.to_float`.
from .exactnum import to_float  # noqa: F401
# `ArithTables` (farey) names a type in annotations only, which are never
# evaluated, so loading this module does not load farey.


SeriesEval = namedtuple("SeriesEval", "value truncation_K tail_bound mode",
                        defaults=("strict",))


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


class _Pair(tuple):
    """The pair of float tables of one (t, K), in `q` the float table of
    q_{k,0}(t) once `f_q_partial` has built it (None until then), and in
    `s0_max` max |S0(n,t)| over n <= K, built on its first read."""

    q = None

    @functools.cached_property
    def s0_max(self) -> float:
        return max(map(abs, self[1]))


def _float_tables(t: Scalar, K: int):
    """The float tables of (t, K), from the memo `_tables_at`, which is
    keyed on t's integer parts `_parts(t)`: a hit hashes four ints and K,
    not a QuadExt, and equal t, however written, share one build."""
    return _tables_at(_parts(t), K)


@functools.lru_cache(maxsize=1)
def _tables_at(parts: tuple[int, int, int, int], K: int):
    """([0.0, beta0(t), ..., beta0(Kt)], [S0(0,t), S0(1,t), ..., S0(K,t)])
    for the t of parts = `_parts(t)`, each entry float() of the exact
    value, both built in one pass over k, as a `_Pair`.  The lists are
    shared through the memo; callers only read them.
    Every table, and so every series, needs K >= 1; ValueError otherwise.
    Both lists are allocated before the pass and filled by index; TooLarge
    where they cannot be: past sys.maxsize entries (OverflowError) or past
    the memory (MemoryError).

    For irrational t the pass reads x_k = k T, T = floor(t 2^E): k t 2^E lies
    in (x_k, x_k + k), so beta0(kt) 2^E lies in (m_k, m_k + k) with
    m_k = (x_k mod 2^E) - 2^(E-1), and S0(n,t) 2^E in (M_n, M_n + n(n+1)/2)
    with M_n the sum of m_k over k <= n.  Where the bracket of k t reaches
    the next integer, (x_k mod 2^E) + k >= 2^E, the floor of k t is taken
    exactly (one isqrt) and m_k corrected by it; unchecked, both ends of a
    bracket there may round to 0.5 while beta0(kt) is near -1/2.  An entry
    whose two ends round to different floats is float() of the exact value,
    beta0(kt) or `sums.exact_S` (S0 = S at irrational t).
    The ends are nonzero integers over 2^E with no underflow, so an entry
    whose ends agree is not a signed zero and that float is its value.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    try:
        b0, s0 = [0.0] * (K + 1), [0.0] * (K + 1)
    except (OverflowError, MemoryError):
        raise TooLarge("the float tables do not fit in memory") from None
    p, q, d, r = parts
    if not q:  # t = p/r: beta0(kt) = (2(kp mod r) - r)/(2r), and 0 where r | k
        r2, v = 2 * r, 0
        for k in range(1, K + 1):
            u = 2 * (k * p % r) - r if k % r else 0
            v += u
            b0[k] = u / r2
            s0[k] = v / r2
        return _Pair((b0, s0))
    t = _make(p, q, d, r)  # the QuadExt of these parts
    # the S0 brackets are n(n+1)/2 wide against values of O(log n)
    E = 64 + 3 * K.bit_length()
    one, half, ulp = 1 << E, 1 << (E - 1), 2.0 ** -E
    T = floor(t * one)
    y, step = 0, T & (one - 1)  # y = x_k mod 2^E
    M = M_hi = 0
    for k in range(1, K + 1):
        y += step
        if y >= one:
            y -= one
        m = y - half
        m_hi = m + k
        if m_hi >= half and floor(k * t) != (k * T) >> E:
            m -= one  # k t lies just past an integer
            m_hi -= one
        M += m
        M_hi += m_hi
        v = ulp * m  # a power of 2 times an int: m/2^E correctly rounded
        b0[k] = v if v == ulp * m_hi else float(beta0(k * t))
        v = ulp * M
        s0[k] = v if v == ulp * M_hi else float(sums.exact_S(k, t))
    return _Pair((b0, s0))


# -- series ----------------------------------------------------------------


def _check_s(s) -> complex:
    """s as a complex; ValueError unless it is finite with Re(s) > 0."""
    s = complex(s)
    if not (cmath.isfinite(s) and s.real > 0):
        raise ValueError(f"need finite s with Re(s) > 0, got {s}")
    return s


_POWERS_BUDGET = 1 << 18
# power tables of one K, keyed by the bits of s (so that -0.0 and 0.0 parts
# stay apart), oldest first
_powers_memo: dict = {}


class _Powers(list):
    """A stored power table, and in `diffs` the list of its differences
    table[n-1] - table[n] once an Abel sum has stored it (None until then)."""

    diffs = None


def _powers(s: complex, K: int, diffs: bool = False):
    """An iterator over 1 ** (-s), 2 ** (-s), ..., K ** (-s), or with
    `diffs` over n ** (-s) - (n+1) ** (-s) for n = 1..K-1.  One rule keeps
    them (module docstring): an s whose 2K - 1 entries fit in _POWERS_BUDGET
    is kept whole, with at most _POWERS_BUDGET // (2K - 1) values of s kept,
    the oldest dropped first; past it nothing is stored, and both are
    computed as they are read."""
    memo = _powers_memo
    if memo and len(next(iter(memo.values()))) != K:
        memo.clear()
    if 2 * K - 1 > _POWERS_BUDGET:
        powers = map(pow, range(1, K + 1), repeat(-s))
        return starmap(sub, pairwise(powers)) if diffs else powers
    key = (s.real.hex(), s.imag.hex())
    table = memo.get(key)
    if table is None:
        while len(memo) >= _POWERS_BUDGET // (2 * K - 1):
            del memo[next(iter(memo))]
        table = memo[key] = _Powers(map(pow, range(1, K + 1), repeat(-s)))
    if not diffs:
        return iter(table)
    if table.diffs is None:
        table.diffs = list(map(sub, table, islice(table, 1, None)))
    return iter(table.diffs)


def _dot(terms: list[float], s: complex, K: int):
    """The sum of terms[k] * k^(-s) over k = 1..K, in that order, each
    product taken complex operand first (module docstring)."""
    return sum(map(mul, _powers(s, K), islice(terms, 1, None)))


def _abel_terms(sf, s: complex, X: int):
    """sf[n] * (n^(-s) - (n+1)^(-s)) for n = 1..X-1, in that order, each
    difference read from `_powers(s, X, diffs=True)` and taken as the
    first operand."""
    return map(mul, _powers(s, X, diffs=True), islice(sf, 1, None))


def f_beta_partial(t: Scalar, s, K: int, s0=None) -> SeriesEval:
    """Partial sum of beta0(kt)/k^s through K with an explicit tail bound.

    `s0` is accepted for old callers and not read: the terms come from the
    retained float tables."""
    s = _check_s(s)
    pair = _float_tables(t, K)
    value = _dot(pair[0], s, K)
    sigma = s.real
    if sigma > 1:
        tail = 0.5 * K ** (1 - sigma) / (sigma - 1)
        mode = "strict"
    else:
        tail = pair.s0_max * (sigma + abs(s)) / (sigma * K ** sigma)
        mode = "evidence"
    return SeriesEval(value, K, tail, mode)


def f_beta_mellin(t: Scalar, s, X: int, s0=None) -> SeriesEval:
    """s * integral_1^X B_{x,0}(t) x^{-s} dx in closed form, using the
    piecewise-constant structure of the exact prefix sums S0(n,t).

    `s0` is accepted for old callers and not read."""
    s = _check_s(s)
    pair = _float_tables(t, X)
    value = sum(_abel_terms(pair[1], s, X), 0j)
    sigma = s.real
    if sigma > 1:
        # |S0(x,t)| <= x/2 gives |s * int_X^inf S0 x^{-s-1} dx| <= ...
        tail = abs(s) * X ** (1 - sigma) / (2 * (sigma - 1))
        mode = "strict"
    else:
        tail = abs(s) * pair.s0_max * X ** (-sigma) / sigma
        mode = "evidence"
    return SeriesEval(value, X, tail, mode)


def f_q_partial(t: Scalar, s, K: int, tables: ArithTables,
                s0=None) -> SeriesEval:
    """Partial sum of q_{k,0}(t)/k^s through K.

    The tail bound uses |q_{k,0}| <= d(k)/2 <= sqrt(k) and needs Re(s) > 3/2;
    otherwise it is reported as infinity.  The q_{k,0} floats are built on
    the first call at (t, K) by strided slices, each q[k] taking its terms
    in increasing d, and kept with its float tables (module docstring).
    `s0` is accepted for old callers and not read."""
    if K > tables.N:
        raise ValueError("K exceeds table size")
    s = _check_s(s)
    pair = _float_tables(t, K)
    q = pair.q
    if q is None:
        b0, mu, D = pair[0], tables.mu, K // 6
        q = [0.0] * (K + 1)
        for d in range(1, D + 1):
            if mu[d]:
                q[d::d] = map(sub if mu[d] > 0 else add, q[d::d], b0[1:K // d + 1])
        # the d > D with one c = K // d, in increasing d: their multiples i d,
        # i <= c, are one slice per i.  No k is hit twice within a group: its
        # d differ by a factor below (c + 1)/c, and no ratio of two i <= c is
        # that small, so the order of i does not matter.
        # A mu(d) = 0 term subtracts +-0.0, which leaves q[k] as it was: q[k]
        # starts at +0.0 and only ever adds or subtracts entries of b0, none
        # of them -0.0, so q[k] is never -0.0 either.
        lo = D + 1
        while lo <= K:
            c = K // lo
            hi = K // c
            for i in range(1, c + 1):
                q[i * lo:i * hi + 1:i] = map(sub, q[i * lo:i * hi + 1:i],
                                             map(mul, repeat(b0[i]), mu[lo:hi + 1]))
            lo = hi + 1
        pair.q = q  # kept only once complete
    value = _dot(q, s, K)
    sigma = s.real
    tail = K ** (1.5 - sigma) / (sigma - 1.5) if sigma > 1.5 else math.inf
    return SeriesEval(value, K, tail, "strict" if sigma > 1.5 else "evidence")


def continuation_evidence(t: Scalar, s_grid, K: int, s0=None) -> list[dict]:
    """Abel-summed series at increasing truncation levels; decreasing Cauchy
    differences are the (purely numerical) continuation evidence.  Each s
    takes one pass over its Abel terms, the three level values read off it
    as the running sum reaches them; no list of terms is built.

    The three levels must increase strictly within [2, K], which needs
    K >= 4; DomainError otherwise.  `s0` is accepted for old callers and not
    read."""
    levels = [max(K // 25, 2), max(K // 5, 3), K]
    if not levels[0] < levels[1] < levels[2]:
        raise DomainError(f"K = {K}: levels {levels} do not increase within "
                          f"[2, K]; need K >= 4")
    grid = list(map(_check_s, s_grid))
    sf = _float_tables(t, K)[1]
    out = []
    for s in grid:
        terms, v = _abel_terms(sf, s, K), 0j
        values = [v := sum(islice(terms, n), v)
                  for n in map(sub, levels, [1] + levels[:-1])]
        cauchy = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
        out.append({"s": s, "levels": levels, "values": values,
                    "cauchy_diffs": cauchy,
                    "decreasing": all(cauchy[i + 1] < cauchy[i]
                                      for i in range(len(cauchy) - 1))})
    return out
