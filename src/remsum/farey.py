"""Farey sequences, totient/Moebius tables, the Farey counting identity and
the limit function h(x) = 3x/pi^2 + r_x - s_x, with r_x = Phi(n)/x,
s_x = sum of phi(k)/k over k <= n and n = floor(x).

The Farey sequence is walked as integer pairs (`_farey_pairs`), which
`farey()` turns into Fractions.  q_k, Phi_x and its q_k mean are each one
sum of c beta(j t) over integer pairs (j, c) (`exactnum._beta_sum`): four
integer sums, one exact value at the end.

h is computed in integers at rational x = i/D.  One integer prefix of
floor(phi(k) 2^96 / k), shared by every x, and one floor division per x put
r_x - s_x between two integers over 2^96; where both ends round to one
float, that float is float(r_x - s_x).  Only an undecided bracket (x <= 1 in
practice) takes the exact Fraction s_n, summed for that n alone; no
Fraction prefix is kept."""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, repeat
from operator import countOf

from .errors import DomainError, TooLarge
from .exactnum import (HALF, Scalar, _beta_sum, _floor_sqrt_times, _parts,
                       as_fraction, floor)


# fixed-point bits of the s_x prefix that h reads; |r_x - s_x| is about
# 0.3 x for x >= 2, so a bracket about x 2^-96 wide almost never straddles
# a rounding boundary
_H_BITS = 96


class ArithTables(namedtuple("ArithTables", "N phi mu mertens phi_prefix")):
    """Immutable sieve tables: phi, mu, Mertens and totient prefix sums.

    Lists are 1-indexed (index 0 is a dummy).  The integer prefix of
    floor(phi(k) 2^96 / k), which h reads, is built lazily on first use;
    it lives in the instance __dict__, so this subclass has no __slots__."""

    def M(self, x: int) -> int:
        return self.mertens[x] if x >= 1 else 0

    def phi_sum(self, x: int) -> int:
        return self.phi_prefix[x] if x >= 1 else 0

    def s_frac(self, x: int) -> Fraction:
        """Exact s_x = sum of phi(k)/k for k <= x, summed for this x alone."""
        return sum((Fraction(self.phi[k], k) for k in range(1, x + 1)),
                   Fraction(0))

    @functools.cached_property
    def _s_fixed(self) -> list[int]:
        """Index x -> the sum of floor(phi(k) 2^96 / k) over k <= x, so that
        s_x 2^96 lies in [it, it + x)."""
        return list(accumulate(
            ((self.phi[k] << _H_BITS) // k for k in range(1, self.N + 1)),
            initial=0))


def build_tables(N: int) -> ArithTables:
    """Linear sieve for phi and mu, plus Mertens and totient prefix sums.
    TooLarge where its lists of N + 1 entries cannot be allocated: past
    sys.maxsize entries (OverflowError) or past the memory (MemoryError)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    try:
        phi, mu, is_comp = [0] * (N + 1), [0] * (N + 1), [False] * (N + 1)
    except (OverflowError, MemoryError):
        raise TooLarge("the sieve tables do not fit in memory") from None
    phi[1] = mu[1] = 1
    primes: list[int] = []
    for i in range(2, N + 1):
        if not is_comp[i]:
            primes.append(i)
            phi[i] = i - 1
            mu[i] = -1
        for p in primes:
            if i * p > N:
                break
            is_comp[i * p] = True
            if i % p == 0:
                phi[i * p] = phi[i] * p
                mu[i * p] = 0
                break
            phi[i * p] = phi[i] * (p - 1)
            mu[i * p] = -mu[i]
    # mu[0] = phi[0] = 0, so the running sums start at 0 as well
    return ArithTables(N, phi, mu, list(accumulate(mu)), list(accumulate(phi)))


FareySequence = namedtuple("FareySequence", "order fractions")


def _farey_pairs(n: int):
    """Yield (numerator, denominator) of the Farey sequence of order n >= 1
    on [0, 1], in order, by the neighbor recurrence; ints only."""
    a, b, c, d = 0, 1, 1, n
    yield a, b
    while c <= n:
        yield c, d
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b


def farey(n: int) -> FareySequence:
    """Farey sequence of order n on [0, 1], as Fractions of `_farey_pairs`."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return FareySequence(n, [Fraction(a, b) for a, b in _farey_pairs(n)])


def _divisors(k: int) -> list[int]:
    small, large = [], []
    i = 1
    while i * i <= k:
        if k % i == 0:
            small.append(i)
            if i != k // i:
                large.append(k // i)
        i += 1
    return small + large[::-1]


def _midpoint(variant: str) -> bool:
    """False for variant "beta", True for "beta0" (the midpoint convention
    at jumps); ValueError otherwise."""
    if variant in ("beta", "beta0"):
        return variant == "beta0"
    raise ValueError(f"variant must be 'beta' or 'beta0', got {variant!r}")


def _table_index(x: Scalar, tables: ArithTables, name: str) -> int:
    """floor(x) for x > 0 with floor(x) <= tables.N, the range the tables
    cover; ValueError otherwise, before any table is read."""
    if not x > 0:
        raise ValueError(f"{name} must be > 0")
    nx = floor(x)
    if nx > tables.N:
        raise ValueError(f"{name} exceeds table size")
    return nx


def q_k(k: int, t: Scalar, tables: ArithTables, variant: str = "beta") -> Scalar:
    """q_k(t) = -sum over d|k of mu(d) * beta(kt/d); beta0 variant for q_{k,0},
    for 1 <= k <= tables.N."""
    _table_index(k, tables, "k")
    midpoint = _midpoint(variant)
    mu = tables.mu
    return -_beta_sum(t, ((k // d, mu[d]) for d in _divisors(k)), midpoint)


def phi_x(x: Scalar, t: Scalar, tables: ArithTables,
          variant: str = "beta") -> Scalar:
    """Phi_x(t) via the Mertens-weighted form -(1/x) sum_j M(x/j) beta(jt),
    for x > 0 with floor(x) <= tables.N."""
    midpoint = _midpoint(variant)
    nx = _table_index(x, tables, "x")
    M = tables.mertens
    return -_beta_sum(t, ((j, M[nx // j]) for j in range(1, nx + 1)),
                      midpoint) / x


def phi_x_qsum(x: Scalar, t: Scalar, tables: ArithTables,
               variant: str = "beta") -> Scalar:
    """Phi_x(t) as the direct mean (1/x) sum of q_k(t) over k <= x;
    cross-check for phi_x, over the same x.  One sum over the pairs
    (k/d, mu(d)) for k <= x and d | k, taken as the multiples k = m d of
    each d: it reads mu alone, never the Mertens prefix phi_x reads."""
    midpoint = _midpoint(variant)
    nx = _table_index(x, tables, "x")
    mu = tables.mu
    pairs = ((m, mu[d]) for d in range(1, nx + 1) if mu[d]
             for m in range(1, nx // d + 1))
    return -_beta_sum(t, pairs, midpoint) / x


def farey_count(n: int, t: Scalar, tables: ArithTables) -> tuple[int, Scalar]:
    """Number of extended-Farey fractions of order n in [0, t], together with
    the identity value t*sum(phi) + n*Phi_n(t) + 1/2, for
    1 <= n <= tables.N."""
    _table_index(n, tables, "n")
    if t < 0:
        raise DomainError("t must be >= 0")
    p, q, d, r = _parts(t)
    count = 0
    for b in range(1, n + 1):
        # floor(t b) = floor((p b + q b sqrt(d))/r), in integers
        top = (p * b + _floor_sqrt_times(q * b, d) if q else p * b) // r
        count += countOf(map(math.gcd, range(top + 1), repeat(b)), 1)
    lhs = t * tables.phi_sum(n) + n * phi_x(n, t, tables) + HALF
    return count, lhs


def h_values(grid, tables: ArithTables) -> list[float]:
    """h on the given grid of rational x (ints, Fractions or rational
    QuadExts); ValueError for an irrational x, and for floor(|x|) > tables.N.
    h is odd; h(0) = 0."""
    return [_h(x.numerator, x.denominator, tables) for x in map(as_fraction, grid)]


def _h(i: int, D: int, tables: ArithTables) -> float:
    """h(x) for x = i/D, D >= 1: 3x/pi^2 in floats plus float(r_x - s_x),
    correctly rounded, with r_x = Phi(n)/x and n = floor(x).

    r_x 2^E lies in [R, R + 1) for R = floor(Phi(n) D 2^E / i) and s_x 2^E
    in [S, S + n) for the fixed-point prefix S, so r_x - s_x lies in
    [R - S - n, R + 1 - S]/2^E, E = 96.  Where both ends round to one float
    that float is its value; otherwise, as at x = 1 where r_x - s_x = 0,
    the exact s_n is summed for this n alone."""
    if i < 0:
        return -_h(-i, D, tables)
    if not i:
        return 0.0
    n = i // D
    if n > tables.N:
        raise ValueError("x exceeds table size")
    phi_sum = tables.phi_sum(n)
    R = (phi_sum * D << _H_BITS) // i
    S = tables._s_fixed[n]
    diff = (R - S - n) / (1 << _H_BITS)
    if diff != (R + 1 - S) / (1 << _H_BITS):
        diff = float(Fraction(phi_sum * D, i) - tables.s_frac(n))
    return 3 * (i / D) / math.pi ** 2 + diff
