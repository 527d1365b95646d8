"""Farey sequences, totient/Moebius tables, the Farey counting identity and
the limit function h(x) = 3x/pi^2 + r_x - s_x."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DomainError
from .exactnum import HALF, Scalar, _exact, beta, beta0, floor


@dataclass
class ArithTables:
    """Immutable sieve tables: phi, mu, Mertens and totient prefix sums.

    Lists are 1-indexed (index 0 is a dummy).  The exact Fraction prefix of
    phi(k)/k is built lazily because it is only needed for h."""

    N: int
    phi: list[int]
    mu: list[int]
    mertens: list[int]
    phi_prefix: list[int]
    _phi_over_k: list = field(default_factory=list, repr=False)

    def M(self, x: int) -> int:
        return self.mertens[x] if x >= 1 else 0

    def phi_sum(self, x: int) -> int:
        return self.phi_prefix[x] if x >= 1 else 0

    def s_frac(self, x: int) -> Fraction:
        """Exact s_x = sum of phi(k)/k for k <= x."""
        if not self._phi_over_k:
            acc = Fraction(0)
            self._phi_over_k.append(acc)
            for k in range(1, self.N + 1):
                acc += Fraction(self.phi[k], k)
                self._phi_over_k.append(acc)
        return self._phi_over_k[x]


def build_tables(N: int) -> ArithTables:
    """Linear sieve for phi and mu, plus Mertens and totient prefix sums."""
    if N < 1:
        raise ValueError("N must be >= 1")
    phi = [0] * (N + 1)
    mu = [0] * (N + 1)
    phi[1] = mu[1] = 1
    primes: list[int] = []
    is_comp = [False] * (N + 1)
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
    mert = [0] * (N + 1)
    pref = [0] * (N + 1)
    for k in range(1, N + 1):
        mert[k] = mert[k - 1] + mu[k]
        pref[k] = pref[k - 1] + phi[k]
    return ArithTables(N, phi, mu, mert, pref)


@dataclass
class FareySequence:
    order: int
    fractions: list[Fraction]


def farey(n: int) -> FareySequence:
    """Farey sequence of order n on [0, 1] via the neighbor recurrence."""
    if n < 1:
        raise ValueError("order must be >= 1")
    seq = [Fraction(0, 1)]
    a, b, c, d = 0, 1, 1, n
    while c <= n:
        seq.append(Fraction(c, d))
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return FareySequence(n, seq)


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


def _beta_of(variant: str):
    """beta for variant "beta", beta0 for "beta0"; ValueError otherwise."""
    if variant == "beta":
        return beta
    if variant == "beta0":
        return beta0
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
    bfun = _beta_of(variant)
    total: Scalar = Fraction(0)
    for d in _divisors(k):
        m = tables.mu[d]
        if m:
            total = total + m * bfun((k // d) * t)
    return -total


def phi_x(x: Scalar, t: Scalar, tables: ArithTables,
          variant: str = "beta") -> Scalar:
    """Phi_x(t) via the Mertens-weighted form -(1/x) sum_j M(x/j) beta(jt),
    for x > 0 with floor(x) <= tables.N."""
    bfun = _beta_of(variant)
    nx = _table_index(x, tables, "x")
    total: Scalar = Fraction(0)
    for j in range(1, nx + 1):
        m = tables.M(nx // j)
        if m:
            total = total + m * bfun(j * t)
    return -total / x


def phi_x_qsum(x: Scalar, t: Scalar, tables: ArithTables,
               variant: str = "beta") -> Scalar:
    """Phi_x(t) as the direct mean of q_k(t); cross-check for phi_x, over
    the same x."""
    _beta_of(variant)  # also where no q_k is taken (x < 1)
    nx = _table_index(x, tables, "x")
    total: Scalar = Fraction(0)
    for k in range(1, nx + 1):
        total = total + q_k(k, t, tables, variant)
    return total / x


def farey_count(n: int, t: Scalar, tables: ArithTables) -> tuple[int, Scalar]:
    """Number of extended-Farey fractions of order n in [0, t], together with
    the identity value t*sum(phi) + n*Phi_n(t) + 1/2, for
    1 <= n <= tables.N."""
    _table_index(n, tables, "n")
    if t < 0:
        raise DomainError("t must be >= 0")
    count = 0
    for b in range(1, n + 1):
        top = floor(t * b)
        count += sum(1 for a in range(0, top + 1) if math.gcd(a, b) == 1)
    lhs = t * tables.phi_sum(n) + n * phi_x(n, t, tables) + HALF
    return count, lhs


def h_values(grid, tables: ArithTables) -> list[float]:
    """h on the given grid: exact r_x - s_x plus 3x/pi^2 in floats.

    h is odd; h(0) = 0.  Each grid point needs floor(|x|) <= tables.N;
    ValueError otherwise."""
    out = []
    for x in grid:
        out.append(_h_one(x, tables))
    return out


def _h_one(x: Scalar, tables: ArithTables) -> float:
    x = _exact(x)
    if x == 0:
        return 0.0
    sign = 1.0
    if x < 0:
        sign, x = -1.0, -x
    nx = _table_index(x, tables, "x")
    r_x = tables.phi_sum(nx) / x
    s_x = tables.s_frac(nx)
    return sign * (3 * float(x) / math.pi ** 2 + float(r_x - s_x))
