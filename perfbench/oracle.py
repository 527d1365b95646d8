"""Exact oracle for the benchmark, written without the remsum package.

It rests on one identity: S(n,t) = t*n(n+1)/2 - n/2 - F(n,t) with the
integer F(n,t) = sum of floor(k t) for k <= n.  F is computed with
`math.isqrt` for quadratic t = (p + q*sqrt(d))/r and with the modular loop
for rational t.  Values are compared with the library through its bit-exact
text format, so the oracle depends on no library internals.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import mpmath

QUAD_RE = re.compile(r"^\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(\d+)$")
RAT_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")


def parse(text: str):
    """(p, q, d, r) for "(p+q*sqrt(d))/r", a Fraction for "a/b" or "a"."""
    text = text.strip()
    m = QUAD_RE.match(text)
    if m:
        p, q, d, r = (int(m.group(i)) for i in range(1, 5))
        if r <= 0 or d <= 1 or math.isqrt(d) ** 2 == d:
            raise ValueError(f"not a quadratic irrational: {text!r}")
        return p, q, d, r
    m = RAT_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse scalar {text!r}")
    return Fraction(int(m.group(1)), int(m.group(2) or 1))


def quad_from_cf(pre, period) -> str:
    """Text "(p+q*sqrt(d))/r" of the eventually periodic <0; pre, (period)>."""
    # purely periodic tail y = <period; y> solves k1 y^2 + (k0 - h1) y - h0 = 0
    h0, h1, k0, k1 = 1, period[0], 0, 1
    for c in period[1:]:
        h0, h1 = h1, c * h1 + h0
        k0, k1 = k1, c * k1 + k0
    u, v, disc = h1 - k0, 2 * k1, (h1 - k0) ** 2 + 4 * k1 * h0  # y = (u+sqrt)/v
    # t = <0; pre..., y> = (A y + B)/(C y + D): product of [[c, 1], [1, 0]]
    A, B, C, D = 0, 1, 1, 0
    for c in pre:
        A, B, C, D = A * c + B, A, C * c + D, C
    X, Y = A * u + B * v, C * u + D * v  # t = (X + A sqrt)/(Y + C sqrt)
    p, q, r = X * Y - A * C * disc, A * Y - X * C, Y * Y - C * C * disc
    if r < 0:
        p, q, r = -p, -q, -r
    g = math.gcd(math.gcd(p, q), r)
    return f"({p // g}{q // g:+d}*sqrt({disc}))/{r // g}"


def floor_prefix(t, n_max: int) -> list[int]:
    """[F(0,t), F(1,t), ..., F(n_max,t)] with F(n,t) = sum floor(k t)."""
    out = [0]
    total = 0
    if isinstance(t, Fraction):
        a, b = t.numerator, t.denominator
        rem = 0  # k*a mod b
        for k in range(1, n_max + 1):
            rem = (rem + a) % b
            total += (k * a - rem) // b
            out.append(total)
        return out
    p, q, d, r = t
    qqd = q * q * d
    for k in range(1, n_max + 1):
        m = math.isqrt(k * k * qqd)  # k^2 q^2 d is never a square
        total += (k * p + (m if q > 0 else -m - 1)) // r
        out.append(total)
    return out


def floor_sum(t, n: int) -> int:
    return floor_prefix(t, n)[-1]


def exact_S(t, n: int, F: int, zero_at_integers: bool = False):
    """S(n,t) from F(n,t); with zero_at_integers, S0 (beta0 terms) instead.

    Returns a Fraction for rational t and (P, Q, d, R) = (P + Q sqrt(d))/R
    for quadratic t."""
    m = n * (n + 1)
    if isinstance(t, Fraction):
        s = t * m / 2 - Fraction(n, 2) - F
        if zero_at_integers:
            s += Fraction(n // t.denominator, 2)  # beta0 = 0 where k t is integral
        return s
    p, q, d, r = t
    return p * m - r * n - 2 * r * F, q * m, d, 2 * r


def same_value(text: str, expected) -> bool:
    """Is the library's text form `text` equal to the oracle value `expected`?"""
    got = parse(text)
    if isinstance(expected, Fraction):
        return got == expected
    P, Q, d, R = expected
    if isinstance(got, Fraction):
        return Q == 0 and got == Fraction(P, R)
    p2, q2, d2, r2 = got
    return (p2 * R == P * r2 and (q2 > 0) == (Q > 0)
            and q2 * q2 * d2 * R * R == Q * Q * d * r2 * r2)


def S(t, n: int):
    """S(n,t) exactly (see `exact_S`)."""
    return exact_S(t, n, floor_sum(t, n))


# -- high-precision references for the Dirichlet series --------------------

EPS = 2.0 ** -52


def mp_value(t):
    if isinstance(t, Fraction):
        return mpmath.mpf(t.numerator) / t.denominator
    p, q, d, r = t
    return (p + q * mpmath.sqrt(d)) / r


def beta0_terms(t, F: list[int]) -> list:
    """[0, beta0(t), ..., beta0(K t)] as mpmath numbers from the exact F."""
    tv = mp_value(t)
    out = [mpmath.mpf(0)]
    for k in range(1, len(F)):
        fl = F[k] - F[k - 1]
        exact_int = isinstance(t, Fraction) and (k * t).denominator == 1
        out.append(mpmath.mpf(0) if exact_int else k * tv - fl - mpmath.mpf(1) / 2)
    return out


def mobius(K: int) -> list[int]:
    mu = [1] * (K + 1)
    is_comp = [False] * (K + 1)
    for p in range(2, K + 1):
        if not is_comp[p]:
            for m in range(p, K + 1, p):
                if m > p:
                    is_comp[m] = True
                mu[m] = -mu[m]
            for m in range(p * p, K + 1, p * p):
                mu[m] = 0
    return mu


def q_terms(b0: list, mu: list[int]) -> list:
    """q_{k,0} = -sum over d|k of mu(d) beta0(k/d t), k <= K."""
    K = len(b0) - 1
    q = [mpmath.mpf(0)] * (K + 1)
    for d in range(1, K + 1):
        if mu[d]:
            for k in range(d, K + 1, d):
                q[k] -= mu[d] * b0[k // d]
    return q


class SeriesReference:
    """mpmath partial sums sum a_k w_k at one s, each with the slack
    4 * N * eps * sum |a_k| |w_k| that a naive float loop may lose."""

    def __init__(self, s: complex, K: int):
        self.s = mpmath.mpc(s.real, s.imag)
        self.pow = [mpmath.mpf(0)] + [mpmath.power(k, -self.s) for k in range(1, K + 2)]
        self.mag = [0.0] + [k ** -s.real for k in range(1, K + 2)]  # |k^-s|

    def dirichlet(self, a: list, a_abs: list[float], K: int):
        """sum_{k<=K} a_k k^-s and its slack."""
        val = mpmath.fsum(a[k] * self.pow[k] for k in range(1, K + 1))
        mag = sum(a_abs[k] * self.mag[k] for k in range(1, K + 1))
        return complex(val), 4 * (K + 1) * EPS * mag

    def abel(self, S0: list, S0_abs: list[float], uptos) -> dict:
        """{N: (sum_{n<N} S0(n) (n^-s - (n+1)^-s), slack)} for each N in uptos."""
        out = {}
        val, mag = mpmath.mpf(0), 0.0
        for n in range(1, max(uptos)):
            if n in uptos:
                out[n] = complex(val), 4 * (n + 1) * EPS * mag
            val += S0[n] * (self.pow[n] - self.pow[n + 1])
            mag += S0_abs[n] * (self.mag[n] + self.mag[n + 1])
        n = max(uptos)
        out[n] = complex(val), 4 * (n + 1) * EPS * mag
        return out
