"""Continued fractions: expansion, convergents, evaluation, fundamental intervals.

Everything here is read off one of two integer walks.

- The orbit walk, `_orbit`, expands a quadratic irrational t along its
  orbit under the Gauss map: each state t_j = (P_j + sqrt(D))/Q_j is the
  integer pair (P_j, Q_j) over one D, and the first repeated pair gives
  the eventually periodic form.  The Ostrowski and Gauss-map recursions
  of `sums` walk the same orbit.
- The continuant walk, `_continuants`, runs the forward recurrence of the
  convergents a_k/b_k.  `convergents` lists it, `evaluate` takes its last
  term, `value` solves a period's fixed point from its last two terms and
  maps the pre-period onto it, and `fundamental_interval` reads its
  endpoints a_m/b_m and (a_m + a_{m-1})/(b_m + b_{m-1}) off the same two.

Rationals get their full finite expansion (canonical: last coefficient >= 2
unless the expansion is a single term).
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from itertools import chain, count, islice

from .errors import PeriodNotFound, RationalTerminated
from .exactnum import QuadExt, Scalar, _parts, floor


class CFExpansion(namedtuple("CFExpansion", "lambda0 pre period")):
    """<lambda0; lambdas...>, finite or eventually periodic.

    `pre` holds the coefficients before the period; an empty `period` means
    the expansion is finite.
    """

    __slots__ = ()

    def __new__(cls, lambda0: int, pre: tuple[int, ...] = (),
                period: tuple[int, ...] = ()):
        if any(c < 1 for c in pre) or any(c < 1 for c in period):
            raise ValueError("partial quotients must be >= 1")
        return super().__new__(cls, lambda0, pre, period)

    @property
    def is_finite(self) -> bool:
        return not self.period

    def coeff(self, j: int) -> int:
        """lambda_j for j >= 1 (lambda_0 is the `lambda0` field)."""
        if j < 1:
            raise IndexError("coefficient index must be >= 1")
        if j <= len(self.pre):
            return self.pre[j - 1]
        if self.period:
            return self.period[(j - 1 - len(self.pre)) % len(self.period)]
        raise IndexError(f"finite expansion has only {len(self.pre)} coefficients")

    def __str__(self):
        return format_cf(self)


Convergent = namedtuple("Convergent", "a b k")


def expand(t: Scalar, max_terms: int) -> CFExpansion:
    """Continued-fraction expansion of t; periodic form for quadratic t."""
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    p, q, _, den = _parts(t)
    if not q:
        lam0 = p // den
        coeffs = []
        num = p - lam0 * den
        while num:
            num, den = den, num
            c, r = divmod(num, den)
            coeffs.append(c)
            num = r
        return CFExpansion(lam0, tuple(coeffs))
    coeffs: list[int] = []  # lambda_0, lambda_1, ...
    seen: dict[tuple[int, int], int] = {}  # state of t_j -> j + 1
    for lam, P, Q in islice(_orbit(t), max_terms):
        coeffs.append(lam)
        start = seen.setdefault((P, Q), len(coeffs))
        if start < len(coeffs):
            return CFExpansion(coeffs[0], tuple(coeffs[1:start]), tuple(coeffs[start:]))
    raise PeriodNotFound(f"no period within {max_terms} terms")


def _floor_over(a: int, f: int, c: int) -> int:
    """floor((a + y)/c) for an irrational y with floor(y) = f and c != 0."""
    return (a + f) // c if c > 0 else (-a - f - 1) // -c


def _orbit(t: QuadExt):
    """Yield (lambda_j, P_j, Q_j) for j = 0, 1, ..., in integers only, where
    t = <lambda_0; lambda_1, ..., lambda_{j-1}, lambda_j + t_j> and
    t_j = (P_j + sqrt(D))/Q_j lies in (0, 1), with D = q^2 d r^2 for
    t = (p + q sqrt(d))/r.  Q_j divides D - P_j^2 throughout, so
    1/t_j = (-P_j + sqrt(D))/Q' with Q' = (D - P_j^2)/Q_j, and
    lambda_{j+1} = floor(1/t_j)."""
    p, q, d, r = _parts(t)
    D = (q * r) ** 2 * d
    root = math.isqrt(D)
    P, Q = (p * r, r * r) if q > 0 else (-p * r, -r * r)
    while True:
        lam = _floor_over(P, root, Q)
        P -= lam * Q
        yield lam, P, Q
        P, Q = -P, (D - P * P) // Q


def theta_sequence(t: Scalar, m: int) -> list[Scalar]:
    """Complete quotients theta_1 .. theta_m of t, exactly."""
    out: list[Scalar] = []
    x = t
    for _ in range(m):
        frac = x - floor(x)
        if frac == 0:
            raise RationalTerminated(f"expansion of {t} ends before step {m}")
        x = 1 / frac
        out.append(x)
    return out


def _continuants(lambda0: int, lams):
    """Yield (a_k, b_k) for k = 0, 1, ...: a_0/b_0 = 1/0, a_1/b_1 = lambda0/1
    and a_{k+1} = lambda_k a_k + a_{k-1}, likewise b, so that
    a_k/b_k = <lambda0; lambda_1, ..., lambda_{k-1}>.  `lams` (lambda_1, ...)
    is read lazily, one quotient per term."""
    a0, b0, a, b = 0, 1, 1, 0
    yield a, b
    for lam in chain((lambda0,), lams):
        a0, b0, a, b = a, b, lam * a + a0, lam * b + b0
        yield a, b


def convergents(cf: CFExpansion, upto_k: int) -> list[Convergent]:
    """Convergents a_k/b_k for k = 0..upto_k; a_k/b_k = <l0,...,l_{k-1}>."""
    terms = _continuants(cf.lambda0, map(cf.coeff, count(1)))
    return [Convergent(a, b, k)
            for k, (a, b) in enumerate(islice(terms, max(upto_k, 0) + 1))]


def evaluate(cf: CFExpansion) -> Fraction:
    """Exact rational value of a finite expansion."""
    if not cf.is_finite:
        raise ValueError("evaluate needs a finite expansion")
    *_, (a, b) = _continuants(cf.lambda0, cf.pre)
    return Fraction(a, b)


def value(cf: CFExpansion) -> Scalar:
    """Exact value of the expansion (Fraction if finite, QuadExt if periodic)."""
    if cf.is_finite:
        return evaluate(cf)
    # y = <p1; p2, ..., pL, y> = (h y + h')/(k y + k')
    #   =>  k y^2 + (k' - h) y - h' = 0, and y > 1 is its larger root
    *_, (h1, k1), (h, k) = _continuants(cf.period[0], cf.period[1:])
    y = QuadExt(h - k1, 1, (h - k1) ** 2 + 4 * k * h1, 2 * k)
    *_, (a1, b1), (a, b) = _continuants(cf.lambda0, cf.pre)
    return (a * y + a1) / (b * y + b1)


def fundamental_interval(lambdas) -> tuple[Fraction, Fraction, Fraction]:
    """Interval of irrationals in (0,1) whose expansion starts with `lambdas`.

    Returns (lo, hi, length), endpoints sorted ascending: a/b = <0; lambdas>
    and (a + a')/(b + b'), with a'/b' the convergent one level up, so the
    length is 1/(b (b + b')).
    """
    lams = tuple(lambdas)
    if not lams or any(c < 1 for c in lams):
        raise ValueError("need a nonempty tuple of positive integers")
    *_, (a1, b1), (a, b) = _continuants(0, lams)
    lo, hi = sorted((Fraction(a, b), Fraction(a + a1, b + b1)))
    return lo, hi, Fraction(1, b * (b + b1))


# -- text encoding ---------------------------------------------------------

_CF_RE = re.compile(r"^(-?\d+)(?:;([\d,]*)(?:\((\d+(?:,\d+)*)\))?)?$")


def format_cf(cf: CFExpansion) -> str:
    """"l0;l1,l2" finite, "l0;l1,(p1,p2)" eventually periodic."""
    if cf.is_finite and not cf.pre:
        return str(cf.lambda0)
    parts = ",".join(str(c) for c in cf.pre)
    if cf.period:
        per = "(" + ",".join(str(c) for c in cf.period) + ")"
        parts = parts + "," + per if parts else per
    return f"{cf.lambda0};{parts}"


def parse_cf(text: str) -> CFExpansion:
    """Inverse of format_cf."""
    m = _CF_RE.match(text.strip().replace(" ", ""))
    if not m:
        raise ValueError(f"cannot parse continued fraction {text!r}")
    lam0 = int(m.group(1))
    pre_txt = (m.group(2) or "").strip(",")
    pre = tuple(int(c) for c in pre_txt.split(",") if c)
    period = tuple(int(c) for c in m.group(3).split(",")) if m.group(3) else ()
    return CFExpansion(lam0, pre, period)
