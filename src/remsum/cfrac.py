"""Continued fractions: expansion, convergents, evaluation, fundamental intervals.

Rationals get their full finite expansion (canonical: last coefficient >= 2
unless the expansion is a single term).  A quadratic irrational t is
expanded along its orbit under the Gauss map, walked in integers by
`_orbit`: each state t_j = (P_j + sqrt(D))/Q_j is the integer pair
(P_j, Q_j) over one D, and the first repeated pair gives the eventually
periodic form.  The Ostrowski and Gauss-map recursions of `sums` walk the
same orbit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import PeriodNotFound, RationalTerminated
from .exactnum import QuadExt, Scalar, _parts, floor


@dataclass(frozen=True)
class CFExpansion:
    """<lambda0; lambdas...>, finite or eventually periodic.

    `pre` holds the coefficients before the period; an empty `period` means
    the expansion is finite.
    """

    lambda0: int
    pre: tuple[int, ...] = ()
    period: tuple[int, ...] = ()

    def __post_init__(self):
        if any(c < 1 for c in self.pre) or any(c < 1 for c in self.period):
            raise ValueError("partial quotients must be >= 1")

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

    def __len__(self):
        if self.period:
            raise ValueError("infinite expansion has no length")
        return len(self.pre)

    def __str__(self):
        return format_cf(self)


@dataclass(frozen=True)
class Convergent:
    a: int
    b: int
    k: int


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


def convergents(cf: CFExpansion, upto_k: int) -> list[Convergent]:
    """Convergents a_k/b_k for k = 0..upto_k; a_k/b_k = <l0,...,l_{k-1}>."""
    out = [Convergent(1, 0, 0)]
    if upto_k >= 1:
        out.append(Convergent(cf.lambda0, 1, 1))
    a0, b0, a1, b1 = 1, 0, cf.lambda0, 1
    for k in range(1, upto_k):
        lam = cf.coeff(k)
        a0, b0, a1, b1 = a1, b1, a0 + lam * a1, b0 + lam * b1
        out.append(Convergent(a1, b1, k + 1))
    return out


def evaluate(cf: CFExpansion) -> Fraction:
    """Exact rational value of a finite expansion."""
    if not cf.is_finite:
        raise ValueError("evaluate needs a finite expansion")
    val = Fraction(cf.lambda0)
    if cf.pre:
        val = Fraction(cf.pre[-1])
        for c in reversed(cf.pre[:-1]):
            val = c + 1 / val
        val = cf.lambda0 + 1 / val
    return val


def _pure_periodic_value(period: tuple[int, ...]) -> QuadExt:
    """Value y > 1 of the purely periodic expansion <p1; p2,...,pL, p1,...>."""
    h0, h1 = 1, period[0]
    k0, k1 = 0, 1
    for c in period[1:]:
        h0, h1 = h1, c * h1 + h0
        k0, k1 = k1, c * k1 + k0
    # y = <p1,...,pL, y>  =>  k1*y^2 + (k0 - h1)*y - h0 = 0
    disc = (h1 - k0) ** 2 + 4 * k1 * h0
    return QuadExt(h1 - k0, 1, disc, 2 * k1)


def value(cf: CFExpansion) -> Scalar:
    """Exact value of the expansion (Fraction if finite, QuadExt if periodic)."""
    if cf.is_finite:
        return evaluate(cf)
    x: Scalar = _pure_periodic_value(cf.period)
    for c in reversed(cf.pre):
        x = c + x.reciprocal()
    return cf.lambda0 + x.reciprocal()


def fundamental_interval(lambdas) -> tuple[Fraction, Fraction, Fraction]:
    """Interval of irrationals in (0,1) whose expansion starts with `lambdas`.

    Returns (lo, hi, length), endpoints sorted ascending.
    """
    lams = tuple(lambdas)
    if not lams or any(c < 1 for c in lams):
        raise ValueError("need a nonempty tuple of positive integers")
    e1 = evaluate(CFExpansion(0, lams))
    e2 = evaluate(CFExpansion(0, lams[:-1] + (lams[-1] + 1,)))
    lo, hi = (e1, e2) if e1 < e2 else (e2, e1)
    length = hi - lo
    # closed form: 1 / ((b_j (l_j + 1) + b_{j-1}) (b_j l_j + b_{j-1}))
    cv = convergents(CFExpansion(0, lams), len(lams))
    bj, bj1 = cv[-1].b, cv[-2].b
    assert length == Fraction(1, (bj * (lams[-1] + 1) + bj1) * (bj * lams[-1] + bj1))
    return lo, hi, length


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
