"""Exact scalar arithmetic over Q and real quadratic fields Q(sqrt(d)).

A Scalar is either a `fractions.Fraction` (or plain int) or a `QuadExt`
representing (p + q*sqrt(d))/r with integers p, q, r.  Floors, signs and
comparisons are decided purely with integer arithmetic; no floating point
enters any exact code path.  Floats appear only through `float()`, which
is correctly rounded for every Scalar and is itself computed in integers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

from .errors import IncompatibleField

Rational = Union[int, Fraction]
Scalar = Union[int, Fraction, "QuadExt"]

HALF = Fraction(1, 2)

# Primes used to pull small square factors out of the radicand.  Full
# square-free reduction would need integer factorization, which is not
# feasible for the large discriminants produced by long-period continued
# fractions; radicands stay fixed within one computation anyway.
_SMALL_PRIMES = [p for p in range(2, 1000)
                 if all(p % q for q in range(2, int(math.isqrt(p)) + 1))]


def _reduce_radicand(d: int) -> tuple[int, int]:
    """Return (d', s) with d = d' * s**2 and d' free of small square factors."""
    s = 1
    for p in _SMALL_PRIMES:
        p2 = p * p
        if p2 > d:
            break
        while d % p2 == 0:
            d //= p2
            s *= p
    return d, s


def _floor_sqrt_times(q: int, d: int) -> int:
    """Exact floor(q * sqrt(d)) for square-free-ish d > 1 and q != 0."""
    m = math.isqrt(q * q * d)
    # q*q*d is never a perfect square here, so sqrt is irrational.
    return m if q > 0 else -m - 1


class QuadExt:
    """Exact element (p + q*sqrt(d))/r of the real quadratic field Q(sqrt(d)).

    Canonical form: r > 0 and gcd(p, q, r) = 1.  If q becomes 0 the value is
    rational but stays a QuadExt; equality and hashing agree with Fraction.
    """

    __slots__ = ("p", "q", "d", "r")

    def __init__(self, p: int, q: int, d: int, r: int = 1):
        if r == 0:
            raise ZeroDivisionError("QuadExt with zero denominator")
        if d <= 0:
            raise ValueError("radicand must be positive")
        if q != 0:
            d, s = _reduce_radicand(d)
            q *= s
            rt = math.isqrt(d)
            if rt * rt == d:  # rational in disguise
                p += q * rt
                q = 0
                d = 2
            elif d == 1:
                p += q
                q = 0
                d = 2
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        if g > 1:
            p //= g
            q //= g
            r //= g
        self.p = p
        self.q = q
        self.d = d
        self.r = r

    # -- helpers -----------------------------------------------------------

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.q == 0:
                return QuadExt(other.p, 0, self.d, other.r)
            if self.q == 0:
                return other  # caller re-coerces self
            if other.d != self.d:
                raise IncompatibleField(f"sqrt({self.d}) vs sqrt({other.d})")
            return other
        if isinstance(other, int):
            return QuadExt(other, 0, self.d)
        if isinstance(other, Fraction):
            return QuadExt(other.numerator, 0, self.d, other.denominator)
        return NotImplemented  # type: ignore[return-value]

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if self.q != 0:
            raise ValueError("irrational QuadExt has no Fraction value")
        return Fraction(self.p, self.r)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.q == 0 and isinstance(other, QuadExt) and other.q != 0:
            return other + self
        return QuadExt(self.p * o.r + o.p * self.r,
                       self.q * o.r + o.q * self.r,
                       self.d if self.q else o.d,
                       self.r * o.r)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.p, -self.q, self.d, self.r)

    def __sub__(self, other):
        if isinstance(other, QuadExt):
            return self + (-other)
        return self + (-_as_quad(other, self.d))

    def __rsub__(self, other):
        return _as_quad(other, self.d) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if self.q == 0 and isinstance(other, QuadExt) and other.q != 0:
            return other * self
        d = self.d if self.q else o.d
        return QuadExt(self.p * o.p + self.q * o.q * d,
                       self.p * o.q + self.q * o.p,
                       d,
                       self.r * o.r)

    __rmul__ = __mul__

    def reciprocal(self) -> "QuadExt":
        n = self.p * self.p - self.q * self.q * self.d
        if self.q == 0:
            if self.p == 0:
                raise ZeroDivisionError("reciprocal of zero")
            return QuadExt(self.r, 0, self.d, self.p)
        # 1/x = r*(p - q*sqrt(d)) / (p^2 - q^2 d)
        return QuadExt(self.r * self.p, -self.r * self.q, self.d, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.reciprocal()

    def __rtruediv__(self, other):
        return _as_quad(other, self.d) * self.reciprocal()

    def __abs__(self):
        return -self if self._sign() < 0 else self

    # -- order -------------------------------------------------------------

    def _sign(self) -> int:
        """Sign of p + q*sqrt(d), decided by integer arithmetic."""
        p, q, d = self.p, self.q, self.d
        if q == 0:
            return (p > 0) - (p < 0)
        if p == 0:
            return 1 if q > 0 else -1
        if p > 0 and q > 0:
            return 1
        if p < 0 and q < 0:
            return -1
        # opposite signs: compare p^2 with q^2 d (never equal, d non-square)
        if p > 0:  # q < 0
            return 1 if p * p > q * q * d else -1
        return -1 if p * p > q * q * d else 1

    def _cmp(self, other) -> int:
        diff = self - other
        if isinstance(diff, QuadExt):
            return diff._sign()
        return (diff > 0) - (diff < 0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and Fraction(self.p, self.r) == other
        if isinstance(other, QuadExt):
            if self.q == 0 and other.q == 0:
                return Fraction(self.p, self.r) == Fraction(other.p, other.r)
            return (self.d == other.d and self.p == other.p
                    and self.q == other.q and self.r == other.r)
        return NotImplemented

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        return hash((self.p, self.q, self.d, self.r))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __floor__(self) -> int:
        if self.q == 0:
            return self.p // self.r
        n = self.p + _floor_sqrt_times(self.q, self.d)
        # value lies strictly between n and n+1, so floor(value/r) = n // r
        return n // self.r

    def __float__(self) -> float:
        if self.q == 0:
            return self.p / self.r
        m, e = _scaled_floor(self, 55)
        # x lies strictly inside (m, m+1)/2**e, an interval that holds no
        # rounding boundary of a 53-bit float, so its midpoint rounds as x does
        if e >= -1:
            return (2 * m + 1) / (1 << (e + 1))
        return float((2 * m + 1) << (-e - 1))

    def __repr__(self):
        return f"QuadExt({self.p}, {self.q}, {self.d}, {self.r})"

    def __str__(self):
        return format_scalar(self)


def _scaled_floor(x: QuadExt, bits: int) -> tuple[int, int]:
    """(m, e) with m = floor(x * 2**e) and |x| * 2**e >= 2**bits, for an
    irrational x, decided in integers only."""
    p, q, d, r = x.p, x.q, x.d, x.r
    qqd = q * q * d
    s = abs(p) + math.isqrt(qqd)  # |p| + |q|*sqrt(d) lies in (s, s + 1)
    if p and (p < 0) != (q < 0):
        # cancellation: |p + q*sqrt(d)| = |p^2 - q^2 d| / (|p| + |q|*sqrt(d))
        log2_lo = abs(p * p - qqd).bit_length() - 1 - (s + 1).bit_length()
    else:
        log2_lo = s.bit_length() - 1
    # |x| >= 2**log2_lo / r > 2**(log2_lo - r.bit_length())
    e = bits - log2_lo + r.bit_length()
    if e >= 0:
        return ((p << e) + _floor_sqrt_times(q << e, d)) // r, e
    return (p + _floor_sqrt_times(q, d)) // (r << -e), e


def _as_quad(x, d: int) -> QuadExt:
    if isinstance(x, QuadExt):
        return x
    if isinstance(x, int):
        return QuadExt(x, 0, d)
    if isinstance(x, Fraction):
        return QuadExt(x.numerator, 0, d, x.denominator)
    raise TypeError(f"cannot coerce {x!r} to QuadExt")


# -- generic scalar operations --------------------------------------------


def floor(x: Scalar) -> int:
    """The unique integer m with m <= x < m + 1."""
    if isinstance(x, QuadExt):
        return x.__floor__()
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    return x


def is_integer(x: Scalar) -> bool:
    if isinstance(x, QuadExt):
        return x.q == 0 and x.p % x.r == 0
    if isinstance(x, Fraction):
        return x.denominator == 1
    return True


def is_rational(x: Scalar) -> bool:
    return not isinstance(x, QuadExt) or x.is_rational


def as_fraction(x: Scalar) -> Fraction:
    if isinstance(x, QuadExt):
        return x.as_fraction()
    return Fraction(x)


def beta(t: Scalar) -> Scalar:
    """Centered remainder t - floor(t) - 1/2, in [-1/2, 1/2)."""
    if isinstance(t, QuadExt) and t.q != 0:
        return t - floor(t) - HALF
    return Fraction(as_fraction(t)) - floor(t) - HALF


def beta0(t: Scalar) -> Scalar:
    """beta with the midpoint convention: 0 at integers."""
    if is_integer(t):
        return Fraction(0)
    return beta(t)


def to_float(x: Scalar, precision_bits: int = 53):
    """Correctly rounded float of x at the requested precision (mpmath.mpf).

    An irrational x is bracketed in integers first: m = floor(x * 2**e) with
    |m| >= 2**(precision_bits + 2), so x lies strictly inside (m, m+1)/2**e,
    which holds no rounding boundary; the midpoint (2m+1)/2**(e+1) is then
    rounded.  For a 53-bit Python float use `float(x)`, which needs no mpmath.
    """
    if precision_bits < 53:
        raise ValueError("precision_bits must be >= 53")
    import mpmath

    with mpmath.workprec(precision_bits):
        if isinstance(x, QuadExt) and x.q != 0:
            m, e = _scaled_floor(x, precision_bits + 2)
            return mpmath.mpf((2 * m + 1, -e - 1))
        fr = as_fraction(x)
        return mpmath.mpf(fr.numerator) / fr.denominator


# -- text encoding ---------------------------------------------------------

_QUAD_RE = re.compile(
    r"^\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(\d+)$")


def format_scalar(x: Scalar) -> str:
    """Bit-exact text form: "p/q" for rationals, "(p+q*sqrt(d))/r" otherwise."""
    if isinstance(x, QuadExt) and x.q != 0:
        return f"({x.p}{x.q:+d}*sqrt({x.d}))/{x.r}"
    fr = as_fraction(x)
    if fr.denominator == 1:
        return str(fr.numerator)
    return f"{fr.numerator}/{fr.denominator}"


def parse_scalar(text: str) -> Scalar:
    """Inverse of format_scalar."""
    text = text.strip()
    m = _QUAD_RE.match(text)
    if m:
        p, q, d, r = (int(m.group(i)) for i in range(1, 5))
        return QuadExt(p, q, d, r)
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))
