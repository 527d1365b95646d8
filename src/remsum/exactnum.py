"""Exact scalar arithmetic over Q and real quadratic fields Q(sqrt(d)).

A Scalar is either a `fractions.Fraction` (or plain int) or a `QuadExt`
representing (p + q*sqrt(d))/r with integers p, q, r.  `_parts` is the one
integer view of a Scalar, (p, q, d, r), and raises TypeError for anything
else, a float included.  Every floor, sign, rationality and order question
is an integer test on that view with at most one isqrt (`floor`, `_sign`),
and the other modules take a Scalar apart only through `_parts`.  A
weighted sum of c beta(j t) is likewise taken on t's parts, as four integer
sums and one exact value (`_beta_sum`), not as a fold of exact terms.  No
floating point enters any exact code path.  Floats appear only through
`float()`, which is correctly rounded for every Scalar and is itself
computed in integers.  Its one boundary, `_quad_float(p, q, d, r)`, serves
rationals too (q = 0) and also takes the integer parts of a value that was
never built as a QuadExt.  Bulk tables (the Dirichlet tables of
`dirichlet`, h in `farey`) round most entries from a fixed-point bracket of
their own and take float() of the exact value only where that bracket
cannot decide the rounding.

The radicand d is reduced only by the public `QuadExt` constructor, where a
value enters.  Arithmetic stays in its operands' field: results reuse an
operand's d and are only normalised in sign and gcd, never reduced again.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import compress

from .errors import IncompatibleField

HALF = Fraction(1, 2)


def _primes_below(n: int) -> list[int]:
    """The primes below n, by a bytearray sieve."""
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return list(compress(range(n), sieve))


# Primes used to pull small square factors out of the radicand.  Full
# square-free reduction would need integer factorization, which is not
# feasible for the large discriminants produced by long-period continued
# fractions.  Two radicands left with different square factors still name
# one field, Q(sqrt(d1)) = Q(sqrt(d2)) when d1*d2 is a square, and
# QuadExt arithmetic and equality treat them so.  P is their product.
_SMALL_PRIMES = _primes_below(1000)
_PRIMORIAL = math.prod(_SMALL_PRIMES)


def _reduce_radicand(d: int) -> tuple[int, int]:
    """Return (d', s) with d = d' * s**2 and d' free of small square factors.

    With g = gcd(d, P), the small primes dividing d, w = gcd(g, d/g) is
    the product of the small primes p with p^2 | d: such a p divides g, and
    it divides d/g exactly when p^2 | d.  So a radicand with w = 1 costs
    two gcds, and otherwise only the primes dividing w are tried."""
    g = math.gcd(d, _PRIMORIAL)
    w = math.gcd(g, d // g)
    if w == 1:
        return d, 1
    s = 1
    for p in _SMALL_PRIMES:
        if w % p:
            continue
        p2 = p * p
        if p2 > d:
            break
        while d % p2 == 0:
            d //= p2
            s *= p
        w //= p
        if w == 1:
            break
    return d, s


def _floor_sqrt_times(q: int, d: int) -> int:
    """Exact floor(q * sqrt(d)) for square-free-ish d > 1 and q != 0."""
    m = math.isqrt(q * q * d)
    # q*q*d is never a perfect square here, so sqrt is irrational.
    return m if q > 0 else -m - 1


def _sign(p: int, q: int, d: int) -> int:
    """Sign of p + q*sqrt(d), with d not a square when q != 0.  An irrational
    p + q*sqrt(d) is positive exactly when its floor p + floor(q*sqrt(d)) is
    >= 0, one isqrt."""
    if not q:
        return (p > 0) - (p < 0)
    return 1 if p + _floor_sqrt_times(q, d) >= 0 else -1


def _make(p: int, q: int, d: int, r: int) -> "QuadExt":
    """(p + q*sqrt(d))/r for r != 0 and a d that is already reduced (taken
    from an existing QuadExt, or reduced by the public constructor), in
    canonical form: (p, q, r) scaled to r > 0 and gcd(p, q, r) = 1, the
    value kept.  One call makes one value, with no call besides the gcd."""
    if r < 0:
        p, q, r = -p, -q, -r
    g = math.gcd(p, q, r)
    if g > 1:
        p, q, r = p // g, q // g, r // g
    x = object.__new__(QuadExt)
    x.p, x.q, x.d, x.r = p, q, d, r
    return x


class QuadExt:
    """Exact element (p + q*sqrt(d))/r of the real quadratic field Q(sqrt(d)).

    Canonical form: r > 0 and gcd(p, q, r) = 1.  If q becomes 0 the value is
    rational but stays a QuadExt; equality and hashing agree with Fraction.

    The radicand is reduced only here, in the public constructor, where a
    value enters.  Arithmetic stays in its operands' field: a result takes
    the d of its irrational operand (self's if both are, or if neither is),
    and d1, d2 name the same field when d1*d2 is a perfect square.
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
            if rt * rt == d:  # rational in disguise (d == 1 included)
                p, q, d = p + q * rt, 0, 2
        x = _make(p, q, d, r)
        self.p, self.q, self.d, self.r = x.p, x.q, x.d, x.r

    # -- helpers -----------------------------------------------------------

    def _operand(self, other):
        """(p, q, r, d): other as (p + q*sqrt(d))/r over the result's radicand
        d, or None if other is not a Scalar.  An irrational other from a field
        Q(sqrt(d')) with d*d' = m**2 is rescaled by sqrt(d') = (m/d)*sqrt(d)."""
        try:
            p, q, d, r = _parts(other)
        except TypeError:
            return None
        if q == 0 or d == self.d:
            return p, q, r, self.d
        if self.q == 0:
            return p, q, r, d
        m = math.isqrt(self.d * d)
        if m * m != self.d * d:
            raise IncompatibleField(f"sqrt({self.d}) vs sqrt({d})")
        g = math.gcd(m, self.d)
        u, v = m // g, self.d // g
        return p * v, q * u, r * v, self.d

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        return as_fraction(self)

    # -- ring operations ---------------------------------------------------

    def _add(self, other, a: int, b: int):
        """a*self + b*other for signs a, b."""
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, r, d = o
        return _make(a * self.p * r + b * p * self.r,
                     a * self.q * r + b * q * self.r, d, self.r * r)

    def __add__(self, other):
        return self._add(other, 1, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, 1, -1)

    def __rsub__(self, other):
        return self._add(other, -1, 1)

    def __neg__(self):
        return _make(-self.p, -self.q, self.d, self.r)

    def __mul__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, r, d = o
        return _make(self.p * p + self.q * q * d, self.p * q + self.q * p,
                     d, self.r * r)

    __rmul__ = __mul__

    def reciprocal(self) -> "QuadExt":
        n = self.p * self.p - self.q * self.q * self.d
        if n == 0:
            raise ZeroDivisionError("reciprocal of zero")
        # 1/x = r*(p - q*sqrt(d)) / (p^2 - q^2 d)
        return _make(self.r * self.p, -self.r * self.q, self.d, n)

    def __truediv__(self, other):
        o = self._operand(other)
        if o is None:
            return NotImplemented
        p, q, r, d = o
        n = p * p - q * q * d
        if n == 0:
            raise ZeroDivisionError("reciprocal of zero")
        # self * r*(p - q*sqrt(d)) / (p^2 - q^2 d)
        return _make(r * (self.p * p - self.q * q * d),
                     r * (self.q * p - self.p * q), d, self.r * n)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __abs__(self):
        return -self if _sign(self.p, self.q, self.d) < 0 else self

    # -- order -------------------------------------------------------------

    def _cmp(self, other) -> int:
        """The sign of self - other, from the cross-multiplied integers of
        both over one radicand; no difference is built."""
        o = self._operand(other)
        if o is None:
            raise TypeError(f"cannot order QuadExt and {type(other).__name__}")
        p, q, r, d = o
        return _sign(self.p * r - p * self.r, self.q * r - q * self.r, d)

    def __eq__(self, other):
        try:
            o = self._operand(other)
        except IncompatibleField:
            return False
        if o is None:
            return NotImplemented
        p, q, r, _ = o
        return self.p * r == p * self.r and self.q * r == q * self.r

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))
        # p/r and (q*sqrt(d)/r)**2 do not depend on how the field is written
        return hash((Fraction(self.p, self.r),
                     Fraction(self.q * self.q * self.d, self.r * self.r),
                     self.q > 0))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __floor__(self) -> int:
        return floor(self)

    def __float__(self) -> float:
        return _quad_float(self.p, self.q, self.d, self.r)

    def __repr__(self):
        return f"QuadExt({self.p}, {self.q}, {self.d}, {self.r})"

    def __str__(self):
        return format_scalar(self)


Scalar = int | Fraction | QuadExt


def _scaled_floor(p: int, q: int, d: int, r: int,
                  bits: int) -> tuple[int, int]:
    """(m, e) with m = floor(x * 2**e) and |x| * 2**e >= 2**bits, for the
    irrational x = (p + q*sqrt(d))/r (q != 0, d not a square, r > 0),
    decided in integers only.  (p, q, r) need not be in lowest terms."""
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


def _quad_float(p: int, q: int, d: int, r: int) -> float:
    """Correctly rounded float of (p + q*sqrt(d))/r, r > 0, with d not a
    square when q != 0; the float boundary of every Scalar.  For q = 0 it
    is p / r, int true division, which rounds correctly."""
    if not q:
        return p / r
    m, e = _scaled_floor(p, q, d, r, 55)
    # x lies strictly inside (m, m+1)/2**e, an interval that holds no
    # rounding boundary of a 53-bit float, so its midpoint rounds as x does
    if e >= -1:
        return (2 * m + 1) / (1 << (e + 1))
    return float((2 * m + 1) << (-e - 1))


# -- generic scalar operations --------------------------------------------


def _parts(x: Scalar) -> tuple[int, int, int, int]:
    """The one integer view of a Scalar: (p, q, d, r) with x = (p + q sqrt(d))/r
    and r > 0.  q = 0 exactly when x is rational, a QuadExt with a square
    radicand included, and then p/r is x in lowest terms and d = 1; otherwise
    d is the QuadExt's own, already reduced.  TypeError for anything that is
    not an int, a Fraction or a QuadExt."""
    if isinstance(x, QuadExt):
        return (x.p, x.q, x.d, x.r) if x.q else (x.p, 0, 1, x.r)
    if isinstance(x, int):
        return x, 0, 1, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, 1, x.denominator
    raise TypeError(f"not an exact scalar: {type(x).__name__}")


def _exact(x: Scalar) -> Scalar:
    """x with exact division: an int as a Fraction, any other Scalar as it
    is; TypeError for a non-Scalar."""
    if isinstance(x, int):
        return Fraction(x)
    _parts(x)
    return x


def floor(x: Scalar) -> int:
    """The unique integer m with m <= x < m + 1.  For irrational x,
    p + q*sqrt(d) lies strictly between n = p + floor(q*sqrt(d)) and n + 1,
    so floor(x) = n // r."""
    p, q, d, r = _parts(x)
    return (p + _floor_sqrt_times(q, d) if q else p) // r


def is_integer(x: Scalar) -> bool:
    _, q, _, r = _parts(x)
    return not q and r == 1


def is_rational(x: Scalar) -> bool:
    return not _parts(x)[1]


def as_fraction(x: Scalar) -> Fraction:
    p, q, _, r = _parts(x)
    if q:
        raise ValueError("irrational QuadExt has no Fraction value")
    return Fraction(p, r)


def beta(t: Scalar) -> Scalar:
    """Centered remainder t - floor(t) - 1/2, in [-1/2, 1/2): with t's parts
    and m = floor(t), (2(p - m r) - r + 2 q sqrt(d))/(2r), the one-pair
    `_beta_sum`."""
    return _beta_sum(t, ((1, 1),))


def beta0(t: Scalar) -> Scalar:
    """beta with the midpoint convention: 0 at integers."""
    return _beta_sum(t, ((1, 1),), midpoint=True)


def _beta_sum(t: Scalar, pairs, midpoint: bool = False) -> Scalar:
    """The sum of c beta(j t), or of c beta0(j t) if midpoint, over the
    (j, c) of `pairs`, built once from four integer sums.  With t's parts,
    floor(j t) = (j p + floor(j q sqrt(d)))//r, and the sum is
    t A - B - C/2 + D/2 for A = sum of c j, B = sum of c floor(j t),
    C = sum of c, and D = the sum of c where j t is an integer (r | j,
    rational t only) if midpoint, 0 otherwise.  A pair with c = 0 adds
    nothing; the value is a QuadExt over t's radicand for irrational t with
    any nonzero c, and a Fraction otherwise, as a Fraction(0)-started fold
    of the nonzero terms would give."""
    p, q, d, r = _parts(t)
    A = B = C = D = 0
    nonzero = False
    for j, c in pairs:
        if not c:
            continue
        nonzero = True
        A += c * j
        C += c
        if q:
            B += c * ((j * p + _floor_sqrt_times(j * q, d)) // r)
        else:
            B += c * (j * p // r)
            if midpoint and not j % r:
                D += c
    u = 2 * (p * A - r * B) - r * (C - D)
    return _make(u, 2 * q * A, d, 2 * r) if q and nonzero else Fraction(u, 2 * r)


def _ratio_add(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """a/b + c/d as an int pair (numerator, denominator), for b, d > 0,
    added the way Fraction adds.  With g = gcd(b, d) the sum is
    (a (d/g) + c (b/g))/((b/g) d), and where a/b and c/d are in lowest terms
    its numerator shares a factor with that denominator only through g: the
    one further gcd is taken with g, a factor of d, never of the full
    numerator with the full denominator, and the pair is again in lowest
    terms."""
    g = math.gcd(b, d)
    if g == 1:
        return a * d + c * b, b * d
    b //= g
    a = a * (d // g) + c * b
    g = math.gcd(a, g)
    if g > 1:
        a, d = a // g, d // g
    return a, b * d


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

    p, q, d, r = _parts(x)
    with mpmath.workprec(precision_bits):
        if q:
            m, e = _scaled_floor(p, q, d, r, precision_bits + 2)
            return mpmath.mpf((2 * m + 1, -e - 1))
        return mpmath.mpf(p) / r


# -- text encoding ---------------------------------------------------------

_QUAD_RE = re.compile(
    r"^\((-?\d+)([+-]\d+)\*sqrt\((\d+)\)\)/(\d+)$")


def format_scalar(x: Scalar) -> str:
    """Bit-exact text form: "p/q" for rationals, "(p+q*sqrt(d))/r" otherwise."""
    p, q, d, r = _parts(x)
    if q:
        qs = _int_str(q)
        return (f"({_int_str(p)}{qs if q < 0 else '+' + qs}"
                f"*sqrt({_int_str(d)}))/{_int_str(r)}")
    return _int_str(p) if r == 1 else f"{_int_str(p)}/{_int_str(r)}"


def _int_str(n: int) -> str:
    """str(n), exact also past the interpreter's int-to-str digit limit,
    which is left as it is."""
    try:
        return str(n)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        import decimal

        return str(decimal.Decimal(n))


def parse_scalar(text: str) -> Scalar:
    """Inverse of format_scalar while every integer part of the text (p, q,
    d and r, or numerator and denominator) has at most
    sys.get_int_max_str_digits() digits.  Longer text raises ValueError:
    the interpreter's limit is kept, as it guards text from outside against
    quadratic-time conversion."""
    text = text.strip()
    m = _QUAD_RE.match(text)
    if m:
        return QuadExt(*map(int, m.groups()))
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(text))
