"""Continued fractions: expansion, convergents, evaluation, fundamental intervals.

Everything here is read off one of two integer walks.

- The orbit walk expands a quadratic irrational t along its orbit under
  the Gauss map: each state t_j = (P_j + sqrt(D))/Q_j is the integer pair
  (P_j, Q_j) over one D, and the first repeated pair gives the eventually
  periodic form.  The walk is made once per t: one orbit record
  (`_Record`), kept for the last t only (a memo of size 1, keyed on t's
  integer parts), holds the states (lambda_j, P_j, Q_j) walked so far, the
  walk's next pair, t's expansion once the first pair repeats, and the
  continuants of t, lambda_k, a_k and b_k, as far as they have been asked
  for.  `expand` fills the record to its period and returns the expansion
  it keeps.  The record is read one way, by index: its reader `read(j)`
  yields the states from index j on, walking on one state at a time as they
  are read while the period is unknown, and past the walk, once the period
  is known, reading it by index arithmetic.  Iterating the record is the
  reader from 0, so the Gauss-map recursion of `sums` and the checks of
  `measure` walk no state they do not read.  `extend_past(n)` grows the
  continuants to the first k >= 4 with b_k > n by the reader from the
  first quotient they lack: the Ostrowski recursion of `sums` reads them
  from the record, and `sums.OstrowskiTables` copies them only to check a
  caller's own expansion or to give a caller lists of its own.  The record is
  dropped when another t is asked for, or when `expand` finds no period
  within its max_terms; a reader that holds it keeps it until it is done.
  The floor of a state, floor((P + sqrt(D))/Q) for Q of either sign, is
  `_floor_over`, which the Gauss-map recursion of `sums` also takes.
- The continuant walk, `_continuants`, runs the forward recurrence of the
  convergents a_k/b_k of a given expansion (the record's `extend_past`
  runs the same recurrence itself, as it appends to its lists).
  `convergents` lists it, `evaluate` takes its last
  term, `value` solves a period's fixed point from its last two terms and
  maps the pre-period onto it, and `fundamental_interval` reads its
  endpoints a_m/b_m and (a_m + a_{m-1})/(b_m + b_{m-1}) off the same two.

Rationals get their full finite expansion (canonical: last coefficient >= 2
unless the expansion is a single term).
"""

from __future__ import annotations

import functools
import math
import re
import threading
from collections import namedtuple
from fractions import Fraction
from itertools import chain, count, islice

from .errors import PeriodNotFound
from .exactnum import QuadExt, Scalar, _parts


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
    """Continued-fraction expansion of t; periodic form for quadratic t.
    PeriodNotFound where no state of t's orbit repeats within its first
    max_terms states."""
    if max_terms < 1:
        raise ValueError("max_terms must be >= 1")
    p, q, d, den = _parts(t)
    if not q:  # Euclid on p/den
        lam0, num = divmod(p, den)
        coeffs = []
        while num:
            den, (c, num) = num, divmod(den, num)
            coeffs.append(c)
        return CFExpansion(lam0, tuple(coeffs))
    rec = _record(p, q, d, den)
    rec.fill(max_terms)
    if rec.cf is None or len(rec.states) > max_terms:
        _record.cache_clear()  # a refused expansion keeps no walk
        raise PeriodNotFound(f"no period within {max_terms} terms")
    return rec.cf


def _floor_over(x: int, Q: int) -> int:
    """floor((x + theta)/Q) for ints x and Q != 0 and an irrational theta in
    (0, 1): the floor of (P + sqrt(D))/Q at x = P + floor(sqrt(D)), and of
    (n P + n sqrt(D))/Q at x = n P + floor(n sqrt(D)), for either sign of Q."""
    return x // Q if Q > 0 else (-x - 1) // -Q


class _Record:
    """The orbit of one t = (p + q sqrt(d))/r, q != 0, as far as it has been
    walked, and the convergents of t as far as they have been asked for, in
    integers only.  `states` lists (lambda_j, P_j, Q_j) for j = 0, 1, ...,
    where t = <lambda_0; lambda_1, ..., lambda_{j-1}, lambda_j + t_j> and
    t_j = (P_j + sqrt(D))/Q_j lies in (0, 1), with D = q^2 d r^2.  Q_j
    divides D - P_j^2 throughout, so 1/t_j = (-P_j + sqrt(D))/Q' with
    Q' = (D - P_j^2)/Q_j, and lambda_{j+1} = floor(1/t_j).

    `cf` is None until a pair (P_j, Q_j) repeats an earlier (P_i, Q_i); the
    walk stops there, at j = len(states) - 1, and `cf` is t's expansion,
    whose period starts at lambda_{i+1}: from then on the states are
    states[i+1:] over and over, and `read` finds them there by index
    arithmetic.  The first pair to repeat is the first one on the cycle,
    and by Galois's theorem t_j is on the cycle exactly when 1/t_j is
    reduced, that is when its conjugate (-P_j - sqrt(D))/Q' lies in
    (-1, 0): 0 < P_j + sqrt(D) < Q', or 0 <= P_j + floor(sqrt(D)) < Q' in
    integers.  So the walk keeps that one pair, not every pair it saw.

    The continuants are the lists `lam`, `a` and `b`: lam[k] = lambda_k, and
    a[k]/b[k] = a_k/b_k = <lambda_0; ..., lambda_{k-1}> from a_0/b_0 = 1/0
    and a_1/b_1 = lambda_0/1, with a_{k+1} = lambda_k a_k + a_{k-1},
    likewise b.  `extend_past(n)` grows them to the first k >= 4 with
    b_k > n, reading lambda_k off the states by the reader from
    k = len(lam): walked on one at a time only as far as it reads them, and
    past the walk off the period.

    Readers may share a record across threads: walks and growth take a
    lock, the lists only grow, `cf` is set after the last state is
    appended, and `b` is appended last, so a reader that sees cf sees every
    state, and one that sees b_k also sees a_k and lambda_{k-1}."""

    __slots__ = ("states", "cf", "lam", "a", "b", "_entry", "_next", "_D", "_root", "_lock")

    def __init__(self, p: int, q: int, d: int, r: int):
        # `extend_past` walks by `fill`, so the lock is reentrant
        self.states, self._lock = [], threading.RLock()
        # _entry is (P_i, Q_i, i + 1) of the first state on the cycle
        self.cf = self._entry = None
        self._D = (q * r) ** 2 * d
        self._root = math.isqrt(self._D)
        # the pair (P, Q) of lambda_j + t_j for the next j, before its floor
        self._next = (p * r, r * r) if q > 0 else (-p * r, -r * r)
        self.fill(1)  # state 0, and lambda_0 with it
        lam0 = self.states[0][0]
        self.lam, self.a, self.b = [lam0], [1, lam0], [0, 1]

    def read(self, j: int = 0):
        """(lambda_j, P_j, Q_j), (lambda_{j+1}, ...), ... with no end: the
        record's one reader.  It yields each known state; while the period is
        unknown, it walks the next one by `fill` under the lock and then looks
        again, as a walk elsewhere may have set the period first.  Past the
        walk, once the period is known, state j is at index
        s + (j - s) mod (L - s), with s = len(cf.pre) + 1 the period's first
        index and L = len(states), so a reader may start anywhere: that
        index is taken once, and from there the reader steps on and goes
        back to s at L."""
        states = self.states
        while self.cf is None:
            if j < len(states):
                yield states[j]
                j += 1
            else:  # walk state j; a walk elsewhere may find the period first
                self.fill(j + 1)
        s, L = len(self.cf.pre) + 1, len(states)  # cf is set after the last append
        j = j if j < L else s + (j - s) % (L - s)
        while True:
            yield states[j]
            j = j + 1 if j + 1 < L else s

    __iter__ = read  # the states from index 0

    def fill(self, m: int) -> None:
        """Walk on until m states are known or the period is."""
        states, D, root = self.states, self._D, self._root
        with self._lock:
            (P, Q), entry = self._next, self._entry
            try:  # _next and _entry are written back on every exit
                while len(states) < m and self.cf is None:
                    lam = _floor_over(P + root, Q)  # floor((P + sqrt(D))/Q)
                    P -= lam * Q
                    states.append((lam, P, Q))
                    Q1 = (D - P * P) // Q
                    if entry is None:
                        if 0 <= P + root < Q1:
                            entry = P, Q, len(states)
                    elif P == entry[0] and Q == entry[1]:
                        # every lambda_j past lambda_0 is >= 1: no check
                        lams, s = [lam for lam, _, _ in states], entry[2]
                        self.cf = CFExpansion._make((lams[0], tuple(lams[1:s]), tuple(lams[s:])))
                        return
                    P, Q = -P, Q1
            finally:
                self._next, self._entry = (P, Q), entry

    def extend_past(self, n: int) -> None:
        """Grow the continuants to the first k >= 4 with b_k > n, reading
        lambda_k from state k = len(lam) on."""
        lam, a, b = self.lam, self.a, self.b
        if len(b) < 5 or b[-1] <= n:  # and again under the lock
            with self._lock:
                states = self.read(len(lam))
                while len(b) < 5 or b[-1] <= n:
                    x = next(states)[0]
                    lam.append(x)
                    a.append(x * a[-1] + a[-2])
                    b.append(x * b[-1] + b[-2])


_record = functools.lru_cache(maxsize=1)(_Record)


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
