"""Exact measures of bounded-complete-quotient sets and the finite-n bound
verifications behind the almost-everywhere estimates of |B_n(t)|."""

from __future__ import annotations

import math
import random
from collections import namedtuple
from fractions import Fraction
from itertools import islice

from . import cfrac, sums
from .errors import BoundViolated, NotMember, TooLarge
from .exactnum import Scalar, _parts, _ratio_add

_ENUM_GUARD = 10 ** 7


class MeasureSet(namedtuple("MeasureSet",
                            "alphas exact_measure lower_bound upper_bound")):
    """{t in (0,1)\\Q : theta_j(t) < alpha_j for j <= m} with its exact
    Lebesgue measure and the a-priori product bounds."""

    __slots__ = ()

    def __new__(cls, alphas: tuple[int, ...], exact_measure: Fraction,
                lower_bound: Fraction, upper_bound: Fraction):
        assert lower_bound <= exact_measure <= upper_bound
        return super().__new__(cls, alphas, exact_measure, lower_bound,
                               upper_bound)


def measure_exact(alphas) -> MeasureSet:
    """Exact measure: the sum of |J(l_1, ..., l_m)| over l_j < alpha_j.

    A depth-first walk over the prefixes l_1..l_{m-1} carries the integer
    convergents a/b = <0; l_1, ..., l_{m-1}> and a'/b' (one level up), and
    sums the last level in closed form.  J(..., l) lies between the values
    (a l + a')/(b l + b') and (a (l+1) + a')/(b (l+1) + b'), which differ by
    |a b' - a' b|/((b l + b')(b (l+1) + b')) with |a b' - a' b| = 1, so the
    lengths for l < A telescope to (A-1)/((b + b')(b A + b')).  The walk
    costs prod_{j<m} (alpha_j - 1) steps and checks the determinant at every
    prefix; the guard still counts the leaves, prod_j (alpha_j - 1).

    The sum is carried as an int pair N/D in lowest terms and made one
    Fraction at the end.  A leaf's (A-1)/e, reduced, is added the way
    Fraction adds (`_ratio_add`): every gcd has the leaf's short e, or a
    factor of it, as one operand, never both of the long N and D.  The
    product bounds are one Fraction each."""
    al = tuple(int(a) for a in alphas)
    if not al or any(a < 1 for a in al):
        raise ValueError("alphas must be positive integers")
    num, den = math.prod(a - 1 for a in al), math.prod(al)
    lower, upper = Fraction(num * num, den * den), Fraction(num, den)
    size = math.prod(max(a - 1, 0) for a in al)
    if size > _ENUM_GUARD:
        raise TooLarge(f"{size} fundamental intervals exceed the guard")
    N, D = 0, 1
    if size:
        *head, A = al
        stack = [(0, 0, 1, 1, 0)]  # (depth, a, b, a', b'): <0;> = 0/1, then 1/0
        while stack:
            j, a, b, a1, b1 = stack.pop()
            if j < len(head):
                stack.extend((j + 1, a1 + lam * a, b1 + lam * b, a, b)
                             for lam in range(1, head[j]))
                continue
            if a * b1 - a1 * b not in (1, -1):
                raise AssertionError(f"convergent determinant fails at depth {j}")
            e = (b + b1) * (b * A + b1)
            g = math.gcd(A - 1, e)
            N, D = _ratio_add(N, D, (A - 1) // g, e // g)
    return MeasureSet(al, Fraction(N, D), lower, upper)


def mn_threshold(n: int, theta_of_n) -> tuple[int, int]:
    """(m, cutoff) = (floor(4 log n), 1 + floor(theta(n) log n)), natural log."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if not theta_of_n >= 1:
        raise ValueError("theta must be >= 1")
    logn = math.log(n)
    return int(4 * logn), 1 + int(float(theta_of_n) * logn)


def sample_bounded_cf(cutoff: int, m: int, seed: int) -> Scalar:
    """A quadratic irrational in (0,1) whose expansion is purely periodic with
    all partial quotients in [1, cutoff-1] and period length >= m.

    Membership is re-checked on t's own orbit: theta_j = lambda_j + t_j with
    0 < t_j < 1, so theta_j < cutoff exactly when lambda_j < cutoff."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    rng = random.Random(seed)
    period = tuple(rng.randint(1, cutoff - 1) for _ in range(max(m, 8)))
    t = cfrac.value(cfrac.CFExpansion(0, (), period))
    m = max(m, 1)
    for j, (lam, _, _) in enumerate(islice(cfrac._record(*_parts(t)), 1, m + 1), 1):
        assert lam < cutoff, f"theta_{j} >= cutoff for sampled t"
    return t


def _bound_ratio(s_val: Scalar, t: Scalar, bound_s: float) -> float:
    """|s_val| / bound_s for s_val = S(n,t), once |s_val| <= bound_s is
    decided exactly (bound_s read as the Fraction it is); BoundViolated with
    the witness t otherwise."""
    if not sums._abs_at_most(*_parts(s_val), *bound_s.as_integer_ratio()):
        raise BoundViolated(f"witness t = {t}")
    return abs(float(s_val)) / bound_s


def verify_b0_mass(n: int, theta_of_n, samples: int, seed: int) -> dict:
    """Draw members of the bounded-quotient set for this n and check
    |B_n(t)| <= 2 log^2(n) theta(n) / n exactly on every sample."""
    m, cutoff = mn_threshold(n, theta_of_n)
    bound_s = 2 * math.log(n) ** 2 * float(theta_of_n)  # bound for |S(n,t)|
    max_ratio = 0.0
    for i in range(samples):
        t = sample_bounded_cf(cutoff, m, seed + i)
        s_val = sums.ostrowski_S(n, t)[0]
        max_ratio = max(max_ratio, _bound_ratio(s_val, t, bound_s))
    return {"n": n, "theta": float(theta_of_n), "samples": samples,
            "max_ratio": max_ratio, "pass": True}


def verify_ae_bound(n: int, epsilon, theta_of_n, t: Scalar,
                    cf: cfrac.CFExpansion | None = None) -> dict:
    """Check |B_n(t)| <= (4 log n)^(2+eps) theta(n) / (2n) for t whose partial
    quotients satisfy lambda_j <= theta(n) * j^(1+eps) up to the reachable depth.
    The quotients are read from t's orbit; cf, if given, cross-checks them
    (ValueError where they differ).  n >= 3, as for `mn_threshold`: below it
    the bound is not positive."""
    if n < 3:
        raise ValueError("n must be >= 3")
    eps = float(epsilon)
    theta = float(theta_of_n)
    s_val = sums.ostrowski_S(n, t)[0]
    m = int(4 * math.log(n)) + 1
    for j, (lam, _, _) in enumerate(islice(cfrac._record(*_parts(t)), 1, m + 1), 1):
        if cf is not None and lam != cf.coeff(j):
            raise ValueError(f"cf has lambda_{j} = {cf.coeff(j)}, t has {lam}")
        if lam > theta * j ** (1 + eps):
            raise NotMember(f"lambda_{j} = {lam} too large")
    bound_s = (4 * math.log(n)) ** (2 + eps) * theta / 2  # bound for |S(n,t)|
    ratio = _bound_ratio(s_val, t, bound_s)
    return {"n": n, "epsilon": eps, "theta": theta, "ratio": ratio, "pass": True}
