import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from remsum import cfrac
from remsum.cfrac import CFExpansion
from remsum.errors import PeriodNotFound, RationalTerminated
from remsum.exactnum import QuadExt, floor


class TestExpandRational:
    def test_examples(self):
        cf = cfrac.expand(F(7, 10), 10)
        assert (cf.lambda0, cf.pre, cf.period) == (0, (1, 2, 3), ())
        assert cfrac.expand(F(3), 5) == CFExpansion(3)
        assert cfrac.expand(F(-7, 2), 5).lambda0 == -4

    def test_canonical_last_coefficient(self):
        # 1/2 = <0; 2>, never <0; 1, 1>
        assert cfrac.expand(F(1, 2), 5).pre == (2,)

    @given(st.fractions(max_denominator=500))
    @settings(max_examples=300, deadline=None)
    def test_evaluate_inverts_expand(self, t):
        cf = cfrac.expand(t, 64)
        assert cfrac.evaluate(cf) == t
        if cf.pre:
            assert cf.pre[-1] >= 2 or len(cf.pre) == 1


class TestExpandQuadratic:
    def test_periodic_examples(self, corpus):
        assert cfrac.expand(corpus["golden"], 64) == CFExpansion(0, (), (1,))
        assert cfrac.expand(corpus["sqrt2m1"], 64) == CFExpansion(0, (), (2,))
        assert cfrac.expand(corpus["sqrt3m1"], 64) == CFExpansion(0, (), (1, 2))
        sqrt2 = QuadExt(0, 1, 2, 1)
        assert cfrac.expand(sqrt2, 64) == CFExpansion(1, (), (2,))

    def test_period_not_found(self):
        with pytest.raises(PeriodNotFound):
            cfrac.expand(QuadExt(0, 1, 2, 1), 1)

    def test_value_inverts_expand(self, corpus):
        for t in corpus.values():
            assert cfrac.value(cfrac.expand(t, 64)) == t

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=5),
           st.lists(st.integers(1, 6), min_size=1, max_size=4),
           st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_expand_value_roundtrip(self, pre, period, lam0):
        cf = CFExpansion(lam0, tuple(pre), tuple(period))
        t = cfrac.value(cf)
        cf2 = cfrac.expand(t, 64)
        # representations may differ (e.g. pre-period folding); values agree
        assert cfrac.value(cf2) == t
        for j in range(1, 12):
            assert cf2.coeff(j) >= 1
        assert floor(t) == cf2.lambda0


def _reference_expand(t, max_terms):
    """The expansion loop in QuadExt arithmetic: complete quotients by
    subtraction and reciprocal, the first repeated one found by hashing.
    The reference for expand's integer orbit."""
    lam0 = floor(t)
    theta = (t - lam0).reciprocal()
    coeffs = []
    seen = {}
    while len(coeffs) < max_terms:
        if theta in seen:
            start = seen[theta]
            return CFExpansion(lam0, tuple(coeffs[:start]), tuple(coeffs[start:]))
        seen[theta] = len(coeffs)
        c = floor(theta)
        coeffs.append(c)
        theta = (theta - c).reciprocal()
    raise PeriodNotFound(f"no period within {max_terms} terms")


@st.composite
def quadratic_irrationals(draw):
    """(p + q sqrt(d))/r with q of either sign, r > 1, lambda_0 of either
    sign, and a radicand that may keep a 1009^2 factor (primes past 1000 are
    not pulled out of it)."""
    d = draw(st.integers(2, 60).filter(lambda d: math.isqrt(d) ** 2 != d))
    d *= draw(st.sampled_from([1, 1009 ** 2]))
    q = draw(st.integers(-6, 6).filter(bool))
    t = QuadExt(draw(st.integers(-300, 300)), q, d, draw(st.integers(2, 12)))
    assume(t.r > 1)
    return t


class TestOrbit:
    @given(quadratic_irrationals(), st.integers(1, 70))
    @settings(max_examples=300, deadline=None)
    @example(QuadExt(-1, 1, 5, 2), 1)
    @example(QuadExt(-1, 1, 5, 2), 2)
    @example(QuadExt(-1, 1, 3, 1), 2)  # <0; (1, 2)> needs 3 terms
    @example(QuadExt(-1, 1, 3, 1), 3)
    @example(QuadExt(7, -3, 11 * 1009 ** 2, 5), 70)
    def test_expand_matches_reference(self, t, max_terms):
        try:
            expected = _reference_expand(t, max_terms)
        except PeriodNotFound:
            with pytest.raises(PeriodNotFound):
                cfrac.expand(t, max_terms)
        else:
            assert cfrac.expand(t, max_terms) == expected

    @given(quadratic_irrationals(), st.integers(1, 25))
    @settings(max_examples=200, deadline=None)
    def test_states_are_the_complete_quotients(self, t, m):
        D = (t.q * t.r) ** 2 * t.d
        orbit = list(itertools.islice(cfrac._orbit(t), m + 1))
        assert orbit[0][0] == floor(t)
        for (lam, P, Q), theta in zip(orbit[1:], cfrac.theta_sequence(t, m)):
            assert (D - P * P) % Q == 0
            assert QuadExt(P + lam * Q, 1, D, Q) == theta  # lambda_j + t_j
            assert lam == floor(theta)


class TestThetaSequence:
    def test_rational(self):
        assert cfrac.theta_sequence(F(7, 10), 2) == [F(10, 7), F(7, 3)]
        with pytest.raises(RationalTerminated):
            cfrac.theta_sequence(F(7, 10), 5)

    def test_quadratic(self, corpus):
        g = corpus["golden"]
        th = cfrac.theta_sequence(g, 5)
        assert all(t == g + 1 for t in th)  # golden: every theta_j = 1/t

    def test_theta_floor_is_partial_quotient(self, corpus):
        for t in corpus.values():
            cf = cfrac.expand(t, 64)
            for j, th in enumerate(cfrac.theta_sequence(t, 10), 1):
                assert floor(th) == cf.coeff(j)


def _reference_evaluate(cf):
    """Backward Fraction fold <l0; l1, ..., lm> = l0 + 1/(l1 + 1/(...))."""
    val = F(cf.lambda0)
    if cf.pre:
        val = F(cf.pre[-1])
        for c in reversed(cf.pre[:-1]):
            val = c + 1 / val
        val = cf.lambda0 + 1 / val
    return val


def _reference_value(cf):
    """The purely periodic tail y = <p1; p2, ..., pL, y> from its quadratic,
    then one QuadExt reciprocal per quotient of the pre-period and lambda0,
    folded backwards.  The reference for value's continuant walk."""
    if not cf.period:
        return _reference_evaluate(cf)
    h0, h1 = 1, cf.period[0]
    k0, k1 = 0, 1
    for c in cf.period[1:]:
        h0, h1 = h1, c * h1 + h0
        k0, k1 = k1, c * k1 + k0
    x = QuadExt(h1 - k0, 1, (h1 - k0) ** 2 + 4 * k1 * h0, 2 * k1)
    for c in reversed(cf.pre):
        x = c + x.reciprocal()
    return cf.lambda0 + x.reciprocal()


_quotients = st.one_of(st.integers(1, 9), st.integers(1, 1000))


class TestValue:
    @given(st.integers(-1000, 1000), st.lists(_quotients, max_size=6),
           st.lists(_quotients, max_size=6))
    @settings(max_examples=300, deadline=None)
    @example(-3, [2, 5, 9], [1, 1, 4])
    @example(0, [3], [7, 1, 250])
    @example(-1, [], [1000])
    @example(0, [], [])
    def test_matches_the_backward_fold(self, lam0, pre, period):
        # repr, not ==: the canonical form and the radicand d must agree too
        cf = CFExpansion(lam0, tuple(pre), tuple(period))
        assert repr(cfrac.value(cf)) == repr(_reference_value(cf))


class TestConvergents:
    def test_golden_denominators_are_fibonacci(self, corpus, corpus_cf):
        cv = cfrac.convergents(corpus_cf["golden"], 7)
        assert [c.b for c in cv] == [0, 1, 1, 2, 3, 5, 8, 13]
        assert [c.a for c in cv] == [1, 0, 1, 1, 2, 3, 5, 8]

    def test_sqrt2_pell(self, corpus, corpus_cf):
        cv = cfrac.convergents(corpus_cf["sqrt2m1"], 4)
        assert [c.b for c in cv] == [0, 1, 2, 5, 12]

    @given(st.lists(st.integers(1, 9), min_size=2, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_determinant_identity(self, lams):
        cf = CFExpansion(0, tuple(lams))
        cv = cfrac.convergents(cf, len(lams))
        for x, y in zip(cv, cv[1:]):
            assert abs(x.a * y.b - y.a * x.b) == 1

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_last_convergent_is_value(self, lams):
        cf = CFExpansion(0, tuple(lams))
        cv = cfrac.convergents(cf, len(lams) + 1)[-1]
        assert F(cv.a, cv.b) == cfrac.evaluate(cf)


class TestFundamentalIntervals:
    def test_examples(self):
        assert cfrac.fundamental_interval((1,)) == (F(1, 2), F(1), F(1, 2))
        assert cfrac.fundamental_interval((2,)) == (F(1, 3), F(1, 2), F(1, 6))
        assert cfrac.fundamental_interval((1, 1)) == (F(1, 2), F(2, 3), F(1, 6))

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_nesting(self, lams):
        lo, hi, ln = cfrac.fundamental_interval(lams)
        assert ln == hi - lo > 0
        if len(lams) > 1:
            plo, phi, _ = cfrac.fundamental_interval(lams[:-1])
            assert plo <= lo < hi <= phi

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.integers(2, 6))
    @settings(max_examples=100, deadline=None)
    def test_children_tile_contiguously(self, lams, K):
        # J(lams + (c,)) for c = 1..K tile the stretch between
        # <lams, 1> (= one endpoint of J(lams)) and <lams, K+1>
        lams = tuple(lams)
        covered = sum(cfrac.fundamental_interval(lams + (c,))[2]
                      for c in range(1, K + 1))
        e1 = cfrac.evaluate(CFExpansion(0, lams + (1,)))
        e2 = cfrac.evaluate(CFExpansion(0, lams + (K + 1,)))
        assert covered == abs(e1 - e2)

    @given(st.lists(_quotients, min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    @example([1])
    @example([1000, 1, 1000])
    def test_endpoints_are_the_two_evaluations(self, lams):
        lams = tuple(lams)
        e1 = cfrac.evaluate(CFExpansion(0, lams))
        e2 = cfrac.evaluate(CFExpansion(0, lams[:-1] + (lams[-1] + 1,)))
        lo, hi, ln = cfrac.fundamental_interval(lams)
        assert (lo, hi) == (min(e1, e2), max(e1, e2))
        assert ln == hi - lo

    def test_irrational_membership(self, corpus):
        # golden starts with lambda_1 = 1, sqrt2m1 with lambda_1 = 2
        lo, hi, _ = cfrac.fundamental_interval((1,))
        assert lo < corpus["golden"] < hi
        lo, hi, _ = cfrac.fundamental_interval((2,))
        assert lo < corpus["sqrt2m1"] < hi


class TestTextFormat:
    @given(st.integers(-3, 3), st.lists(st.integers(1, 9), max_size=4),
           st.lists(st.integers(1, 9), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, lam0, pre, period):
        cf = CFExpansion(lam0, tuple(pre), tuple(period))
        assert cfrac.parse_cf(cfrac.format_cf(cf)) == cf

    def test_examples(self):
        assert cfrac.format_cf(CFExpansion(0, (1, 2), (3,))) == "0;1,2,(3)"
        assert cfrac.parse_cf("0;(1)") == CFExpansion(0, (), (1,))
        with pytest.raises(ValueError):
            cfrac.parse_cf("not a cf")
