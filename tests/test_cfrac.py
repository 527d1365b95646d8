import bisect
import itertools
import math
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from remsum import cfrac
from remsum.cfrac import CFExpansion
from remsum.errors import PeriodNotFound
from remsum.exactnum import QuadExt, _parts, floor
from test_sums import expansions


def theta_sequence(t, m):
    """Complete quotients theta_1 .. theta_m of t, exactly, by subtraction
    and reciprocal: x -> 1/(x - floor(x)).  ZeroDivisionError where the
    expansion of a rational t ends before step m.  The reference for the
    integer orbit walk, and for the members `measure` samples."""
    out = []
    x = t
    for _ in range(m):
        x = 1 / (x - floor(x))
        out.append(x)
    return out


def _states(t):
    """The states (lambda_j, P_j, Q_j) of t's orbit record, read as the
    library's readers read them: the record walks on as they are read."""
    return iter(cfrac._record(*_parts(t)))


def _reference_orbit(t):
    """A fresh integer walk of t's orbit, with no record: yields
    (lambda_j, P_j, Q_j) for j = 0, 1, ... as `_states` must."""
    p, q, d, r = _parts(t)
    D = (q * r) ** 2 * d
    root = math.isqrt(D)
    P, Q = (p * r, r * r) if q > 0 else (-p * r, -r * r)
    while True:
        lam = (P + root) // Q if Q > 0 else (-P - root - 1) // -Q
        P -= lam * Q
        yield lam, P, Q
        P, Q = -P, (D - P * P) // Q


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
        orbit = list(itertools.islice(_states(t), m + 1))
        assert orbit[0][0] == floor(t)
        for (lam, P, Q), theta in zip(orbit[1:], theta_sequence(t, m)):
            assert (D - P * P) % Q == 0
            assert QuadExt(P + lam * Q, 1, D, Q) == theta  # lambda_j + t_j
            assert lam == floor(theta)


# sqrt(10^9 + 7)/40000: no state of its orbit repeats within 64 terms
NO_PERIOD_WITHIN_64 = QuadExt(0, 1, 10 ** 9 + 7, 40000)
# <0; 1, 1, (1, 2)>: lambda_0 = 0 and a pre-period
PRE_PERIOD = cfrac.value(CFExpansion(0, (1, 1), (1, 2)))


class TestOrbitRecord:
    """One record per t; every reader must see what a fresh walk of t's
    orbit gives, however the readers interleave."""

    @given(quadratic_irrationals(), quadratic_irrationals(),
           st.integers(1, 90), st.integers(0, 90))
    @settings(max_examples=150, deadline=None)
    @example(PRE_PERIOD, QuadExt(-1, 1, 5, 2), 40, 3)
    @example(NO_PERIOD_WITHIN_64, PRE_PERIOD, 90, 70)
    @example(PRE_PERIOD, NO_PERIOD_WITHIN_64, 90, 0)
    @example(NO_PERIOD_WITHIN_64, NO_PERIOD_WITHIN_64, 80, 5)
    def test_readers_see_a_fresh_walk(self, t1, t2, m, stop):
        want1 = list(itertools.islice(_reference_orbit(t1), m))
        want2 = list(itertools.islice(_reference_orbit(t2), m))
        cfrac._record.cache_clear()
        stopped = _states(t1)  # a reader stopped partway
        head = list(itertools.islice(stopped, min(stop, m)))
        # two readers of one record, interleaved state by state
        x, y = _states(t1), _states(t1)
        pairs = [(next(x), next(y)) for _ in range(m // 2)]
        assert [u for u, _ in pairs] == [v for _, v in pairs] == want1[:m // 2]
        # t1, t2, t1: t2 evicts t1's record, and t1's readers stay valid
        assert list(itertools.islice(_states(t2), m)) == want2
        assert list(itertools.islice(x, m - m // 2)) == want1[m // 2:]
        assert list(itertools.islice(_states(t1), m)) == want1
        assert head + list(itertools.islice(stopped, m - len(head))) == want1
        assert list(itertools.islice(y, m - m // 2)) == want1[m // 2:]

    @given(quadratic_irrationals(), st.integers(1, 70), st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    @example(NO_PERIOD_WITHIN_64, 64, 10)
    @example(QuadExt(0, 1, 2, 1), 1, 5)  # sqrt(2) = <1; (2)> needs 2 terms
    @example(PRE_PERIOD, 4, 1)
    @example(PRE_PERIOD, 5, 0)
    def test_expand_refuses_a_record_grown_past_max_terms(self, t, max_terms,
                                                          more):
        cfrac._record.cache_clear()
        list(itertools.islice(_states(t), max_terms + more))
        try:
            expected = _reference_expand(t, max_terms)
        except PeriodNotFound:
            with pytest.raises(PeriodNotFound):
                cfrac.expand(t, max_terms)
        else:
            assert cfrac.expand(t, max_terms) == expected

    def test_one_fill_per_read(self, monkeypatch):
        # a fresh record is walked one state per fill, as far as it is read
        # and no further, and a record whose period is known is read with no
        # walk at all
        calls = []
        fill = cfrac._Record.fill
        monkeypatch.setattr(cfrac._Record, "fill",
                            lambda rec, m: calls.append(m) or fill(rec, m))
        cfrac._record.cache_clear()
        got = list(itertools.islice(_states(NO_PERIOD_WITHIN_64), 90))
        assert got == list(itertools.islice(_reference_orbit(NO_PERIOD_WITHIN_64), 90))
        assert calls == list(range(1, 91))
        assert len(cfrac._record(*_parts(NO_PERIOD_WITHIN_64)).states) == 90
        cfrac.expand(PRE_PERIOD, 64)
        del calls[:]
        got = list(itertools.islice(_states(PRE_PERIOD), 40))
        assert got == list(itertools.islice(_reference_orbit(PRE_PERIOD), 40))
        assert calls == []

    @given(expansions(min_pre=1))
    @settings(max_examples=100, deadline=None)
    @example((PRE_PERIOD, CFExpansion(0, (1, 1), (1, 2))))
    @example((cfrac.value(CFExpansion(2, (7,), (1, 3, 1, 5))),
              CFExpansion(2, (7,), (1, 3, 1, 5))))
    def test_a_reader_from_any_start(self, t_cf):
        # the reader from j yields states j, j + 1, ... of the orbit, for
        # every j up to three periods past the walked states, on a fresh
        # record, on one walked to its period, and on one whose continuants
        # were grown first, in which case the reader starts past the walk
        t, _ = t_cf
        cf = _reference_expand(t, 64)
        assume(cf.pre and len(cf.period) >= 2)
        L, p = len(cf.pre) + len(cf.period) + 1, len(cf.period)
        want = list(itertools.islice(_reference_orbit(t), L + 6 * p + 1))

        def walked():
            cfrac._record.cache_clear()
            cfrac.expand(t, 64)
            return cfrac._record(*_parts(t))

        def grown():  # lambda_k read on from k = len(lam), through the period
            rec = cfrac._Record(*_parts(t))
            rec.extend_past(10 ** 18)
            orbit = itertools.islice(_reference_orbit(t), len(rec.lam))
            assert rec.lam == [lam for lam, _, _ in orbit]
            return rec

        for record in (lambda: cfrac._Record(*_parts(t)), walked, grown):
            for j in range(L + 3 * p + 1):
                got = list(itertools.islice(record().read(j), 2 * p + 1))
                assert got == want[j:j + 2 * p + 1], (record, j)

    def test_a_refused_expansion_keeps_no_walk(self):
        # 2000 states of sqrt(10^9 + 7)/40000 and no period among them
        with pytest.raises(PeriodNotFound):
            cfrac.expand(NO_PERIOD_WITHIN_64, 2000)
        assert cfrac._record.cache_info().currsize == 0
        cfrac.expand(QuadExt(-1, 1, 5, 2), 64)
        assert cfrac._record.cache_info().currsize == 1

    def test_threads_share_a_record(self):
        # more readers than cores on one record: a fifth expand t, walking
        # 1166 states in one go, a fifth read 3000 states of it as the
        # record walks on, two fifths grow tables of it to random n, up to
        # 3700 continuants, past the walk and through the period, and a
        # fifth run the Gauss-map recursion to random n, stepping past the
        # walked states as others walk on; a thread switch is forced every
        # few bytecodes
        from remsum import sums

        t = QuadExt(-1000, 1, 1000033, 1)  # sqrt(1000033) - 1000 = <0; (1165 terms)>
        want = list(itertools.islice(_reference_orbit(t), 3000))
        cfrac._record.cache_clear()
        want_cf = cfrac.expand(t, 5000)
        assert len(want_cf.period) == 1165
        conv = cfrac.convergents(want_cf, 4000)
        lam = [want_cf.lambda0, *map(want_cf.coeff, range(1, 4001))]
        a, b = [c.a for c in conv], [c.b for c in conv]
        rng = random.Random(31)
        ns = iter([10 ** rng.randint(0, 1900) + rng.randint(0, 999) for _ in range(16)])
        bseq_ns = [10 ** rng.randint(100, 1900) + rng.randint(0, 999) for _ in range(8)]
        want_S = {n: sums.bseq_S(n, t)[0] for n in bseq_ns}  # on the whole record
        bseq_ns = iter(bseq_ns)

        def tables():
            n = next(ns)
            tab = sums.OstrowskiTables(t)
            tab.extend_past(n)
            K = max(4, bisect.bisect_right(b, n))
            got.append((tab.lam, tab.a, tab.b) == (lam[:K], a[:K + 1], b[:K + 1]))

        def bseq():
            n = next(bseq_ns)
            got.append(sums.bseq_S(n, t)[0] == want_S[n])

        got = []
        readers = [lambda: got.append(cfrac.expand(t, 5000) == want_cf),
                   lambda: got.append(list(itertools.islice(_states(t), 3000)) == want),
                   tables, tables, bseq]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                cfrac._record.cache_clear()
                cfrac._record(*_parts(t))  # every thread reads this one record
                threads = [threading.Thread(target=readers[i % 5]) for i in range(10)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=60)
                assert not any(th.is_alive() for th in threads)
        finally:
            sys.setswitchinterval(interval)
        assert got == [True] * 40

    def test_a_reader_at_the_period_waits_for_it(self):
        # a walk elsewhere has appended the state that repeats, and holds the
        # lock, but has not set cf yet; a reader that reaches the end of the
        # states then must wait for the period and read on through it, not
        # index past the states
        t = PRE_PERIOD
        want = list(itertools.islice(_reference_orbit(t), 20))
        cfrac._record.cache_clear()
        cf = cfrac.expand(t, 64)
        L = len(cfrac._record(*_parts(t)).states)  # the repeat is state L - 1
        appended, waiting = threading.Event(), threading.Event()

        class Paused(list):
            def append(self, state):
                super().append(state)
                if len(self) == L:  # the repeat: wait for the reader
                    appended.set()
                    assert waiting.wait(timeout=30)

        class Record(cfrac._Record):
            __slots__ = ()

            def fill(self, m):
                if m > L:  # the reader, before the lock
                    waiting.set()
                super().fill(m)

        rec = Record(*_parts(t))
        rec.states = Paused(rec.states)
        writer = threading.Thread(target=cfrac._Record.fill, args=(rec, 64))
        writer.start()
        assert appended.wait(timeout=30) and rec.cf is None
        assert list(itertools.islice(iter(rec), 20)) == want
        writer.join(timeout=30)
        assert not writer.is_alive() and rec.cf == cf

    def test_a_reader_past_the_walk_sees_a_walk_elsewhere_whole(self, monkeypatch):
        # the Gauss-map recursion holds no lock: it reaches the end of the
        # one walked state just as a walk elsewhere appends the rest of the
        # orbit and finds the period, between its read of the states' length
        # and its next step; the state it reads next is state 1, walked
        # now, not the period's first (state 3 of <0; 1, 1, (1, 2)>)
        from remsum import sums

        t = PRE_PERIOD
        cfrac._record.cache_clear()
        want = sums.bseq_S(10 ** 18, t)[0]
        armed, walked_at = [], []

        class Racing(list):
            def __len__(self):
                L = super().__len__()
                if armed == [True]:  # the walk elsewhere, in full
                    armed.clear()
                    rec.fill(64)
                    walked_at.append(L)
                return L

        class Record(cfrac._Record):
            __slots__ = ()

            def index(self, j):
                i = super().index(j)
                armed[:] = [j == 0]  # the reader has its first state
                return i

        rec = Record(*_parts(t))
        rec.fill(1)
        rec.states = Racing(rec.states)
        monkeypatch.setattr(cfrac, "_record", lambda *parts: rec)
        assert sums.bseq_S(10 ** 18, t)[0] == want
        assert walked_at == [1] and rec.cf == CFExpansion(0, (1, 1), (1, 2))

    def test_one_walk_serves_expand_and_both_recursions(self):
        from remsum import sums

        # t in (0, 1), as bseq_S needs; 2 - sqrt(3) starts its walk at Q = -1
        for t in (PRE_PERIOD, QuadExt(-1, 1, 5, 2), QuadExt(2, -1, 3, 1)):
            cfrac._record.cache_clear()
            cf = cfrac.expand(t, 64)
            rec = cfrac._record(*_parts(t))
            walked = len(rec.states)
            assert (sums.ostrowski_S(10 ** 18, t, cf)[0]
                    == sums.bseq_S(10 ** 18, t)[0])
            assert cfrac.expand(t, 64) == cf
            assert cfrac._record.cache_info().misses == 1
            assert len(rec.states) == walked


class TestThetaSequence:
    def test_rational(self):
        assert theta_sequence(F(7, 10), 2) == [F(10, 7), F(7, 3)]
        with pytest.raises(ZeroDivisionError):
            theta_sequence(F(7, 10), 5)

    def test_quadratic(self, corpus):
        g = corpus["golden"]
        th = theta_sequence(g, 5)
        assert all(t == g + 1 for t in th)  # golden: every theta_j = 1/t

    def test_theta_floor_is_partial_quotient(self, corpus):
        for t in corpus.values():
            cf = cfrac.expand(t, 64)
            for j, th in enumerate(theta_sequence(t, 10), 1):
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
