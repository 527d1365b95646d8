import cmath
import functools
import math
import tracemalloc
from fractions import Fraction as F
from itertools import islice
from operator import mul

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remsum import dirichlet, farey, sums
from remsum.errors import DomainError, PoleAtOne, TooLarge
from remsum.exactnum import QuadExt, beta0
from test_sums import ALWAYS_FALLS_BACK, ONE_THIRD_AND_A_BIT


# t = (p + q sqrt(d))/r with q of both signs, r > 1 and radicands that keep
# square factors past the constructor's small primes (1009^2, 10007^2)
quadratic_ts = st.builds(
    lambda p, q, d, s, r: QuadExt(p, q, d * s * s, r),
    st.integers(-100, 100), st.integers(-30, 30).filter(bool),
    st.sampled_from([2, 3, 5, 6, 7, 13, 9973]), st.sampled_from([1, 2, 1009, 10007]),
    st.integers(1, 60))
# small denominators, so that b | k happens inside the table
rational_ts = st.builds(F, st.integers(-40, 40), st.integers(1, 12))

# The tables read floor(t 2^E) with E = 64 + 3 K.bit_length(), E = 91 for
# 256 <= K < 512.  t = sqrt(m^2 - 1) - (m - 1) with m = 2^91 is about
# 1 - 2^-92, so floor(t 2^91) = 2^91 - 1 and the bracket of k t reaches the
# next integer at every k
WRAPS_AT_EVERY_K = QuadExt(1 - 2 ** 91, 1, 4 ** 91 - 1, 1)
# t = 1/2 + sqrt(m^2 + 1) - m, m = 10^40: at odd k, beta0(kt) is about
# k 10^-40 > 0 while the bracket starts at exactly 0
HALF_AND_A_BIT = QuadExt(1 - 2 * 10 ** 40, 2, 10 ** 80 + 1, 2)


@functools.cache
def _arith_tables(N):
    return farey.build_tables(N)


def _q_floats(b0, mu, K):
    """[0.0, q_1, ..., q_K] as floats: q_k = -sum of mu(d) beta0(kt/d) over
    the divisors d of k with mu(d) != 0, subtracted in increasing d."""
    q = [0.0] * (K + 1)
    for k in range(1, K + 1):
        for d in range(1, k + 1):
            if k % d == 0 and mu[d]:
                q[k] -= mu[d] * b0[k // d]
    return q


def _q_table_reference(b0, mu, K):
    """The q_{k,0} float table by one subtraction per multiple of each d,
    d = 1..K in turn, so that every q[k] takes its terms in increasing d."""
    q = [0.0] * (K + 1)
    for d in range(1, K + 1):
        m = mu[d]
        if m:
            for k in range(d, K + 1, d):
                q[k] -= m * b0[k // d]
    return q


def _bits(z):
    return z.real.hex(), z.imag.hex()


class TestZeta:
    def test_classical_values(self):
        assert abs(dirichlet.zeta(2) - math.pi ** 2 / 6) < 1e-13
        assert abs(dirichlet.zeta(4) - math.pi ** 4 / 90) < 1e-13

    def test_against_mpmath_grid(self):
        for s in (0.5, 1.5, 3.0, 0.5 + 14.134725j, 2 + 5j, 0.1 + 30j,
                  2 - 7j, 10 + 50j):
            ref = complex(mpmath.zeta(s))
            assert abs(dirichlet.zeta(s) - ref) < 1e-12, s

    def test_pole_and_domain(self):
        with pytest.raises(PoleAtOne):
            dirichlet.zeta(1)
        with pytest.raises(ValueError):
            dirichlet.zeta(-1)

    def test_refuses_imaginary_parts_past_50(self):
        # at 2+200i the fixed Euler-Maclaurin cutoff is off by about 1.7e-8
        for s in (2 + 200j, 0.5 - 50.5j):
            with pytest.raises(DomainError):
                dirichlet.zeta(s)


class TestTermTables:
    def test_beta0_table_matches_direct(self, corpus):
        t = corpus["golden"]
        table = dirichlet._float_tables(t, 50)[0]
        for k in range(1, 51):
            assert abs(table[k] - float(beta0(k * t))) < 1e-15

    def test_rational_t_midpoint_terms(self):
        table = dirichlet._float_tables(F(1, 2), 6)[0]
        assert table[2] == table[4] == table[6] == 0.0
        assert table[1] == table[3] == 0.0  # beta0(1/2) = 0 too

    @given(st.one_of(quadratic_ts, rational_ts), st.integers(1, 300))
    @example(QuadExt(1, 1, 1018081, 2000), 300)  # square radicand: 101/200
    @example(-3, 40)
    @example(ALWAYS_FALLS_BACK, 300)
    # k t lies just past an integer at k = 3j, where the unchecked bracket
    # ends both round to 0.5 and beta0(kt) is about -1/2
    @example(ONE_THIRD_AND_A_BIT, 300)
    @example(WRAPS_AT_EVERY_K, 300)
    @example(HALF_AND_A_BIT, 300)
    @settings(max_examples=80, deadline=None)
    def test_tables_are_float_of_the_exact_values(self, t, K):
        exact = sums.s0_prefix(t, K)
        want_s0 = [float(v).hex() for v in exact]
        want_b0 = [0.0.hex()] + [float(exact[k] - exact[k - 1]).hex()
                                 for k in range(1, K + 1)]
        assert [v.hex() for v in dirichlet._float_tables(t, K)[0]] == want_b0
        assert [v.hex() for v in dirichlet._float_tables(t, K)[1]] == want_s0

    @pytest.mark.parametrize("t, K, floors, roundings", [
        (WRAPS_AT_EVERY_K, 300, 300, 0),
        # floors at k = 3, 6, ..., 300; S0(2,t) is about 1.5e-30
        (ONE_THIRD_AND_A_BIT, 300, 100, 1),
        (HALF_AND_A_BIT, 300, 0, 151),  # beta0 at odd k, and S0(1,t)
        (QuadExt(-1, 1, 5, 2), 10 ** 4, 0, 0),
    ])
    def test_falls_back_only_where_the_bracket_cannot_decide(
            self, monkeypatch, t, K, floors, roundings):
        floor_calls, exact_calls = [], []

        def counted(fn, calls):
            return lambda *a: calls.append(a) or fn(*a)

        monkeypatch.setattr(dirichlet, "floor", counted(dirichlet.floor, floor_calls))
        monkeypatch.setattr(dirichlet, "beta0", counted(dirichlet.beta0, exact_calls))
        monkeypatch.setattr(sums, "exact_S", counted(sums.exact_S, exact_calls))
        dirichlet._tables_at.cache_clear()
        b0, s0 = dirichlet._float_tables(t, K)
        # one more floor for T = floor(t 2^E)
        assert (len(floor_calls), len(exact_calls)) == (1 + floors, roundings)
        if K <= 300:
            exact = sums.s0_prefix(t, K)
            assert list(s0) == [float(v) for v in exact]
            assert list(b0[1:]) == [float(exact[k] - exact[k - 1])
                                    for k in range(1, K + 1)]

    def test_retained_table_follows_t_and_K(self, corpus):
        t1, t2 = corpus["golden"], F(3, 7)
        want = {(t, K): sums.s0_prefix(t, K) for t in (t1, t2) for K in (40, 90)}
        # each step changes t or K alone, so a memo keyed on the other fails
        for t, K in [(t1, 40), (t2, 40), (t1, 90), (t1, 40), (t2, 90)]:
            exact = want[t, K]
            assert dirichlet._float_tables(t, K)[0] == \
                [0.0] + [float(exact[k] - exact[k - 1]) for k in range(1, K + 1)]
            assert list(dirichlet._float_tables(t, K)[1]) == [float(v) for v in exact]
            s = 2 + 0j
            assert dirichlet.f_beta_mellin(t, s, K).value == sum(
                float(exact[n]) * (n ** -s - (n + 1) ** -s) for n in range(1, K))

    # the memo is keyed on _parts(t): a series call at a hit hashes no
    # QuadExt, and equal t written as other objects read the same build
    @pytest.mark.parametrize("ts", [
        [QuadExt(-1, 1, 5, 2), QuadExt(-2, 2, 5, 4), QuadExt(-1, 1, 5, 2)],
        [F(3, 7), QuadExt(3, 0, 5, 7), QuadExt(6, 0, 2, 14)],
        [2, F(2), QuadExt(2, 0, 3)],
    ], ids=["golden", "three-sevenths", "two"])
    def test_memo_is_keyed_on_the_integer_parts(self, monkeypatch, ts):
        K, tables = 120, farey.build_tables(120)
        dirichlet._tables_at.cache_clear()
        pair = dirichlet._float_tables(ts[0], K)

        def refuse(self):
            raise AssertionError("QuadExt hashed")

        monkeypatch.setattr(QuadExt, "__hash__", refuse)
        got = []
        for t in ts:
            got.append((dirichlet.f_beta_partial(t, 2, K),
                        dirichlet.f_beta_mellin(t, 0.5 + 3j, K),
                        dirichlet.f_q_partial(t, 2.5, K, tables),
                        dirichlet.continuation_evidence(t, [2], K)))
            assert dirichlet._float_tables(t, K) is pair
        assert got == [got[0]] * len(ts)
        assert dirichlet._tables_at.cache_info().misses == 1

    @pytest.mark.parametrize("t", [QuadExt(-1, 1, 5, 2), F(1, 3)])
    @pytest.mark.parametrize("K", [10 ** 18, 10 ** 19])
    def test_tables_past_memory_are_too_large(self, t, K):
        # past sys.maxsize entries (OverflowError), or 8 * 10^18 bytes that
        # fail at once (MemoryError): both before any entry is computed
        with pytest.raises(TooLarge) as info:
            dirichlet._float_tables(t, K)
        assert str(K) not in str(info.value)


def _q_reference(t, s, K, N):
    """f_q_partial's value at (t, s, K) from an independent q table: the
    Moebius sums of float(beta0(kt)) with the mu of `build_tables(N)`, and
    the terms times k ** (-s) summed from k = 1."""
    b0 = [0.0] + [float(beta0(k * t)) for k in range(1, K + 1)]
    q = _q_floats(b0, _arith_tables(N).mu, K)
    value = sum(q[k] * k ** (-s) for k in range(1, K + 1))
    return value.real.hex(), value.imag.hex()


def _q_value(t, s, K, N):
    value = dirichlet.f_q_partial(t, s, K, _arith_tables(N)).value
    return value.real.hex(), value.imag.hex()


class TestKeptQTable:
    """f_q_partial keeps its q_{k,0} floats with the float tables of the
    last (t, K): built once, dropped with them, bit for bit the table of a
    fresh Moebius loop."""

    GRID = (complex(2), 1.7 - 4j, 3 + 0.5j)

    def test_follows_t_and_K(self, corpus):
        t1, t2, K = corpus["golden"], F(3, 7), 120
        # each step changes t or K alone, so a memo keyed on the other is stale
        for t, k in [(t1, K), (t2, K), (t1, K - 31), (t1, K)]:
            for s in self.GRID:
                assert _q_value(t, s, k, K) == _q_reference(t, s, k, K)
            q = dirichlet._float_tables(t, k).q
            assert len(q) == k + 1
            dirichlet.f_q_partial(t, 2.5, k, _arith_tables(K))
            assert dirichlet._float_tables(t, k).q is q  # built once

    def test_does_not_depend_on_the_table_size(self, corpus):
        t, K = corpus["sqrt3m1"], 150
        for N in (K, 3 * K, K, 3 * K):
            dirichlet._tables_at.cache_clear()
            for M in (N, 4 * K - N):  # fresh under one size, kept under the other
                for s in self.GRID:
                    assert _q_value(t, s, K, M) == _q_reference(t, s, K, M)

    def test_a_refused_call_leaves_the_memo(self, corpus):
        t, K = corpus["sqrt2m1"], 100
        dirichlet.f_q_partial(t, 2, K, _arith_tables(K))
        pair = dirichlet._float_tables(t, K)
        q = pair.q
        for s in (-1, 0, math.nan, complex(2, math.inf)):
            for u, k in [(t, K), (F(2, 9), K // 2)]:
                with pytest.raises(ValueError, match=r"need finite s"):
                    dirichlet.f_q_partial(u, s, k, _arith_tables(K))
        with pytest.raises(ValueError, match="K exceeds table size"):
            dirichlet.f_q_partial(F(2, 9), 2, 2 * K, _arith_tables(K))
        assert dirichlet._float_tables(t, K) is pair and pair.q is q
        assert _q_value(t, 2, K, K) == _q_reference(t, 2, K, K)


class TestSeries:
    def test_partial_sum_matches_naive(self, corpus):
        t = corpus["sqrt2m1"]
        for s in (2, 3, 2 + 5j):
            ev = dirichlet.f_beta_partial(t, s, 200)
            naive = sum(float(beta0(k * t)) * k ** (-complex(s))
                        for k in range(1, 201))
            assert abs(ev.value - naive) < 1e-12
            assert ev.mode == "strict" and ev.tail_bound > 0

    def test_abel_summation_algebra(self, corpus):
        # the Mellin/Abel form re-sums the same terms exactly (up to the
        # boundary term S0(K) K^{-s}, which the tail bound covers)
        t = corpus["golden"]
        K, s = 300, 2.5
        s0 = sums.s0_prefix(t, K)
        direct = dirichlet.f_beta_partial(t, s, K)
        abel = dirichlet.f_beta_mellin(t, s, K)
        boundary = float(s0[K]) * K ** (-s)
        assert abs((abel.value + boundary) - direct.value) < 1e-10

    @given(st.one_of(quadratic_ts, rational_ts),
           st.builds(complex, st.floats(0.05, 4), st.floats(-40, 40)),
           st.integers(4, 300), st.one_of(quadratic_ts, rational_ts))
    @settings(max_examples=60, deadline=None)
    def test_abel_sums_equal_the_two_power_formula(self, t, s, K, u):
        # each power difference is computed once and kept with its powers;
        # the floats must be those of computing n^(-s) and (n+1)^(-s) per
        # term, whatever the memo holds: nothing, the tables of s warmed by
        # another t, those of another K, or nothing stored past the budget
        sf = dirichlet._float_tables(t, K)[1]
        diffs = [sf[n] * (n ** (-s) - (n + 1) ** (-s)) for n in range(1, K)]

        def bits(z):
            return z.real.hex(), z.imag.hex()

        def check():
            value = dirichlet.f_beta_mellin(t, s, K).value
            rec, = dirichlet.continuation_evidence(t, [s], K)
            assert bits(value) == bits(sum(diffs))
            assert list(map(bits, rec["values"])) == [
                bits(sum(diffs[:L - 1])) for L in rec["levels"]]

        dirichlet._powers_memo.clear()
        check()  # cold
        dirichlet._powers_memo.clear()
        dirichlet.continuation_evidence(u, [s], K)
        check()  # warmed by u at the same s
        dirichlet.f_beta_mellin(t, s, K + 1)
        check()  # after a K change
        with pytest.MonkeyPatch.context() as patch:
            for budget in (2 * K - 2, 2 * K - 1):  # nothing stored; s kept whole
                patch.setattr(dirichlet, "_POWERS_BUDGET", budget)
                dirichlet._powers_memo.clear()
                check()
                kept = list(dirichlet._powers_memo.values())
                assert len(kept) == (budget == 2 * K - 1)
                assert all(len(v.diffs) == K - 1 for v in kept)

    @given(st.one_of(quadratic_ts, rational_ts), st.one_of(quadratic_ts, rational_ts),
           st.builds(complex, st.floats(0.05, 4), st.floats(-40, 40)),
           st.integers(1, 300), st.integers(1, 300))
    @example(QuadExt(-1, 1, 5, 2), F(3, 7), complex(2, -0.0), 300, 1)
    @example(F(1, 2), QuadExt(-1, 1, 2, 1), complex(0.5, -0.0), 17, 200)
    @settings(max_examples=40, deadline=None)
    def test_partial_sums_equal_the_power_formula(self, t1, t2, s, K1, K2):
        # one s at two t and two K, next to complex(2, +-0.0): every value is
        # the sum of the terms times k ** (-s), in order from k = 1, and the
        # power memo holds the tables of the current K only
        tables = _arith_tables(300)
        for K in (K1, K2):
            for t in (t1, t2):
                b0 = dirichlet._float_tables(t, K)[0]
                q = _q_floats(b0, tables.mu, K)
                for z in (s, complex(2, 0.0), complex(2, -0.0)):
                    assert dirichlet.f_beta_partial(t, z, K).value == sum(
                        b0[k] * k ** (-z) for k in range(1, K + 1))
                    assert dirichlet.f_q_partial(t, z, K, tables).value == sum(
                        q[k] * k ** (-z) for k in range(1, K + 1))
                    memo = dirichlet._powers_memo
                    assert {len(v) for v in memo.values()} == {K}
                    assert len(memo) * (2 * K - 1) <= dirichlet._POWERS_BUDGET

    def test_power_memo_keeps_the_newest_tables_within_its_budget(
            self, corpus, monkeypatch):
        t, K = corpus["golden"], 100
        grid = [0.5 + 1j, 2, 2 + 5j, complex(2, -0.0)]
        b0 = dirichlet._float_tables(t, 400)[0]

        def direct(s, K):
            return sum(b0[k] * k ** (-complex(s)) for k in range(1, K + 1))

        # room for three values of s, 2K - 1 entries each
        monkeypatch.setattr(dirichlet, "_POWERS_BUDGET", 3 * (2 * K - 1))
        memo = dirichlet._powers_memo
        memo.clear()
        for s in grid:
            dirichlet.f_beta_partial(t, s, K)
        # the oldest s went first; complex(2, -0.0) has a table of its own
        assert list(memo) == [(z.real.hex(), z.imag.hex())
                              for z in map(complex, grid[1:])]
        kept = list(memo.values())
        assert dirichlet.f_beta_partial(t, 2 + 5j, K).value == direct(2 + 5j, K)
        assert all(a is b for a, b in zip(memo.values(), kept, strict=True))
        # a K past the budget drops the tables of the old K and stores none
        assert dirichlet.f_beta_partial(t, 2, 400).value == direct(2, 400)
        sf, s = dirichlet._float_tables(t, 400)[1], complex(2)
        assert dirichlet.f_beta_mellin(t, s, 400).value == sum(
            sf[n] * (n ** (-s) - (n + 1) ** (-s)) for n in range(1, 400))
        assert memo == {}
        # a call at a new K drops the tables of the old one
        dirichlet.f_beta_partial(t, 2, K)
        dirichlet.f_beta_partial(t, 2, K - 1)
        assert [len(v) for v in memo.values()] == [K - 1]

    def test_mellin_identity_within_tails(self, corpus):
        for t in corpus.values():
            for s in (2, 3, 2 + 5j):
                a = dirichlet.f_beta_partial(t, s, 2000)
                b = dirichlet.f_beta_mellin(t, s, 2000)
                assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound

    def test_fq_relation(self, corpus):
        K = 2000
        tables = farey.build_tables(K)
        for t in corpus.values():
            fb = dirichlet.f_beta_partial(t, 2, K)
            fq = dirichlet.f_q_partial(t, 2, K, tables)
            assert abs(dirichlet.zeta(2) * fq.value + fb.value) <= \
                abs(dirichlet.zeta(2)) * fq.tail_bound + fb.tail_bound

    def test_fq_tail_restriction(self, corpus):
        tables = farey.build_tables(50)
        ev = dirichlet.f_q_partial(corpus["golden"], 1.2, 50, tables)
        assert ev.tail_bound == math.inf and ev.mode == "evidence"

    def test_critical_strip_is_evidence_mode(self, corpus):
        ev = dirichlet.f_beta_partial(corpus["golden"], 0.7 + 3j, 500)
        assert ev.mode == "evidence" and math.isfinite(ev.tail_bound)

    def test_domain(self, corpus):
        with pytest.raises(ValueError):
            dirichlet.f_beta_partial(corpus["golden"], -1, 100)

    @pytest.mark.parametrize("s", [
        -1, 0, complex(-0.0, 3), -0.5 + 2j, math.nan, complex(2, math.nan),
        complex(math.nan, 1), complex(2, math.inf), math.inf,
        complex(math.inf, -1)])
    def test_refuses_s_before_any_table(self, corpus, s):
        # f_q_partial once returned NaN at s = nan and a value labelled
        # "evidence" at s = -1; f_beta_partial raised ZeroDivisionError at
        # 2 + inf j.  A refused s builds no table and leaves both memos as
        # they were.
        t, K = corpus["golden"], 100
        tables = farey.build_tables(K)
        dirichlet.f_beta_partial(F(3, 7), 2, 50)
        dirichlet.f_beta_mellin(F(3, 7), 3, 50)
        info = dirichlet._tables_at.cache_info()
        memo = list(dirichlet._powers_memo.items())
        diffs = [v.diffs for v in dirichlet._powers_memo.values()]
        for call in (lambda: dirichlet.f_beta_partial(t, s, K),
                     lambda: dirichlet.f_beta_mellin(t, s, K),
                     lambda: dirichlet.f_q_partial(t, s, K, tables),
                     lambda: dirichlet.continuation_evidence(t, [2, s], K)):
            with pytest.raises(ValueError, match=r"need finite s with Re\(s\) > 0"):
                call()
        assert dirichlet._tables_at.cache_info() == info
        assert all(a == b and a[1] is b[1] for a, b in
                   zip(dirichlet._powers_memo.items(), memo, strict=True))
        assert all(v.diffs is d for v, d in
                   zip(dirichlet._powers_memo.values(), diffs, strict=True))
        assert diffs[-1] is not None

    @pytest.mark.parametrize("K", [0, -5])
    def test_refuses_K_below_1(self, corpus, K):
        t, tables = corpus["golden"], farey.build_tables(10)
        for call in (lambda: dirichlet.f_beta_partial(t, 2, K),
                     lambda: dirichlet.f_beta_partial(t, 0.5 + 3j, K),
                     lambda: dirichlet.f_beta_mellin(t, 2, K),
                     lambda: dirichlet.f_q_partial(t, 2, K, tables),
                     lambda: dirichlet._float_tables(t, K)):
            with pytest.raises(ValueError, match="K must be >= 1"):
                call()
        assert dirichlet._float_tables(t, 1)[0] == [0.0, float(beta0(t))]


class TestKernelBits:
    """Every series takes its products complex operand first and builds q
    by strided slices; each float must be that of the float-first products
    and of the q loop over d in turn."""

    @given(st.one_of(quadratic_ts, rational_ts), st.integers(1, 3000),
           st.builds(complex, st.floats(0.05, 300), st.floats(-40, 40)))
    # Re(s) = 300: the powers from k = 12 on underflow to signed zeros
    @example(QuadExt(-1, 1, 5, 2), 3000, complex(300, -0.0))
    @example(QuadExt(-1, 1, 3, 1), 2999, complex(300, 7.5))
    # rational t: beta0 is an exact 0.0 at the multiples of 7, of 1 and of
    # 6, so mu(d) * 0.0 terms of both signs meet q
    @example(F(3, 7), 3000, complex(2, 1))
    @example(F(-5, 1), 1000, complex(0.5, -3))
    @example(F(5, 6), 2000, complex(250, -0.0))
    @settings(max_examples=40, deadline=None)
    def test_series_equal_the_float_first_sums(self, t, K, s):
        tables = _arith_tables(3000)
        b0, sf = dirichlet._float_tables(t, K)
        q = _q_table_reference(b0, tables.mu, K)
        powers = list(map(pow, range(1, K + 1), [-s] * K))
        diffs = [powers[n - 1] - powers[n] for n in range(1, K)]

        def dot(terms):
            return _bits(sum(map(mul, islice(terms, 1, None), powers)))

        def abel(n):
            return _bits(sum(map(mul, islice(sf, 1, n), diffs), 0j))

        assert _bits(dirichlet.f_q_partial(t, s, K, tables).value) == dot(q)
        assert list(map(float.hex, dirichlet._float_tables(t, K).q)) == \
            list(map(float.hex, q))
        assert _bits(dirichlet.f_beta_partial(t, s, K).value) == dot(b0)
        assert _bits(dirichlet.f_beta_mellin(t, s, K).value) == abel(K)
        if K >= 4:
            rec, = dirichlet.continuation_evidence(t, [s], K)
            assert list(map(_bits, rec["values"])) == list(map(abel, rec["levels"]))


class TestAbelTables:
    """The differences of the power tables, stored with them under one
    budget, and the strip maximum kept with its pair of float tables."""

    @staticmethod
    def stored():
        return sum(len(v) + len(v.diffs or ()) for v in dirichlet._powers_memo.values())

    def test_one_budget_for_powers_and_differences(self, corpus, monkeypatch):
        # each kept s reserves its 2K - 1 entries, differences or not: a
        # budget one entry short of three such s keeps two
        t, K = corpus["golden"], 100
        budget = 3 * (2 * K - 1) - 1
        monkeypatch.setattr(dirichlet, "_POWERS_BUDGET", budget)
        memo = dirichlet._powers_memo
        memo.clear()
        key = {z: (z.real.hex(), z.imag.hex()) for z in map(complex, (2, 3, 4, 5))}
        dirichlet.f_beta_mellin(t, 2, K)
        old = memo[key[2]].diffs
        assert len(old) == K - 1 and self.stored() == 2 * K - 1
        dirichlet.f_beta_partial(t, 3, K)
        assert list(memo) == [key[2], key[3]] and self.stored() == 3 * K - 1
        dirichlet.f_beta_mellin(t, 4, K)  # s = 2 goes, differences and all
        assert list(memo) == [key[3], key[4]] and self.stored() == 3 * K - 1
        dirichlet.f_beta_partial(t, 5, K)
        assert list(memo) == [key[4], key[5]] and self.stored() == 3 * K - 1
        dirichlet.f_beta_mellin(t, 2, K)
        assert list(memo) == [key[5], key[2]]
        assert memo[key[2]].diffs is not old and memo[key[2]].diffs == old
        # a mix of sums and s never keeps more s than the budget has room for
        for i, z in enumerate([2, 0.5 + 1j, 3, 2, 0.7 - 2j, 3, 4, 0.5 + 1j] * 2):
            [dirichlet.f_beta_partial, dirichlet.f_beta_mellin][i % 2](t, z, K)
            dirichlet.continuation_evidence(t, [z, 2.5], K)
            assert len(memo) * (2 * K - 1) <= budget and self.stored() <= budget
            assert {len(v) for v in memo.values()} == {K}
            assert all(v.diffs is None or len(v.diffs) == K - 1 for v in memo.values())

    def test_strip_maximum_is_built_once_per_pair(self, corpus, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return max(*args)

        monkeypatch.setattr(dirichlet, "max", counted, raising=False)
        for t, K in [(corpus["golden"], 300), (F(3, 7), 300), (corpus["golden"], 299)]:
            pair = dirichlet._float_tables(t, K)
            dirichlet.f_beta_partial(t, 2, K)
            dirichlet.f_beta_mellin(t, 3 + 1j, K)
            assert "s0_max" not in vars(pair)  # Re(s) > 1 reads no maximum
            n = len(calls)
            for s in (0.5 + 3j, 1, 0.7 - 2j):
                for f in (dirichlet.f_beta_partial, dirichlet.f_beta_mellin):
                    f(t, s, K)
            assert len(calls) == n + 1
            assert pair.s0_max == max(abs(x) for x in pair[1])

    def test_evidence_streams_past_the_budget(self, corpus, monkeypatch):
        # with the float tables built first and no power table stored, one
        # grid point holds no K-long list: a list of the K - 1 Abel terms
        # alone is about 0.8 MB at K = 20000
        t, K = corpus["golden"], 20000
        dirichlet._float_tables(t, K)
        monkeypatch.setattr(dirichlet, "_POWERS_BUDGET", K // 2)
        tracemalloc.start()
        try:
            dirichlet.continuation_evidence(t, [0.5 + 3j], K)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024

    def test_mellin_of_no_terms_is_complex_zero(self, corpus):
        for t in (corpus["golden"], F(3, 7)):
            for s in (2, 0.5 + 3j):
                value = dirichlet.f_beta_mellin(t, s, 1).value
                assert type(value) is complex and value == 0
                assert (value.real.hex(), value.imag.hex()) == ("0x0.0p+0",) * 2


class TestContinuationEvidence:
    def test_cauchy_differences_decrease(self, corpus):
        t = corpus["golden"]
        grid = [0.6, 0.8 + 2j, 1.5 + 10j]
        for rec in dirichlet.continuation_evidence(t, grid, 2500):
            assert rec["decreasing"]
            assert len(rec["values"]) == 3

    def test_rejects_left_half_plane(self, corpus):
        with pytest.raises(ValueError):
            dirichlet.continuation_evidence(corpus["golden"], [-0.5], 100)

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_refuses_levels_that_do_not_increase(self, corpus, K):
        with pytest.raises(DomainError):
            dirichlet.continuation_evidence(corpus["golden"], [0.7 + 3j], K)

    def test_smallest_K_has_three_levels(self, corpus):
        rec, = dirichlet.continuation_evidence(corpus["golden"], [0.7 + 3j], 4)
        assert rec["levels"] == [2, 3, 4]
