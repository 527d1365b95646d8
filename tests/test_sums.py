import bisect
import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from remsum import cfrac, sums, verify
from remsum.errors import DomainError, NotIrrational, NotNeighbors
from remsum.exactnum import QuadExt, _parts, beta, beta0, floor, is_rational
from remsum.limits import eta_tilde


def _accumulate(term, n, t):
    """[0, term(t), term(t) + term(2t), ...] up to n, by exact addition."""
    out = [F(0)]
    for k in range(1, n + 1):
        out.append(out[-1] + term(k * t))
    return out


@st.composite
def quadratic_irrationals(draw):
    """(p + q sqrt(d))/r with q of either sign, r > 1, non-square d and
    integer part lambda_0 != 0."""
    d = draw(st.integers(2, 60).filter(lambda d: math.isqrt(d) ** 2 != d))
    q = draw(st.integers(-6, 6).filter(bool))
    t = QuadExt(draw(st.integers(-60, 60)), q, d, draw(st.integers(2, 12)))
    assume(t.r > 1 and floor(t) != 0)
    return t


@st.composite
def expansions(draw, max_quotient=50, min_pre=0):
    """(t, cf) for an eventually periodic expansion: lambda_0 in 0..3, a
    pre-period of length min_pre..2 and a period of length 1..4, quotients
    1..max_quotient."""
    quotient = st.integers(1, max_quotient)
    cf = cfrac.CFExpansion(draw(st.integers(0, 3)),
                           tuple(draw(st.lists(quotient, min_size=min_pre,
                                               max_size=2))),
                           tuple(draw(st.lists(quotient, min_size=1,
                                               max_size=4))))
    return cfrac.value(cf), cf


def _reference_bseq(n, t):
    """The Gauss-map recursion in QuadExt arithmetic, term by term through
    eta_tilde: (S(n,t), the BseqStep list, sum of lambda_{j+1} over the
    steps).  The reference for bseq_S's integer orbit."""
    total, tj, nj, j, lam_sum = F(0), t, n, 0, 0
    steps = []
    while nj > 0:
        x = tj * nj
        fl = floor(x)
        term = nj * eta_tilde(x) + (x - fl) / 2
        total = total + (-1) ** j * term
        steps.append(sums.BseqStep(j, nj, tj, term))
        inv = tj.reciprocal()
        lam = floor(inv)
        lam_sum += lam
        tj, nj, j = inv - lam, fl, j + 1
    return total, steps, lam_sum


class TestBruteOracle:
    def test_examples(self):
        assert sums.brute_S(3, F(1, 3)) == F(-1, 2)
        assert sums.brute_S(2, F(1, 2)) == F(-1, 2)
        assert sums.brute_S(0, F(1, 3)) == 0
        assert sums.brute_S(4, F(0)) == -2

    @given(st.integers(0, 80), st.fractions(max_denominator=40))
    @settings(max_examples=200, deadline=None)
    def test_rational_fast_path_matches_definition(self, n, t):
        direct = sum((beta(k * t) for k in range(1, n + 1)), F(0))
        assert sums.brute_S(n, t) == direct

    @given(st.integers(0, 60), st.fractions(max_denominator=40))
    @settings(max_examples=200, deadline=None)
    def test_s0_prefix_consistent(self, n, t):
        pre = sums.s0_prefix(t, n)
        assert pre[n] == sums.brute_S0(n, t)

    # rational t with small denominators, so that b | k and n >= b (the
    # periodic identity of brute_S) happen inside n <= 60, plus a QuadExt
    # whose radicand is a square (= 505/4)
    @given(st.integers(0, 60), st.one_of(
        quadratic_irrationals(), st.builds(F, st.integers(-40, 40),
                                           st.integers(1, 12))))
    @example(60, QuadExt(1, 1, 1018081, 8))
    @example(60, 3)
    @settings(max_examples=300, deadline=None)
    def test_quadratic_kernel_matches_definition(self, n, t):
        ref = _accumulate(beta, n, t)
        ref0 = _accumulate(beta0, n, t)
        assert sums.brute_S(n, t) == ref[n]
        assert sums.brute_S0(n, t) == ref0[n]
        assert sums.s0_prefix(t, n) == ref0
        # the one map: S = (u + v sqrt(d))/(2r) for t = (p + q sqrt(d))/r
        parts = _, q, d, r = sums._parts(t)
        for midpoint, want in ((False, ref), (True, ref0)):
            uv = [sums._numerators(parts, k, F_k, midpoint)
                  for k, F_k in enumerate(sums._floor_sums(t, n), 1)]
            assert [F(0)] + [QuadExt(u, v, d, 2 * r) if q else F(u, 2 * r)
                             for u, v in uv] == want
        zero = sums.brute_S(0, t)
        assert zero == 0 and type(zero) is F

    def test_brute_s0_on_irrational_equals_brute_s(self, corpus):
        t = corpus["golden"]
        assert sums.brute_S0(25, t) == sums.brute_S(25, t)


def _isqrt_floor_sums(t, n):
    """F(k,t) for k = 1..n by the definition: floor(j t) for
    t = (p + q sqrt(d))/r is (j p + floor(j q sqrt(d)))//r, one isqrt each."""
    out, total = [], 0
    for j in range(1, n + 1):
        m = math.isqrt(j * j * t.q * t.q * t.d)
        total += (j * t.p + (m if t.q > 0 else -m - 1)) // t.r
        out.append(total)
    return out


# t = sqrt(m^2 - 1) - (m - 1), about 1 - 1/(2m), m = 10^22: for n < 1024,
# 2^E < 2m, so floor(t 2^E) = 2^E - 1 and the fixed-point bracket of k t
# reaches the next multiple of 2^E at every k
ALWAYS_FALLS_BACK = QuadExt(-(10 ** 22 - 1), 1, 10 ** 44 - 1, 1)
# t = 1/3 + sqrt(m^2 + 1) - m, about 1/3 + 1/(2m), m = 10^30: at k = 3j,
# x >> E is floor(k t) - 1, so the answer is wrong unless the fallback is taken
ONE_THIRD_AND_A_BIT = QuadExt(1 - 3 * 10 ** 30, 3, 10 ** 60 + 1, 3)


# large p, q and r, and radicands with a square factor the constructor keeps
# (1009^2)
FIXED_POINT_T = st.one_of(quadratic_irrationals(), st.builds(
    QuadExt, st.integers(-10 ** 6, 10 ** 6),
    st.integers(-10 ** 4, 10 ** 4).filter(bool),
    st.sampled_from([2, 3, 5, 7, 1009 ** 2 * 3, 10 ** 18 + 9]),
    st.integers(2, 10 ** 6)))


class TestFixedPointFloors:
    @given(FIXED_POINT_T, st.integers(0, 1500))
    @example(ALWAYS_FALLS_BACK, 1023)
    @example(ONE_THIRD_AND_A_BIT, 600)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_isqrt_definition(self, t, n):
        assert list(sums._floor_sums(t, n)) == _isqrt_floor_sums(t, n)

    @pytest.mark.parametrize("t, n, fallbacks", [
        (ALWAYS_FALLS_BACK, 1023, 1023),
        (ONE_THIRD_AND_A_BIT, 600, 200),  # at k = 3, 6, ..., 600
        (QuadExt(-1, 1, 5, 2), 10 ** 4, 0),
    ])
    def test_falls_back_only_where_the_bracket_reaches_an_integer(
            self, monkeypatch, t, n, fallbacks):
        calls = []

        def counted(q, d):
            calls.append(q)
            return floor_sqrt_times(q, d)

        floor_sqrt_times = sums._floor_sqrt_times
        monkeypatch.setattr(sums, "_floor_sqrt_times", counted)
        assert list(sums._floor_sums(t, n)) == _isqrt_floor_sums(t, n)
        assert len(calls) == 1 + fallbacks  # one more for T = floor(t 2^E)

    # E = 64 + n.bit_length() changes between 2^j - 1 and 2^j; t < 0, t > 1
    # and 0 < t < 1, so t0 = floor(T / 2^E) is negative, positive and 0
    @given(st.one_of(quadratic_irrationals(), st.builds(
        QuadExt, st.integers(-40, 0), st.just(1), st.integers(2, 10 ** 4)
        .filter(lambda d: math.isqrt(d) ** 2 != d), st.integers(1, 9))),
        st.integers(1, 12), st.integers(-1, 0))
    @example(QuadExt(-1, 1, 5, 2), 12, -1)
    @example(QuadExt(7, -3, 2, 5), 9, 0)
    @settings(max_examples=150, deadline=None)
    def test_carry_matches_the_isqrt_definition_where_E_changes(self, t, j, off):
        n = 2 ** j + off
        assert list(sums._floor_sums(t, n)) == _isqrt_floor_sums(t, n)


def _definition_total(t, n):
    """F(n,t) by the definition, one floor at a time: `_isqrt_floor_sums` for
    a QuadExt, floor(k a/b) for t = a/b."""
    if isinstance(t, F):
        return sum(k * t.numerator // t.denominator for k in range(1, n + 1))
    return _isqrt_floor_sums(t, n)[-1] if n else 0


class TestBlockTotals:
    """`_floor_total` counts the floors a block of B = isqrt(4n) at a time,
    after a prefix of n mod B terms."""

    # t as for the fixed-point floors, and rational t: small denominators
    # carry at y0 + v_i = M exactly, wherever b divides k
    @given(st.one_of(FIXED_POINT_T, st.fractions(max_denominator=60),
                     st.builds(F, st.integers(-10 ** 12, 10 ** 12),
                               st.integers(1, 10 ** 12))),
           st.integers(0, 3000))
    @example(QuadExt(-1, 1, 5, 2), 10)  # n < B = 16: the prefix alone
    @example(QuadExt(-1, 1, 5, 2), 1024)  # 16 blocks of B = 64, no prefix
    @example(QuadExt(-1, 1, 5, 2), 1025)  # the same blocks after one term
    @example(QuadExt(-1, 1, 5, 2), 1007)  # 15 blocks of B = 63 after 62 terms
    @example(F(7, 10), 1024)
    @example(F(10 ** 9 + 6, 10 ** 9 + 7), 3000)
    @example(ALWAYS_FALLS_BACK, 1023)  # every block unsafe
    @example(ONE_THIRD_AND_A_BIT, 3000)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_definition(self, t, n):
        assert sums._floor_total(t, n) == _definition_total(t, n)

    # an unsafe block takes all B of its floors exactly, and the first
    # n mod B terms only those whose bracket reaches an integer; a call takes
    # T = floor(t 2^E) once
    @pytest.mark.parametrize("t, n, exact", [
        (ALWAYS_FALLS_BACK, 1023, 15 + 16 * 63),  # B = 63: every floor
        (ONE_THIRD_AND_A_BIT, 600, 8 + 12 * 48),  # B = 48: k = 3, 6, ..., 24
        (QuadExt(-1, 1, 5, 2), 10 ** 5, 0),  # B = 632, 158 blocks, all safe
    ])
    def test_takes_exact_floors_only_in_unsafe_blocks(self, monkeypatch, t, n, exact):
        calls = []

        def counted(q, d):
            calls.append(q)
            return floor_sqrt_times(q, d)

        floor_sqrt_times = sums._floor_sqrt_times
        monkeypatch.setattr(sums, "_floor_sqrt_times", counted)
        assert sums._floor_total(t, n) == _definition_total(t, n)
        assert len(calls) == 1 + exact

    # the check cap of the CLI's bench and sum, on the corpus, a t of long
    # period and both fixed-point constants
    @pytest.mark.parametrize("t", [
        QuadExt(-1, 1, 5, 2), QuadExt(-1, 1, 2, 1), QuadExt(-1, 1, 3, 1),
        QuadExt(0, 1, 10 ** 9 + 7, 40000), ALWAYS_FALLS_BACK, ONE_THIRD_AND_A_BIT])
    def test_brute_at_the_check_cap_matches_the_walk(self, t):
        n = 200_000
        *_, F_walk = sums._floor_sums(t, n)
        assert sums.brute_S(n, t) == sums._value(_parts(t), n, F_walk)


class TestFloorSum:
    @given(st.integers(0, 3000), st.integers(-10 ** 6, 10 ** 6),
           st.integers(1, 10 ** 4))
    @example(0, 5, 7)
    @example(3000, -1, 1)
    @example(2999, 9999, 10 ** 4)
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_floor_sums(self, n, a, b):
        total = 0
        for total in sums._floor_sums(F(a, b), n):
            pass
        assert sums.floor_sum(n, a, b) == total

    @given(st.integers(0, 10 ** 18), st.integers(-10 ** 12, 10 ** 12),
           st.integers(1, 10 ** 9))
    @settings(max_examples=300, deadline=None)
    def test_period_shift(self, n, a, b):
        # floor((k + b) a/b) = floor(k a/b) + a
        assert sums.floor_sum(n + b, a, b) == \
            sums.floor_sum(n, a, b) + sums.floor_sum(b, a, b) + a * n

    # rational t, a QuadExt with a square radicand (so rational too) and
    # quadratic irrationals, also of long period (d up to 10^9 + 7)
    @given(st.integers(0, 300), st.integers(0, 10 ** 18), st.one_of(
        st.fractions(max_denominator=60),
        st.builds(lambda p, s, r: QuadExt(p, 1, s * s, r), st.integers(-99, 99),
                  st.integers(1, 99), st.integers(1, 99)),
        quadratic_irrationals(), expansions().map(lambda t_cf: t_cf[0]),
        st.builds(lambda p, d, r: QuadExt(p, 1, d, r), st.integers(-10 ** 5, 10 ** 5),
                  st.integers(2, 10 ** 9 + 7), st.integers(1, 10 ** 5))))
    @example(600, 10 ** 18, QuadExt(0, 1, 10 ** 9 + 7, 40000))
    @settings(max_examples=300, deadline=None)
    def test_front_door_matches_brute(self, n, n_huge, t):
        assert sums.exact_S(n, t) == sums.brute_S(n, t)
        assert sums.exact_S(n, t, midpoint=True) == sums.brute_S0(n, t)
        if not is_rational(t):  # S is 1-periodic in t; bseq_S needs t in (0, 1)
            assert sums.exact_S(n_huge, t) == sums.bseq_S(n_huge, t - floor(t))[0]

    def test_rejects_bad_arguments(self):
        for n, b in ((-1, 3), (3, 0), (3, -2)):
            with pytest.raises(ValueError):
                sums.floor_sum(n, 1, b)
        # floor_sum(7/2, 1, 3) once returned 1, floor_sum(3.0, 1, 3) the
        # float 1.0 and this tab_sum 11/4
        for call in (lambda: sums.floor_sum(F(7, 2), 1, 3),
                     lambda: sums.floor_sum(3.0, 1, 3),
                     lambda: sums.floor_sum(3, F(1, 2), 3),
                     lambda: sums.floor_sum(3, 1, 3.0),
                     lambda: sums.floor_sum(3, 1, 3, F(1, 2)),
                     lambda: sums.tab_sum(F(7, 2), F(1, 3))):
            with pytest.raises(TypeError):
                call()


class TestMeansAndLeftLimits:
    def test_examples(self):
        assert sums.B_left(3, F(1, 2)) == F(1, 6)
        assert sums.B_left(1, F(0, 1)) == F(1, 2)

    def test_jump_size(self):
        # jump of B_n at a/b is (1/n) floor(n/b)
        n, ab = 10, F(2, 5)
        assert sums.B_left(n, ab) - sums.B(n, ab) == F(n // 5, n)

    def test_methods_agree(self, corpus, corpus_cf):
        t, cf = corpus["golden"], corpus_cf["golden"]
        for n in (1, 7, 50):
            s = sums.brute_S(n, t)
            assert s == sums.ostrowski_S(n, t, cf)[0] == sums.bseq_S(n, t)[0]
            assert sums.B(n, t) == s / n


class TestOstrowski:
    def test_matches_oracle(self, corpus, corpus_cf):
        for k in corpus:
            t, cf = corpus[k], corpus_cf[k]
            pre = sums.s0_prefix(t, 200)
            tab = sums.OstrowskiTables(t, cf)
            for n in range(1, 201):
                assert sums.ostrowski_S(n, t, cf, tables=tab)[0] == pre[n]

    @given(expansions(), st.booleans(), st.integers(0, 2000),
           st.integers(0, 10 ** 18))
    @settings(max_examples=150, deadline=None)
    def test_integer_recursion_property(self, t_cf, with_cf, n_small, n_huge):
        t, cf = t_cf
        cf = cf if with_cf else None  # half the draws read t's orbit alone
        tab = sums.OstrowskiTables(t, cf)
        for n in (n_small, n_huge):
            total, trace = sums.ostrowski_S(n, t, cf, tables=tab)
            if n == n_small:
                assert total == sums.brute_S(n, t)
            elif floor(t) == 0:
                assert total == sums.bseq_S(n, t)[0]
            assert sum((s.increment for s in trace.steps), F(0)) == total
            for s in trace.steps:
                m = s.n_before + s.n_after + 1
                assert 0 < abs(1 - s.rho * m) < 1
                assert m < 2 * tab.b[s.j_star + 1]  # the bound of the proof
                assert s.n_before // tab.b[s.j_star] <= tab.lam[s.j_star]

    def test_refuses_tables_of_another_t_or_expansion(self, corpus, corpus_cf):
        golden, cf = corpus["golden"], corpus_cf["golden"]
        other = sums.OstrowskiTables(corpus["sqrt2m1"], corpus_cf["sqrt2m1"])
        # these tables once gave S(10, sqrt(2) - 1) = -78 + 55 sqrt(2)
        with pytest.raises(ValueError):
            sums.ostrowski_S(10, golden, cf, tables=other)
        with pytest.raises(ValueError):  # and with no expansion to compare
            sums.ostrowski_S(10, golden, tables=other)
        # the same t, written with a one-term pre-period
        longer = cfrac.CFExpansion(0, (1,), (1,))
        with pytest.raises(ValueError):
            sums.ostrowski_S(10, golden, longer,
                             tables=sums.OstrowskiTables(golden, cf))
        own = sums.OstrowskiTables(golden, longer)
        assert (sums.ostrowski_S(10, golden, longer, tables=own)[0]
                == sums.ostrowski_S(10, golden, cf)[0]
                == sums.brute_S(10, golden) == QuadExt(-123, 55, 5, 2))

    def test_rejects_rational(self):
        cf = cfrac.expand(F(7, 10), 10)
        with pytest.raises(NotIrrational):
            sums.OstrowskiTables(F(7, 10), cf)

    def test_rejects_mismatched_expansion(self, corpus):
        with pytest.raises(ValueError):
            sums.OstrowskiTables(corpus["golden"],
                                 cfrac.CFExpansion(0, (), (2,)))

    def test_late_departing_expansion_is_refused(self, corpus):
        # golden is <0; 1, 1, ...>; this expansion departs at lambda_5, after
        # the four quotients checked when the tables are built
        t, cf = corpus["golden"], cfrac.CFExpansion(0, (1, 1, 1, 1), (2,))
        pre = sums.s0_prefix(t, 399)
        shared = sums.OstrowskiTables(t, cf)
        for tables in (None, shared):
            refused = []
            for n in range(1, 400):
                try:
                    value = sums.ostrowski_S(n, t, cf, tables=tables)[0]
                except ValueError:
                    refused.append(n)
                else:
                    assert value == pre[n]
            assert refused == list(range(5, 400))  # b_5 = 5 needs lambda_5

    @given(expansions(max_quotient=3), st.integers(4, 9), st.integers(1, 4),
           st.lists(st.integers(1, 2000), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_expansion_changed_after_lambda3_is_refused(self, t_cf, k, new, ns):
        t, cf = t_cf
        assume(new != cf.coeff(k))
        # the same quotients but lambda_k, with cf's period after the change
        L = len(cf.period)
        M = len(cf.pre) + L * -(-(k - len(cf.pre)) // L)
        lams = [cf.coeff(j) for j in range(1, M + 1)]
        lams[k - 1] = new
        bad = cfrac.CFExpansion(cf.lambda0, tuple(lams), cf.period)
        b_k = cfrac.convergents(cf, k)[k].b
        tab = sums.OstrowskiTables(t, bad)
        for n in ns + [b_k - 1, b_k, b_k + 1]:
            try:
                value = sums.ostrowski_S(n, t, bad, tables=tab)[0]
            except ValueError:
                assert n >= b_k
            else:
                assert n < b_k and value == sums.brute_S(n, t)

    def test_sweep_matches_single_calls(self, corpus, corpus_cf):
        t, cf = corpus["sqrt3m1"], corpus_cf["sqrt3m1"]
        S, depth, bound = sums.ostrowski_sweep(t, cf, 150, validate=True)
        # validate is accepted and not read: every sweep is checked
        assert sums.ostrowski_sweep(t, cf, 150) == (S, depth, bound)
        tab = sums.OstrowskiTables(t, cf)
        for n in range(1, 151):
            val, trace = sums.ostrowski_S(n, t, cf, tables=tab)
            assert S[n] == val
            assert depth[n] == len(trace.steps)
            assert abs(val) <= bound[n]

    def test_depth_bound(self, corpus):
        for k in corpus:
            _, depth, _ = sums.ostrowski_sweep(corpus[k], None, 2000)
            assert all(depth[n] <= 4 * math.log(n) for n in range(3, 2001))


def _reference_sweep(tab, n_max):
    """The sweep as one `_ostrowski_F` per n, its F, its number of steps and
    the j of its first step: the reference that the block sweep `sums._sweep`
    must equal, list for list and error for error."""
    F, depth, js = [0], [0], [0]
    for n in range(1, n_max + 1):
        Fn, rows = sums._ostrowski_F(n, tab)
        F.append(Fn)
        depth.append(len(rows))
        js.append(rows[0][0])
    return F, depth, js


def _outcome(sweep, tab, n_max):
    """The three lists of a sweep, or the text of the AssertionError it
    raised."""
    try:
        return sweep(tab, n_max)
    except AssertionError as exc:
        return str(exc)


# <0; 3, (999, 2)>: b_1 = 1, b_2 = 3, b_3 = 2998, b_4 = 5999, so n <= 3000
# crosses b_3 in the middle of a run of 999 blocks
LONG_RUN = cfrac.CFExpansion(0, (3,), (999, 2))


class TestBlockSweep:
    """`sums._sweep`, made a block of n at a time, against `_ostrowski_F` at
    each n."""

    @given(expansions(max_quotient=1000, min_pre=1), st.integers(0, 3000))
    @example((QuadExt(-1, 1, 5, 2), None), 986)  # golden: b_j = 987
    @example((QuadExt(-1, 1, 5, 2), None), 987)
    @example((QuadExt(-1, 1, 5, 2), None), 988)
    @example((cfrac.value(LONG_RUN), LONG_RUN), 2997)
    @example((cfrac.value(LONG_RUN), LONG_RUN), 2998)
    @example((cfrac.value(LONG_RUN), LONG_RUN), 2999)
    @settings(max_examples=100, deadline=None)
    def test_equals_the_per_step_loop(self, t_cf, n_max):
        t, cf = t_cf
        got = sums._sweep(sums.OstrowskiTables(t, cf), n_max)
        assert got == _reference_sweep(sums.OstrowskiTables(t, cf), n_max)

    # F against the independent route up to 10^5, where the sweep used to be
    # compared with the floor sums only up to n = 150
    @pytest.mark.parametrize("t", [QuadExt(-1, 1, 5, 2),
                                   QuadExt(0, 1, 10 ** 9 + 7, 40000)])
    def test_F_is_the_floor_sum_prefix_up_to_10_5(self, t):
        n_max = 10 ** 5
        F_sweep, depth, js = sums._sweep(sums.OstrowskiTables(t), n_max)
        assert F_sweep == [0, *sums._floor_sums(t, n_max)]
        assert (F_sweep, depth, js) == _reference_sweep(
            sums.OstrowskiTables(t), n_max)

    # a lowered lambda_j, or a shrunk b_{j+1}, kept increasing or not: the
    # sweep raises at the n, and with the text, of the per-n loop
    @pytest.mark.parametrize("t, table, j, value, message", [
        (QuadExt(-1, 1, 5, 2), "lam", 6, 0, "floor(n/b_j*) > lambda_j* at n=8"),
        (QuadExt(-1, 1, 2, 1), "lam", 4, 1, "floor(n/b_j*) > lambda_j* at n=24"),
        (QuadExt(-1, 1, 5, 2), "b", 7, 10, "floor(n/b_j*) > lambda_j* at n=20"),
        (QuadExt(-1, 1, 2, 1), "b", 6, 13, "floor(n/b_j*) > lambda_j* at n=39"),
        # b_7 = 7 < b_6 = 8: the tables no longer increase
        (QuadExt(-1, 1, 5, 2), "b", 7, 7, "floor(n/b_j*) > lambda_j* at n=14"),
        # the failing block in the middle of the run of 999 blocks q = 1..999
        # on b_2 = 3 <= n < b_3 = 2998: q = 501 > 500 first at n = 1503, and
        # q = 999 > 998 at n = 2997, the run's last block, cut short by b_3
        (cfrac.value(LONG_RUN), "lam", 2, 500, "floor(n/b_j*) > lambda_j* at n=1503"),
        (cfrac.value(LONG_RUN), "lam", 2, 998, "floor(n/b_j*) > lambda_j* at n=2997"),
    ])
    def test_tampered_tables_raise_as_the_per_step_loop(self, t, table, j,
                                                        value, message):
        n_max = 3000
        outcomes = []
        for sweep in (sums._sweep, _reference_sweep):
            tab = sums.OstrowskiTables(t)
            tab.extend_past(n_max)
            getattr(tab, table)[j] = value
            outcomes.append(_outcome(sweep, tab, n_max))
        block, ref = outcomes
        assert block == ref == message

    def test_tables_that_stop_increasing_go_one_recursion_per_n(self):
        # sqrt(2) - 1 with b_7 = 68 < b_6 = 70: every check holds up to
        # n = 200, and a block at a time would give other lists
        t, n_max = QuadExt(-1, 1, 2, 1), 200
        tables = []
        for _ in range(2):
            tab = sums.OstrowskiTables(t)
            tab.extend_past(n_max)
            tab.b[7] = 68
            tables.append(tab)
        got = sums._sweep(tables[0], n_max)
        assert got == _reference_sweep(tables[1], n_max)
        assert got != sums._sweep(sums.OstrowskiTables(t), n_max)

    def test_refuses_negative_n_max(self, corpus):
        # both used to return short lists: lengths 1, 0, 0 and [0]
        t = corpus["golden"]
        for call in (lambda: sums.ostrowski_sweep(t, None, -3),
                     lambda: sums.ostrowski_sweep(t, None, -1, validate=True),
                     lambda: sums.s0_prefix(t, -3),
                     lambda: sums.s0_prefix(F(2, 5), -1)):
            with pytest.raises(ValueError, match=r"^n_max must be >= 0$"):
                call()
        assert sums.ostrowski_sweep(t, None, 0) == ([0], [0], [0])
        assert sums.s0_prefix(t, 0) == [0]


def _eager(t, F_list, midpoint):
    """The entries that a prefix sequence builds on read, built at once by
    `_value` from the same F(n,t): the reference for every read."""
    parts = sums._parts(t)
    return [sums._value(parts, n, F_n, midpoint) for n, F_n in enumerate(F_list)]


def _prefixes(t, n_max):
    """(sequence, eager reference) for s0_prefix and, at irrational t, the
    sweep's S, both from the floor sums, not from the sequence's own F."""
    F_list = [0, *sums._floor_sums(t, n_max)]
    out = [(sums.s0_prefix(t, n_max), _eager(t, F_list, True))]
    if not is_rational(t):
        out.append((sums.ostrowski_sweep(t, None, n_max)[0], _eager(t, F_list, False)))
    return out


def _same(got, want):
    assert got == want
    assert [type(x) for x in got] == [type(x) for x in want]


class TestPrefixSequences:
    """s0_prefix and the S of ostrowski_sweep: read-only sequences that keep
    F(n,t) as ints and build each entry when it is read."""

    @given(st.one_of(st.fractions(-3, 3, max_denominator=40), quadratic_irrationals(),
                     expansions().map(lambda t_cf: t_cf[0])),
           st.integers(0, 400), st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_read_equals_the_eager_values(self, t, n_max, data):
        bound = st.none() | st.integers(-n_max - 5, n_max + 5)
        cut = slice(data.draw(bound), data.draw(bound),
                    data.draw(st.none() | st.integers(-7, 7).filter(bool)))
        for seq, want in _prefixes(t, n_max):
            assert len(seq) == len(want) == n_max + 1
            _same([seq[n] for n in range(n_max + 1)], want)
            _same([seq[n] for n in range(-n_max - 1, 0)], want)
            _same(seq[cut], want[cut])
            _same(list(seq), want)
            assert type(seq[0]) is F and seq[0] == 0
            kinds = {type(x) for x in want[1:]}
            assert kinds <= ({F} if is_rational(t) else {QuadExt})

    def test_iteration_past_one_bulk_build(self, corpus):
        for seq, want in _prefixes(corpus["sqrt2m1"], 3000):
            _same(list(seq), want)
            assert sum(1 for _ in seq) == 3001

    def test_reads_past_the_end_and_hashing_raise(self, corpus):
        for seq, _ in _prefixes(corpus["golden"], 30) + _prefixes(F(2, 7), 30):
            assert len(seq) == 31
            for n in (31, 10 ** 20, -32):
                with pytest.raises(IndexError):
                    seq[n]
            with pytest.raises(TypeError):
                hash(seq)
            with pytest.raises(TypeError):
                seq["1"]

    def test_equality_against_lists_and_sequences(self, corpus):
        t = corpus["golden"]
        pre, swept = sums.s0_prefix(t, 60), sums.ostrowski_sweep(t, None, 60)[0]
        want = list(pre)
        assert pre == want and want == pre and not pre != want
        assert pre == swept  # S0 = S at irrational t, compared entry by entry
        assert pre != want[:-1] and pre != sums.s0_prefix(t, 59)
        assert pre != want[:-1] + [want[-1] + 1]
        assert pre != tuple(want) and pre != 5
        rational = sums.s0_prefix(F(1, 3), 60)
        assert rational != pre and rational == list(rational)
        # the same F(n,t) for n <= 5 at 3/5 and at the golden t: other values
        near = sums.s0_prefix(F(3, 5), 5)
        assert near.rows == sums.s0_prefix(t, 5).rows and near != sums.s0_prefix(t, 5)
        assert pre == sums.s0_prefix(t, 60) and swept == sums.ostrowski_sweep(t, None, 60)[0]
        assert sums.ostrowski_sweep(t, None, 61)[0] != swept
        assert not sums.s0_prefix(F(1, 3), 60) != rational

    @pytest.mark.parametrize("call, limit", [
        (lambda t: sums.ostrowski_sweep(t, None, 10 ** 5), 8),
        (lambda t: sums.s0_prefix(t, 10 ** 5), 6),
    ], ids=["ostrowski_sweep", "s0_prefix"])
    def test_memory_held_after_the_call(self, corpus, call, limit):
        # the ints F(n,t), not an exact value per n: about 4 MiB of them
        call(corpus["golden"])  # t's orbit record, made once per t
        tracemalloc.start()
        try:
            held = call(corpus["golden"])
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held and size < limit << 20


class TestBseq:
    def test_matches_oracle(self, corpus):
        for t in corpus.values():
            pre = sums.s0_prefix(t, 200)
            for n in range(1, 201):
                assert sums.bseq_S(n, t)[0] == pre[n]

    def test_domain_checks(self, corpus):
        with pytest.raises(NotIrrational):
            sums.bseq_S(5, F(1, 3))
        with pytest.raises(DomainError):
            sums.bseq_S(5, corpus["golden"] + 1)
        with pytest.raises(DomainError):
            sums.bseq_S(5, -corpus["golden"])

    def test_decides_its_domain_without_comparing(self, corpus, monkeypatch):
        # t in (0, 1] comes from lambda_0 of the orbit walk, not from t < 1
        def refuse(*_):
            raise AssertionError("QuadExt comparison")
        want = sums.bseq_S(10 ** 6, corpus["golden"])[0]
        monkeypatch.setattr(QuadExt, "_cmp", refuse)
        assert sums.bseq_S(10 ** 6, corpus["golden"])[0] == want
        with pytest.raises(DomainError):
            sums.bseq_S(5, corpus["golden"] + 1)

    def test_depth_bound(self, corpus):
        for t in corpus.values():
            for n in range(8, 300, 11):
                assert len(sums.bseq_S(n, t)[1].steps) <= 4 * math.log(n)

    @given(st.one_of(expansions(), expansions(max_quotient=1000)),
           st.integers(0, 2000), st.integers(0, 10 ** 18))
    # q < 0 and r = 1: the orbit starts at Q = -1, so every floor there
    # lands on the boundary case of a negative denominator
    @example((QuadExt(2, -1, 3, 1), cfrac.CFExpansion(0, (3,), (1, 2))),
             100, 10 ** 18)
    @settings(max_examples=150, deadline=None)
    def test_integer_orbit_matches_reference(self, t_cf, n_small, n_huge):
        t, cf = t_cf
        t = t - cf.lambda0  # lambda_0 = 0: bseq_S needs t in (0, 1)
        for n in (n_small, n_huge):
            total, trace = sums.bseq_S(n, t)
            ref_total, ref_steps, lam_sum = _reference_bseq(n, t)
            assert repr(total) == repr(ref_total)
            assert len(trace.steps) == len(ref_steps)
            assert [repr(s) for s in trace.steps] == [repr(s) for s in ref_steps]
            assert 2 * abs(total) <= lam_sum

    def test_steps_are_built_only_when_read(self, corpus, corpus_cf,
                                            monkeypatch):
        t, cf = corpus["golden"], corpus_cf["golden"]
        n = 10 ** 15

        def refuse(*args):
            raise AssertionError("step object built")

        with monkeypatch.context() as m:
            m.setattr(sums, "BseqStep", refuse)
            m.setattr(sums, "OstrowskiStep", refuse)
            value_b, trace_b = sums.bseq_S(n, t)
            value_o, trace_o = sums.ostrowski_S(n, t, cf)
            assert value_b == value_o
            assert (len(trace_b.steps), len(trace_o.steps)) == (71, 18)
        ref_steps = _reference_bseq(n, t)[1]
        assert list(trace_b.steps) == ref_steps
        assert trace_b.steps[-1] == ref_steps[-1]
        assert trace_b.steps[2:5] == ref_steps[2:5]
        assert trace_o.steps[0].n_before == n
        assert sum((s.increment for s in trace_o.steps), F(0)) == value_o


class TestFlatOstrowski:
    """`sums._ostrowski_F`, one loop over tables grown once, on tampered
    tables: every step is checked.  Its values on built tables are
    `TestOstrowski`'s and `TestIntegerCores`'."""

    # a lowered lambda_j, a shrunk or grown b_j (increasing or not), or a
    # changed a_j: the error at the n where the checks first fail, or, for
    # a_j, which no check reads, the same steps with other dF
    @pytest.mark.parametrize("t, table, j, value, message", [
        (QuadExt(-1, 1, 5, 2), "lam", 10, 0, "floor(n/b_j*) > lambda_j* at n=55"),
        (QuadExt(-1, 1, 2, 1), "lam", 13, 0,
         "floor(n/b_j*) > lambda_j* at n=58336"),
        (QuadExt(-1, 1, 5, 2), "b", 26, 100,
         "floor(n/b_j*) > lambda_j* at n=167960"),
        # b_8 = 100 > b_9 = 34: the tables no longer increase
        (QuadExt(-1, 1, 5, 2), "b", 8, 100, "floor(n/b_j*) > lambda_j* at n=55"),
        (QuadExt(-1, 1, 2, 1), "a", 12, 7, None),
    ])
    def test_tampered_tables_give_the_per_step_outcome(self, t, table, j,
                                                       value, message):
        n = 10 ** 6
        tab = sums.OstrowskiTables(t)
        tab.extend_past(n)
        getattr(tab, table)[j] = value
        if message is not None:
            with pytest.raises(AssertionError) as exc:
                sums._ostrowski_F(n, tab)
            assert str(exc.value) == message
            return
        # the tampered a_12 changes dF exactly at the steps with j = 12
        F_bad, rows_bad = sums._ostrowski_F(n, tab)
        F_ok, rows_ok = sums._ostrowski_F(n, sums.OstrowskiTables(t))
        assert [row[:3] for row in rows_bad] == [row[:3] for row in rows_ok]
        assert ([bad[3] != ok[3] for bad, ok in zip(rows_bad, rows_ok)]
                == [ok[0] == j for ok in rows_ok])
        assert F_bad != F_ok


def _reference_tables(cf, limit):
    """n -> (lambda, a, b) of `OstrowskiTables` grown past n, for
    n <= limit, from cf alone: up to the first K >= 4 with b_K > n, by
    `cfrac.convergents`."""
    conv = cfrac.convergents(cf, 4)
    while conv[-1].b <= limit:
        conv = cfrac.convergents(cf, 2 * len(conv))
    lam = [cf.lambda0] + [cf.coeff(j) for j in range(1, len(conv))]
    a, b = [c.a for c in conv], [c.b for c in conv]

    def tables(n):
        K = max(4, bisect.bisect_right(b, n))
        return lam[:K], a[:K + 1], b[:K + 1]

    return tables


# <0; 1 (250 times), (2)>: a pre-period of quotients 1, so b_k grows as
# slowly as it can and t's period is not known within the states a table
# of n < b_250 reads
ONES_THEN_TWO = cfrac.CFExpansion(0, (1,) * 250, (2,))


@st.composite
def slow_orbits(draw):
    """t in (0, 1) with quotients 1..3 and a pre-period of up to 300 of them,
    so that a fresh read of its orbit ends before the period is known."""
    quotient = st.integers(1, 3)
    cf = cfrac.CFExpansion(0, tuple(draw(st.lists(quotient, max_size=300))),
                           tuple(draw(st.lists(quotient, min_size=1, max_size=3))))
    return cfrac.value(cf)


class TestOrbitReadBounds:
    """The record walks t's orbit only as far as its readers read it: the
    tables to the first b_k > n, the Gauss-map recursion to its last step.
    A walk cut short would show as tables cut short or a recursion that
    runs out of states, and one too long as states that nobody read."""

    @pytest.mark.parametrize("cf, limit", [
        (cfrac.CFExpansion(0, (), (1,)), 10 ** 300),  # golden
        (cfrac.CFExpansion(0, (), (2,)), 10 ** 300),  # sqrt(2) - 1
        (ONES_THEN_TWO, 10 ** 50),
    ], ids=["golden", "sqrt2m1", "ones-then-two"])
    def test_tables_at_every_convergent_denominator(self, cf, limit):
        t, want = cfrac.value(cf), _reference_tables(cf, limit)
        bs = [c.b for c in cfrac.convergents(cf, 1500) if 1 <= c.b <= limit]
        for n in sorted({m for b in bs for m in (b - 1, b)}):
            cfrac._record.cache_clear()  # a fresh record: one read per growth
            tab = sums.OstrowskiTables(t)
            tab.extend_past(n)
            assert (tab.lam, tab.a, tab.b) == want(n)

    @given(slow_orbits(), st.integers(0, 10 ** 60))
    @settings(max_examples=60, deadline=None)
    @example(cfrac.value(ONES_THEN_TWO), 10 ** 50)
    def test_bseq_steps_at_most_twice_the_bit_length(self, t, n):
        cfrac._record.cache_clear()
        F, rows = sums._bseq_F(n, _parts(t))
        assert len(rows) <= 2 * n.bit_length()
        assert F == sums._ostrowski_F(n, sums.OstrowskiTables(t))[0]

    # sqrt(10^9 + 7 + 2k)/(40000 + k) - floor, long periods, on fresh records
    @pytest.mark.parametrize("k", [0, 1, 2, 7, 49])
    @pytest.mark.parametrize("n", [10 ** 6, 10 ** 18, 10 ** 60])
    def test_walks_only_the_states_read(self, k, n):
        t = QuadExt(0, 1, 10 ** 9 + 7 + 2 * k, 40000 + k)
        t = t - floor(t)
        cfrac._record.cache_clear()
        rec = cfrac._record(*_parts(t))
        F, rows = sums._bseq_F(n, _parts(t))
        assert rec.cf is None  # no period within the states read
        assert len(rec.states) == len(rows) + 1  # states 0..len(rows)
        tab = sums.OstrowskiTables(t)
        tab.extend_past(n)
        # the tables read lambda_0..lambda_{K-1}, one state each
        assert len(rec.states) == max(len(rows) + 1, len(tab.lam))
        assert F == sums._ostrowski_F(n, tab)[0]


def _isqrt_bseq(n, t):
    """F(n,t) and the rows (j, n_j, P_j, Q_j) of the Gauss-map recursion for
    t in (0, 1), on a fresh walk of t's orbit with no record, every floor
    taken by isqrt: the reference for `_bseq_F`'s fixed-point floors."""
    p, q, d, r = _parts(t)
    D = (q * r) ** 2 * d

    def floor_over(x, Q):  # floor((x + theta)/Q), theta in (0, 1)
        return x // Q if Q > 0 else (-x - 1) // -Q

    def state(P, Q):  # (lambda, P - lambda Q, Q) of (P + sqrt(D))/Q
        lam = floor_over(P + math.isqrt(D), Q)
        return lam, P - lam * Q, Q

    _, P, Q = state(*((p * r, r * r) if q > 0 else (-p * r, -r * r)))
    rows, G, sign, nj = [], 0, 1, n
    while nj > 0:
        rows.append((len(rows), nj, P, Q))
        m = floor_over(nj * P + math.isqrt(nj * nj * D), Q)
        lam, P, Q = state(-P, (D - P * P) // Q)
        G += sign * (m * (m + 1) * lam - (2 * m + 1) * nj - m)
        nj, sign = m, -sign
    return (-n - G) // 2, rows


# sqrt(D) = 9 10^100 + 1/3 + about 5 10^-102, D = 81 10^200 + 6 10^100 + 1:
# at n = 3k, n sqrt(D) lies just past an integer, and floor(sqrt(D) 2^E) times
# n falls short of it, so floor(n sqrt(D)) is wrong unless the bracket
# (n R, n R + n) sends it to the isqrt
THIRD_AND_A_BIT = QuadExt(-9 * 10 ** 100, 1, 81 * 10 ** 200 + 6 * 10 ** 100 + 1, 1)


class TestFixedPointGaussMap:
    """`_bseq_F` takes floor(n_j sqrt(D)) off the record's fixed-point
    sqrt(D), and by isqrt where the bracket reaches an integer."""

    @given(st.one_of(FIXED_POINT_T, slow_orbits()), st.integers(0, 10 ** 60))
    @example(ALWAYS_FALLS_BACK, 511)  # 2^E < 10^22: every step by isqrt
    @example(ALWAYS_FALLS_BACK, 10 ** 60)
    @example(THIRD_AND_A_BIT, 3)
    @example(THIRD_AND_A_BIT, 3 * 10 ** 59)
    @example(THIRD_AND_A_BIT, 10 ** 60)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_isqrt_recursion(self, t, n):
        t = t - floor(t)  # the recursion needs t in (0, 1)
        assert sums._bseq_F(n, _parts(t)) == _isqrt_bseq(n, t)

    def test_the_fallback_decides_at_a_multiple_of_3(self, monkeypatch):
        # at n = 3 the fixed-point floor of 3 sqrt(D) is off by one, so the
        # first step takes it by isqrt, and F(3,t) = 0 + 0 + 1
        calls = []

        def counted(x):
            calls.append(x)
            return math.isqrt(x)

        monkeypatch.setattr(sums, "isqrt", counted)
        cfrac._record.cache_clear()
        F, rows = sums._bseq_F(3, _parts(THIRD_AND_A_BIT))
        assert (F, rows) == _isqrt_bseq(3, THIRD_AND_A_BIT)
        assert F == 1 and calls == [9 * (81 * 10 ** 200 + 6 * 10 ** 100 + 1)]


class TestSharedRecord:
    """The tables of t copy their prefix out of t's one orbit record, and
    the recursions read the record itself: neither sees the other's reads
    or writes."""

    @given(expansions(max_quotient=20), expansions(max_quotient=20),
           st.booleans(), st.lists(st.integers(0, 10 ** 40), min_size=1, max_size=6),
           st.sampled_from(["rising", "falling", "repeated"]))
    @settings(max_examples=80, deadline=None)
    def test_two_t_interleaved(self, t_cf1, t_cf2, with_cf, ns, order):
        # the two records evict each other at every call: each table grows
        # from the record it was made with, and the recursions from t's own
        ns = {"rising": sorted(ns), "falling": sorted(ns, reverse=True),
              "repeated": [ns[0]] * len(ns)}[order]
        cfrac._record.cache_clear()
        pairs = [(t, cf, sums.OstrowskiTables(t, cf if with_cf else None),
                  _reference_tables(cf, max(ns))) for t, cf in (t_cf1, t_cf2)]
        past = 0
        for n in ns:
            past = max(past, n)
            for t, cf, tab, want in pairs:
                tab.extend_past(n)
                assert (tab.lam, tab.a, tab.b) == want(past)
                assert (sums.exact_S(n, t) == sums.ostrowski_S(n, t, cf)[0]
                        == sums.ostrowski_S(n, t, tables=tab)[0])

    def test_a_write_stays_in_its_tables(self):
        # sqrt(2) - 1 with b_7 = 68 written over 169 in one table: every
        # other reader of t sees b_7 = 169, and the table sees 68 until it
        # grows
        t, n_max = QuadExt(-1, 1, 2, 1), 200
        want = _reference_tables(cfrac.CFExpansion(0, (), (2,)), 10 ** 6)
        tab = sums.OstrowskiTables(t)
        tab.extend_past(n_max)
        tab.b[7] = 68
        fresh = sums.OstrowskiTables(t)
        fresh.extend_past(n_max)
        assert (fresh.lam, fresh.a, fresh.b) == want(n_max) and fresh.b[7] == 169
        F = [0, *sums._floor_sums(t, n_max)]
        assert sums._sweep(sums.OstrowskiTables(t), n_max)[0] == F
        assert [sums.exact_S(n, t) for n in range(n_max + 1)] == sums._prefix(_parts(t), F)[:]
        assert sums._sweep(tab, n_max) != sums._sweep(fresh, n_max)
        assert tab.b[7] == 68
        tab.extend_past(10 ** 6)  # a growth copies the record's prefix again
        assert (tab.lam, tab.a, tab.b) == want(10 ** 6)


class TestIntegerCores:
    """The integer cores behind ostrowski_S and bseq_S: F(n,t) against the
    brute-force prefix of floor sums."""

    @staticmethod
    def _check(t, ns):
        prefix = [0, *sums._floor_sums(t, max(ns))]
        tab = sums.OstrowskiTables(t)
        for n in ns:
            F_o, rows_o = sums._ostrowski_F(n, tab)
            F_b, rows_b = sums._bseq_F(n, _parts(t))
            assert F_o == F_b == prefix[n]
            assert len(rows_o) == len(sums.ostrowski_S(n, t, tables=tab)[1].steps)
            assert len(rows_b) == len(sums.bseq_S(n, t)[1].steps)

    # every n up to 3000, where the fixed-point floors fall back at every k
    # or at every third k
    @pytest.mark.parametrize("t", [ALWAYS_FALLS_BACK, ONE_THIRD_AND_A_BIT,
                                   QuadExt(-1, 1, 5, 2)])
    def test_match_the_floor_sums_up_to_3000(self, t):
        self._check(t, range(1, 3001))

    # t - floor(t) in (0, 1), as bseq needs; large quotients included
    @given(st.one_of(quadratic_irrationals(),
                     expansions().map(lambda t_cf: t_cf[0]),
                     expansions(max_quotient=1000).map(lambda t_cf: t_cf[0])),
           st.integers(1, 3000))
    @settings(max_examples=60, deadline=None)
    def test_match_the_floor_sums(self, t, n_max):
        t = t - floor(t)
        self._check(t, [*range(1, n_max + 1, 1 + n_max // 200), n_max])

    def test_estimate_failure_still_raises(self, corpus, monkeypatch):
        monkeypatch.setattr(sums, "_abs_at_most", lambda *args: False)
        with pytest.raises(AssertionError, match="Bsequence"):
            sums.bseq_S(10, corpus["golden"])
        with pytest.raises(AssertionError, match="Bsequence"):
            verify.suite_oracle("quick")
        assert sums.bseq_S(0, corpus["golden"])[0] == 0  # nothing to bound


class TestTheorem21:
    @given(st.integers(1, 60), st.fractions(min_value=0, max_value=1,
                                            max_denominator=50))
    @settings(max_examples=200, deadline=None)
    def test_b_identity_rational(self, n, t):
        if t == 0:
            t = F(1)
        lhs, rhs = sums.thm21b_identity(n, t)
        assert lhs == rhs

    def test_b_identity_quadratic(self, corpus):
        rng = random.Random(0)
        for t in corpus.values():
            for _ in range(25):
                n = rng.randint(1, 300)
                lhs, rhs = sums.thm21b_identity(n, t)
                assert lhs == rhs

    def test_a_identity_admissible_grid(self):
        checked = 0
        for b in range(1, 7):
            for a in range(0, b + 1):
                if math.gcd(a, b) != 1:
                    continue
                for bstar in range(1, b + 1):
                    if (1 + a * bstar) % b:
                        continue
                    if ((1 + a * bstar) // b) * b - a * bstar != 1:
                        continue
                    for n in (b, 2 * b + 1, 19):
                        if n < b:
                            continue
                        for x in (F(1, 2), F(4, 3), 2):
                            if not 0 < x * bstar <= n:
                                continue
                            lhs, rhs = sums.thm21a_identity(n, F(a, b), bstar, x)
                            assert lhs == rhs, (n, a, b, bstar, x)
                            checked += 1
        assert checked > 100

    def test_a_identity_rejects_non_neighbor(self):
        with pytest.raises(NotNeighbors):
            sums.thm21a_identity(10, F(1, 3), 3, F(1, 2))


class TestBoundsAndL2:
    def test_lemma31(self):
        for b in range(1, 12):
            for a in range(b + 1):
                if math.gcd(a, b) != 1:
                    continue
                for x in (1, 7, F(65, 2), 200):
                    value, bound, holds = sums.lemma31_bound(x, F(a, b))
                    assert holds and bound == F(b) / F(x)

    def test_tab_sum_bound(self):
        for b in range(1, 12):
            for a in range(1, b + 1):
                if math.gcd(a, b) != 1:
                    continue
                for x in (1, 10, 100):
                    total = sums.tab_sum(x, F(a, b))
                    assert abs(total) <= b * (b + 1)

    @given(st.one_of(
        st.integers(1, 300), st.builds(F, st.integers(1, 900), st.integers(1, 7)),
        st.builds(QuadExt, st.integers(-5, 30), st.integers(-3, 3),
                  st.sampled_from([2, 3, 5, 8, 9]), st.integers(1, 5))),
        st.builds(F, st.integers(-60, 60), st.integers(1, 30)))
    @example(F(7, 2), F(-4, 3))
    @example(QuadExt(5, 0, 5, 1), F(9, 4))
    @settings(max_examples=300, deadline=None)
    def test_lemma31_matches_the_fraction_formula(self, x, ab):
        assume(x > 0)
        got = sums.lemma31_bound(x, ab)
        want = _lemma31_reference(x, ab)
        assert [(type(v), repr(v)) for v in got] == \
            [(type(v), repr(v)) for v in want]

    @given(st.integers(0, 400), st.builds(F, st.integers(-60, 60), st.integers(1, 30)))
    @settings(max_examples=300, deadline=None)
    def test_tab_sum_matches_the_fraction_formula(self, x, ab):
        got = sums.tab_sum(x, ab)
        assert type(got) is F and got == _tab_sum_reference(x, ab)

    def test_tab_sum_keeps_its_errors(self):
        with pytest.raises(ValueError, match="need n >= 0"):
            sums.tab_sum(-3, F(1, 3))
        with pytest.raises(TypeError):
            sums.tab_sum(QuadExt(1, 1, 5, 1), F(1, 3))
        with pytest.raises(DomainError):
            sums.lemma31_bound(0, F(1, 3))

    @given(st.integers(0, 200))
    @example(200)
    @settings(max_examples=15, deadline=None)
    def test_l2_sweep_matches_the_fraction_formula(self, x_max):
        got = sums.l2_norm_sq_sweep(x_max)
        assert got == _l2_sweep_reference(x_max)
        assert all(type(v) is F for v in got)

    def test_l2_examples(self):
        assert sums.l2_norm_sq(1) == F(1, 12)
        assert sums.l2_norm_sq(2) == F(1, 16)

    def test_l2_sweep_matches_direct(self):
        sweep = sums.l2_norm_sq_sweep(79)
        for x in range(1, 80):
            # (1/(12x^2)) sum_{m,n<=x} gcd(m,n)^2/(mn), over lcm(1..x)^2
            L = math.lcm(*range(1, x + 1))
            num = sum(math.gcd(m, n) ** 2 * (L // m) * (L // n)
                      for m in range(1, x + 1) for n in range(1, x + 1))
            expected = F(num, 12 * x * x * L * L)
            assert sweep[x - 1] == expected == sums.l2_norm_sq(x)

    def test_l2_lower_bound(self):
        for x, v in enumerate(sums.l2_norm_sq_sweep(60), 1):
            assert v >= F(x, 12 * x * x)


# -- the Fraction formulas the integer versions replace --------------------


def _lemma31_reference(x, ab):
    """(value, bound, holds) of Lemma 3.1 folded in Fraction or QuadExt
    arithmetic, value = S0(floor(x), a/b)/x."""
    x = F(x) if isinstance(x, int) else x
    value = sums.exact_S(floor(x), ab, midpoint=True) / x
    bound = ab.denominator / x
    return value, bound, abs(value) <= bound


def _tab_sum_reference(x, ab):
    """x + 2b S(x, a/b) in Fraction arithmetic."""
    return x + 2 * ab.denominator * sums.exact_S(x, ab)


def _l2_sweep_reference(x_max):
    """||B_x||^2 for x <= x_max by one Fraction step per term: harmonic
    numbers, G(x) = sum_{d|x} J_2(d)/d H_{x/d}, and the running double sum."""
    H = [F(0)]
    for k in range(1, x_max + 1):
        H.append(H[-1] + F(1, k))
    J2 = [k * k for k in range(x_max + 1)]
    for d in range(1, x_max + 1):
        for k in range(2 * d, x_max + 1, d):
            J2[k] -= J2[d]
    G = [F(0)] * (x_max + 1)
    for d in range(1, x_max + 1):
        for k in range(1, x_max // d + 1):
            G[d * k] += J2[d] * H[k] / d
    out, total = [], F(0)
    for x in range(1, x_max + 1):
        total += 2 * G[x] / x - 1
        out.append(total / (12 * x * x))
    return out
