import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remsum import cfrac, farey
from remsum.exactnum import QuadExt, beta, beta0


@pytest.fixture(scope="module")
def tables():
    return farey.build_tables(600)


class TestSieves:
    def test_small_values(self, tables):
        assert tables.phi[1:13] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
        assert tables.mu[1:11] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
        assert tables.M(10) == -1
        assert tables.phi_sum(10) == 32
        assert tables.s_frac(4) == 1 + F(1, 2) + F(2, 3) + F(1, 2)

    def test_totient_matches_gcd_count(self, tables):
        for n in (1, 2, 12, 97, 360, 599):
            assert tables.phi[n] == sum(1 for k in range(1, n + 1)
                                        if math.gcd(k, n) == 1)

    def test_s_frac_is_the_fraction_sum(self, tables):
        total = F(0)
        assert tables.s_frac(0) == total and type(tables.s_frac(0)) is F
        for x in range(1, 301):
            total += F(tables.phi[x], x)
            assert tables.s_frac(x) == total

    def test_mu_matches_mobius_identity(self, tables):
        # sum over d|n of mu(d) is [n == 1]
        for n in range(1, 200):
            s = sum(tables.mu[d] for d in farey._divisors(n))
            assert s == (1 if n == 1 else 0)


class TestFareySequence:
    def test_order_5(self):
        got = farey.farey(5).fractions
        assert got == [F(0), F(1, 5), F(1, 4), F(1, 3), F(2, 5), F(1, 2),
                       F(3, 5), F(2, 3), F(3, 4), F(4, 5), F(1)]

    def test_length_is_totient_sum_plus_one(self, tables):
        for n in (1, 2, 10, 60):
            assert len(farey.farey(n).fractions) == tables.phi_sum(n) + 1

    def test_neighbor_determinant(self):
        fr = farey.farey(40).fractions
        for x, y in zip(fr, fr[1:]):
            assert y.numerator * x.denominator - x.numerator * y.denominator == 1


class TestQkAndPhi:
    def test_phi_examples(self, tables):
        assert farey.phi_x(3, F(2, 5), tables) == F(-1, 30)
        assert farey.phi_x(2, F(0), tables) == F(1, 4)

    def test_unknown_variant_is_refused(self, tables):
        for call in (farey.q_k, farey.phi_x, farey.phi_x_qsum):
            with pytest.raises(ValueError, match="variant"):
                call(5, F(1, 2), tables, "bogus")
        with pytest.raises(ValueError, match="variant"):
            farey.phi_x_qsum(F(1, 2), F(1, 2), tables, "bogus")  # no q_k taken
        assert farey.phi_x(5, F(1, 2), tables, "beta") == F(1, 10)
        assert farey.phi_x(5, F(1, 2), tables, "beta0") == 0

    def test_qk_is_mean_decomposition(self, tables):
        # Phi as Mertens form equals the direct q_k mean
        rng = random.Random(3)
        for _ in range(30):
            x = rng.randint(1, 200)
            t = F(rng.randint(0, 100), 101)
            for variant in ("beta", "beta0"):
                assert farey.phi_x(x, t, tables, variant) == \
                    farey.phi_x_qsum(x, t, tables, variant)

    def test_mobius_inversion(self, tables, corpus):
        # beta0(n t) = -sum over d|n of q_{d,0}(t)
        for t in [F(3, 7), F(10, 101), corpus["golden"], corpus["sqrt2m1"]]:
            for n in range(1, 120):
                total = sum(farey.q_k(d, t, tables, "beta0")
                            for d in farey._divisors(n))
                assert beta0(n * t) == -total

    @given(st.integers(1, 300), st.fractions(min_value=0, max_value=1,
                                             max_denominator=97))
    @settings(max_examples=100, deadline=None)
    def test_phi_forms_property(self, x, t):
        tb = farey.build_tables(300)
        assert farey.phi_x(x, t, tb) == farey.phi_x_qsum(x, t, tb)


# q_k, Phi_x and its q_k mean as they were once written: one exact beta
# value per term, folded from Fraction(0) one addition at a time.  The
# references for the integer sums behind them.
def _reference_beta_of(variant):
    if variant == "beta":
        return beta
    if variant == "beta0":
        return beta0
    raise ValueError(f"variant must be 'beta' or 'beta0', got {variant!r}")


def _reference_q_k(k, t, tables, variant="beta"):
    farey._table_index(k, tables, "k")
    bfun = _reference_beta_of(variant)
    total = F(0)
    for d in farey._divisors(k):
        m = tables.mu[d]
        if m:
            total = total + m * bfun((k // d) * t)
    return -total


def _reference_phi_x(x, t, tables, variant="beta"):
    bfun = _reference_beta_of(variant)
    nx = farey._table_index(x, tables, "x")
    total = F(0)
    for j in range(1, nx + 1):
        m = tables.M(nx // j)
        if m:
            total = total + m * bfun(j * t)
    return -total / x


def _reference_phi_x_qsum(x, t, tables, variant="beta"):
    _reference_beta_of(variant)
    nx = farey._table_index(x, tables, "x")
    total = F(0)
    for k in range(1, nx + 1):
        total = total + _reference_q_k(k, t, tables, variant)
    return total / x


_NONSQUARE = st.integers(2, 60).filter(lambda d: math.isqrt(d) ** 2 != d)
# rational t of both signs, b <= 200; quadratic t with q < 0; and quadratic
# t with a pre-period, lambda_0 of either sign
_T = st.one_of(
    st.builds(F, st.integers(-1000, 1000), st.integers(1, 200)),
    st.builds(QuadExt, st.integers(-60, 60), st.integers(-6, -1), _NONSQUARE,
              st.integers(1, 12)),
    st.builds(lambda lam0, pre, period: cfrac.value(
        cfrac.CFExpansion(lam0, tuple(pre), tuple(period))),
        st.integers(-3, 3), st.lists(st.integers(1, 9), min_size=1, max_size=3),
        st.lists(st.integers(1, 9), min_size=1, max_size=3)))
# whole and non-integer x, 0 < x < 1 (the empty sums) included
_X = st.one_of(st.integers(1, 150),
               st.fractions(min_value=F(1, 7), max_value=150,
                            max_denominator=20).filter(lambda x: x > 0))


class TestIntegerSums:
    """q_k, phi_x and phi_x_qsum equal the Fraction/QuadExt folds they
    replaced in value, type and repr."""

    @given(_X, _T, st.sampled_from(["beta", "beta0"]))
    # b | j t for every j (beta0 = 0 there): t an integer, and t = a/b with
    # b | j for many j <= x
    @example(8, F(3, 4), "beta0")
    @example(F(17, 2), F(-5, 2), "beta0")
    @example(12, F(0), "beta0")
    @example(12, F(2), "beta")
    @example(F(1, 2), QuadExt(2, -1, 3, 1), "beta")  # no term: Fraction(0)
    @example(30, QuadExt(2, -1, 3, 1), "beta0")
    @settings(max_examples=200, deadline=None)
    def test_match_the_folds(self, x, t, variant):
        tables = farey.build_tables(150)
        k = max(1, math.floor(x))
        for got, want in (
                (farey.q_k(k, t, tables, variant),
                 _reference_q_k(k, t, tables, variant)),
                (farey.phi_x(x, t, tables, variant),
                 _reference_phi_x(x, t, tables, variant)),
                (farey.phi_x_qsum(x, t, tables, variant),
                 _reference_phi_x_qsum(x, t, tables, variant))):
            assert got == want
            assert type(got) is type(want)
            assert repr(got) == repr(want)


class TestCountingIdentity:
    def test_examples(self, tables):
        assert farey.farey_count(3, F(2, 5), tables) == (2, F(2))
        assert farey.farey_count(1, F(1, 2), tables) == (1, F(1))
        assert farey.farey_count(2, F(0), tables) == (1, F(1))

    def test_random_t_off_the_sequence(self, tables):
        rng = random.Random(9)
        for _ in range(100):
            n = rng.randint(1, 60)
            t = F(rng.randint(0, 600), 601)  # 601 prime > 60: t not in F_n
            count, lhs = farey.farey_count(n, t, tables)
            assert lhs == count

    def test_irrational_t(self, tables, corpus):
        for t in corpus.values():
            for n in (1, 5, 23, 60):
                count, lhs = farey.farey_count(n, t, tables)
                assert lhs == count


class TestTableRange:
    """Inputs outside the tables' range raise ValueError before any table
    is read."""

    def test_count_past_the_tables(self):
        small = farey.build_tables(10)
        for n in (11, 20, 0, -1):
            with pytest.raises(ValueError, match="n "):
                farey.farey_count(n, F(1, 3), small)
        assert farey.farey_count(10, F(1, 3), small)[0] == 12

    def test_phi_needs_positive_x(self, tables):
        for call in (farey.phi_x, farey.phi_x_qsum):
            for x in (0, -3, F(-1, 2)):
                with pytest.raises(ValueError, match="x must be > 0"):
                    call(x, F(2, 5), tables)
            assert call(F(1, 2), F(2, 5), tables) == 0  # empty sum at 0 < x < 1

    def test_qk_needs_k_in_the_tables(self):
        small = farey.build_tables(10)
        for k in (0, -2):
            with pytest.raises(ValueError, match="k must be > 0"):
                farey.q_k(k, F(2, 5), small)
        with pytest.raises(ValueError, match="k exceeds table size"):
            farey.q_k(11, F(2, 5), small)

    def test_h_past_the_tables(self):
        small = farey.build_tables(10)
        for x in (20, -20, 11, F(-23, 2)):
            with pytest.raises(ValueError, match="x exceeds table size"):
                farey.h_values([x], small)
        assert len(farey.h_values([10, F(21, 2), -10], small)) == 3


def _h_by_fractions(x, tables):
    """h(x) = sign(x) (3|x|/pi^2 + float(Phi(n)/|x| - s_n)), n = floor(|x|),
    with s_n summed as Fractions."""
    if x == 0:
        return 0.0
    a = abs(x)
    n = math.floor(a)
    s = sum((F(tables.phi[k], k) for k in range(1, n + 1)), F(0))
    v = 3 * float(a) / math.pi ** 2 + float(tables.phi_sum(n) / a - s)
    return v if x > 0 else -v


class TestLimitFunctionH:
    # (i, D) with |i/D| <= 600 and D up to 12, not in lowest terms, as the
    # plot grid hands them over
    @given(st.integers(1, 12).flatmap(
        lambda D: st.tuples(st.integers(-600 * D, 600 * D), st.just(D))))
    @example((1, 1))  # r_1 - s_1 = 0
    @example((-1, 1))
    @example((3, 4))  # 0 < x < 1, where r_x - s_x = 0
    @example((-2, 3))
    @example((0, 5))
    @example((10, 10))
    @example((7, 6))  # 1 < x < 2, where r_x - s_x = 1/x - 1 is small
    @example((-7200, 12))
    @settings(max_examples=300, deadline=None)
    def test_is_float_of_the_fraction_formula(self, tables, iD):
        i, D = iD
        want = _h_by_fractions(F(i, D), tables).hex()
        assert farey._h(i, D, tables).hex() == want
        assert farey.h_values([F(i, D)], tables)[0].hex() == want

    def test_takes_the_exact_sum_only_where_the_bracket_cannot_decide(
            self, monkeypatch, tables):
        calls = []
        s_frac = tables.s_frac
        monkeypatch.setattr(tables, "s_frac",
                            lambda n: calls.append(n) or s_frac(n))
        # the grid of `plot --which h --range 0:500 --step 0.25`
        farey.h_values([F(i, 4) for i in range(2001)], tables)
        assert calls == [0, 0, 0, 1]  # x = 1/4, 1/2, 3/4 and 1

    def test_refuses_irrational_x(self, tables):
        with pytest.raises(ValueError, match="irrational"):
            farey.h_values([QuadExt(-1, 1, 5, 2)], tables)
        # a QuadExt with a square radicand is rational
        assert farey.h_values([QuadExt(1, 1, 9, 2)], tables) == \
            farey.h_values([2], tables)

    def test_examples(self, tables):
        vals = farey.h_values([0, 1, 2], tables)
        assert vals[0] == 0.0
        assert abs(vals[1] - 3 / math.pi ** 2) < 1e-14
        assert abs(vals[2] - (6 / math.pi ** 2 - 0.5)) < 1e-14

    def test_odd(self, tables):
        xs = [F(7, 2), F(13, 3), 5]
        pos = farey.h_values(xs, tables)
        neg = farey.h_values([-x for x in xs], tables)
        for p, n in zip(pos, neg):
            assert n == -p

    def test_decay(self, tables):
        # max |h| over [25,50] below max over (0,25], and [50,500] below both
        big = farey.build_tables(500)
        grid1 = [F(k, 4) for k in range(1, 101)]
        grid2 = [F(k, 4) for k in range(101, 201)]
        grid3 = [F(k, 4) for k in range(201, 2001)]
        m1 = max(abs(v) for v in farey.h_values(grid1, big))
        m2 = max(abs(v) for v in farey.h_values(grid2, big))
        m3 = max(abs(v) for v in farey.h_values(grid3, big))
        assert m2 < m1 and m3 < m2


@pytest.mark.parametrize("N", [10 ** 18, 10 ** 19])
def test_sieve_past_memory_is_too_large(N):
    # 10^18 entries lie below sys.maxsize, but 8 * 10^18 bytes fail at once
    from remsum.errors import TooLarge

    with pytest.raises(TooLarge) as info:
        farey.build_tables(N)
    assert str(N) not in str(info.value)
