import math
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remsum import cfrac, cli, exactnum, measure, sums
from test_cfrac import theta_sequence
from remsum.errors import BoundViolated, NotMember, TooLarge
from remsum.exactnum import QuadExt


class TestMeasureExact:
    def test_base_cases(self):
        assert measure.measure_exact((2,)).exact_measure == F(1, 2)
        assert measure.measure_exact((2, 2)).exact_measure == F(1, 6)
        assert measure.measure_exact((1,)).exact_measure == 0

    def test_bounds_hold_exhaustively(self):
        for m in range(1, 4):
            for alphas in product(range(2, 6), repeat=m):
                ms = measure.measure_exact(alphas)
                assert ms.lower_bound <= ms.exact_measure <= ms.upper_bound
                assert ms.lower_bound == math.prod(
                    (F(a - 1, a) ** 2 for a in alphas), start=F(1))
                assert ms.upper_bound == math.prod(
                    (F(a - 1, a) for a in alphas), start=F(1))

    def test_single_constraint_closed_form(self):
        # m=1: sum of |J(l)| = 1/(l(l+1)) over l < alpha telescopes to 1 - 1/alpha
        for a in range(2, 12):
            ms = measure.measure_exact((a,))
            assert ms.exact_measure == 1 - F(1, a)

    def test_monotone_in_alphas(self):
        assert measure.measure_exact((2, 3)).exact_measure < \
            measure.measure_exact((3, 3)).exact_measure

    @given(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_matches_interval_enumeration(self, alphas):
        ms = measure.measure_exact(alphas)
        direct = F(0)
        ranges = [range(1, a) for a in alphas]
        for lams in product(*ranges):
            direct += cfrac.fundamental_interval(lams)[2]
        assert ms.exact_measure == direct

    @pytest.mark.parametrize("alphas", [(5, 5, 5, 5), (2, 6, 3, 4), (4, 2, 7, 3)])
    def test_four_levels_match_interval_enumeration(self, alphas):
        direct = sum((cfrac.fundamental_interval(lams)[2]
                      for lams in product(*(range(1, a) for a in alphas))), F(0))
        assert measure.measure_exact(alphas).exact_measure == direct

    @given(st.lists(st.integers(1, 7), min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_fold(self, alphas):
        got = measure.measure_exact(alphas)
        want = _measure_reference(alphas)
        assert got == want
        assert all(type(v) is F for v in got[1:])

    def test_gcds_are_taken_with_a_short_operand(self, monkeypatch):
        # a gcd of the running sum's numerator and denominator, hundreds of
        # digits long at (40, 40), would make measure --alphas 3163,3163
        # thirty times slower
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def gcd(self, *args):
                calls.append(args)
                return math.gcd(*args)

        monkeypatch.setattr(measure, "math", CountingMath())
        monkeypatch.setattr(exactnum, "math", CountingMath())
        ms = measure.measure_exact((40, 40))
        assert ms.exact_measure.denominator.bit_length() > 200
        assert calls and all(min(abs(a).bit_length() for a in args) <= 64
                             for args in calls)

    def test_guard(self):
        with pytest.raises(TooLarge):
            measure.measure_exact((1000,) * 4)

    def test_rejects_bad_alphas(self):
        with pytest.raises(ValueError):
            measure.measure_exact(())
        with pytest.raises(ValueError):
            measure.measure_exact((0,))


def _measure_reference(alphas):
    """The measure set by one Fraction addition per leaf of the prefix walk,
    with the product bounds as products of Fractions."""
    al = tuple(alphas)
    lower = math.prod((F(a - 1, a) ** 2 for a in al), start=F(1))
    upper = math.prod((F(a - 1, a) for a in al), start=F(1))
    total = F(0)
    *head, A = al
    stack = [(0, 0, 1, 1, 0)]
    while A > 1 and stack:
        j, a, b, a1, b1 = stack.pop()
        if j < len(head):
            stack.extend((j + 1, a1 + lam * a, b1 + lam * b, a, b)
                         for lam in range(1, head[j]))
            continue
        total += F(A - 1, (b + b1) * (b * A + b1))
    return measure.MeasureSet(al, total, lower, upper)


class TestThresholds:
    def test_mn_threshold(self):
        m, cutoff = measure.mn_threshold(100, 1 + math.log(1 + math.log(100)))
        assert m == int(4 * math.log(100)) == 18
        assert cutoff == 1 + int((1 + math.log(1 + math.log(100)))
                                 * math.log(100))

    def test_rejects_small_n_and_theta(self):
        with pytest.raises(ValueError):
            measure.mn_threshold(2, 1.5)
        with pytest.raises(ValueError):
            measure.mn_threshold(10, 0.5)


class TestSampler:
    def test_sample_is_member(self):
        for seed in range(5):
            t = measure.sample_bounded_cf(10, 6, seed)
            assert 0 < t < 1
            for th in theta_sequence(t, 6):
                assert th < 10

    def test_sample_deterministic(self):
        assert measure.sample_bounded_cf(8, 5, 42) == \
            measure.sample_bounded_cf(8, 5, 42)


class TestFiniteNVerifiers:
    def test_b0_mass(self):
        theta = 1 + math.log(1 + math.log(100))
        rep = measure.verify_b0_mass(100, theta, 10, 0)
        assert rep["pass"] and rep["max_ratio"] <= 1

    def test_b0_mass_raises_where_the_bound_fails(self, monkeypatch, capsys):
        # no known seed samples a t past the bound, so S(n,t) is replaced by
        # t + c, with t in (0, 1) and c an integer on either side of it
        n, theta = 100, 1 + math.log(1 + math.log(100))
        bound = 2 * math.log(n) ** 2 * theta  # the bound on |S(n,t)|
        seen = []

        def shifted_S(c):
            def ostrowski_S(n, t):
                seen.append(t)
                return t + c, None
            return ostrowski_S

        monkeypatch.setattr(sums, "ostrowski_S", shifted_S(math.floor(bound) - 1))
        assert measure.verify_b0_mass(n, theta, 10, 0)["pass"] and len(seen) == 10
        seen.clear()
        monkeypatch.setattr(sums, "ostrowski_S", shifted_S(math.ceil(bound)))
        with pytest.raises(BoundViolated) as info:
            measure.verify_b0_mass(n, theta, 10, 0)
        m, cutoff = measure.mn_threshold(n, theta)
        witness = measure.sample_bounded_cf(cutoff, m, 0)
        assert seen == [witness] and str(info.value) == f"witness t = {witness}"
        # the CLI reports it as a verification failure, exit 1
        monkeypatch.setattr(sums, "ostrowski_S", shifted_S(10 ** 6))
        capsys.readouterr()
        assert cli.main(["verify", "--suite", "measure"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("verification failure: BoundViolated: witness t = ")

    def test_ae_bound_corpus(self, corpus, corpus_cf):
        theta = 1 + math.log(1 + math.log(1000))
        for k in corpus:
            rep = measure.verify_ae_bound(1000, F(1, 2), theta,
                                          corpus[k], corpus_cf[k])
            assert rep["pass"] and rep["ratio"] <= 1
        # no period within 64 terms: the quotients come from t's orbit
        long_period = QuadExt(0, 1, 10 ** 9 + 7, 40000)
        for n in (1000, 10 ** 18):
            theta = 1 + math.log(1 + math.log(n))
            rep = measure.verify_ae_bound(n, F(1, 2), theta, long_period)
            assert rep["pass"] and rep["ratio"] <= 1

    def test_ae_bound_cf_cross_checks_the_orbit(self, corpus, corpus_cf):
        with pytest.raises(ValueError, match="lambda_1"):
            measure.verify_ae_bound(1000, F(1, 2), 2.0, corpus["golden"],
                                    corpus_cf["sqrt2m1"])

    def test_ae_bound_raises_where_the_bound_fails(self):
        # lambda_1 = 1000 passes the membership test at theta = 1000, eps = -3,
        # but |S(500, t)| is about 125, far above the bound, about 20.1
        t = cfrac.value(cfrac.CFExpansion(0, (1000,), (1,)))
        with pytest.raises(BoundViolated):
            measure.verify_ae_bound(500, -3, 1000, t)

    @pytest.mark.parametrize("n", [1, 2])
    def test_ae_bound_rejects_small_n(self, corpus, n):
        # at n = 1 the bound (4 log n)^(2+eps) theta/2 is 0: no t could pass
        with pytest.raises(ValueError, match="n must be >= 3"):
            measure.verify_ae_bound(n, 0, 1, corpus["golden"])

    def test_ae_bound_rejects_large_quotients(self):
        # t with lambda_1 = 1000 is not in the membership set for small theta
        big = cfrac.value(cfrac.CFExpansion(0, (), (1000, 1)))
        with pytest.raises(NotMember):
            measure.verify_ae_bound(1000, F(1, 2), 1.0, big)
