import math
from fractions import Fraction as F
from itertools import accumulate

from hypothesis import example, given, settings
from hypothesis import strategies as st

from remsum import cfrac, sums, verify
from remsum.exactnum import QuadExt, floor


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 3, 10 ** 3).filter(bool),
       st.integers(2, 2000).filter(lambda d: math.isqrt(d) ** 2 != d),
       st.integers(1, 10 ** 3), st.integers(1, 2 ** 60), st.integers(-2, 2))
@example(0, 1, 2, 1, 1, 0)
@example(-3, 2, 2, 1, 2 ** 52, -2)
@example(1, -1, 2, 1, 1, 1)  # x = 1 - sqrt(2), c = 1: floor(v x r) = -u r
@settings(max_examples=200, deadline=None)
def test_abs_at_most_matches_quadext_compare(p, q, d, r, v, shift):
    # u/v within a few 1/v of |x|, from either side, and c = 0
    x = QuadExt(p, q, d, r)
    u = max(0, floor(abs(x) * v) + shift)
    parts = x.p, x.q, x.d, x.r
    assert sums._abs_at_most(*parts, u, v) == (abs(x) <= F(u, v))
    assert sums._abs_at_most(*parts, 0, v) is False


def test_oracle_failure_names_the_disagreeing_recursion(monkeypatch):
    passed = verify.suite_oracle("quick")
    ostrowski_F = sums._ostrowski_F

    def off_by_one_at_17(n, tab):
        F, rows = ostrowski_F(n, tab)
        return F + (n == 17), rows

    monkeypatch.setattr(sums, "_ostrowski_F", off_by_one_at_17)
    failed = verify.suite_oracle("quick")
    assert [c["name"] for c in failed] == [c["name"] for c in passed]
    for rec in failed:
        t = verify.corpus()[rec["name"][len("oracle-equality["):].split(",")[0]]
        F = list(sums._floor_sums(t, 17))[-1]
        assert rec["pass"] is False
        assert rec["detail"] == (
            f"ostrowski disagrees with brute at n=17: F(n,t) = {F + 1}"
            f" (ostrowski), {F} (bseq), {F} (brute)")
    assert all(rec["pass"] and rec["detail"] == "" for rec in passed)


@st.composite
def _quadratic_t(draw):
    """An irrational t from a periodic expansion with quotients up to 10^4,
    or an arbitrary (p + q sqrt(d))/r."""
    if draw(st.booleans()):
        quotient = st.integers(1, draw(st.sampled_from([3, 50, 10 ** 4])))
        return cfrac.value(cfrac.CFExpansion(
            draw(st.integers(-3, 3)), tuple(draw(st.lists(quotient, max_size=2))),
            tuple(draw(st.lists(quotient, min_size=1, max_size=4)))))
    return QuadExt(draw(st.integers(-100, 100)),
                   draw(st.integers(-20, 20).filter(bool)),
                   draw(st.integers(2, 200).filter(lambda d: math.isqrt(d) ** 2 != d)),
                   draw(st.integers(1, 50)))


@given(_quadratic_t(), st.integers(3, 5000))
@example(QuadExt(-1, 1, 5, 2), 5000)  # golden: the Snfinal rule decides every n
# |S(27,t)| = 6.6 > 2 log 27 at L_j = 54, about 4.1 (2B): the isqrt rejects
@example(cfrac.value(cfrac.CFExpansion(0, (54,), (1, 10, 19))), 27)
@settings(max_examples=40, deadline=None)
def test_cheap_2logn_rule_never_accepts_what_the_isqrt_test_rejects(t, n_max):
    # the golden-|S|<=2logn test of suite_bounds: where Snfinal held and
    # L_j <= 2B, |S| <= B without an isqrt; elsewhere _abs_at_most decides
    tab = sums.OstrowskiTables(t)
    F, _, js = sums._sweep(tab, n_max)
    L = list(accumulate(tab.lam[1:], initial=0))
    parts = _, _, d, r = sums._parts(t)
    uv = sums._numerators(parts, False, enumerate(F[1:], 1))
    for n, (u, v) in enumerate(uv, 1):
        if n < 3:
            continue
        B = 2 * math.log(n)
        held = sums._abs_at_most(u, v, d, 2 * r, L[js[n]], 2)
        assert held  # Snfinal
        cheap = L[js[n]] <= 2 * B
        exact = sums._abs_at_most(u, v, d, 2 * r, *B.as_integer_ratio())
        assert not cheap or exact
        assert verify._at_most_2logn(n, held, L[js[n]], u, v, d, 2 * r) == exact
