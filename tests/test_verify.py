import math
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

from remsum import sums
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
