import math
import os
import subprocess
import sys
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import remsum
from remsum import cfrac, exactnum, limits, sums
from remsum.errors import IncompatibleField
from remsum.exactnum import (QuadExt, as_fraction, beta, beta0, floor,
                             format_scalar, is_integer, is_rational,
                             parse_scalar, to_float)

GOLDEN = QuadExt(-1, 1, 5, 2)
SQRT2 = QuadExt(0, 1, 2, 1)

nonzero = st.integers(-50, 50).filter(lambda v: v != 0)
radicand = st.sampled_from([2, 3, 5, 6, 7, 10, 13])
quads = st.builds(QuadExt, st.integers(-50, 50), st.integers(-50, 50),
                  radicand, nonzero)


@st.composite
def quad_pairs(draw):
    """Two QuadExt values over the same radicand (so they can be combined)."""
    d = draw(radicand)
    mk = lambda: QuadExt(draw(st.integers(-50, 50)), draw(st.integers(-50, 50)),
                         d, draw(nonzero))
    return mk(), mk()


def _mp(x: QuadExt) -> mpmath.mpf:
    with mpmath.workprec(200):
        return (x.p + x.q * mpmath.sqrt(x.d)) / x.r


class TestCanonicalForm:
    def test_normalizes_sign_and_gcd(self):
        x = QuadExt(2, -4, 5, -6)
        assert (x.p, x.q, x.r) == (-1, 2, 3)

    def test_square_radicand_becomes_rational(self):
        x = QuadExt(1, 3, 9, 2)  # (1 + 3*3)/2 = 5
        assert x.is_rational and x.as_fraction() == 5

    def test_small_square_factor_pulled_out(self):
        x = QuadExt(0, 1, 8, 2)  # sqrt(8)/2 = sqrt(2)
        assert (x.q, x.d, x.r) == (1, 2, 1)

    # _make is the one step from integers to a canonical QuadExt: the public
    # constructor reduces d and then goes through it too
    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30),
           st.sampled_from([2, 3, 5, 6, 7, 13, 9973]),
           st.integers(-10 ** 20, 10 ** 20).filter(bool), st.integers(1, 10 ** 6))
    @example(0, 0, 5, -7, 1)
    @example(6, -4, 5, -2, 12)
    @settings(max_examples=300, deadline=None)
    def test_make_is_canonical_and_keeps_the_value(self, p, q, d, r, g):
        x = exactnum._make(p * g, q * g, d, r * g)
        assert type(x) is QuadExt and x.d == d and x.r > 0
        assert math.gcd(x.p, x.q, x.r) == 1
        assert x.p * r == p * x.r and x.q * r == q * x.r
        y = QuadExt(p, q, d, r)
        assert (y.p, y.q, y.d, y.r) == (x.p, x.q, x.d, x.r)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 1, 2, 0)

    def test_mixed_fields_rejected(self):
        with pytest.raises(IncompatibleField):
            GOLDEN + SQRT2

    def test_small_primes_by_trial_division(self):
        assert exactnum._SMALL_PRIMES == [
            p for p in range(2, 1000)
            if all(p % q for q in range(2, math.isqrt(p) + 1))]

    @given(st.integers(1, 2 ** 200), st.lists(st.sampled_from(
        [2, 3, 5, 7, 31, 997, 1009]), max_size=6))
    @example(1, [])
    @example(997 ** 2 * 991 ** 4, [])
    @settings(max_examples=500, deadline=None)
    def test_reduce_radicand_matches_trial_division(self, d, squares):
        # the reference: every small prime in turn, up to p^2 > d
        def trial_division(d):
            s = 1
            for p in exactnum._SMALL_PRIMES:
                if p * p > d:
                    break
                while d % (p * p) == 0:
                    d //= p * p
                    s *= p
            return d, s

        d *= math.prod(p * p for p in squares)
        assert exactnum._reduce_radicand(d) == trial_division(d)

    @given(st.integers(1, 2 ** 120), st.lists(st.sampled_from(
        [2, 3, 5, 7, 11, 997]), max_size=8), st.integers(0, 3))
    @example(1, [], 0)
    @example(2 ** 9 * 3 ** 5 * 997 ** 3, [2, 2, 997], 2)
    @settings(max_examples=500, deadline=None)
    def test_reduce_radicand_matches_the_primorial_square_formula(
            self, d, squares, cubes):
        # the earlier form: w = gcd(d, P^2)/gcd(d, P), P the small primes'
        # product, then the same trial over the primes dividing w
        P = math.prod(exactnum._SMALL_PRIMES)

        def primorial_square(d):
            w = math.gcd(d, P * P) // math.gcd(d, P)
            if w == 1:
                return d, 1
            s = 1
            for p in exactnum._SMALL_PRIMES:
                if w % p:
                    continue
                p2 = p * p
                if p2 > d:
                    break
                while d % p2 == 0:
                    d //= p2
                    s *= p
                w //= p
                if w == 1:
                    break
            return d, s

        # repeated square factors, and odd powers past them
        d *= math.prod(p * p for p in squares) * 3 ** (3 * cubes)
        assert exactnum._reduce_radicand(d) == primorial_square(d)


# s >= 1000 includes primes that the radicand reduction does not pull out,
# so the two spellings of one value keep different radicands
scales = st.sampled_from([1, 2, 12, 997, 1009, 3 * 1009, 7919, 10007])


@st.composite
def respelled_pairs(draw):
    """Two values x, y over one radicand d, each also spelled in the field
    Q(sqrt(d*s*s)): q*s*sqrt(d) written as q*sqrt(d*s*s)."""
    d = draw(radicand)

    def one():
        p, q, r, s = (draw(st.integers(-50, 50)), draw(nonzero), draw(nonzero),
                      draw(scales))
        return QuadExt(p, q * s, d, r), QuadExt(p, q, d * s * s, r)
    return one(), one()


class TestFieldIdentity:
    def test_large_prime_square_factor(self):
        x, y = QuadExt(0, 1, 5 * 1009 ** 2), QuadExt(0, 1009, 5)
        assert x.d != y.d
        assert x == y and hash(x) == hash(y)
        assert x - y == 0 and x + y == 2 * y and not x < y
        # sqrt(2*1009**2) and sqrt(3) name different fields: unequal, no order
        z = QuadExt(0, 1009, 3)
        assert QuadExt(0, 1, 2 * 1009 ** 2) != z and GOLDEN != SQRT2
        with pytest.raises(IncompatibleField):
            QuadExt(0, 1, 2 * 1009 ** 2) < z

    @given(respelled_pairs())
    @settings(max_examples=200, deadline=None)
    def test_value_does_not_depend_on_the_spelling(self, pairs):
        (x, x2), (y, y2) = pairs
        assert x == x2 and hash(x) == hash(x2)
        # x and y are canonical over one radicand: equal values, equal parts
        assert (x2 == y) == ((x.p, x.q, x.r) == (y.p, y.q, y.r))
        assert floor(x) == floor(x2)
        for a in (x, x2):
            for b in (y, y2):
                assert a + b == x + y and hash(a + b) == hash(x + y)
                assert a * b == x * y and hash(a * b) == hash(x * y)
                assert a - b == x - y and a / b == x / y
                assert [a < b, a <= b, a > b, a >= b] == [x < y, x <= y, x > y, x >= y]
                assert (b < a) == (y < x)


class TestArithmetic:
    def test_golden_satisfies_its_equation(self):
        # t = (sqrt(5)-1)/2 satisfies t^2 + t - 1 = 0
        assert GOLDEN * GOLDEN + GOLDEN - 1 == 0
        assert GOLDEN.reciprocal() == GOLDEN + 1

    def test_fraction_interop(self):
        x = GOLDEN + F(1, 2)
        assert x - F(1, 2) == GOLDEN
        assert (GOLDEN * F(2, 3)) / F(2, 3) == GOLDEN

    @given(quad_pairs())
    @settings(max_examples=200, deadline=None)
    def test_add_mul_match_200bit_floats(self, pair):
        x, y = pair
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            z = op(x, y)
            with mpmath.workprec(200):
                ref = op(_mp(x), _mp(y))
                got = _mp(z) if isinstance(z, QuadExt) else mpmath.mpf(z)
                assert abs(got - ref) < mpmath.mpf(2) ** -120

    @given(quads)
    @settings(max_examples=200, deadline=None)
    def test_reciprocal_roundtrip(self, x):
        if x != 0:
            assert x.reciprocal().reciprocal() == x
            assert x * x.reciprocal() == 1


class TestOrderAndFloor:
    @given(quad_pairs())
    @settings(max_examples=200, deadline=None)
    def test_comparisons_match_floats(self, pair):
        x, y = pair
        assert (x < y) == (_mp(x) < _mp(y)) or x == y

    @given(quads)
    @settings(max_examples=300, deadline=None)
    def test_floor_is_exact(self, x):
        m = floor(x)
        assert m <= x < m + 1

    def test_floor_examples(self):
        assert floor(GOLDEN) == 0
        assert floor(SQRT2) == 1
        assert floor(-SQRT2) == -2
        assert floor(F(7, 2)) == 3
        assert floor(F(-7, 2)) == -4
        assert floor(5) == 5


class TestIntegerView:
    def test_floats_are_refused(self):
        for call in (floor, is_integer, is_rational, as_fraction, beta, beta0,
                     format_scalar, exactnum._parts, limits.eta_tilde):
            with pytest.raises(TypeError):
                call(2.5)
        with pytest.raises(TypeError):
            GOLDEN < 2.5
        with pytest.raises(TypeError):
            GOLDEN + 2.5
        assert GOLDEN != 0.5 and not GOLDEN == 0.5

    def test_rational_quadext_is_viewed_in_lowest_terms(self):
        assert exactnum._parts(QuadExt(4, 0, 7, 6)) == (2, 0, 1, 3)
        assert exactnum._parts(QuadExt(1, 3, 9, 2)) == (5, 0, 1, 1)
        assert exactnum._parts(F(-4, 6)) == (-2, 0, 1, 3)
        assert exactnum._parts(-7) == (-7, 0, 1, 1)
        assert exactnum._parts(GOLDEN) == (-1, 1, 5, 2)

    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(-10 ** 30, 10 ** 30),
           st.sampled_from([2, 3, 5, 94, 5 * 1009 ** 2, 10 ** 9 + 7]))
    # p + q sqrt(2) cancels in all but a few of its bits: the convergent
    # 1393/985 of sqrt(2), and one off
    @example(1393, -985, 2)
    @example(-1393, 985, 2)
    @example(1394, -985, 2)
    @settings(max_examples=300, deadline=None)
    def test_sign_matches_the_squares(self, p, q, d):
        # p + q sqrt(d) takes the sign of its larger term, p or q sqrt(d),
        # as p^2 and q^2 d decide; they are never equal unless both are 0
        big = p if p * p > q * q * d else q
        assert exactnum._sign(p, q, d) == (big > 0) - (big < 0)

    def test_order_across_two_spellings(self):
        # x = (b + 1) sqrt(5) written over sqrt(5 * 1009^2), y = a + sqrt(5)
        # for convergents a/b of sqrt(5): x - y = b sqrt(5) - a is tiny
        for c in cfrac.convergents(cfrac.expand(QuadExt(0, 1, 5), 64), 60)[2:]:
            x = QuadExt(0, c.b + 1, 5 * 1009 ** 2, 1009)
            y = QuadExt(c.a, 1, 5)
            above = c.b * c.b * 5 > c.a * c.a
            assert x.d != y.d and (x > y) == above and (x < y) != above
            assert (y <= x) == above and x != y
            same = QuadExt(0, c.b + 1, 5)
            assert x == same and x <= same and x >= same and not x < same

    def test_order_builds_no_value(self, monkeypatch):
        x = QuadExt(0, 1, 5 * 1009 ** 2, 1009)  # sqrt(5), another spelling
        pairs = [(GOLDEN, -GOLDEN), (GOLDEN, x), (x, GOLDEN), (GOLDEN, F(1, 2)),
                 (GOLDEN, 1), (QuadExt(3, 0, 5, 2), x), (SQRT2, F(3, 2))]
        calls = []
        make = exactnum._make
        monkeypatch.setattr(exactnum, "_make",
                            lambda *a: calls.append(a) or make(*a))
        assert not hasattr(QuadExt, "_sign")
        for a, b in pairs:
            assert [a < b, a <= b, a > b, a >= b] == [b > a, b >= a, b < a, b <= a]
        assert calls == []
        # the patch is live: arithmetic still builds through it
        GOLDEN + 1
        assert len(calls) == 1


class TestBeta:
    def test_values(self):
        assert beta(F(1, 3)) == F(-1, 6)
        assert beta(F(0)) == F(-1, 2)
        assert beta(1) == F(-1, 2)
        assert beta0(1) == 0
        assert beta0(F(1, 2)) == 0
        assert beta0(SQRT2) == SQRT2 - F(3, 2)

    @given(st.fractions(max_denominator=100), st.integers(-5, 5))
    @settings(max_examples=200, deadline=None)
    def test_periodicity_and_range(self, t, k):
        assert beta(t + k) == beta(t)
        assert F(-1, 2) <= beta(t) < F(1, 2)
        assert beta0(t + k) == beta0(t)

    @given(st.fractions(max_denominator=100))
    def test_beta0_oddness(self, t):
        assert beta0(-t) == -beta0(t)


class TestFloatsAndText:
    def test_to_float_golden(self):
        v = to_float(GOLDEN, 100)
        with mpmath.workprec(120):
            ref = (mpmath.sqrt(5) - 1) / 2
            assert abs(v - ref) < mpmath.mpf(2) ** -96

    def test_to_float_rejects_low_precision(self):
        with pytest.raises(ValueError):
            to_float(GOLDEN, 10)

    @given(quads)
    @settings(max_examples=200, deadline=None)
    def test_format_parse_roundtrip(self, x):
        assert parse_scalar(format_scalar(x)) == x

    def test_irrational_text_past_the_int_str_limit(self):
        limit = sys.get_int_max_str_digits()
        big = 10 ** (max(limit, 4300) + 10)
        for x in (QuadExt(big + 1, big + 3, 5, big + 7),
                  QuadExt(-big - 1, -big - 3, 6, 3),
                  sums.ostrowski_S(10 ** 2200, GOLDEN)[0]):
            sys.set_int_max_str_digits(0)  # no limit
            try:
                want = f"({x.p}{x.q:+d}*sqrt({x.d}))/{x.r}"
            finally:
                sys.set_int_max_str_digits(limit)
            assert len(want) > limit and format_scalar(x) == want

    def test_roundtrip_up_to_the_int_str_limit(self):
        limit = sys.get_int_max_str_digits()
        assert limit > 0
        top = 10 ** limit - 1  # limit digits
        for x in (F(-top, top - 1), F(top),
                  QuadExt(-top, top, 10 ** limit - 3, top - 1)):
            assert parse_scalar(format_scalar(x)) == x
        over = "1" + "0" * limit  # one digit more
        for text in (over, f"-{over}/3", f"1/{over}", f"({over}+1*sqrt(5))/2",
                     f"(1+{over}*sqrt(5))/2", f"(1+1*sqrt({over}))/2",
                     f"(1+1*sqrt(5))/{over}"):
            with pytest.raises(ValueError, match="digits"):
                parse_scalar(text)

    @given(st.fractions(max_denominator=10 ** 6))
    def test_fraction_roundtrip(self, x):
        assert parse_scalar(format_scalar(x)) == x

    def test_predicates(self):
        assert is_rational(F(2, 3)) and not is_rational(GOLDEN)
        assert is_integer(QuadExt(4, 0, 5, 2))
        assert as_fraction(QuadExt(4, 0, 5, 2)) == 2
        with pytest.raises(ValueError):
            as_fraction(GOLDEN)


# -- the float boundary, checked with exact comparisons only ----------------


@st.composite
def irrationals(draw):
    """(p + q*sqrt(d))/r over a wide exponent range.  About half of them are
    +-(b_k*sqrt(d) - a_k) for a convergent a_k/b_k of sqrt(d): p and q*sqrt(d)
    then cancel in all but a few of their bits."""
    d = draw(st.sampled_from([2, 3, 5, 6, 7, 10, 13, 94]))
    if draw(st.booleans()):
        cf = cfrac.expand(QuadExt(0, 1, d), 64)
        c = cfrac.convergents(cf, draw(st.integers(1, 150)))[-1]
        sign = draw(st.sampled_from([1, -1]))
        p, q = -sign * c.a, sign * c.b
    else:
        p = draw(st.integers(-10 ** 40, 10 ** 40))
        q = draw(st.integers(-10 ** 40, 10 ** 40).filter(bool))
    r = draw(st.integers(1, 10 ** 30))
    shift = draw(st.integers(-1100, 850))
    if shift >= 0:
        return QuadExt(p << shift, q << shift, d, r)
    return QuadExt(p, q, d, r << -shift)


def _assert_nearest(x, v: F, below: F, above: F):
    """v is a nearest grid point to x: x lies between the midpoints that v
    shares with its neighbours below and above."""
    assert (v + below) / 2 <= x <= (v + above) / 2, (x, v)


def _assert_float_nearest(x):
    f = float(x)
    if f == 0 and x != 0:  # an underflow keeps the sign of x
        assert math.copysign(1.0, f) == (1.0 if x > 0 else -1.0)
    _assert_nearest(x, F(f), F(math.nextafter(f, -math.inf)),
                    F(math.nextafter(f, math.inf)))


def _assert_to_float_nearest(x, bits: int):
    v = to_float(x, bits)
    assert (v > 0) == (x > 0)
    man, exp = v.man_exp  # |v| = man * 2**exp
    shift = bits - man.bit_length()
    man, step = man << shift, F(2) ** (exp - shift)  # 2**(bits-1) <= man < 2**bits
    below = step / 2 if man == 1 << (bits - 1) else step
    _assert_nearest(abs(x), man * step, man * step - below, man * step + step)


class TestFloatBoundary:
    @given(irrationals())
    # x > 0 underflows to zero, which must be +0.0
    @example(QuadExt(-16616132878186749607, 11749380235262596085, 2, 2 ** 1060))
    # x is about 1.75e308, next to the largest float
    @example(QuadExt(0, int(1.75e308 / math.sqrt(2)), 2, 1))
    # x = 1 + 2^-53 (1 + e), e about 2^-41.5, from the convergent
    # 2140758220993/1513744654945 of sqrt(2): just above the rounding
    # boundary 1 + 2^-53
    @example(QuadExt(2 ** 53 + 1 - 2140758220993, 1513744654945, 2, 2 ** 53))
    @settings(max_examples=300, deadline=None)
    def test_float_within_half_ulp(self, x):
        _assert_float_nearest(x)
        _assert_to_float_nearest(x, 100)

    def test_golden_residues(self):
        # rho_k = |b_k t - a_k| > 0 for the convergents a_k/b_k of t = GOLDEN
        cf = cfrac.expand(GOLDEN, 64)
        for c in cfrac.convergents(cf, 300)[1:]:
            rho = abs(c.b * GOLDEN - c.a)
            assert float(rho) > 0, c.k
            _assert_float_nearest(rho)
            _assert_to_float_nearest(rho, 100)

    def test_s0_prefix_entries(self, corpus):
        for t in corpus.values():
            for v in sums.s0_prefix(t, 2000):
                _assert_float_nearest(v)

    # the rule of the bulk float tables (dirichlet._float_tables): x lies in
    # (m, m + 1)/2^E, m = floor(x 2^E); where both ends round to one float,
    # that float is float(x), and elsewhere float(x) lies between them.
    # E = 1 leaves a bracket as wide as 1/2; the tables' E reaches 124
    @given(irrationals(), st.sampled_from([1, 64, 64 + 3 * 20]))
    # x > 0 underflows to +0.0, inside a bracket (0, 2^-124) left undecided
    @example(QuadExt(-16616132878186749607, 11749380235262596085, 2, 2 ** 1060), 124)
    # x is about 1.75e308, next to the largest float
    @example(QuadExt(0, int(1.75e308 / math.sqrt(2)), 2, 1), 1)
    # x = 1 + 2^-53 (1 + e), e about 2^-41.5, from the convergent
    # 2140758220993/1513744654945 of sqrt(2): just above the rounding
    # boundary 1 + 2^-53, which lies inside its bracket at E = 1
    @example(QuadExt(2 ** 53 + 1 - 2140758220993, 1513744654945, 2, 2 ** 53), 1)
    @example(QuadExt(2 ** 53 + 1 - 2140758220993, 1513744654945, 2, 2 ** 53), 124)
    @settings(max_examples=300, deadline=None)
    def test_bulk_rounding_is_quad_float(self, x, E):
        got = exactnum._quad_float(x.p, x.q, x.d, x.r)
        assert got.hex() == float(x).hex()
        m = exactnum.floor(x * (1 << E))
        lo, hi = m / (1 << E), (m + 1) / (1 << E)  # int division rounds once
        if lo == hi:
            assert got.hex() == lo.hex()
        else:
            assert lo <= got <= hi
        if got == 0:
            assert math.copysign(1.0, got) == (1.0 if x > 0 else -1.0)

    @pytest.mark.parametrize("d", [2, 3, 13, 94])
    def test_bulk_rounding_of_cancelling_entries(self, d):
        # u + v sqrt(d) for the convergents u/v of -sqrt(d), and one off,
        # over r = 7 and handed to _quad_float as (3u, 3v, d, 21), not in
        # lowest terms: the value is about 1/v while u and v reach 2^300
        pairs = []
        for c in cfrac.convergents(cfrac.expand(QuadExt(0, 1, d), 64), 400)[1:]:
            pairs += [(-c.a, c.b), (c.a, -c.b), (1 - c.a, c.b)]
        assert max(v for _, v in pairs).bit_length() > 300
        for u, v in pairs:
            x = QuadExt(u, v, d, 7)
            got = exactnum._quad_float(3 * u, 3 * v, d, 21)
            assert got.hex() == float(x).hex()
            _assert_float_nearest(x)

    def test_cli_import_needs_no_mpmath(self):
        src = os.path.dirname(os.path.dirname(remsum.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = ("import sys, remsum.cli\n"
                "assert 'mpmath' not in sys.modules\n"
                "sys.modules['mpmath'] = None  # any import of it now fails\n"
                "sys.exit(remsum.cli.main(['dirichlet', '--t', 'cf:0;(1)',"
                " '--s', '2+5j', '--K', '300']))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
