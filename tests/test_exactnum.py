import math
import os
import subprocess
import sys
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import remsum
from remsum import cfrac, sums
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

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            QuadExt(1, 1, 2, 0)

    def test_mixed_fields_rejected(self):
        with pytest.raises(IncompatibleField):
            GOLDEN + SQRT2


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
