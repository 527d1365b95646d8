from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from remsum import limits
from remsum.errors import DomainError
from remsum.exactnum import QuadExt


class TestEtaTilde:
    def test_examples(self):
        assert limits.eta_tilde(F(1, 2)) == F(-1, 4)
        assert limits.eta_tilde(3) == 0
        assert limits.eta_tilde(0) == F(-1, 2)
        assert limits.eta_tilde(F(-1, 2)) == F(1, 4)

    @given(st.fractions(max_denominator=200).filter(lambda x: x != 0))
    @settings(max_examples=300, deadline=None)
    def test_envelope(self, x):
        v = limits.eta_tilde(x)
        assert abs(v) <= F(1, 2)
        assert abs(v) <= F(1, 8) / abs(x)

    @given(st.fractions(max_denominator=100).filter(lambda x: x != 0))
    def test_oddness_modulo_sign_of_fraction(self, x):
        # eta(x) = frac(x)(frac(x)-1)/(2x): under x -> -x with non-integer x,
        # frac flips to 1-frac, so the product is preserved and the sign flips
        if x.denominator > 1:
            assert limits.eta_tilde(-x) == -limits.eta_tilde(x)

    def test_vanishes_at_nonzero_integers(self):
        for k in (-3, -1, 1, 2, 5):
            assert limits.eta_tilde(k) == 0


class TestEtaTildePrime:
    def test_examples(self):
        assert limits.eta_tilde_prime(F(1, 2)) == F(1, 2)
        # 1/2 - floor(3/2)(floor(3/2)+1)/(2*(3/2)^2) = 1/2 - 2/(9/2) = 1/18
        assert limits.eta_tilde_prime(F(3, 2)) == F(1, 18)

    def test_domain(self):
        for bad in (0, 1, -2, F(4, 1)):
            with pytest.raises(DomainError):
                limits.eta_tilde_prime(bad)

    @given(st.fractions(min_value=F(1, 10), max_value=8, max_denominator=50)
           .filter(lambda x: x.denominator > 1))
    @settings(max_examples=100, deadline=None)
    def test_finite_difference(self, x):
        h = F(1, 10 ** 5)
        if (x - h).denominator == 1 or (x + h).denominator == 1:
            return
        if limits.eta_tilde(x + h) is None:
            return
        from remsum.exactnum import floor
        if floor(x - h) != floor(x + h):
            return  # straddles a kink
        fd = (limits.eta_tilde(x + h) - limits.eta_tilde(x - h)) / (2 * h)
        assert abs(float(fd - limits.eta_tilde_prime(x))) < 1e-4

    def test_finite_difference_spec_point(self):
        x, h = F(23, 10), F(1, 10 ** 4)
        fd = (limits.eta_tilde(x + h) - limits.eta_tilde(x - h)) / (2 * h)
        assert abs(float(fd - limits.eta_tilde_prime(x))) <= 10 * float(h) ** 2 * 100


class TestRescaledProfile:
    def test_center_value(self):
        # at x=0 the rescaled profile is b*B_n(a/b)
        from remsum import sums
        for ab, n in ((F(1, 2), 40), (F(1, 3), 33), (F(0, 1), 25)):
            got = limits.rescaled_eta(ab, n, F(0))
            assert got == ab.denominator * sums.B(n, ab)

    def test_needs_b_le_n(self):
        with pytest.raises(DomainError):
            limits.rescaled_eta(F(1, 7), 5, F(1, 2))

    def test_pointwise_convergence(self):
        # deviation from eta at a fixed off-jump point shrinks with n
        x = F(5, 2)
        target = limits.eta_tilde(x)
        devs = [abs(float(limits.rescaled_eta(F(1, 2), n, x) - target))
                for n in (50, 200, 800)]
        assert devs[2] < devs[0]
        assert devs[2] < 0.02


class TestConvergenceReport:
    def test_sup_deviation_decreases(self):
        reports = limits.convergence_report(F(1, 2), [50, 200, 800],
                                            F(4), F(1, 4))
        sups = [r.sup_abs_dev for r in reports]
        assert sups[0] > sups[1] > sups[2]
        assert all(abs(r.argmax_x) <= 4 for r in reports)

    @pytest.mark.parametrize("step", [F(0), F(-1, 4)])
    def test_refuses_a_step_that_is_not_positive(self, step):
        # the grid x = (2i + 1) step/2 never passed x_star: the call ran on
        with pytest.raises(ValueError, match="grid_step must be > 0"):
            limits.convergence_report(F(2, 5), [100], F(1), step)

    def test_takes_an_irrational_step(self):
        # Fraction(grid_step) refused a QuadExt step with a TypeError
        step = QuadExt(0, 1, 2, 10)  # sqrt(2)/10
        report, = limits.convergence_report(F(2, 5), [100], 1, step)
        xs = [s * (2 * i + 1) * step / 2 for i in range(7) for s in (1, -1)]
        assert all(abs(x) <= 1 for x in xs) and 15 * step / 2 > 1
        assert report.sup_abs_dev == max(
            abs(float(limits.rescaled_eta(F(2, 5), 100, x) - limits.eta_tilde(x)))
            for x in xs)
        with pytest.raises(ValueError, match="grid_step must be > 0"):
            limits.convergence_report(F(2, 5), [100], 1, -step)

    def test_refuses_an_empty_grid(self):
        # x_star < step/2 left no grid point and returned sup_abs_dev = -1.0
        with pytest.raises(ValueError, match="the grid is empty"):
            limits.convergence_report(F(2, 5), [100], F(1, 10), F(1, 4))
        # x_star = step/2 keeps the two points +-step/2
        report, = limits.convergence_report(F(2, 5), [100], F(1, 8), F(1, 4))
        assert abs(report.argmax_x) == F(1, 8) and report.sup_abs_dev >= 0
