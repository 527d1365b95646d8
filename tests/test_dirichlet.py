import cmath
import math
from fractions import Fraction as F

import mpmath
import pytest

from remsum import dirichlet, farey, sums
from remsum.errors import DomainError, PoleAtOne
from remsum.exactnum import beta0, to_float


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
        table = dirichlet.beta0_float_table(t, 50)
        for k in range(1, 51):
            assert abs(table[k] - float(to_float(beta0(k * t), 53))) < 1e-15

    def test_rational_t_midpoint_terms(self):
        table = dirichlet.beta0_float_table(F(1, 2), 6)
        assert table[2] == table[4] == table[6] == 0.0
        assert table[1] == table[3] == 0.0  # beta0(1/2) = 0 too


class TestSeries:
    def test_partial_sum_matches_naive(self, corpus):
        t = corpus["sqrt2m1"]
        for s in (2, 3, 2 + 5j):
            ev = dirichlet.f_beta_partial(t, s, 200)
            naive = sum(float(to_float(beta0(k * t), 53)) * k ** (-complex(s))
                        for k in range(1, 201))
            assert abs(ev.value - naive) < 1e-12
            assert ev.mode == "strict" and ev.tail_bound > 0

    def test_abel_summation_algebra(self, corpus):
        # the Mellin/Abel form re-sums the same terms exactly (up to the
        # boundary term S0(K) K^{-s}, which the tail bound covers)
        t = corpus["golden"]
        K, s = 300, 2.5
        s0 = sums.s0_prefix(t, K)
        direct = dirichlet.f_beta_partial(t, s, K, s0=s0)
        abel = dirichlet.f_beta_mellin(t, s, K, s0=s0)
        boundary = float(to_float(s0[K], 53)) * K ** (-s)
        assert abs((abel.value + boundary) - direct.value) < 1e-10

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
            s0 = sums.s0_prefix(t, K)
            fb = dirichlet.f_beta_partial(t, 2, K, s0=s0)
            fq = dirichlet.f_q_partial(t, 2, K, tables, s0=s0)
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
