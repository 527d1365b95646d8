"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Every comparison is exact unless the criterion itself defines a float
tolerance (criteria 10-12 compare against reported tail bounds or use
qualitative max-comparisons; everything else is exact rational/quadratic
arithmetic with zero tolerance).
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import product

import pytest

from remsum import cfrac, cli, dirichlet, farey, limits, measure, sums
from remsum.exactnum import QuadExt, beta, beta0


@contextmanager
def criterion(num: int, desc: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num:02d} FAIL: {desc}")
        raise
    print(f"\nACCEPTANCE {num:02d} PASS: {desc}")


@pytest.fixture(scope="module")
def tables_and_traces(corpus, corpus_cf):
    """Per-corpus Ostrowski tables plus all traces for n <= 2000."""
    out = {}
    for k in corpus:
        t, cf = corpus[k], corpus_cf[k]
        tab = sums.OstrowskiTables(t, cf)
        traces = {}
        values = {}
        for n in range(1, 2001):
            values[n], traces[n] = sums.ostrowski_S(n, t, cf, tables=tab)
        out[k] = (tab, values, traces)
    return out


def test_criterion_01_oracle_equivalence(corpus, tables_and_traces):
    with criterion(1, "ostrowski_S and bseq_S equal brute_S exactly for the "
                      "corpus and all n <= 2000"):
        for k, t in corpus.items():
            prefix = sums.s0_prefix(t, 2000)  # == S(n,t): kt never integral
            _, values, _ = tables_and_traces[k]
            for n in range(1, 2001):
                assert values[n] == prefix[n], (k, n)
                assert sums.bseq_S(n, t)[0] == prefix[n], (k, n)


def test_criterion_02_side_conditions(tables_and_traces):
    with criterion(2, "Ostrowski side conditions 0 < |1 - rho(n+n'+1)| < 1 "
                      "and floor(n/b_j*) <= lambda_j* on every step"):
        for k, (tab, _, traces) in tables_and_traces.items():
            for n, trace in traces.items():
                for step in trace.steps:
                    factor = 1 - step.rho * (step.n_before + step.n_after + 1)
                    assert 0 < abs(factor) < 1, (k, n)
                    q = step.n_before // tab.b[step.j_star]
                    assert q <= tab.cf.coeff(step.j_star), (k, n)


def test_criterion_03_depth_and_log_bounds(corpus, corpus_cf,
                                           tables_and_traces):
    with criterion(3, "recursion depths <= 4 log n and golden-ratio "
                      "|S(n,t)| <= 2 log n for 3 <= n <= 10^5"):
        for k, (_, _, traces) in tables_and_traces.items():
            for n in range(3, 2001):
                assert len(traces[n].steps) <= 4 * math.log(n), (k, n)
        for k, t in corpus.items():
            for n in range(8, 2001):
                assert len(sums.bseq_S(n, t)[1].steps) <= 4 * math.log(n)
        t, cf = corpus["golden"], corpus_cf["golden"]
        S, depth, bound = sums.ostrowski_sweep(t, cf, 100000, validate=True)
        for n in range(3, 100001):
            assert depth[n] <= 4 * math.log(n)
            assert abs(S[n]) <= bound[n]
            assert abs(S[n]) <= F(2 * math.log(n))


def test_criterion_04_theorem21_identities(corpus):
    with criterion(4, "Theorem 2.1(b) holds for 500 random (n, t) and "
                      "Theorem 2.1(a) for 200 admissible tuples, exactly"):
        rng = random.Random(21)
        quads = list(corpus.values())
        for i in range(500):
            n = rng.randint(1, 500)
            if i % 2:
                t = F(rng.randint(1, 997), 997)
            else:
                t = quads[i % len(quads)]
            lhs, rhs = sums.thm21b_identity(n, t)
            assert lhs == rhs, (n, t)

        admissible = []
        for b in range(1, 11):
            for a in range(0, b + 1):
                if math.gcd(a, b) != 1:
                    continue
                for bstar in range(1, b + 1):
                    if (1 + a * bstar) % b:
                        continue
                    if ((1 + a * bstar) // b) * b - a * bstar == 1:
                        admissible.append((a, b, bstar))
        checked = 0
        while checked < 200:
            a, b, bstar = admissible[rng.randrange(len(admissible))]
            n = rng.randint(b, 60)
            hi = F(n, bstar)
            x = F(rng.randint(1, 4 * hi.numerator),
                  4 * hi.denominator)  # uniform-ish in (0, n/b*]
            if not 0 < x <= hi:
                continue
            lhs, rhs = sums.thm21a_identity(n, F(a, b), bstar, x)
            assert lhs == rhs, (n, a, b, bstar, x)
            checked += 1


def test_criterion_05_l2_bracket():
    with criterion(5, "||B_x||^2 >= floor(x)/(12x^2) and x*||B_x||^2 in "
                      "[1/12, 2] for x <= 200, exactly"):
        vals = sums.l2_norm_sq_sweep(200)
        for x, v in enumerate(vals, 1):
            assert v >= F(x, 12 * x * x)
            assert F(1, 12) <= x * v <= 2


def test_criterion_06_measure_bounds():
    with criterion(6, "product bounds bracket the exact measure for all "
                      "alpha tuples with m <= 4, alpha_j in [2,5]"):
        assert measure.measure_exact((2,)).exact_measure == F(1, 2)
        for m in range(1, 5):
            for alphas in product(range(2, 6), repeat=m):
                ms = measure.measure_exact(alphas)
                assert ms.lower_bound <= ms.exact_measure <= ms.upper_bound


def test_criterion_07_finite_n_bounds(corpus, corpus_cf):
    with criterion(7, "Theorem 3.3 sampled-mass bound at n in {1e2,1e3,1e4} "
                      "and Theorem 3.4 a.e. bound on the corpus"):
        for n in (100, 1000, 10000):
            theta = 1 + math.log(1 + math.log(n))
            rep = measure.verify_b0_mass(n, theta, 20, 0)
            assert rep["pass"] and rep["max_ratio"] <= 1
        for n in (1000, 10000):
            theta = 1 + math.log(1 + math.log(n))
            for eps in (F(1, 2), F(1)):
                for k in corpus:
                    rep = measure.verify_ae_bound(n, eps, theta,
                                                  corpus[k], corpus_cf[k])
                    assert rep["pass"] and rep["ratio"] <= 1


def test_criterion_08_lemma31_grid():
    with criterion(8, "|B_{x,0}(a/b)| <= b/x and |sum t_{a/b}(m)| <= b(b+1) "
                      "for all reduced a/b, b <= 20, x <= 500"):
        for b in range(1, 21):
            for a in range(0, b + 1):
                if math.gcd(a, b) != 1:
                    continue
                ab = F(a, b)
                s0 = sums.s0_prefix(ab, 500)
                s_beta = F(0)
                for x in range(1, 501):
                    assert abs(s0[x]) <= b  # i.e. |S0(x)/x| <= b/x
                    s_beta += beta(x * ab)
                    assert abs(x + 2 * b * s_beta) <= b * (b + 1)
                # spot-check the public entry points agree with the sweeps
                v, bound, holds = sums.lemma31_bound(500, ab)
                assert holds and v == s0[500] / F(500)
                assert sums.tab_sum(500, ab) == 500 + 2 * b * s_beta


def test_criterion_09_farey_identities(corpus):
    with criterion(9, "Farey counting identity for 500 random t and Moebius "
                      "inversion of beta0 up to n = 500, exactly"):
        tables = farey.build_tables(500)
        rng = random.Random(99)
        for _ in range(500):
            n = rng.randint(1, 60)
            t = F(rng.randint(0, 600), 601)  # 601 prime > 60: t not in F_n^ext
            count, lhs = farey.farey_count(n, t, tables)
            assert lhs == count, (n, t)
        for t in [F(3, 7), corpus["golden"]]:
            for n in range(1, 501):
                total = sum(farey.q_k(d, t, tables, "beta0")
                            for d in farey._divisors(n))
                assert beta0(n * t) == -total, (n, t)


def test_criterion_10_dirichlet_identities(corpus):
    with criterion(10, "Mellin identity and zeta(s) F_q = -F_beta within the "
                       "reported tail bounds at K = 10^4"):
        K = 10000
        tables = farey.build_tables(K)
        for t in corpus.values():
            for s in (2, 3, 2 + 5j):
                a = dirichlet.f_beta_partial(t, s, K)
                b = dirichlet.f_beta_mellin(t, s, K)
                assert abs(a.value - b.value) <= a.tail_bound + b.tail_bound
            for s in (2, 3):
                fb = dirichlet.f_beta_partial(t, s, K)
                fq = dirichlet.f_q_partial(t, s, K, tables)
                z = dirichlet.zeta(s)
                assert abs(z * fq.value + fb.value) <= \
                    abs(z) * fq.tail_bound + fb.tail_bound


def test_criterion_11_rescaling_convergence():
    with criterion(11, "sup-grid deviation of the rescaled profile from eta "
                       "decreases along n = 100,400,1600,6400; envelope "
                       "|eta| <= min(1/2, 1/(8|x|)) exact on the grid"):
        for ab in (F(0, 1), F(1, 2), F(1, 3)):
            reports = limits.convergence_report(ab, [100, 400, 1600, 6400],
                                                F(8), F(1, 2))
            sups = [r.sup_abs_dev for r in reports]
            assert sups == sorted(sups, reverse=True), (ab, sups)
            assert all(s1 > s2 for s1, s2 in zip(sups, sups[1:])), (ab, sups)
        for k in range(-64, 65):
            x = F(k, 8)
            if x == 0:
                continue
            v = limits.eta_tilde(x)
            assert abs(v) <= F(1, 2)
            assert abs(v) <= F(1, 8) / abs(x)


def test_criterion_12_figure_data(tmp_path, capsys):
    with criterion(12, "plot CSVs reproduce the qualitative shapes: h decays "
                       "across the windows (0,25], [25,50], [50,500] and eta "
                       "peaks at 0 with 1/(8|x|) decay on [-8,8]"):
        paths = {}
        for name, rng_, step in (("h1", "0:25", "0.25"),
                                 ("h2", "25:50", "0.25"),
                                 ("h3", "50:500", "0.25"),
                                 ("eta", "-8:8", "0.001")):
            p = tmp_path / f"{name}.csv"
            which = "h" if name.startswith("h") else "eta"
            code = cli.main(["plot", "--which", which, f"--range={rng_}",
                             "--step", step, "--out", str(p)])
            capsys.readouterr()
            assert code == 0
            paths[name] = p

        def col2(path, drop_first=False):
            rows = path.read_text().strip().splitlines()[1:]
            if drop_first:
                rows = rows[1:]
            return [float(r.split(",")[1]) for r in rows]

        h1 = col2(paths["h1"], drop_first=True)  # drop x = 0
        h2, h3 = col2(paths["h2"]), col2(paths["h3"])
        m1, m2, m3 = (max(abs(v) for v in w) for w in (h1, h2, h3))
        assert m1 > m2 > m3  # decay of h across windows

        rows = paths["eta"].read_text().strip().splitlines()
        assert rows[0] == "x,value" and len(rows) == 16002
        eta = {}
        for r in rows[1:]:
            xs, vs = r.split(",")
            eta[float(xs)] = float(vs)
        assert eta[0.0] == -0.5  # jump value at 0 is the global extremum
        assert all(abs(v) <= 0.5 for v in eta.values())
        for x, v in eta.items():
            if x:
                assert abs(v) <= 1 / (8 * abs(x)) + 1e-12
        inner = max(abs(v) for x, v in eta.items() if 0 < abs(x) < 4)
        outer = max(abs(v) for x, v in eta.items() if abs(x) >= 4)
        assert outer < inner
