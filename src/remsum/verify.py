"""Named verification suites driven by the CLI `verify` subcommand.

Each suite returns a list of check records {name, pass, detail}.  Sizes:
"quick" keeps every suite in the seconds range, "full" runs the complete
parameter grids.  All randomness is seeded and reproducible.

Importing this module loads the exact core only (`cfrac`, `sums`): the
measure, farey and dirichlet suites import their layers when they run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import accumulate, pairwise, product

from . import cfrac, sums
from .exactnum import QuadExt, _beta_sum, _parts, beta0


def corpus() -> dict:
    """The standing test corpus of quadratic irrationals in (0, 1)."""
    return {
        "golden": QuadExt(-1, 1, 5, 2),   # (sqrt(5)-1)/2, all quotients 1
        "sqrt2m1": QuadExt(-1, 1, 2, 1),  # sqrt(2)-1, all quotients 2
        "sqrt3m1": QuadExt(-1, 1, 3, 1),  # sqrt(3)-1, quotients 1,2,1,2,...
    }


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "pass": bool(ok), "detail": detail}


def suite_oracle(size: str = "quick", seed: int = 0) -> list[dict]:
    # S(n,t) is affine in the integer F(n,t), so S agrees where F does: the
    # two recursions' F against the brute-force prefix, as ints
    n_max = 2000 if size == "full" else 300
    checks = []
    for label, t in corpus().items():
        tab = sums.OstrowskiTables(t)
        detail = ""
        for n, f_brute in enumerate(sums._floor_sums(t, n_max), 1):
            f_ostrowski = sums._ostrowski_F(n, tab)[0]
            f_bseq = sums._bseq_F(n, t)[0]
            if f_ostrowski != f_brute or f_bseq != f_brute:
                off = [name for name, f in (("ostrowski", f_ostrowski),
                                            ("bseq", f_bseq)) if f != f_brute]
                verb = "disagree" if len(off) > 1 else "disagrees"
                detail = (f"{' and '.join(off)} {verb} with brute at n={n}:"
                          f" F(n,t) = {f_ostrowski} (ostrowski), {f_bseq} (bseq),"
                          f" {f_brute} (brute)")
                break
        checks.append(_check(f"oracle-equality[{label}, n<={n_max}]",
                             not detail, detail))
    return checks


def _at_most_2logn(n: int, held: bool, L_j: int, u: int, v: int, d: int,
                   r2: int) -> bool:
    """|S(n,t)| <= B, B = 2 log n as a float, for S = (u + v sqrt(d))/r2.
    Where the Snfinal bound |S| <= L_j/2 held at n, L_j <= 2B (an exact
    int/float compare) decides it; otherwise `_abs_at_most` does, with one
    isqrt."""
    B = 2 * math.log(n)
    return (held and L_j <= 2 * B) or sums._abs_at_most(
        u, v, d, r2, *B.as_integer_ratio())


def suite_bounds(size: str = "quick", seed: int = 0) -> list[dict]:
    checks = []
    n_sweep = 100000 if size == "full" else 2000
    t = corpus()["golden"]
    tab = sums.OstrowskiTables(t)
    F, depth, js = sums._sweep(tab, n_sweep)
    # S(n,t) = (u + v sqrt(d))/(2r), each n's (u, v) computed once, against
    # the Snfinal bound (1/2) L_j, L_j = lambda_1 + ... + lambda_j, j = j*(n),
    # and against 2 log n for n >= 3
    parts = _, _, d, r = _parts(t)
    r2 = 2 * r
    L = list(accumulate(tab.lam[1:], initial=0))
    snfinal = log_ok = True
    uv = sums._numerators(parts, False, enumerate(F[1:], 1))
    for n, (u, v) in enumerate(uv, 1):
        L_j = L[js[n]]
        snfinal = snfinal and sums._abs_at_most(u, v, d, r2, L_j, 2)
        log_ok = log_ok and (n < 3 or _at_most_2logn(n, snfinal, L_j, u, v, d, r2))
    checks.append(_check("snfinal-bound[golden]", snfinal))
    ok = all(depth[n] <= 4 * math.log(n) for n in range(3, n_sweep + 1))
    checks.append(_check("recursion-depth<=4logn[golden]", ok))
    checks.append(_check("golden-|S|<=2logn", log_ok))

    n_bseq = 2000 if size == "full" else 300
    ok = True
    for label, t in corpus().items():
        for n in range(8, n_bseq + 1, 7):
            if len(sums._bseq_F(n, t)[1]) > 4 * math.log(n):
                ok = False
    checks.append(_check("bseq-depth<=4logn", ok))

    bmax, xmax = (20, 500) if size == "full" else (8, 100)
    ok = True
    for b in range(1, bmax + 1):
        for a in range(0, b + 1):
            if math.gcd(a, b) != 1:
                continue
            ab = Fraction(a, b)
            for x in range(1, xmax + 1, 13):
                if not sums.lemma31_bound(x, ab)[2]:
                    ok = False
                sums.tab_sum(x, ab)  # raises if its bound fails
    checks.append(_check("lemma31-and-tab-bounds", ok))

    l2max = 200 if size == "full" else 50
    vals = sums.l2_norm_sq_sweep(l2max)  # lower bound asserted inside
    ok = all(Fraction(1, 12) <= (x + 1) * v <= 2 for x, v in enumerate(vals))
    checks.append(_check("l2-bracket", ok))
    return checks


def suite_measure(size: str = "quick", seed: int = 0) -> list[dict]:
    from . import measure

    checks = []
    mmax = 4 if size == "full" else 3
    ok = True
    for m in range(1, mmax + 1):
        for alphas in product(range(2, 6), repeat=m):
            ms = measure.measure_exact(alphas)
            if not ms.lower_bound <= ms.exact_measure <= ms.upper_bound:
                ok = False
    checks.append(_check(f"theorem25-bounds[m<={mmax}]", ok))

    kmax = 100 if size == "full" else 50
    ok = all(sum(cfrac.fundamental_interval((lam,))[2] for lam in range(1, K + 1))
             == 1 - Fraction(1, K + 1) for K in (2, 5, kmax))
    checks.append(_check("partition-telescoping", ok))

    ns = (100, 1000) if size == "full" else (100,)
    samples = 20 if size == "full" else 5
    # verify_b0_mass passes or raises BoundViolated; the margin is the
    # largest |S(n,t)|/bound over the samples, and only `verify --json`
    # shows it
    margin = max(measure.verify_b0_mass(n, 1 + math.log(1 + math.log(n)),
                                        samples, seed)["max_ratio"] for n in ns)
    checks.append(dict(_check("b0-mass-bound", True), margin=margin))
    return checks


def suite_farey(size: str = "quick", seed: int = 0) -> list[dict]:
    from . import farey

    checks = []
    rng = random.Random(seed)
    nmax = 300 if size == "full" else 60
    ok = True
    for n in range(1, nmax + 1, 7):
        if any(c * b - a * d != 1
               for (a, b), (c, d) in pairwise(farey._farey_pairs(n))):
            ok = False
    checks.append(_check("neighbor-determinant", ok))

    tables = farey.build_tables(600)
    n_id, trials = (60, 100) if size == "full" else (20, 30)
    ok = True
    for _ in range(trials):
        n = rng.randint(1, n_id)
        t = Fraction(rng.randint(0, 600), 601)  # denominator 601 > n: not in F_n
        count, lhs = farey.farey_count(n, t, tables)
        if lhs != count:
            ok = False
    checks.append(_check("farey-counting-identity", ok))

    nmax_mob = 500 if size == "full" else 100
    ok = True
    for label, t in list(corpus().items())[:2]:
        for n in range(1, nmax_mob + 1, 9):
            # sum over d | n of q_{d,0}(t) = -sum over d | n, e | d of
            # mu(e) beta0((d/e) t), as one exact sum
            pairs = ((d // e, tables.mu[e]) for d in farey._divisors(n)
                     for e in farey._divisors(d))
            if beta0(n * t) != _beta_sum(t, pairs, midpoint=True):
                ok = False
    checks.append(_check("moebius-inversion-beta0", ok))

    xmax = 300 if size == "full" else 50
    ok = True
    for x in range(1, xmax + 1, 23):
        t = Fraction(rng.randint(0, 100), 101)
        if farey.phi_x(x, t, tables) != farey.phi_x_qsum(x, t, tables):
            ok = False
    checks.append(_check("phi-forms-agree", ok))
    return checks


def suite_dirichlet(size: str = "quick", seed: int = 0) -> list[dict]:
    from . import dirichlet, farey

    checks = []
    ok = (abs(dirichlet.zeta(2) - math.pi ** 2 / 6) < 1e-12
          and abs(dirichlet.zeta(4) - math.pi ** 4 / 90) < 1e-12)
    checks.append(_check("zeta-classical-values", ok))

    K = 10000 if size == "full" else 2000
    tables = farey.build_tables(K)
    ok_a = ok_b = True
    for label, t in corpus().items():
        for s in (2, 2 + 5j):
            ea = dirichlet.f_beta_partial(t, s, K)
            em = dirichlet.f_beta_mellin(t, s, K)
            if abs(ea.value - em.value) > ea.tail_bound + em.tail_bound:
                ok_a = False
            if s == 2:
                eb = ea
        eq = dirichlet.f_q_partial(t, 2, K, tables)
        if abs(dirichlet.zeta(2) * eq.value + eb.value) > \
                abs(dirichlet.zeta(2)) * eq.tail_bound + eb.tail_bound:
            ok_b = False
    checks.append(_check("mellin-identity-matched-truncation", ok_a))
    checks.append(_check("zeta-times-Fq-plus-Fbeta", ok_b))
    return checks


SUITES = {
    "oracle": suite_oracle,
    "bounds": suite_bounds,
    "measure": suite_measure,
    "farey": suite_farey,
    "dirichlet": suite_dirichlet,
}


def run_suite(name: str, size: str = "quick", seed: int = 0) -> dict:
    if name == "all":
        checks = []
        for fn in SUITES.values():
            checks.extend(fn(size, seed))
    else:
        checks = SUITES[name](size, seed)
    return {"suite": name, "size": size, "seed": seed, "checks": checks,
            "pass": all(c["pass"] for c in checks)}
