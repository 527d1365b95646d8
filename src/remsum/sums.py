"""Sawtooth remainder sums S(n,t), their means B_x, and the fast recursions.

Every exact S here is built from one integer, F(n,t) = sum of floor(k t)
over k <= n, by the affine map S(n,t) = t n(n+1)/2 - n/2 - F(n,t).
`_numerators` is the only (n, F) -> S map: for one pair (n, F) it gives
S(n,t), or S0(n,t), as the integer numerators (u, v) of
(u + v sqrt(d))/(2r), read off t's integer view `exactnum._parts`, which
its caller takes once and passes in.
`_value` makes the one exact value of a pair from them, on the parts its
caller holds, and `_abs_at_most` decides every |S| <= bound on them, or
on the parts of an exact S, with one isqrt.
s0_prefix and the S of ostrowski_sweep are read-only sequences built on
read (`_Lazy`): each keeps the int list F(0..n_max, t), and an entry is
made from (n, F(n,t)) by `_value` each time it is read, one entry, a
slice or an iteration in bulk.
brute_S is the oracle: it sums the floors directly (over one period for
rational t), as does brute_S0, B of them at a time, B about 2 sqrt(n), by
`_floor_total`.  With t in fixed point as T/M (M = 2^E for irrational t,
T/M = p/r for rational t), (f0, y0) = divmod(k0 T, M) at a block start k0
and (u_i, v_i) = divmod(i T, M) for i <= B,

    floor((k0 + i) T / M) = f0 + u_i + [y0 + v_i >= M],

so a block sums to B f0 + sum u_i plus a count of the v_i >= M - y0, one
bisection in the v_i sorted once per call.  For irrational t the
fixed-point floor is floor(k t) wherever (y0 + v_i) mod M < M - n, and two
more bisections check that for a whole block; a block they do not clear
takes its floors exactly, with one isqrt each.  s0_prefix and the `verify`
oracle need every F(k,t), and take it from the per-k loop `_floor_sums`,
which reads floor(k t) off the same fixed-point multiple of t, carried by
addition as a remainder mod 2^E and a count of wraps, and takes it exactly,
with one isqrt, only where that bracket cannot decide it.  `_floor_total`
reads its first n mod B terms off its own table of the v_i, before it is
sorted, with the same screen, so each call takes T once.
`exact_S` is the front door to S that B, B_left and the Theorem 2.1
identities go through: for rational t = a/b, `floor_sum` gives F(n, a/b)
in O(log b) steps, and irrational t goes to ostrowski_S.
The rational checks behind `verify` are ints until their result:
lemma31_bound and tab_sum read the numerator of S0 or S off floor_sum and
`_numerators` and decide their bounds on it, and l2_norm_sq_sweep carries
its sums scaled by a power of lcm(1..x_max); each makes one exact value per
returned field.

ostrowski_S implements the classical O(log n) recursion driven by the
continued-fraction convergents a_j/b_j of t, with rho_j = |b_j t - a_j|.  A
step takes n to n' = n mod b_j, with j = j*(n), q = floor(n/b_j),
N = n - n' = q b_j and m = n + n' + 1, and carries F in integers:

    F(n,t) - F(n',t) = q (m a_j - b_j - (-1)^j) / 2,

so the paper's increment (-1)^j (q/2)(1 - rho_j m) is t N m/2 - N/2 minus
that difference.  Its side condition 0 < |1 - rho_j m| < 1 holds at every
step by the algebra, not by a check: j comes from bisecting b, so
b_j <= n < b_{j+1}, and n' <= n - b_j, so m <= 2n - b_j + 1 < 2 b_{j+1}
whenever b_j >= 1; and with t = <lambda_0; ..., lambda_{j-1}, lambda_j + t_j>,
0 < t_j < 1, rho_j = 1/(b_{j+1} + b_j t_j) < 1/b_{j+1}, so 0 < rho_j m < 2,
and rho_j m is irrational, so it is not 1.  The recursion therefore needs
no bound beyond the convergents, and those are t's own: the orbit record
`cfrac` keeps for the last t holds lambda_k, a_k and b_k, grown once per t
to the first k >= 4 with b_k > n (`cfrac._Record.extend_past`), and the
recursion reads them there.  One rule, `_tables`, chooses what it reads:
the record itself unless a caller's cf differs from the record's own
expansion, where `OstrowskiTables` copies them out of it and checks that
cf.  ostrowski_S (and with it the CLI's `sum` and `bench`) and
ostrowski_sweep go through it; exact_S and `verify` read the record
directly.  What the checks test is the tables: q = floor(n/b_j) <=
lambda_j, which fails where lambda and b disagree.  They also keep the
test m < 2 b_{j+1}, which holds by construction on every table whose
b_j >= 1, as a guard against tampered tables.  `_ostrowski_F` is the one
copy of the step, and every step it takes is checked: on the record's
lists, or on tables copied from them, neither test can fail, so there is
no unchecked mode to skip them.

bseq_S is the alternative recursion through the Gauss-map orbit of t, an
independent cross-check that uses no convergents and carries F in
integers too.  It reads t's orbit as integer pairs (P_j, Q_j) from the
same record, so it needs no period either.  That orbit is walked once per
t: `cfrac.expand`, the continuants and the Gauss-map recursion all read
the one record, so a query that expands t and runs both recursions makes
each state of the orbit once.  No reader names a count of states: the
record walks on as it is read, one state at a time, so the continuants
walk the K states whose quotients b_K needs, and the Gauss-map recursion
the states its steps read, at most the same K, as
n_{j+1} <= n t_0 ... t_j = n rho_{j+1} < n/b_{j+2}.  A public call takes
t's integer view `exactnum._parts` once and passes it to the record
lookup and to `_value`.
Each has an integer core that returns the int F(n,t) and its trace rows,
and reads the record's lists by index in one loop (`cfrac._Record.index`
where the read starts, and `next_index` from there on):
`_ostrowski_F` sums the dF of the steps over lists grown once, to
b_k > n, and `_bseq_F` takes F from the alternating sum G below.  Its
floor(n_j sqrt(D)) is (n_j R) >> E off the record's fixed-point
R = floor(sqrt(D) 2^E) (`cfrac._Record.fixed_root`), one multiply and
shift, and one isqrt only where the bracket (n_j R, n_j R + n_j) reaches
a multiple of 2^E, as `_floor_sums` does for k t; it asserts the
Bsequence estimate on the numerators of S.  ostrowski_S and bseq_S each
make their one value from their core's F by `_value`, and each keeps its
trace rows with no closure made per call; `verify` compares the cores'
ints with the `_floor_sums` prefix directly.  All three agree exactly on every input.

ostrowski_sweep needs F(n,t) at every n <= n_max, and `_sweep` makes it a
block of n at a time.  Between b_j and b_{j+1}, on n = q b_j + n' with
q = floor(n/b_j) fixed and 0 <= n' < b_j, the difference above is

    F(n,t) - F(n',t) = q ((q b_j + 2n' + 1) a_j - b_j - (-1)^j) / 2,

affine in n', so the block is F[:b_j] plus one arithmetic progression.  In
a block q is fixed and m = q b_j + 2n' + 1 grows with n, so the checks
q <= lambda_j and m < 2 b_{j+1} (the guard above), made once at its last
n, hold at every n of it; every sweep makes them.  The n a block cannot
take (a failing block, or tables whose b does not increase) go one
`_ostrowski_F` per n, so the sweep has no step of its own.  Every block is
checked as it is made; only the values of S wait until they are read.

Both recursions keep one tuple of integers per step in their `SumTrace`;
the step objects, with their exact QuadExt fields (rho_j among them), are
built from it only when the trace is read, by the same `_Lazy` sequence,
which holds a module-level step maker (`_ostrowski_step`, `_bseq_step`)
and the few values it reads.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import accumulate, islice, repeat
from math import isqrt, lcm
from operator import add, gt, index

from . import cfrac
from .errors import DomainError, NotIrrational, NotNeighbors
from .exactnum import Scalar, _exact, _floor_sqrt_times, _make, _parts, floor


OstrowskiStep = namedtuple("OstrowskiStep", "j_star n_before n_after rho increment")
BseqStep = namedtuple("BseqStep", "j n_j t_j term")


class _Lazy:
    """A read-only sequence built on read: it keeps int rows, and item i is
    made as `make(*args, i, rows[i])` each time it is read, so len() builds
    nothing and a sequence that nobody reads builds no item at all.  Slices
    are lists; iteration builds 1024 items at a time, so it never holds them
    all.  Against another such sequence or a list the items are compared.
    Unhashable, as a list is."""

    __slots__ = ("rows", "_make", "_args")

    def __init__(self, make, rows: list, *args):
        self.rows, self._make, self._args = rows, make, args

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        rows, make, args = self.rows, self._make, self._args
        if isinstance(i, slice):
            return [make(*args, k, row) for k, row in zip(range(len(rows))[i], rows[i])]
        return make(*args, i if i >= 0 else i + len(rows), rows[i])

    def __iter__(self):
        for i in range(0, len(self.rows), 1024):
            yield from self[i:i + 1024]

    def __eq__(self, other):
        return self[:] == other[:] if isinstance(other, (list, _Lazy)) else NotImplemented


class SumTrace(namedtuple("SumTrace", "steps")):
    """Audit record of one recursion run: its steps, in order, read as
    `OstrowskiStep` or `BseqStep` objects."""

    __slots__ = ()


# -- brute-force oracle ----------------------------------------------------


def _floor_sums(t: Scalar, n: int):
    """Yield F(k,t) = sum of floor(j t) for j <= k, for k = 1..n; ints only:
    one step per k, for the readers of every F(k,t) (`s0_prefix`, the
    `verify` oracle).  A reader of F(n,t) alone counts the floors B at a
    time with `_floor_total`.

    Rational t = p/r takes floor(k p/r) directly.  Irrational t reads one
    fixed-point constant T = floor(t 2^E), E = 64 + n.bit_length(): t 2^E
    lies in (T, T + 1), so k t 2^E lies in (k T, k T + k), and
    floor(k t) = floor(k T / 2^E) unless that bracket reaches the next
    multiple of 2^E.  T is split once as t0 2^E + Tf with 0 <= Tf < 2^E, and
    y = k Tf mod 2^E is carried by addition: each step adds Tf to y and
    subtracts 2^E where it wraps, so floor(k T / 2^E) = k t0 + (the wraps so
    far) is carried too, with no shift of a product.  The bracket reaches
    the next multiple exactly when y + k >= 2^E; as k <= n, that needs
    y >= 2^E - n, so one compare with that constant screens it.  Only there
    is floor(k t) taken exactly, as (k p + floor(k q sqrt(d)))//r with one
    isqrt; that needs k t to lie less than k 2^-E < 2^-64 below an
    integer."""
    p, q, d, r = _parts(t)
    total = 0
    if not q:
        for k in range(1, n + 1):
            total += k * p // r
            yield total
        return
    # q != 0 means d is not a square, so floor(q sqrt(d) 2^E) is exact
    E = 64 + n.bit_length()
    one = 1 << E
    t0, Tf = divmod(((p << E) + _floor_sqrt_times(q << E, d)) // r, one)
    t1, screen = t0 + 1, one - n
    y = f = 0  # y = k Tf mod 2^E, f = floor(k T / 2^E)
    for k in range(1, n + 1):
        y += Tf
        if y >= one:
            y -= one
            f += t1
        else:
            f += t0
        if y >= screen and y + k >= one:
            total += (k * p + _floor_sqrt_times(k * q, d)) // r
        else:
            total += f
        yield total


# the most terms one block of `_floor_total` counts at once
_BLOCK_CAP = 4096


def _floor_total(t: Scalar, n: int) -> int:
    """F(n,t) = sum of floor(k t) over k <= n, for n >= 0, counted B terms
    at a time; ints only, in O(B) memory.

    T/M is t in fixed point: T = floor(t 2^E) over M = 2^E, E = 64 +
    n.bit_length(), as `_floor_sums` takes it, for irrational t, and p/r
    itself for rational t = p/r.  With (f0, y0) = divmod(k0 T, M) at a block
    start k0 and (u_i, v_i) = divmod(i T, M) for 1 <= i <= B,

        floor((k0 + i) T / M) = f0 + u_i + [y0 + v_i >= M],

    so the block k0 + 1..k0 + B sums to B f0 + sum u_i + #{i : v_i >= M - y0},
    one bisection in the v_i, sorted once per call.  Each block reads k0 in
    closed form, so none carries a state to the next.

    For irrational t, floor(k t) is that fixed-point floor unless its
    bracket (k T, k T + k) reaches a multiple of M (`_floor_sums`), which
    needs (y0 + v_i) mod M >= M - n: a block is safe when no v_i lies in
    [M - n - y0, M - y0) or in [2M - n - y0, M), two bisections more.  An
    unsafe block takes each of its floors exactly, with one isqrt.

    The first g = n mod B terms come off the same table before it is
    sorted, one term each: floor(k T / M) = (k T - v_k)/M, or floor(k t)
    exactly where v_k + k >= M, so each call takes T once.  B = 2 sqrt(n),
    at least 16 and at most 4096, balances the table against the blocks."""
    B = min(_BLOCK_CAP, max(16, isqrt(4 * n)))
    g = n % B
    p, q, d, r = _parts(t)
    E = 64 + n.bit_length()
    M, T = (1 << E, ((p << E) + _floor_sqrt_times(q << E, d)) // r) if q else (r, p)
    vs = [i * T % M for i in range(1, B + 1)]
    total = sum([(k * T - v) // M if not q or v + k < M
                 else (k * p + _floor_sqrt_times(k * q, d)) // r
                 for k, v in zip(range(1, g + 1), vs)])
    vs.sort()
    U = (T * (B * (B + 1) // 2) - sum(vs)) // M  # the sum of the u_i
    for k0 in range(g, n, B):
        f0, y0 = divmod(k0 * T, M)
        c = bisect_left(vs, M - y0)
        if q and (bisect_left(vs, M - n - y0) < c
                  or bisect_left(vs, 2 * M - n - y0) < B):
            total += sum([(k * p + _floor_sqrt_times(k * q, d)) // r
                          for k in range(k0 + 1, k0 + B + 1)])
        else:
            total += B * f0 + U + B - c
    return total


def _numerators(parts: tuple[int, int, int, int], n: int, F: int,
                midpoint: bool = False) -> tuple[int, int]:
    """The one map (n, F(n,t)) -> (u, v) with S(n,t) = (u + v sqrt(d))/(2r)
    for t = (p + q sqrt(d))/r, parts = (p, q, d, r) = `_parts(t)` as the
    caller holds it, or S0(n,t) if midpoint: u = p n (n+1) - r (n + 2F - h)
    and v = q n (n+1).

    beta0 differs from beta by +1/2 exactly where k t is an integer: where
    r | k for rational t, and nowhere for irrational t; so h = floor(n/r)
    for S0 at rational t, and h = 0 otherwise."""
    p, q, _, r = parts
    m = n * (n + 1)
    return p * m - r * (n + 2 * F - (n // r if midpoint and not q else 0)), q * m


def _value(parts: tuple[int, int, int, int], n: int, F: int,
           midpoint: bool = False) -> Scalar:
    """The exact value of `_numerators` at one (n, F(n,t)), on the parts of
    t its caller holds: S(n,t), or S0(n,t) if midpoint, as a Fraction where
    it is rational (rational t, and n = 0) and a QuadExt otherwise.  S is
    affine in F, so _value(n, F(n) - F(n')) less _value(n', 0) is
    S(n,t) - S(n',t)."""
    u, v = _numerators(parts, n, F, midpoint)
    return _make(u, v, parts[2], 2 * parts[3]) if v else Fraction(u, 2 * parts[3])


def _prefix(parts: tuple[int, int, int, int], F: list[int],
            midpoint: bool = False) -> _Lazy:
    """S(n,t), or S0(n,t) if midpoint, for n = 0..len(F) - 1, as a read-only
    sequence built on read from F[n] = F(n,t), for the t of
    parts = `_parts(t)`."""
    return _Lazy(partial(_value, midpoint=midpoint), F, parts)


def _abs_at_most(p: int, q: int, d: int, r: int, u: int, v: int) -> bool:
    """|x| <= u/v for the irrational x = (p + q sqrt(d))/r (q != 0, d not a
    square, r > 0), u >= 0 and v > 0, decided by one isqrt: v x r =
    v p + v q sqrt(d) is irrational, so -u r <= v x r <= u r holds exactly
    when -u r <= v p + floor(v q sqrt(d)) < u r.  The one test of every
    |S| <= bound for irrational S."""
    return -u * r <= v * p + _floor_sqrt_times(v * q, d) < u * r


def _brute(n: int, t: Scalar, midpoint: bool) -> Scalar:
    if n < 0:
        raise ValueError("n must be >= 0")
    parts = p, q, _, b = _parts(t)
    # t = p/b: floor((k + b) t) = floor(k t) + p, so with n = Q b + R,
    # F(n) = Q F(b) + F(R) + p b Q(Q-1)/2 + p Q R needs at most 2b floors;
    # irrational t has no period: Q = 0, R = n
    Q, R = divmod(n, b) if not q else (0, n)
    Fb = _floor_total(t, b) if Q else 0
    F = Q * Fb + _floor_total(t, R) + p * b * Q * (Q - 1) // 2 + p * Q * R
    return _value(parts, n, F, midpoint)


def brute_S(n: int, t: Scalar) -> Scalar:
    """Exact S(n,t) = sum of beta(k t) for k <= n; the oracle.  It sums the
    floors directly, a block of B at a time (`_floor_total`): all n of them
    for irrational t, in O(sqrt(n)) steps up to B = 4096, and at most one
    period of b for t = a/b, extended by the periodic identity, so it stays
    independent of floor_sum and the recursions."""
    return _brute(n, t, midpoint=False)


def brute_S0(n: int, t: Scalar) -> Scalar:
    """Exact sum of beta0(k t) for k <= n (midpoint convention at jumps)."""
    return _brute(n, t, midpoint=True)


def s0_prefix(t: Scalar, n_max: int) -> _Lazy:
    """S0(0,t), S0(1,t), ..., S0(n_max,t) exactly, as a read-only sequence
    built on read: one O(n_max) sweep keeps the ints F(n,t), and entry n is
    made from (n, F(n,t)) each time it is read.  ValueError for n_max < 0."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return _prefix(_parts(t), [0, *_floor_sums(t, n_max)], midpoint=True)


def floor_sum(n: int, a: int, b: int, c: int = 0) -> int:
    """The sum of floor((k a + c)/b) over 1 <= k <= n, for n >= 0, b >= 1
    and a, c of either sign, in O(log b) steps; c = 0 gives F(n, a/b).

    The Euclid-like reduction of the AtCoder Library's floor_sum: the sum
    of floor((a k + c)/b) over 0 <= k < N, once a and c are reduced mod b,
    counts the lattice points under a line, and counting them by rows
    instead swaps the roles of a and b, as one step of Euclid's algorithm
    does.  Every argument must be an integer (`operator.index`), else
    TypeError."""
    n, a, b, c = map(index, (n, a, b, c))
    if n < 0 or b < 1:
        raise ValueError("need n >= 0 and b >= 1")
    total, N = -(c // b), n + 1  # that sum with N = n + 1, less its k = 0 term
    while True:
        q, a = divmod(a, b)  # floor(a/b) k comes out of every term
        total += q * (N * (N - 1) // 2)
        q, c = divmod(c, b)
        total += q * N
        y = a * N + c
        if y < b:
            return total
        N, c = divmod(y, b)
        a, b = b, a


def exact_S(n: int, t: Scalar, midpoint: bool = False) -> Scalar:
    """Exact S(n,t), or S0(n,t) if midpoint, for every t the library takes:
    the front door to S.  Rational t, a QuadExt with a square radicand
    included, costs O(log b) through floor_sum; irrational t costs O(log n)
    Ostrowski steps along its own orbit, where S0 = S as k t is never an
    integer."""
    parts = p, q, _, r = _parts(t)
    F = _ostrowski_F(n, cfrac._record(*parts))[0] if q else floor_sum(n, p, r)
    return _value(parts, n, F, midpoint)


# -- means and one-sided limits -------------------------------------------


def B(x: Scalar, t: Scalar) -> Scalar:
    """B_x(t) = S(floor(x), t)/x for real x > 0."""
    if not x > 0:
        raise ValueError("x must be > 0")
    return exact_S(floor(x), t) / x


def B_left(x: Scalar, t: Scalar) -> Scalar:
    """Left limit of B_x at t.  B_x itself is the right limit; at a reduced
    fraction t = a/b it jumps there by -(1/x) floor(floor(x)/b), and it is
    continuous at irrational t."""
    value = B(x, t)
    _, q, _, r = _parts(t)
    if not q:
        value += Fraction(floor(x) // r) / x
    return value


# -- Ostrowski recursion ---------------------------------------------------


class OstrowskiTables:
    """Partial quotients lambda_k and convergents a_k/b_k of t, ints only:
    lam[k] = lambda_k for k < K and a[k], b[k] for k <= K, with K >= 4 the
    first k with b_k > n for the largest n they were grown past.  t's orbit
    record (`cfrac._Record`) holds the continuants, grown once per t, and
    the recursions read them there (`_tables`); tables are built only to
    check a caller's own cf, or for a caller that wants lists of its own.
    They copy the prefix they need out of the record each time they grow,
    so a write into lam, a or b stays in these tables until they next grow
    and never reaches the record.

    An expansion cf, if given, is a cross-check: the tables raise ValueError
    where its lambda_k differs from t's, and keep it as `cf`.  Nothing is
    copied at a refused growth, so it stays refused."""

    def __init__(self, t: Scalar, cf: cfrac.CFExpansion | None = None):
        parts = _parts(t)
        if not parts[1] or (cf is not None and cf.is_finite):
            raise NotIrrational("Ostrowski recursion needs irrational t")
        self.t, self.cf, self.lam, self._rec = t, cf, [], cfrac._record(*parts)
        self.extend_past(0)  # a mismatch in lambda_0..lambda_3 fails here

    def extend_past(self, n: int):
        """Grow the tables until b_k > n, and at least to k = 4, as copies of
        the record's continuants, grown that far first.  Only the quotients
        new to the tables are compared with cf, and none where cf is the
        record's own expansion (`cfrac.expand`'s), as every lambda agrees."""
        lam, rec, cf = self.lam, self._rec, self.cf
        if len(lam) > 3 and self.b[-1] > n:
            return
        rec.extend_past(n)
        K, k = max(4, bisect_right(rec.b, n)), len(lam)
        if cf not in (None, rec.cf) and rec.lam[k:K] != [
                cf.coeff(j) if j else cf.lambda0 for j in range(k, K)]:
            raise ValueError("expansion does not match t")
        self.lam, self.a, self.b = rec.lam[:K], rec.a[:K + 1], rec.b[:K + 1]


def _tables(t: Scalar, cf, parts) -> OstrowskiTables | cfrac._Record:
    """The continuants the recursions read for t: t's orbit record itself
    where cf is None or the record's own expansion (`cfrac.expand`'s), as
    there is no other cf to check, and `OstrowskiTables(t, cf)`, which
    checks cf against the record, otherwise.  parts = `_parts(t)`, as the
    caller holds it."""
    rec = parts[1] and cfrac._record(*parts)
    return rec if rec and cf in (None, rec.cf) else OstrowskiTables(t, cf)


def _ostrowski_F(n: int, tab: OstrowskiTables | cfrac._Record) -> tuple[int, list[tuple]]:
    """F(n,t) for n >= 0 and the t of `tab` by the Ostrowski recursion, with
    its trace rows (j, n, n', dF), one per checked step; ints only.  `tab` is
    an `OstrowskiTables`, or t's orbit record `cfrac._Record`, which holds
    the same lists lam, a and b and grows them by the same extend_past.
    The one Ostrowski step of the library: j = j*(n), the rightmost j with
    b_j <= n, by bisecting b, then n -> n' = n mod b_j and
    dF = F(n,t) - F(n',t) = q (m a_j - b_j - (-1)^j)/2 with q = floor(n/b_j)
    and m = n + n' + 1.  Every step checks q <= lambda_j, and m < 2 b_{j+1},
    which holds by construction wherever b_j >= 1 (module docstring) and
    guards against tampered tables; each raises AssertionError naming the n
    of the failing step.  The tables are grown once: n only decreases, so
    b_k > n holds at every step.  ValueError for n < 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    tab.extend_past(n)
    lam, a, b = tab.lam, tab.a, tab.b
    rows, F = [], 0
    while n > 0:
        j = bisect_right(b, n) - 1
        bj = b[j]
        q, n2 = divmod(n, bj)
        m = n + n2 + 1
        if m >= 2 * b[j + 1]:
            raise AssertionError(f"Ostrowski side condition failed at n={n}")
        if q > lam[j]:
            raise AssertionError(f"floor(n/b_j*) > lambda_j* at n={n}")
        dF = q * (m * a[j] - bj - (-1 if j & 1 else 1)) // 2
        rows.append((j, n, n2, dF))
        F += dF
        n = n2
    return F, rows


def ostrowski_S(n: int, t: Scalar, cf: cfrac.CFExpansion | None = None,
                tables: OstrowskiTables | None = None) -> tuple[Scalar, SumTrace]:
    """Exact S(n,t) for irrational t in O(log n) recursion steps: the value
    of F(n,t) from `_ostrowski_F`.

    cf, if given, cross-checks the expansion (see `OstrowskiTables`).
    `tables`, if given, must have been built for this t, and for this cf
    when cf is given; ValueError otherwise.  Without them the recursion
    reads the continuants `_tables` chooses.  ValueError for n < 0.  The
    trace keeps (j, n, n', dF) per step."""
    parts = _parts(t)
    if tables is None:
        tables = _tables(t, cf, parts)
    elif tables.t != t or (cf is not None and tables.cf != cf):
        raise ValueError("tables were built for another t or expansion")
    F, rows = _ostrowski_F(n, tables)
    return _value(parts, n, F), SumTrace(_Lazy(_ostrowski_step, rows, parts, tables, t))


def _ostrowski_step(parts, tab, t: Scalar, _, row: tuple) -> OstrowskiStep:
    """The step of an `ostrowski_S` trace row (j, n, n', dF), as its `_Lazy`
    makes it on read: rho_j off the continuants the run read, and the
    increment from dF."""
    j, n, n2, dF = row
    return OstrowskiStep(j, n, n2, abs(tab.b[j] * t - tab.a[j]),
                         _value(parts, n, dF) - _value(parts, n2, 0))


def _sweep(tab: OstrowskiTables | cfrac._Record, n_max: int):
    """F(n,t), the recursion depth and j*(n) for every n <= n_max, as int
    lists indexed by n: exactly what `_ostrowski_F(n, tab)` gives at each n,
    its F, its number of steps and the j of its first step, made a block at
    a time.

    The n with j*(n) = j are b_j <= n < b_{j+1}, and a block is those with
    one q = floor(n/b_j).  There n' = n - q b_j runs over 0, 1, ..., and
    dF = q((q b_j + 2n' + 1) a_j - b_j - (-1)^j)/2 = C + q a_j n', with C an
    int because q 2n' a_j is even: one pass over F[:b_j].  Each block is
    checked once, at its last n: q <= lambda_j does not depend on n, and
    m = q b_j + 2n' + 1 grows with n, so m < 2 b_{j+1} there holds at every
    n of the block.  A block that fails goes one `_ostrowski_F` per n, which
    raises the AssertionError of its first failing n.  Where b decreases
    somewhere (tampered tables), the bisection need not give one j over such
    a range, so every n goes one `_ostrowski_F` per n."""
    F, depth, js = [0], [0], [0]
    tab.extend_past(n_max)
    lam, a, b = tab.lam, tab.a, tab.b

    def by_steps(ns):
        for n in ns:
            Fn, rows = _ostrowski_F(n, tab)
            F.append(Fn)
            depth.append(len(rows))
            js.append(rows[0][0])

    if any(map(gt, b, islice(b, 1, None))):
        by_steps(range(1, n_max + 1))
        return F, depth, js
    n = 1
    while n <= n_max:
        j = bisect_right(b, n) - 1
        bj, aj, b_next = b[j], a[j], b[j + 1]
        c, end = bj + (-1) ** j, min(b_next, n_max + 1)
        while n < end:
            q, lo = divmod(n, bj)
            hi = min(end - q * bj, bj)  # the block is n' in [lo, hi)
            if q > lam[j] or q * bj + 2 * hi - 1 >= 2 * b_next:
                by_steps(range(n, n + hi - lo))
            else:
                C, D = q * ((q * bj + 1) * aj - c) // 2, q * aj
                F += map(add, F[lo:hi],
                         range(C + D * lo, C + D * hi, D) if D else repeat(C))
                depth += map(add, depth[lo:hi], repeat(1))
                js += [j] * (hi - lo)
            n += hi - lo
    return F, depth, js


def ostrowski_sweep(t: Scalar, cf: cfrac.CFExpansion | None, n_max: int,
                    validate: bool = False):
    """S(n,t), recursion depth and the Snfinal bound for every n <= n_max.

    Returns (S, depth, bound) indexed by n: S is a read-only sequence built
    on read from the sweep's ints F(n,t), as `s0_prefix` is; depth and
    bound are lists, where bound[n] is (1/2) * sum of
    lambda_1..lambda_{j*(n)}; cf as for `ostrowski_S`.  ValueError for
    n_max < 0.  Every block of the sweep is checked when it is made (see
    `_sweep`); `validate` is accepted for old callers and not read.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    parts = _parts(t)
    tab = _tables(t, cf, parts)
    F, depth, js = _sweep(tab, n_max)
    # index j -> (1/2) sum_{k<=j} lambda_k, summed in ints, up to the largest
    # j* read: the record's lists may have grown far past n_max
    half_sums = [Fraction(L, 2) for L in accumulate(tab.lam[1:max(js) + 1], initial=0)]
    return _prefix(parts, F), depth, [half_sums[j] for j in js]


# -- Gauss-map (Bsequence) recursion --------------------------------------


def _bseq_F(n: int, parts: tuple[int, int, int, int]) -> tuple[int, list[tuple]]:
    """F(n,t) by the Gauss-map recursion of `bseq_S`, with its trace rows
    (j, n_j, P_j, Q_j); ints only, for the t of parts = `_parts(t)` as the
    caller holds it.  The steps read t's orbit record by index
    (`cfrac._Record.next_index`), and floor(n_j sqrt(D)) off the record's
    fixed-point R = floor(sqrt(D) 2^E) (`cfrac._Record.fixed_root`) as
    (n_j R) >> E, with one isqrt only where the bracket (n_j R, n_j R + n_j)
    reaches a multiple of 2^E.  The modified Bsequence estimate is asserted
    on the numerators (u, v) of S(n,t), so no QuadExt is built."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _, q, d, r = parts
    if not q:
        raise NotIrrational("bseq recursion needs irrational t")
    rec = cfrac._record(*parts)
    states, (E, R) = rec.states, rec.fixed_root(n)
    lam0, P, Q = states[i := rec.index(0)]  # t_0 = t - lambda_0
    if lam0:  # irrational t lies in (0, 1] exactly when floor(t) = 0
        raise DomainError("t must lie in (0, 1]")
    rows, mask = [], (1 << E) - 1
    nj, G, lam_sum = n, 0, 0
    while nj > 0:
        rows.append((len(rows), nj, P, Q))
        # m = floor(t_j n_j) = floor((n_j P + floor(n_j sqrt(D)))/Q), for Q
        # of either sign, where n_j sqrt(D) 2^E lies in (x, x + n_j)
        x = nj * R
        x = nj * P + (x >> E if (x & mask) + nj <= mask else isqrt((nj * q * r) ** 2 * d))
        m = x // Q if Q > 0 else (-x - 1) // -Q
        i = rec.next_index(i, len(rows))
        lam, P, Q = states[i]
        # G is the alternating sum below, up to the sign (-1)^(steps + 1)
        G = m * (m + 1) * lam - (2 * m + 1) * nj - m - G
        lam_sum += lam
        nj = m
    F = (-n - (G if len(rows) & 1 else -G)) // 2
    if n and not _abs_at_most(*_numerators(parts, n, F), d, 2 * r, lam_sum, 2):
        raise AssertionError("modified Bsequence estimate violated")
    return F, rows


def bseq_S(n: int, t: Scalar) -> tuple[Scalar, SumTrace]:
    """Exact S(n,t) via the orbit t_j of the Gauss map and n_{j+1} = floor(t_j n_j):
    the value of F(n,t) from `_bseq_F`.

    Theorem 2.1(b) gives S(n,t) = sum over j of (-1)^j (n_j eta_tilde(t_j n_j)
    + frac(t_j n_j)/2).  The orbit comes from t's record in `cfrac` as
    integer pairs, t_j = (P_j + sqrt(D))/Q_j with D = q^2 d r^2, and with them
    lambda_{j+1} = floor(1/t_j).  With m_j = n_{j+1}, the j-th term is
    t_j n_j(n_j+1)/2 + t_{j+1} m_j(m_j+1)/2
    + (m_j(m_j+1) lambda_{j+1} - (2m_j+1) n_j - m_j)/2, and the t parts cancel
    between consecutive terms of the alternating sum, leaving

        F(n,t) = (-n - sum_j (-1)^j (m_j(m_j+1) lambda_{j+1} - (2m_j+1) n_j - m_j))/2.

    The modified Bsequence estimate |S| <= (1/2) sum of lambda_{j+1} over the
    steps is asserted.  The trace keeps (j, n_j, P_j, Q_j) per step.
    """
    parts = _, q, d, r = _parts(t)
    F, rows = _bseq_F(n, parts)
    return _value(parts, n, F), SumTrace(_Lazy(_bseq_step, rows, abs(q) * r, d))


def _bseq_step(s: int, d: int, _, row: tuple) -> BseqStep:
    """The step of a `bseq_S` trace row (j, n_j, P_j, Q_j), as its `_Lazy`
    makes it on read: t_j = (P_j + s sqrt(d))/Q_j, with s = |q| r."""
    j, nj, P, Q = row
    tj = _make(P, s, d, Q)
    f = (x := tj * nj) - floor(x)  # n_j eta_tilde(x) = f(f - 1)/(2 t_j)
    return BseqStep(j, nj, tj, (f * (f - 1) / tj + f) / 2)


# -- Theorem identities and bounds -----------------------------------------


def thm21b_identity(n: int, t: Scalar) -> tuple[Scalar, Scalar]:
    """Both sides of the B_n(t) decomposition for 0 < t <= 1; must be equal."""
    t = _exact(t)
    if not (0 < t <= 1):
        raise DomainError("t must lie in (0, 1]")
    from .limits import eta_tilde

    lhs = B(n, t)
    x = t * n
    m = floor(x)
    rhs = eta_tilde(x) + (x - m) / (2 * n)
    if m >= 1:
        inv = 1 / t
        inner = inv - floor(inv)
        rhs = rhs - Fraction(m, n) * B_left(m, inner)
    return lhs, rhs


def thm21a_identity(n: int, a_over_b: Fraction, bstar: int,
                    x: Scalar) -> tuple[Scalar, Scalar]:
    """Both sides of the Farey-neighbor decomposition of B_n(a/b + x/(bn)).

    a/b and its right neighbor a*/b* must be consecutive in the extended
    Farey sequence of order b, with b <= n and 0 < x <= n/b*.
    """
    from .limits import eta_tilde

    x = _exact(x)
    ab = Fraction(a_over_b)
    a, b = ab.numerator, ab.denominator
    if bstar < 1 or (1 + a * bstar) % b != 0:
        raise NotNeighbors(f"no right neighbor of {ab} with denominator {bstar}")
    astar = (1 + a * bstar) // b
    if astar * b - a * bstar != 1:
        raise NotNeighbors(f"{astar}/{bstar} is not the right neighbor of {ab}")
    if b > n:
        raise DomainError("need b <= n")
    if not (0 < x and x * bstar <= n):
        raise DomainError("need 0 < x <= n/b*")

    lhs = B(n, ab + x / (b * n))
    u = (n / x - bstar) / b
    rhs = (B(n, ab) + Fraction(1, 2 * b) + eta_tilde(x) / b
           - (x / n) * B_left(x, u) + x / (2 * b * n))
    # the tail: the sum of beta((n - k b*)/b) over k <= X = floor(x)
    X = floor(x)
    tail = (Fraction(X * n - bstar * X * (X + 1) // 2, b)
            - floor_sum(X, -bstar, b, n) - Fraction(X, 2))
    rhs = rhs + tail / n
    return lhs, rhs


def lemma31_bound(x: Scalar, a_over_b: Fraction):
    """B_{x,0}(a/b) with the bound |value| <= b/x; returns (value, bound, holds).

    S0(n, a/b) = u/(2b) at n = floor(x), with u the int of `_numerators` on
    F = floor_sum(n, a, b); as x > 0, |S0/x| <= b/x exactly when
    |u| <= 2b^2, so holds is one int compare."""
    x = _exact(x)
    ab = Fraction(a_over_b)
    if not x > 0:
        raise DomainError("x must be positive")
    a, b = ab.numerator, ab.denominator
    n = floor(x)
    u, _ = _numerators((a, 0, 1, b), n, floor_sum(n, a, b), True)
    return Fraction(u, 2 * b) / x, b / x, abs(u) <= 2 * b * b


def tab_sum(x: int, a_over_b: Fraction) -> Fraction:
    """Exact sum of t_{a/b}(m) = 1 + 2b*beta(am/b) over m <= x, with its
    a-priori bound |sum| <= b(b+1) asserted.  2b S(x, a/b) is the int u of
    `_numerators` on F = floor_sum(x, a, b), so the sum is the int x + u,
    checked as such and made a Fraction once."""
    ab = Fraction(a_over_b)
    a, b = ab.numerator, ab.denominator
    u, _ = _numerators((a, 0, 1, b), x, floor_sum(x, a, b))
    total = x + u
    if abs(total) > b * (b + 1):
        raise AssertionError("t_{a/b} partial sum bound violated")
    return Fraction(total)


def l2_norm_sq(x: int) -> Fraction:
    """Exact ||B_x||_2^2 = (1/(12x^2)) sum_{m,n<=x} gcd(m,n)^2/(mn)."""
    if x < 1:
        raise ValueError("x must be >= 1")
    return l2_norm_sq_sweep(x)[-1]


def l2_norm_sq_sweep(x_max: int) -> list[Fraction]:
    """[||B_1||^2, ..., ||B_{x_max}||^2] in O(x_max log x_max) integer steps.

    Going from x - 1 to x adds the pairs with max(m, n) = x to the double
    sum: 2 G(x)/x - 1 with G(x) = sum_{m<=x} gcd(m,x)^2/m.  Since
    gcd^2 = sum over d | gcd of J_2(d) (J_2 the Jordan totient),
    G(x) = sum_{d|x} J_2(d)/d H_{x/d}, H the harmonic numbers.

    Every denominator divides a power of L = lcm(1..x_max), so the sums are
    ints: h_k = L H_k, G'(m) = sum_{d|m} J_2(d) (L/d) h_{m/d} = L^2 G(m),
    and T_x = L^3 sum_{y<=x} (2G(y)/y - 1) grows by 2 G'(x) (L/x) - L^3.
    Entry x is T_x/(12 x^2 L^3), one Fraction, and its lower bound
    ||B_x||^2 >= 1/(12x) is asserted as T_x >= x L^3."""
    L = lcm(*range(1, x_max + 1))
    h = list(accumulate((L // k for k in range(1, x_max + 1)), initial=0))
    J2 = [k * k for k in range(x_max + 1)]  # sum_{d|k} J_2(d) = k^2
    G = [0] * (x_max + 1)
    for d in range(1, x_max + 1):
        for k in range(2 * d, x_max + 1, d):
            J2[k] -= J2[d]
    for d in range(1, x_max + 1):
        c = J2[d] * (L // d)
        for k in range(1, x_max // d + 1):
            G[d * k] += c * h[k]
    out = []
    L3 = L ** 3
    total = 0
    for x in range(1, x_max + 1):
        total += 2 * G[x] * (L // x) - L3
        assert total >= x * L3
        out.append(Fraction(total, 12 * x * x * L3))
    return out
