"""The benchmark's three workloads.

Each workload turns a seed into input text (`generate`), turns the text into
program values (`decode`, the part of set-up the program pays for), runs one
pass over its items as a closed loop (`run_pass`: each item starts when the
previous one has finished) and checks the outputs against the oracle
(`check`, untimed).  Only `run_pass` is timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIGESTS = Path(__file__).resolve().parent / "reference_digests.json"


class Pass:
    """Timings and outputs of one pass over a workload's items."""

    def __init__(self):
        self.keys: list = []
        self.latencies: list[float] = []
        self.cal: list[float] = []  # calibration sample taken just before each item
        self.outputs: dict = {}
        self.failures: dict = {}  # item key -> first problem found
        self.wall = 0.0

    def item(self, key, fn, tracer=None):
        """Run one item, timing it; an exception is a failure."""
        if tracer is not None:
            tracer.item = len(self.latencies)
        self.cal.append(calibration_sample())
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:  # an item that raises counts as failed
            out = None
            self.fail(key, f"{type(exc).__name__}: {exc}")
        self.latencies.append(time.perf_counter() - t0)
        self.keys.append(key)
        self.outputs[key] = out
        return out

    def fail(self, key, message: str):
        self.failures.setdefault(key, message)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _quotient(rng: random.Random) -> int:
    """Partial quotient log-uniform in [1, 10^3]."""
    return min(1000, int(10 ** rng.uniform(0, 3)))


class Workload:
    """`run_pass(inputs, tracer=None, keys=None)` runs the items whose keys
    are in `keys` (all when None), in the same order."""

    def comparable(self, inputs, key, out):
        """The part of an item's output that must repeat from pass to pass."""
        return out


# -- point-queries -----------------------------------------------------------


class PointQueries(Workload):
    """Exact S(n,t) queries: parse t, expand it, run both O(log n) recursions
    and cross-check them."""

    name = "point-queries"
    items_per_pass = 300
    oracle_samples = 24
    oracle_n_max = 10 ** 5

    def __init__(self, small: bool = False):
        if small:
            self.items_per_pass, self.oracle_samples = 12, 3

    def generate(self, seed: int) -> str:
        # Stratified draws: every pass holds the same share of each pre-period
        # length, period length and decade of n, so that the cost of a pass
        # varies little from seed to seed while each item stays random.
        rng = random.Random(f"{self.name}:{seed}")
        count = self.items_per_pass

        def balanced(values):
            out = [values[i % len(values)] for i in range(count)]
            rng.shuffle(out)
            return out

        pre_lens, period_lens = balanced([0, 1, 2]), balanced([1, 2, 3, 4, 5, 6])
        log_n = balanced([1 + 17 * (i + rng.random()) / count for i in range(count)])
        lines = []
        for a, b, e in zip(pre_lens, period_lens, log_n):
            pre = [_quotient(rng) for _ in range(a)]
            period = [_quotient(rng) for _ in range(b)]
            lines.append(f"{oracle.quad_from_cf(pre, period)} {int(10 ** e)}")
        return "\n".join(lines) + "\n"

    def decode(self, text: str):
        return [(t, int(n)) for t, n in (line.split() for line in text.splitlines())]

    def run_pass(self, inputs, tracer=None, keys=None) -> Pass:
        from remsum import cfrac, exactnum, sums

        def query(t_text, n):
            t = exactnum.parse_scalar(t_text)
            cf = cfrac.expand(t, 64)
            so = sums.ostrowski_S(n, t, cf)[0]
            sb = sums.bseq_S(n, t)[0]
            if so != sb:
                raise AssertionError(f"ostrowski_S {so} != bseq_S {sb}")
            return so

        run = Pass()
        for i, (t_text, n) in enumerate(inputs):
            if keys is None or i in keys:
                run.item(i, lambda: query(t_text, n), tracer)
        return run

    def check(self, inputs, passes, seed: int) -> None:
        from remsum import exactnum

        small = [i for i, (_, n) in enumerate(inputs) if n <= self.oracle_n_max]
        rng = random.Random(f"{self.name}:oracle:{seed}")
        picked = sorted(rng.sample(small, min(self.oracle_samples, len(small))))
        for i in picked:
            t_text, n = inputs[i]
            expected = oracle.S(oracle.parse(t_text), n)
            for run in passes:
                got = run.outputs.get(i)
                if got is not None and not oracle.same_value(exactnum.format_scalar(got),
                                                             expected):
                    run.fail(i, f"S({n}, {t_text}) = {got} disagrees with the oracle")


# -- prefix-series -----------------------------------------------------------


CORPUS = {"golden": "(-1+1*sqrt(5))/2", "sqrt2m1": "(-1+1*sqrt(2))/1",
          "sqrt3m1": "(-1+1*sqrt(3))/1"}
# Re s bands of the seeded s grid: two in the strip, one in (1, 3/2], two
# where f_q_partial's tail bound holds
S_BANDS = ((0.3, 1.0), (0.3, 1.0), (1.1, 1.5), (1.6, 3.0), (1.6, 3.0))


class PrefixSeries(Workload):
    """O(K) prefix sweeps and Dirichlet partial sums for a set of t."""

    name = "prefix-series"
    K = 600
    bounded = 3
    oracle_indices = 40

    def __init__(self, small: bool = False):
        if small:
            self.K, self.bounded, self.oracle_indices = 120, 1, 5

    def generate(self, seed: int) -> str:
        rng = random.Random(f"{self.name}:{seed}")
        lines = [f"K {self.K}"]
        lines += [f"t {label} {text}" for label, text in CORPUS.items()]
        for i in range(self.bounded):
            period = [rng.randint(1, 3) for _ in range(3)]
            lines.append(f"t bounded{i} {oracle.quad_from_cf((), period)}")
        b = rng.randint(100, 999)
        lines.append(f"t rational {Fraction(rng.randint(1, b - 1), b)}")
        for lo, hi in S_BANDS:
            lines.append(f"s {rng.uniform(lo, hi):.3f}{rng.uniform(-10, 10):+.3f}j")
        return "\n".join(lines) + "\n"

    def decode(self, text: str):
        from remsum import exactnum

        K, ts, grid = 0, [], []
        for line in text.splitlines():
            kind, *rest = line.split()
            if kind == "K":
                K = int(rest[0])
            elif kind == "t":
                ts.append((rest[0], rest[1], exactnum.parse_scalar(rest[1])))
            else:
                grid.append(complex(rest[0]))
        return K, ts, grid

    def run_pass(self, inputs, tracer=None, keys=None) -> Pass:
        """Always the whole pass: later items use the outputs of earlier ones."""
        from remsum import cfrac, dirichlet, exactnum, farey, sums

        K, ts, grid = inputs
        run = Pass()
        tables = run.item("build_tables", lambda: farey.build_tables(K), tracer)
        for label, _, t in ts:
            s0 = run.item(("s0_prefix", label), lambda: sums.s0_prefix(t, K), tracer)
            if not exactnum.is_rational(t):
                run.item(("sweep", label), lambda: sums.ostrowski_sweep(
                    t, cfrac.expand(t, 64), K, validate=True), tracer)
            for s in grid:
                run.item(("f_beta_partial", label, s),
                         lambda: dirichlet.f_beta_partial(t, s, K, s0=s0), tracer)
            for s in grid:
                run.item(("f_beta_mellin", label, s),
                         lambda: dirichlet.f_beta_mellin(t, s, K, s0=s0), tracer)
            for s in grid:
                if s.real > 1.5:
                    run.item(("f_q_partial", label, s), lambda: dirichlet.f_q_partial(
                        t, s, K, tables, s0=s0), tracer)
            run.item(("continuation", label),
                     lambda: dirichlet.continuation_evidence(t, grid, K, s0=s0), tracer)
        return run

    def check(self, inputs, passes, seed: int) -> None:
        import mpmath
        from remsum import exactnum

        K, ts, grid = inputs
        rng = random.Random(f"{self.name}:oracle:{seed}")

        def close(run, key, got, ref):
            value, slack = ref
            if not abs(got - value) <= slack:
                run.fail(key, f"{got} vs reference {value} (slack {slack:.3g})")

        mu = oracle.mobius(K)
        with mpmath.workdps(30):
            refs = [oracle.SeriesReference(s, K) for s in grid]
            for label, text, _ in ts:
                t = oracle.parse(text)
                F = oracle.floor_prefix(t, K)
                idx = sorted(rng.sample(range(1, K + 1), self.oracle_indices - 1) + [K])
                b0 = oracle.beta0_terms(t, F)
                S0 = [mpmath.mpf(0)]
                for k in range(1, K + 1):
                    S0.append(S0[-1] + b0[k])
                q = oracle.q_terms(b0, mu)
                b0_abs, S0_abs, q_abs = ([abs(float(x)) for x in v] for v in (b0, S0, q))
                levels = [max(K // 25, 2), max(K // 5, 3), K]  # continuation_evidence's
                want = {}
                for s, ref in zip(grid, refs):
                    want["f_beta_partial", s] = ref.dirichlet(b0, b0_abs, K)
                    abel = ref.abel(S0, S0_abs, levels)
                    want["f_beta_mellin", s] = abel[K]
                    want["continuation", s] = [abel[L] for L in levels]
                    if s.real > 1.5:
                        want["f_q_partial", s] = ref.dirichlet(q, q_abs, K)
                for run in passes:
                    out = run.outputs
                    for kind in ("s0_prefix", "sweep"):
                        got = out.get((kind, label))
                        if got is None:
                            continue
                        seq = got if kind == "s0_prefix" else got[0]
                        for n in idx:
                            exact = oracle.exact_S(t, n, F[n], zero_at_integers=True)
                            if not oracle.same_value(exactnum.format_scalar(seq[n]), exact):
                                run.fail((kind, label), f"n={n} disagrees with the oracle")
                                break
                    for s in grid:
                        for kind in ("f_beta_partial", "f_beta_mellin", "f_q_partial"):
                            got = out.get((kind, label, s))
                            if got is not None:
                                close(run, (kind, label, s), got.value, want[kind, s])
                    for rec, s in zip(out.get(("continuation", label)) or (), grid):
                        if rec["levels"] != levels:
                            run.fail(("continuation", label), f"levels {rec['levels']}")
                        for value, ref in zip(rec["values"], want["continuation", s]):
                            close(run, ("continuation", label), value, ref)


# -- cli-verify --------------------------------------------------------------


README_EXAMPLES = [
    ["sum", "--n", "100", "--t", "quad:(-1+1*sqrt(5))/2"],
    ["sum", "--n", "10", "--t", "rat:7/10", "--method", "brute"],
    ["plot", "--which", "eta", "--range=-8:8", "--step", "0.001"],
    ["plot", "--which", "h", "--range", "0:500", "--step", "0.25"],
    ["verify", "--suite", "all", "--size", "quick"],
    ["bench", "--t", "cf:0;(2)", "--n-max", "100000"],
    ["farey", "--n", "5"],
    ["farey", "--n", "3", "--t", "rat:2/5"],
    ["measure", "--alphas", "2,2", "--alphas", "3,4"],
    ["dirichlet", "--t", "cf:0;(1)", "--s", "2+5j", "--K", "10000", "--mode", "beta"],
]
VERIFY_SUITES = ("oracle", "bounds", "measure", "farey", "dirichlet")
CF_SPEC_RE = re.compile(r"^cf:0;((?:\d+,)*)\((\d+(?:,\d+)*)\)$")


def _batch_argv(kind: str, i: int, u: float, rng: random.Random) -> list[str]:
    """The i-th short invocation of a kind; i and u in [0, 1) set its cost,
    the seed (through rng) only arguments that barely change it."""
    if kind == "sum":
        # a one-term period keeps the radicand small; its quotient still
        # moves the cost by 10-15%, so it follows i
        return ["sum", "--n", str(int(10 ** (1 + 3.7 * u))), "--t", f"cf:0;({1 + i % 9})"]
    if kind == "farey":
        b = rng.randint(2, 60)
        return ["farey", "--n", str(3 + int(28 * u)), "--t", f"rat:{rng.randint(0, b)}/{b}"]
    if kind == "measure":
        # its cost grows steeply with the alphas, so they follow i alone
        return ["measure", "--alphas", ",".join(str(2 + (i + m) % 5) for m in range(1 + int(3 * u)))]
    if kind == "dirichlet":
        s = f"{rng.uniform(0.5, 3):.3f}{rng.uniform(-8, 8):+.3f}j"
        return ["dirichlet", "--t", f"cf:0;({1 + i % 5})", "--s", s,
                "--K", str(200 + int(600 * u)), "--mode", ("beta", "mellin", "q", "evidence")[i % 4]]
    hi = 2 + int(19 * u)
    return ["plot", "--which", ("eta", "etaprime", "h")[i % 3], f"--range=-{hi}:{hi}",
            "--step", f"1/{2 + 14 * i // 16}"]


def _normalized_stdout(argv: list[str], out: str) -> str:
    """stdout as the digest sees it: `bench` loses its wall-time columns."""
    if argv[0] != "bench":
        return out
    lines = out.splitlines()
    keep = [i for i, col in enumerate(lines[0].split(",")) if not col.endswith("_ms")]
    return "\n".join(",".join(row.split(",")[i] for i in keep) for row in lines) + "\n"


def digest(argv: list[str], out: str) -> str:
    return hashlib.sha256(_normalized_stdout(argv, out).encode()).hexdigest()


def _oracle_t(spec: str):
    """Oracle value for the t specs the workload uses, or None."""
    if spec.startswith(("rat:", "quad:")):
        return oracle.parse(spec.split(":", 1)[1])
    m = CF_SPEC_RE.match(spec)
    if m:
        pre = [int(c) for c in m.group(1).split(",") if c]
        return oracle.parse(oracle.quad_from_cf(pre, [int(c) for c in m.group(2).split(",")]))
    return None


class CliVerify(Workload):
    """CLI invocations, one at a time, through `remsum.cli.main` in this
    process (argparse, command and output formatting; interpreter start-up
    and imports are what set-up measures)."""

    name = "cli-verify"
    batch = 85
    oracle_n_max = 10 ** 5

    def __init__(self, small: bool = False):
        self.small = small
        if small:
            self.batch = 5  # one of each kind

    def generate(self, seed: int) -> str:
        rng = random.Random(f"{self.name}:{seed}")
        if self.small:
            argvs = [["verify", "--suite", "farey", "--size", "quick", "--seed", str(seed)],
                     README_EXAMPLES[0], README_EXAMPLES[6]]
        else:
            argvs = [["verify", "--suite", s, "--size", "quick", "--seed", str(seed)]
                     for s in VERIFY_SUITES] + README_EXAMPLES
        # Each kind runs the same sizes and modes on every seed (size j is
        # the midpoint of the j-th of equal slices of [0, 1)), so that the
        # short invocations, whose middle sets item_p50_ms and whose
        # heaviest decide item_p90_ms, cost alike on every seed; the seed
        # picks their other arguments and their order.
        kinds = ("sum", "farey", "measure", "dirichlet", "plot")
        per_kind = self.batch // len(kinds)
        batch = [_batch_argv(kind, j, (j + 0.5) / per_kind, rng)
                 for j in range(per_kind) for kind in kinds]
        rng.shuffle(batch)
        argvs += batch
        return "".join(json.dumps(a) + "\n" for a in argvs)

    def decode(self, text: str):
        return [json.loads(line) for line in text.splitlines()]

    def comparable(self, inputs, key, out):
        return out and (out[0], _normalized_stdout(inputs[key], out[1]))

    def run_pass(self, inputs, tracer=None, keys=None) -> Pass:
        run = Pass()
        for i, argv in enumerate(inputs):
            if keys is None or i in keys:
                run.item(i, lambda: self.run_in_process(argv), tracer)
        return run

    @staticmethod
    def run_subprocess(argv):
        """`python -m remsum ...`, as make_reference.py records the digests."""
        proc = subprocess.run([sys.executable, "-m", "remsum", *argv], cwd=ROOT,
                              env=child_env(), capture_output=True, text=True)
        return proc.returncode, proc.stdout, proc.stderr

    @staticmethod
    def run_in_process(argv):
        from remsum import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
        return rc, out.getvalue(), err.getvalue()

    def check(self, inputs, passes, seed: int) -> None:
        reference = json.loads(REFERENCE_DIGESTS.read_text())
        prefixes: dict = {}

        def oracle_S(t, n):
            key = str(t)
            if len(prefixes.get(key, ())) <= n:
                prefixes[key] = oracle.floor_prefix(t, max(n, 1000))
            return oracle.exact_S(t, n, prefixes[key][n])

        for run in passes:
            for i, argv in enumerate(inputs):
                if run.outputs.get(i) is None:
                    continue
                rc, out, err = run.outputs[i]
                cmd = " ".join(argv)
                problems = []
                if rc != 0:
                    problems.append(f"exit code {rc}: {err.strip()[-200:]}")
                lines = out.splitlines()
                if argv[0] == "verify":
                    if not lines or not lines[-1].endswith("pass=True") or any(
                            not line.startswith("PASS ") for line in lines[:-1]):
                        problems.append("verify reported a failure")
                elif argv[0] in ("sum", "bench") and lines:
                    t = _oracle_t(argv[argv.index("--t") + 1])
                    cols = lines[0].split(",")
                    rows = [dict(zip(cols, line.split(","))) for line in lines[1:]
                            if not line.startswith("#")]
                    if argv[0] == "sum" and len({r["S"] for r in rows}) != 1:
                        problems.append("methods disagree")
                    for r in rows:
                        n = int(argv[argv.index("--n") + 1]) if argv[0] == "sum" else int(r["n"])
                        if t is not None and n <= self.oracle_n_max and \
                                not oracle.same_value(r["S"], oracle_S(t, n)):
                            problems.append(f"S at n={n} disagrees with the oracle")
                ref = reference.get(json.dumps(argv))
                if ref is not None and ref != digest(argv, out):
                    problems.append("stdout differs from the reference digest")
                if problems:
                    run.fail(i, f"{cmd}: " + "; ".join(problems))


WORKLOADS = {w.name: w for w in (PointQueries, PrefixSeries, CliVerify)}


def setup_probe(name: str, seed: int) -> None:
    """Print the seconds a fresh process takes to import remsum and decode
    the workload's generated input text (input generation is not timed),
    and for cli-verify to import `remsum.cli` and answer `--help`; then the
    median of SETUP_CAL_SAMPLES calibration samples taken next."""
    wl = WORKLOADS[name]()
    text = wl.generate(seed)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import remsum  # noqa: F401

    wl.decode(text)
    if name == "cli-verify":
        rc, out, _ = wl.run_in_process(["--help"])
        if rc != 0 or not out:
            raise RuntimeError("remsum --help failed")
    elapsed = time.perf_counter() - t0
    print(elapsed, statistics.median(calibration_sample() for _ in range(SETUP_CAL_SAMPLES)))


# -- machine speed -----------------------------------------------------------
#
# The machine is a shared VM whose speed drifts by 30-50% within seconds.
# Every timed item is preceded by a calibration sample: the time of a fixed
# pure-Python loop that does not touch remsum.  run.py scales each time by
# CAL_REF_S over the calibration time measured next to it, which gives the
# time the item would take at the reference speed, the speed at which the
# loop takes CAL_REF_S.  A change to remsum moves the scaled times as much as
# the raw ones; a change in the machine's speed moves both the item and its
# calibration and cancels out.

CAL_REF_S = 0.0005  # the loop's time in a calm stretch of the 2-core VM
SETUP_CAL_SAMPLES = 15


def calibration_loop(n: int = 1500) -> int:
    """Fixed integer and dict work (its one small dict is the only container
    it allocates, so it hardly moves the garbage collector's counters)."""
    x, slots = 1, {}
    for i in range(n):
        x = (x * 1000003 + i) % 10 ** 30
        slots[i & 63] = x
    return x


def calibration_sample() -> float:
    """Seconds one calibration loop takes now."""
    t0 = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - t0
