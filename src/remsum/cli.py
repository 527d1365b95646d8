"""Command line interface.

Exit codes: 0 success, 1 verification failure (a failed check or a violated
bound), 2 usage, parse or domain error (every other library error),
3 internal cross-check disagreement.

Output is deterministic: identical flags (and seed) produce byte-identical
output.  Floats are printed with 12 significant digits; exact values are
printed exactly.

Importing this module loads the exact core (`cfrac`, `sums`) only.  The
`verify`, `farey`, `measure`, `dirichlet` and `limits` layers load inside
the commands that use them, so `sum`, `bench` and `--help` run without
them; the choices of `verify --suite` are kept here as `SUITE_NAMES`, the
sorted names of `verify.SUITES`.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import json
import math
import sys
from fractions import Fraction

from . import cfrac, sums
from .errors import BoundViolated, RemsumError
from .exactnum import Scalar, format_scalar, is_rational, parse_scalar

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CROSSCHECK = 3

_BRUTE_CHECK_CAP = 200_000

# sorted(verify.SUITES), so that parsing the command line loads no `verify`
SUITE_NAMES = ["bounds", "dirichlet", "farey", "measure", "oracle"]


class UsageError(Exception):
    pass


_ECHO_CHARS = 60
_REASON_CHARS = 150


def _echo(text: str) -> str:
    """repr(text), cut to its first 60 characters and its length when it is
    longer: an error message never prints outside text back in full."""
    if len(text) <= _ECHO_CHARS:
        return repr(text)
    return f"{text[:_ECHO_CHARS]!r}... ({len(text)} characters)"


def parse_tspec(text: str) -> Scalar:
    """t specifications: "rat:p/q", "quad:(p+q*sqrt(d))/r", "cf:l0;l1,(per)".
    A bare scalar (no prefix) is also accepted.  Returns the exact t: a "cf:"
    spec is read as its exact value, so no expansion passes this edge."""
    text = text.strip()
    try:
        if text.startswith("rat:"):
            v = parse_scalar(text[4:])
            if not is_rational(v):
                raise ValueError("rat: spec must be rational")
            return v
        if text.startswith("quad:"):
            return parse_scalar(text[5:])
        if text.startswith("cf:"):
            return cfrac.value(cfrac.parse_cf(text[3:]))
        return parse_scalar(text)
    except (ValueError, ZeroDivisionError) as exc:
        reason = str(exc)  # parse_cf's reason repeats the whole text
        if len(reason) > _REASON_CHARS:
            reason = reason[:_REASON_CHARS] + "..."
        raise UsageError(f"cannot parse t specification {_echo(text)}: {reason}")


def _parse_range(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"range must be lo:hi, got {_echo(text)}")
    try:
        lo, hi = Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse range {_echo(text)}")
    if hi < lo:
        raise UsageError("range must satisfy lo <= hi")
    if max(-lo, hi) > sys.float_info.max:  # every x is printed as a float
        raise UsageError(f"range must lie within the float range (|x| <= {sys.float_info.max})")
    return lo, hi


def _grid(lo: Fraction, hi: Fraction, step: Fraction) -> tuple[int, range]:
    """The points lo + i*step in [lo, hi] as (D, numerators over D)."""
    if step <= 0:
        raise UsageError("step must be positive")
    count = int((hi - lo) / step)
    D = math.lcm(lo.denominator, step.denominator)
    first = lo.numerator * (D // lo.denominator)
    h = step.numerator * (D // step.denominator)
    return D, range(first, first + count * h + 1, h)


def _eta_float(i: int, D: int) -> float:
    """float(eta_tilde(i/D)) = r(r - D)/(2iD) with r = i mod D, and -1/2 at 0."""
    if i == 0:
        return -0.5
    r = i % D
    num, den = r * (r - D), 2 * i * D
    if den < 0:  # keep a zero numerator from rounding to -0.0
        num, den = -num, -den
    return num / den


def _eta_prime_float(i: int, D: int) -> float:
    """float(eta_tilde_prime(i/D)) = (i^2 - f(f+1)D^2)/(2i^2), f = floor(i/D);
    nan at the integers, where the derivative is undefined."""
    if i % D == 0:
        return math.nan
    f = i // D
    return (i * i - f * (f + 1) * D * D) / (2 * i * i)


def _open_out(path):
    if path:
        return open(path, "w")
    return contextlib.nullcontext(sys.stdout)


def _write_json(rec, path=None) -> None:
    with _open_out(path) as out:
        json.dump(rec, out, indent=2)
        print(file=out)


_METHODS = {
    "brute": lambda n, t: (sums.brute_S(n, t), None),
    "ostrowski": lambda n, t: sums.ostrowski_S(n, t),
    "bseq": lambda n, t: sums.bseq_S(n, t),
}


def _evaluate(n: int, t: Scalar, methods=None) -> tuple[dict, bool]:
    """S(n,t) by each method as {method: (S, trace)}, brute's trace None, and
    whether the values agree.  By default every method runs, brute (its n
    floors counted a block at a time, O(sqrt(n)) steps) only up to
    _BRUTE_CHECK_CAP."""
    if methods is None:
        methods = [m for m in _METHODS if m != "brute" or n <= _BRUTE_CHECK_CAP]
    results = {m: _METHODS[m](n, t) for m in methods}
    first = results[methods[0]][0]
    return results, all(s == first for s, _ in results.values())


# -- subcommands -----------------------------------------------------------


def cmd_sum(args) -> int:
    t, n = parse_tspec(args.t), args.n
    if is_rational(t):
        if args.method not in ("brute", "all"):
            raise UsageError("only --method brute applies to rational t")
        methods = ["brute"]  # one period of t: no cap
    else:
        methods = None if args.method == "all" else [args.method]
    results, agree = _evaluate(n, t, methods)
    print("method,S,B,steps")
    for m, (s, trace) in results.items():
        steps = n if trace is None else len(trace.steps)
        print(f"{m},{format_scalar(s)},{format_scalar(s / n if n else s)},{steps}")
    if args.trace:
        for m, (_, trace) in results.items():
            for st in trace.steps if trace else ():
                print(f"# {m} {st}")
    if not agree:
        print("cross-check disagreement between methods", file=sys.stderr)
        return EXIT_CROSSCHECK
    return EXIT_OK


def _plot_value(args, lo: Fraction, hi: Fraction, D: int):
    """(header, value): value(i) is the float plotted at x = i/D."""
    if args.which == "eta":
        return "x,value", functools.partial(_eta_float, D=D)
    if args.which == "etaprime":
        return "x,value", functools.partial(_eta_prime_float, D=D)
    if args.which == "h":
        from . import farey
        tables = farey.build_tables(max(1, math.ceil(max(abs(lo), abs(hi)))))
        return "x,h", lambda i: farey._h(i, D, tables)
    if args.a_over_b is None or args.rescale_n is None:
        raise UsageError("--which rescaled needs --a-over-b and --rescale-n")
    try:
        ab = Fraction(args.a_over_b)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse --a-over-b {_echo(args.a_over_b)}")
    from . import limits
    return "x,value", lambda i: float(
        limits.rescaled_eta(ab, args.rescale_n, Fraction(i, D)))


def cmd_plot(args) -> int:
    lo, hi = _parse_range(args.range)
    try:
        step = Fraction(args.step)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"cannot parse step {_echo(args.step)}")
    D, nums = _grid(lo, hi, step)
    header, value = _plot_value(args, lo, hi, D)
    with _open_out(args.out) as out:
        print(header, file=out)
        # the rows are made and written 4096 at a time, so no grid is held
        # whole; i / D rounds correctly, as float(Fraction(i, D)) does
        h = nums.step
        for k in range(nums.start, nums.stop, 4096 * h):
            out.write("".join(["%.12g,%.12g\n" % (i / D, value(i))
                               for i in range(k, min(k + 4096 * h, nums.stop), h)]))
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    report = verify.run_suite(args.suite, args.size, args.seed)
    if args.json:
        _write_json(report)
    else:
        for c in report["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            detail = f" ({c['detail']})" if c["detail"] else ""
            print(f"{status} {c['name']}{detail}")
        print(f"suite={report['suite']} size={report['size']} "
              f"seed={report['seed']} pass={report['pass']}")
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


def cmd_bench(args) -> int:
    t = parse_tspec(args.t)
    if is_rational(t):
        raise UsageError("bench needs irrational t")
    n_max, k = args.n_max, args.points - 1
    if n_max > sys.float_info.max:  # the points below n_max are floats
        raise UsageError(f"--n-max must be at most {sys.float_info.max}")
    # n_max^(i/k) in floats for i < k, and the last point n_max itself
    points = sorted({max(1, round(n_max ** (i / k))) for i in range(k)} | {n_max})
    with _open_out(args.out) as out:
        print("n,brute_ops,ostrowski_steps,bseq_steps,S", file=out)
        for n in points:
            # brute_S checks each point up to the cap, n floors counted a
            # block at a time
            results, agree = _evaluate(n, t)
            if not agree:
                print(f"cross-check disagreement at n={n}", file=sys.stderr)
                return EXIT_CROSSCHECK
            (s, tro), (_, trb) = results["ostrowski"], results["bseq"]
            print(f"{n},{n},{len(tro.steps)},{len(trb.steps)},{format_scalar(s)}",
                  file=out)
    return EXIT_OK


def cmd_farey(args) -> int:
    from . import farey

    if args.t is not None:
        t = parse_tspec(args.t)
        tables = farey.build_tables(args.n)
        count, identity = farey.farey_count(args.n, t, tables)
        rec = {"n": args.n, "t": format_scalar(t), "count": count,
               "identity": format_scalar(identity) if is_rational(identity)
               else "%.12g" % float(identity),
               "match": bool(identity == count)}
        _write_json(rec, args.out)
        return EXIT_OK if rec["match"] else EXIT_VERIFY_FAILED
    # the pairs are printed as they are walked: no list of the ~0.3 n^2 terms
    with _open_out(args.out) as out:
        print("numerator,denominator", file=out)
        out.writelines(f"{a},{b}\n" for a, b in farey._farey_pairs(args.n))
    return EXIT_OK


def _parse_alphas(text: str) -> tuple[int, ...]:
    try:
        al = tuple(int(a) for a in text.replace(";", ",").split(","))
    except ValueError:
        raise UsageError(f"cannot parse alphas {_echo(text)}")
    if not al or any(a < 1 for a in al):
        raise UsageError("alphas must be positive integers")
    return al


def cmd_measure(args) -> int:
    from . import measure

    with _open_out(args.out) as out:
        print("alphas,exact,lower,upper", file=out)
        for spec in args.alphas:
            ms = measure.measure_exact(_parse_alphas(spec))
            al = ";".join(str(a) for a in ms.alphas)
            print(f"{al},{format_scalar(ms.exact_measure)},"
                  f"{format_scalar(ms.lower_bound)},"
                  f"{format_scalar(ms.upper_bound)}", file=out)
    return EXIT_OK


def _parse_s(text: str) -> complex:
    spec = text.replace(" ", "")
    if spec.endswith("i"):  # 2+3i; the i of inf stays
        spec = spec[:-1] + "j"
    try:
        s = complex(spec)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse s value {_echo(text)}")
    if not cmath.isfinite(s):
        raise argparse.ArgumentTypeError(f"s must be finite, got {_echo(text)}")
    if not s.real > 0:
        raise argparse.ArgumentTypeError(f"s must have Re(s) > 0, got {_echo(text)}")
    return s


def _int_at_least(lo: int):
    """argparse type: an integer >= lo."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {_echo(text)}")
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {_echo(text)}")
        return v
    return parse


def cmd_dirichlet(args) -> int:
    from . import dirichlet

    t = parse_tspec(args.t)
    s = args.s
    K = args.K
    if args.mode == "evidence":
        out = dirichlet.continuation_evidence(t, [s], K)[0]
        rec = {"t": format_scalar(t), "s": str(s), "K": K, "mode": "evidence",
               "levels": out["levels"],
               "values": [[v.real, v.imag] for v in out["values"]],
               "cauchy_diffs": out["cauchy_diffs"],
               "decreasing": out["decreasing"]}
    else:
        if args.mode == "beta":
            ev = dirichlet.f_beta_partial(t, s, K)
        elif args.mode == "mellin":
            ev = dirichlet.f_beta_mellin(t, s, K)
        else:  # q
            from . import farey
            ev = dirichlet.f_q_partial(t, s, K, farey.build_tables(K))
        rec = {"t": format_scalar(t), "s": str(s), "K": ev.truncation_K,
               "mode": args.mode, "value_re": ev.value.real,
               "value_im": ev.value.imag, "tail_bound": ev.tail_bound,
               "tail_mode": ev.mode}
    _write_json(rec)
    return EXIT_OK


# -- parser ----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse repeats a rejected value in its message (an invalid choice, an
    unrecognized argument); the message is cut as a parse reason is."""

    def error(self, message):
        if len(message) > _REASON_CHARS:
            message = message[:_REASON_CHARS] + "..."
        super().error(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Reusing it is
    safe: each parse_args call fills a fresh Namespace, and help and errors
    look up sys.stdout and sys.stderr when they write."""
    p = _Parser(
        prog="remsum",
        description="Exact sawtooth remainder sums, Farey sequences, "
                    "continued fractions and Dirichlet series.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sum", help="evaluate S(n,t) and B_n(t)")
    ps.add_argument("--n", type=_int_at_least(0), required=True)
    ps.add_argument("--t", required=True, help="rat:p/q | quad:(p+q*sqrt(d))/r | cf:l0;l1,(per)")
    ps.add_argument("--method", choices=[*_METHODS, "all"], default="all")
    ps.add_argument("--trace", action="store_true")
    ps.set_defaults(func=cmd_sum)

    pp = sub.add_parser("plot", help="CSV profiles of eta, eta', h or the rescaled mean")
    pp.add_argument("--which", choices=["eta", "etaprime", "h", "rescaled"],
                    required=True)
    pp.add_argument("--range", required=True, help="lo:hi (fractions or decimals)")
    pp.add_argument("--step", required=True)
    pp.add_argument("--a-over-b", dest="a_over_b")
    pp.add_argument("--rescale-n", dest="rescale_n", type=int)
    pp.add_argument("--out")
    pp.set_defaults(func=cmd_plot)

    pv = sub.add_parser("verify", help="run a named verification suite")
    pv.add_argument("--suite", choices=SUITE_NAMES + ["all"],
                    default="all")
    pv.add_argument("--size", choices=["quick", "full"], default="quick")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pb = sub.add_parser("bench", help="compare oracle vs recursion costs")
    pb.add_argument("--t", required=True)
    pb.add_argument("--n-max", dest="n_max", type=_int_at_least(1), required=True)
    pb.add_argument("--points", type=_int_at_least(1), default=10)
    pb.add_argument("--out")
    pb.set_defaults(func=cmd_bench)

    pf = sub.add_parser("farey", help="Farey sequence dump or counting identity")
    pf.add_argument("--n", type=_int_at_least(1), required=True)
    pf.add_argument("--t", help="evaluate the counting identity at t")
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_farey)

    pm = sub.add_parser("measure", help="exact measures of bounded-quotient sets")
    pm.add_argument("--alphas", action="append", required=True,
                    help="comma-separated alpha list; repeatable")
    pm.add_argument("--out")
    pm.set_defaults(func=cmd_measure)

    pd = sub.add_parser("dirichlet", help="truncated Dirichlet series with tails")
    pd.add_argument("--t", required=True)
    pd.add_argument("--s", type=_parse_s, required=True,
                    help="complex with Re(s) > 0, e.g. 2 or 2+5j")
    pd.add_argument("--K", type=_int_at_least(1), default=2000)
    pd.add_argument("--mode", choices=["beta", "mellin", "q", "evidence"],
                    default="beta")
    pd.set_defaults(func=cmd_dirichlet)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BoundViolated as exc:
        print(f"verification failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except RemsumError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
