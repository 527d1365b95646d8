"""Command line interface.

Exit codes: 0 success, 1 verification failure (a failed check or a violated
bound), 2 usage, parse or domain error (every other library error),
3 internal cross-check disagreement.

Output is deterministic: identical flags (and seed) produce byte-identical
output.  Floats are printed with 12 significant digits; exact values are
printed exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction

from . import cfrac, dirichlet, farey, limits, measure, sums, verify
from .errors import BoundViolated, RemsumError
from .exactnum import Scalar, format_scalar, is_rational, parse_scalar

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_CROSSCHECK = 3

_BRUTE_CHECK_CAP = 200_000


class UsageError(Exception):
    pass


def parse_tspec(text: str) -> tuple[Scalar, cfrac.CFExpansion | None]:
    """t specifications: "rat:p/q", "quad:(p+q*sqrt(d))/r", "cf:l0;l1,(per)".
    A bare scalar (no prefix) is also accepted.  Returns (t, cf): cf is the
    parsed expansion of a "cf:" spec and None otherwise."""
    text = text.strip()
    try:
        if text.startswith("rat:"):
            v = parse_scalar(text[4:])
            if not is_rational(v):
                raise ValueError("rat: spec must be rational")
            return v, None
        if text.startswith("quad:"):
            return parse_scalar(text[5:]), None
        if text.startswith("cf:"):
            cf = cfrac.parse_cf(text[3:])
            return cfrac.value(cf), cf
        return parse_scalar(text), None
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse t specification {text!r}: {exc}")


def _parse_range(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"range must be lo:hi, got {text!r}")
    try:
        lo, hi = Fraction(parts[0]), Fraction(parts[1])
    except ValueError:
        raise UsageError(f"cannot parse range {text!r}")
    if hi < lo:
        raise UsageError("range must satisfy lo <= hi")
    return lo, hi


def _fmt_float(v: float) -> str:
    return "%.12g" % v


def _grid(lo: Fraction, hi: Fraction, step: Fraction) -> list[Fraction]:
    if step <= 0:
        raise UsageError("step must be positive")
    count = int((hi - lo) / step)
    return [lo + i * step for i in range(count + 1)]


def _open_out(path):
    if path:
        return open(path, "w")
    return contextlib.nullcontext(sys.stdout)


# -- subcommands -----------------------------------------------------------


def cmd_sum(args) -> int:
    t, cf = parse_tspec(args.t)
    n = args.n
    methods = ["brute", "ostrowski", "bseq"] if args.method == "all" else [args.method]
    if is_rational(t):
        methods = [m for m in methods if m == "brute"]
        if not methods:
            raise UsageError("only --method brute applies to rational t")
    results = {}
    traces = {}
    if cf is None and not is_rational(t):
        cf = cfrac.expand(t, 64)
    for m in methods:
        if m == "brute":
            results[m] = sums.brute_S(n, t)
        elif m == "ostrowski":
            results[m], traces[m] = sums.ostrowski_S(n, t, cf)
        else:
            results[m], traces[m] = sums.bseq_S(n, t)
    values = list(results.values())
    agree = all(v == values[0] for v in values)
    out = sys.stdout
    print("method,S,B,steps", file=out)
    for m in methods:
        steps = n if m == "brute" else len(traces[m].steps)
        s = results[m]
        print(f"{m},{format_scalar(s)},{format_scalar(s / n if n else s)},{steps}",
              file=out)
    if args.trace:
        for m in methods:
            if m in traces:
                for st in traces[m].steps:
                    print(f"# {m} {st}", file=out)
    if not agree:
        print("cross-check disagreement between methods", file=sys.stderr)
        return EXIT_CROSSCHECK
    return EXIT_OK


def cmd_plot(args) -> int:
    lo, hi = _parse_range(args.range)
    try:
        step = Fraction(args.step)
    except ValueError:
        raise UsageError(f"cannot parse step {args.step!r}")
    xs = _grid(lo, hi, step)
    with _open_out(args.out) as out:
        if args.which == "eta":
            print("x,value", file=out)
            for x in xs:
                print(f"{_fmt_float(float(x))},"
                      f"{_fmt_float(float(limits.eta_tilde(x)))}", file=out)
        elif args.which == "etaprime":
            print("x,value", file=out)
            for x in xs:
                if x.denominator == 1:
                    val = "nan"  # derivative undefined at integers
                else:
                    val = _fmt_float(float(limits.eta_tilde_prime(x)))
                print(f"{_fmt_float(float(x))},{val}", file=out)
        elif args.which == "h":
            nmax = max(1, int(math.ceil(max(abs(lo), abs(hi)))))
            tables = farey.build_tables(nmax)
            print("x,h", file=out)
            for x, hval in zip(xs, farey.h_values(xs, tables)):
                print(f"{_fmt_float(float(x))},{_fmt_float(hval)}", file=out)
        else:  # rescaled
            if args.a_over_b is None or args.rescale_n is None:
                raise UsageError("--which rescaled needs --a-over-b and --rescale-n")
            try:
                ab = Fraction(args.a_over_b)
            except ValueError:
                raise UsageError(f"cannot parse --a-over-b {args.a_over_b!r}")
            print("x,value", file=out)
            for x in xs:
                v = limits.rescaled_eta(ab, args.rescale_n, x)
                print(f"{_fmt_float(float(x))},"
                      f"{_fmt_float(float(v))}", file=out)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = verify.run_suite(args.suite, args.size, args.seed)
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        for c in report["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            detail = f" ({c['detail']})" if c["detail"] else ""
            print(f"{status} {c['name']}{detail}")
        print(f"suite={report['suite']} size={report['size']} "
              f"seed={report['seed']} pass={report['pass']}")
    return EXIT_OK if report["pass"] else EXIT_VERIFY_FAILED


def cmd_bench(args) -> int:
    t, cf = parse_tspec(args.t)
    if is_rational(t):
        raise UsageError("bench needs irrational t")
    if cf is None:
        cf = cfrac.expand(t, 64)
    tab = sums.OstrowskiTables(t, cf)
    points = sorted({max(1, int(round(args.n_max ** (i / (args.points - 1)))))
                     for i in range(args.points)}) if args.points > 1 else [args.n_max]
    with _open_out(args.out) as out:
        print("n,brute_ops,ostrowski_steps,bseq_steps,S", file=out)
        for n in points:
            vo, tro = sums.ostrowski_S(n, t, cf, tables=tab)
            vb, trb = sums.bseq_S(n, t)
            agree = vo == vb
            if n <= _BRUTE_CHECK_CAP:
                agree = agree and sums.brute_S(n, t) == vo
            if not agree:
                print(f"cross-check disagreement at n={n}", file=sys.stderr)
                return EXIT_CROSSCHECK
            print(f"{n},{n},{len(tro.steps)},{len(trb.steps)},"
                  f"{format_scalar(vo)}", file=out)
    return EXIT_OK


def cmd_farey(args) -> int:
    if args.t is not None:
        t, _ = parse_tspec(args.t)
        tables = farey.build_tables(args.n)
        count, identity = farey.farey_count(args.n, t, tables)
        rec = {"n": args.n, "t": format_scalar(t), "count": count,
               "identity": format_scalar(identity) if is_rational(identity)
               else _fmt_float(float(identity)),
               "match": bool(identity == count)}
        json.dump(rec, sys.stdout, indent=2)
        print()
        return EXIT_OK if rec["match"] else EXIT_VERIFY_FAILED
    with _open_out(args.out) as out:
        print("numerator,denominator", file=out)
        for fr in farey.farey(args.n).fractions:
            print(f"{fr.numerator},{fr.denominator}", file=out)
    return EXIT_OK


def _parse_alphas(text: str) -> tuple[int, ...]:
    try:
        al = tuple(int(a) for a in text.replace(";", ",").split(","))
    except ValueError:
        raise UsageError(f"cannot parse alphas {text!r}")
    if not al or any(a < 1 for a in al):
        raise UsageError("alphas must be positive integers")
    return al


def cmd_measure(args) -> int:
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
    try:
        s = complex(text.replace(" ", "").replace("i", "j"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse s value {text!r}")
    if not s.real > 0:
        raise argparse.ArgumentTypeError(f"s must have Re(s) > 0, got {text!r}")
    return s


def _int_at_least(lo: int):
    """argparse type: an integer >= lo."""
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
        if v < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {v}")
        return v
    return parse


def cmd_dirichlet(args) -> int:
    t, _ = parse_tspec(args.t)
    s = args.s
    K = args.K
    s0 = sums.s0_prefix(t, K)
    if args.mode == "evidence":
        out = dirichlet.continuation_evidence(t, [s], K, s0=s0)[0]
        rec = {"t": format_scalar(t), "s": str(s), "K": K, "mode": "evidence",
               "levels": out["levels"],
               "values": [[v.real, v.imag] for v in out["values"]],
               "cauchy_diffs": out["cauchy_diffs"],
               "decreasing": out["decreasing"]}
        json.dump(rec, sys.stdout, indent=2)
        print()
        return EXIT_OK
    if args.mode == "beta":
        ev = dirichlet.f_beta_partial(t, s, K, s0=s0)
    elif args.mode == "mellin":
        ev = dirichlet.f_beta_mellin(t, s, K, s0=s0)
    else:  # q
        tables = farey.build_tables(K)
        ev = dirichlet.f_q_partial(t, s, K, tables, s0=s0)
    rec = {"t": format_scalar(t), "s": str(s), "K": ev.truncation_K,
           "mode": args.mode, "value_re": ev.value.real,
           "value_im": ev.value.imag, "tail_bound": ev.tail_bound,
           "tail_mode": ev.mode}
    json.dump(rec, sys.stdout, indent=2)
    print()
    return EXIT_OK


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="remsum",
        description="Exact sawtooth remainder sums, Farey sequences, "
                    "continued fractions and Dirichlet series.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sum", help="evaluate S(n,t) and B_n(t)")
    ps.add_argument("--n", type=_int_at_least(0), required=True)
    ps.add_argument("--t", required=True, help="rat:p/q | quad:(p+q*sqrt(d))/r | cf:l0;l1,(per)")
    ps.add_argument("--method", choices=["brute", "ostrowski", "bseq", "all"],
                    default="all")
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
    pv.add_argument("--suite", choices=sorted(verify.SUITES) + ["all"],
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
