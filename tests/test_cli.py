import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from remsum import cli, limits, measure, sums
from remsum.exactnum import QuadExt


# t = sqrt(10^9 + 7)/40000: its expansion has no period within 64 terms
LONG_PERIOD = "quad:(0+1*sqrt(1000000007))/40000"

DATA = Path(__file__).parent / "data"

# exact stdout of `sum ... --trace` for four t specs, n up to 10^15
SUM_TRACES = json.loads((DATA / "sum_trace.json").read_text())

# sha256 of the stdout of three plot grids, four Dirichlet records, two
# Farey counting identities and one bench table; CI checks the same argv
# with `sha256sum -c`
PLOT_DIGESTS = {
    "plot_rescaled.csv.sha256": ("plot", "--which", "rescaled", "--range=-3:3",
                                 "--step", "1/7", "--a-over-b", "2/5",
                                 "--rescale-n", "50"),
    "plot_etaprime.csv.sha256": ("plot", "--which", "etaprime", "--range=-7/3:5",
                                 "--step", "1/9"),
    # h on a symmetric range, past the README's
    "plot_h_symmetric.csv.sha256": ("plot", "--which", "h", "--range=-600:600",
                                    "--step", "1/3"),
}
# rational t, and S0 at Re(s) <= 1
DIRICHLET_DIGESTS = {
    "dirichlet_rational_mellin.json.sha256": (
        "dirichlet", "--t", "rat:377/991", "--s", "0.7+2j", "--K", "20000",
        "--mode", "mellin"),
    # negative lambda0 and a pre-period; the JSON prints t's canonical form
    "dirichlet_cf_preperiod_beta.json.sha256": (
        "dirichlet", "--t", "cf:-3;2,5,9,(1,1,4)", "--s", "2+1j", "--K", "5000",
        "--mode", "beta"),
    # both sides of the power budget: at K = 2^17 the 2K - 1 powers and
    # differences of s are kept, at K = 2^17 + 1 they are computed as read
    "dirichlet_mellin_K131072.json.sha256": (
        "dirichlet", "--t", "cf:0;(1)", "--s", "0.7+2j", "--K", "131072",
        "--mode", "mellin"),
    "dirichlet_evidence_K131073.json.sha256": (
        "dirichlet", "--t", "cf:0;(1)", "--s", "0.7+2j", "--K", "131073",
        "--mode", "evidence"),
}
# the counting identity at a quadratic t with negative q, and at a rational t
FAREY_DIGESTS = {
    "farey_golden_conjugate.json.sha256": (
        "farey", "--n", "200", "--t", "quad:(-1+1*sqrt(5))/2"),
    "farey_rational.json.sha256": ("farey", "--n", "300", "--t", "rat:377/991"),
}
# a t with no period within 64 terms, every point brute-checked, and two t
# up to n = 10^18, where only the two recursions run
BENCH_DIGESTS = {
    "bench_long_period.csv.sha256": ("bench", "--t", LONG_PERIOD,
                                     "--n-max", "100000"),
    "bench_golden_n1e18.csv.sha256": ("bench", "--t", "cf:0;(1)",
                                      "--n-max", str(10 ** 18)),
    "bench_preperiod_n1e18.csv.sha256": ("bench", "--t", "cf:0;2,(1,3,7)",
                                         "--n-max", str(10 ** 18)),
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTSpec:
    def test_grammar(self):
        assert cli.parse_tspec("rat:7/10") == F(7, 10)
        assert cli.parse_tspec("quad:(-1+1*sqrt(5))/2") == QuadExt(-1, 1, 5, 2)
        assert cli.parse_tspec("cf:0;(1)") == QuadExt(-1, 1, 5, 2)
        assert cli.parse_tspec("3/4") == F(3, 4)

    def test_errors(self):
        with pytest.raises(cli.UsageError):
            cli.parse_tspec("bogus")
        with pytest.raises(cli.UsageError):
            cli.parse_tspec("rat:(0+1*sqrt(2))/1")


class TestSum:
    def test_all_methods_agree(self, capsys):
        for n, spec in (("100", "quad:(-1+1*sqrt(5))/2"), ("1000", LONG_PERIOD)):
            code, out, _ = run(capsys, "sum", "--n", n, "--t", spec)
            assert code == 0
            lines = out.strip().splitlines()
            assert lines[0] == "method,S,B,steps"
            values = {ln.split(",")[0]: ln.split(",")[1] for ln in lines[1:]}
            assert values["brute"] == values["ostrowski"] == values["bseq"]

    def test_rational_is_brute_only(self, capsys):
        code, out, _ = run(capsys, "sum", "--n", "10", "--t", "rat:7/10")
        assert code == 0
        assert [ln.split(",")[0] for ln in out.strip().splitlines()[1:]] \
            == ["brute"]
        assert "-1/2," in out or ",-1/2" in out.splitlines()[1]

    def test_exact_value_printed(self, capsys):
        _, out, _ = run(capsys, "sum", "--n", "3", "--t", "rat:1/3",
                        "--method", "brute")
        assert out.strip().splitlines()[1].split(",")[1] == "-1/2"

    def test_usage_error_exit_2(self, capsys):
        # the interpreter's int-str limit stays on parsed text: an integer
        # one digit longer than it allows is a usage error
        over = "1" + "0" * sys.get_int_max_str_digits()
        for spec in ("junk", f"rat:{over}/7"):
            code, _, err = run(capsys, "sum", "--n", "5", "--t", spec)
            assert code == 2 and "cannot parse" in err

    @pytest.mark.parametrize("spec", [
        "rat:1" + "0" * sys.get_int_max_str_digits() + "/7",
        "rat:" + "x" * 5000,  # int()'s reason repeats 200 characters
        "cf:0;" + "x" * 100_000,  # parse_cf's reason repeats the text
    ], ids=["int-str-limit", "bad-int", "long-cf"])
    def test_usage_error_echoes_a_prefix_of_long_text(self, capsys, spec):
        code, _, err = run(capsys, "sum", "--n", "5", "--t", spec)
        assert code == 2 and err.startswith("error: cannot parse")
        assert f"{spec[:60]!r}... ({len(spec)} characters)" in err
        assert len(err.encode()) < 300

    def test_out_of_range_n_echoes_a_prefix(self, capsys):
        n = "-1" + "0" * 4000
        code, _, err = run(capsys, "sum", "--n", n, "--t", "rat:1/3")
        assert code == 2 and f"got {n[:60]!r}... (4002 characters)" in err
        assert len(err.encode()) < 600  # the usage line comes first

    def test_cf_spec_past_the_expansion_limit(self, capsys):
        # a period of 65 terms: re-expanding t with the 64-term limit fails
        period = ",".join(str(1 + i % 9) for i in range(64)) + ",9"
        code, out, _ = run(capsys, "sum", "--n", "10", "--t", f"cf:0;({period})")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["brute", "ostrowski", "bseq"]
        assert len({r[1] for r in rows}) == 1

    def test_all_skips_brute_past_the_check_cap(self):
        # brute_S is O(n): at n = 10^15 it would not finish.  The second t
        # has no period within 64 terms, so only its orbit drives ostrowski
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        for n, spec in (("1000000000000000", "cf:0;(1)"),
                        ("1000000000000000000", LONG_PERIOD)):
            proc = subprocess.run(
                [sys.executable, "-m", "remsum", "sum", "--n", n, "--t", spec],
                capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            rows = [ln.split(",") for ln in proc.stdout.strip().splitlines()[1:]]
            assert [r[0] for r in rows] == ["ostrowski", "bseq"]
            assert rows[0][1] == rows[1][1]

    @pytest.mark.parametrize("spec, t", [
        ("rat:7/10", F(7, 10)),
        ("quad:(1+1*sqrt(1018081))/2000", F(101, 200)),  # square radicand
    ])
    def test_rational_brute_sums_one_period(self, spec, t):
        # brute_S walks at most one period of a rational t, not all n terms
        n = 10 ** 18 + 3
        env = dict(os.environ,
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "remsum", "sum", "--n", str(n), "--t", spec],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        S = sums.exact_S(n, t)
        assert proc.stdout.splitlines()[1:] == [
            f"brute,{S.numerator}/{S.denominator},{S / n},{n}"]

    @pytest.mark.parametrize("case", SUM_TRACES,
                             ids=lambda c: " ".join(c["argv"][1:-1]))
    def test_trace_stdout_is_pinned(self, capsys, case):
        code, out, _ = run(capsys, *case["argv"])
        assert code == 0 and out == case["stdout"]


@pytest.mark.parametrize("argv", [
    ("sum", "--n", "-1", "--t", "rat:1/3"),
    ("farey", "--n", "0"),
    ("dirichlet", "--t", "cf:0;(1)", "--s", "0"),
    ("dirichlet", "--t", "cf:0;(1)", "--s", "2", "--K", "0"),
    ("dirichlet", "--t", "cf:0;(1)", "--s", "1e400"),
    ("dirichlet", "--t", "cf:0;(1)", "--s", "2+1e400j"),
    ("bench", "--t", "cf:0;(2)", "--n-max", "-5"),
])
def test_out_of_range_numbers_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error: argument" in err and "Traceback" not in err


@pytest.mark.parametrize("s_arg", ["--s=inf", "--s=-inf", "--s=2+infj"])
def test_infinite_s_reaches_the_finite_check(capsys, s_arg):
    code, _, err = run(capsys, "dirichlet", "--t", "cf:0;(1)", s_arg)
    assert code == 2
    assert "s must be finite" in err and "Traceback" not in err


def test_s_accepts_a_trailing_i(capsys):
    argv = ("dirichlet", "--t", "cf:0;(1)", "--K", "50", "--s")
    code, out, _ = run(capsys, *argv, "2+3i")
    assert code == 0 and out == run(capsys, *argv, "2+3j")[1]


@pytest.mark.parametrize("argv", [
    ("plot", "--which", "rescaled", "--range", "0:1", "--step", "0.5",
     "--a-over-b", "1/2", "--rescale-n", "0"),
    ("sum", "--n", "5", "--t", "cf:1;(1)"),
    ("sum", "--n", "5", "--t", "quad:(0+1*sqrt(5))/1", "--method", "bseq"),
    ("measure", "--alphas", "5000,5000,5000"),
    ("farey", "--n", "5", "--t=-1/2"),
    ("plot", "--which", "eta", "--range", "0:1", "--step", "1/0"),
    ("plot", "--which", "eta", "--range=1/0:2", "--step", "1"),
    ("plot", "--which", "rescaled", "--range", "0:1", "--step", "1/2",
     "--a-over-b", "1/0", "--rescale-n", "5"),
    ("dirichlet", "--t", "cf:0;(1)", "--s", "0.7+3i", "--K", "1", "--mode", "evidence"),
    ("dirichlet", "--t", "cf:0;(1)", "--s", "0.7+3i", "--K", "2", "--mode", "evidence"),
    ("dirichlet", "--t", "cf:0;(1)", "--s", "0.7+3i", "--K", "3", "--mode", "evidence"),
    # sieve tables of more than sys.maxsize entries
    ("plot", "--which", "h", "--range", "0:1e19", "--step", "1e19"),
    ("farey", "--n", "10000000000000000000", "--t", "rat:1/3"),
    ("dirichlet", "--t", "rat:1/3", "--s", "2", "--K", "10000000000000000000",
     "--mode", "q"),
    # below sys.maxsize, but far past any memory: the allocation fails at once
    ("farey", "--n", "1000000000000000000", "--t", "rat:1/3"),
    ("plot", "--which", "h", "--range", "0:1e18", "--step", "1e18"),
    ("dirichlet", "--t", "rat:1/3", "--s", "2", "--K", "1000000000000000000",
     "--mode", "q"),
    ("dirichlet", "--t", "cf:0;(1)", "--s", "2", "--K", "1000000000000000000",
     "--mode", "beta"),
    ("dirichlet", "--t", "rat:1/3", "--s", "2", "--K", "1000000000000000000",
     "--mode", "mellin"),
])
def test_library_errors_outside_verification_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("sum", "--n", "5", "--t", "rat:1/3", "--method", "{}"),
    ("plot", "--which", "{}", "--range", "0:1", "--step", "1"),
    ("dirichlet", "--t", "cf:0;(1)", "--s", "2", "--mode", "{}"),
    ("verify", "--suite", "{}"),
    ("verify", "--size", "{}"),
    ("{}",),
    ("sum", "--n", "5", "--t", "rat:1/3", "{}"),
    ("plot", "--which", "eta", "--range", "0:1", "--step", "1", "--rescale-n", "{}"),
], ids=["method", "which", "mode", "suite", "size", "command", "unrecognized",
        "rescale-n"])
def test_argparse_errors_cut_a_long_value(capsys, argv):
    # argparse repeats a rejected value in its message; the CLI cuts it
    code, _, err = run(capsys, *(a.format("x" * 5000) for a in argv))
    assert code == 2 and "error: " in err and "x" * 200 not in err
    assert len(err.encode()) < 600


def test_reused_parser_matches_fresh_processes(capsys, monkeypatch):
    # main parses every argv with the one parser of this process, while each
    # subprocess builds its own: state left behind by one call would show
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to one width in both
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    t = ("--t", "cf:0;(1)")
    for argv in (("sum", "--n", "30", *t, "--method", "brute", "--trace"),
                 ("sum", "--n", "30", *t),
                 ("sum", "--n", "x", *t),
                 ("--help",),
                 ("verify", "--json"),
                 ("verify",)):
        got = run(capsys, *argv)
        proc = subprocess.run([sys.executable, "-m", "remsum", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
        assert got[0] == (2 if "x" in argv else 0)


class TestPlot:
    def test_eta_row_count_and_header(self, capsys):
        code, out, _ = run(capsys, "plot", "--which", "eta",
                           "--range=-8:8", "--step", "0.001")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 16002  # header + 16001 grid points
        assert lines[1] == "-8,0"

    def test_h_starts_at_zero(self, capsys):
        _, out, _ = run(capsys, "plot", "--which", "h",
                        "--range", "0:25", "--step", "0.5")
        lines = out.strip().splitlines()
        assert lines[0] == "x,h" and lines[1] == "0,0"
        assert len(lines) == 52

    def test_rescaled_needs_args(self, capsys):
        code, _, err = run(capsys, "plot", "--which", "rescaled",
                           "--range", "0:1", "--step", "0.5")
        assert code == 2

    def test_deterministic_bytes(self, capsys):
        args = ("plot", "--which", "eta", "--range=-2:2", "--step", "0.01")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @given(st.integers(-10 ** 9, 10 ** 9), st.integers(1, 10 ** 6))
    @example(-8000, 1000)  # eta is 0 at -8: it must not print "-0"
    @example(0, 7)
    @settings(max_examples=300, deadline=None)
    def test_integer_profiles_are_float_of_the_exact_values(self, i, D):
        x = F(i, D)
        want = float(limits.eta_tilde(x))
        got = cli._eta_float(i, D)
        assert got.hex() == want.hex()
        if x.denominator > 1:
            want = float(limits.eta_tilde_prime(x))
            assert cli._eta_prime_float(i, D).hex() == want.hex()

    @pytest.mark.parametrize("name", sorted(PLOT_DIGESTS))
    def test_stdout_matches_its_digest(self, capsys, name):
        code, out, _ = run(capsys, *PLOT_DIGESTS[name])
        assert code == 0
        want = (DATA / name).read_text().split()[0]
        assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "eta.csv"
        code, out, _ = run(capsys, "plot", "--which", "eta", "--range", "0:1",
                           "--step", "0.5", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[0] == "x,value"


class TestVerify:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "measure",
                           "--size", "quick")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "farey", "--json")
        assert code == 0
        rec = json.loads(out)
        assert rec["pass"] is True and rec["seed"] == 0
        assert all(c["pass"] for c in rec["checks"])

    def test_json_reports_the_b0_mass_margin(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "measure", "--json")
        assert code == 0
        rec = next(c for c in json.loads(out)["checks"]
                   if c["name"] == "b0-mass-bound")
        # |S(n,t)| > 0 at irrational t, so the margin is positive
        assert rec["pass"] and 0 < rec["margin"] <= 1


class TestFareyCommand:
    def test_sequence_dump(self, capsys):
        code, out, _ = run(capsys, "farey", "--n", "5")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "numerator,denominator"
        assert lines[1] == "0,1" and lines[-1] == "1,1"
        assert len(lines) == 12

    @pytest.mark.parametrize("n", [1, 2, 7, 300, 1000])
    def test_sequence_dump_streams_the_fractions(self, tmp_path, n):
        # the bytes of every term of farey(n), printed without building the
        # list: at n = 1000 that list of ~304 000 Fractions peaks at ~30 MiB
        from remsum import farey

        target = tmp_path / "f.csv"
        tracemalloc.start()
        try:
            code = cli.main(["farey", "--n", str(n), "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and peak < 1 << 20
        want = "".join(f"{fr.numerator},{fr.denominator}\n"
                       for fr in farey.farey(n).fractions)
        assert target.read_bytes() == ("numerator,denominator\n" + want).encode()

    def test_count_identity(self, capsys):
        code, out, _ = run(capsys, "farey", "--n", "3", "--t", "rat:2/5")
        rec = json.loads(out)
        assert code == 0 and rec["count"] == 2 and rec["match"] is True

    def test_count_identity_out_file(self, capsys, tmp_path):
        target = tmp_path / "f.json"
        code, out, _ = run(capsys, "farey", "--n", "3", "--t", "rat:2/5",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == run(capsys, "farey", "--n", "3",
                                         "--t", "rat:2/5")[1]

    @pytest.mark.parametrize("name", sorted(FAREY_DIGESTS))
    def test_stdout_matches_its_digest(self, capsys, name):
        code, out, _ = run(capsys, *FAREY_DIGESTS[name])
        assert code == 0
        want = (DATA / name).read_text().split()[0]
        assert hashlib.sha256(out.encode()).hexdigest() == want


class TestMeasureCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "measure", "--alphas", "2",
                           "--alphas", "2,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alphas,exact,lower,upper"
        assert lines[1] == "2,1/2,1/4,1/2"
        assert lines[2] == "2;2,1/6,1/16,1/4"

    def test_exact_output_past_the_int_str_limit(self, capsys):
        code, out, _ = run(capsys, "measure", "--alphas", "3163,3163")
        exact = measure.measure_exact((3163, 3163)).exact_measure
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # no limit
        try:
            want = f"{exact.numerator}/{exact.denominator}"
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(want) > limit > 0
        assert code == 0 and out.splitlines()[1].split(",")[1] == want


class TestDirichletCommand:
    def test_beta_json(self, capsys):
        code, out, _ = run(capsys, "dirichlet", "--t", "cf:0;(1)",
                           "--s", "2", "--K", "300", "--mode", "beta")
        rec = json.loads(out)
        assert code == 0
        assert rec["tail_mode"] == "strict" and rec["K"] == 300

    def test_evidence_json(self, capsys):
        code, out, _ = run(capsys, "dirichlet", "--t", "cf:0;(1)",
                           "--s", "0.7+3i", "--K", "300", "--mode", "evidence")
        rec = json.loads(out)
        assert code == 0 and rec["decreasing"] is True

    @pytest.mark.parametrize("name", sorted(DIRICHLET_DIGESTS))
    def test_stdout_matches_its_digest(self, capsys, name):
        code, out, _ = run(capsys, *DIRICHLET_DIGESTS[name])
        assert code == 0
        want = (DATA / name).read_text().split()[0]
        assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_streamed_evidence_matches_its_digest(self, capsys):
        # K past the power budget: the Abel terms are computed as they are
        # summed, and no other digest reaches that path
        code, out, _ = run(capsys, "dirichlet", "--t", "cf:0;(1)", "--s", "0.5+3j",
                           "--K", "300000", "--mode", "evidence")
        assert code == 0
        want = (DATA / "dirichlet_evidence_K300000.json.sha256").read_text().split()[0]
        assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_mellin_of_one_term_prints_float_zeros(self, capsys):
        code, out, _ = run(capsys, "dirichlet", "--t", "cf:0;(1)", "--s", "2",
                           "--K", "1", "--mode", "mellin")
        assert code == 0
        assert '"value_re": 0.0,' in out and '"value_im": 0.0,' in out


class TestBench:
    def test_columns_and_crosscheck(self, capsys):
        for spec in ("cf:0;(2)", LONG_PERIOD):
            code, out, _ = run(capsys, "bench", "--t", spec,
                               "--n-max", "1000", "--points", "3")
            assert code == 0
            lines = out.strip().splitlines()
            assert lines[0].startswith("n,brute_ops,")
            for ln in lines[1:]:
                cols = ln.split(",")
                assert cols[0] == cols[1]  # brute op count equals n

    def test_rejects_rational(self, capsys):
        code, _, err = run(capsys, "bench", "--t", "rat:1/3", "--n-max", "10")
        assert code == 2

    def test_deterministic_bytes(self, capsys):
        args = ("bench", "--t", "cf:0;(2)", "--n-max", "1000", "--points", "3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("name", sorted(BENCH_DIGESTS))
    def test_stdout_matches_its_digest(self, capsys, name):
        code, out, _ = run(capsys, *BENCH_DIGESTS[name])
        assert code == 0
        want = (DATA / name).read_text().split()[0]
        assert hashlib.sha256(out.encode()).hexdigest() == want

    def test_brute_column_is_one_walk(self, capsys, monkeypatch):
        # n_max terms in one walk, not the sum of the points; a floor one
        # too large at k = 500 fails the cross-check at the next point
        walks = []
        floor_sums = sums._floor_sums

        def counted(t, n):
            walks.append(n)
            for k, F in enumerate(floor_sums(t, n), 1):
                yield F + (k >= 500)

        monkeypatch.setattr(sums, "_floor_sums", counted)
        args = ("bench", "--t", "cf:0;(2)", "--n-max", "499", "--points", "4")
        code, out, _ = run(capsys, *args)
        assert code == 0 and walks == [499]
        assert out.count("\n") == 5  # the header and the points 1, 8, 63, 499
        code, out, err = run(capsys, "bench", "--t", "cf:0;(2)", "--n-max",
                             "1000", "--points", "4")
        assert code == 3 and walks == [499, 1000]
        assert err == "cross-check disagreement at n=1000\n"
        assert out.splitlines()[-1].startswith("100,")


# -- argv fuzz --------------------------------------------------------------

# Each argument is drawn from a small grammar that mixes valid text with
# malformed text; sizes stay small (n, K <= 50, grids <= 160 points) so that
# no case starts a large sieve, sum or grid.
_BAD = st.sampled_from(["", " ", "x", "1/0", "-", "1/2/3"])
_INTS = st.sampled_from(["0", "1", "2", "3", "7", "50", "-1", "-3", "1/2"]) | _BAD
_ENDS = st.sampled_from(["0", "1", "-2", "1/2", "-7/4", "0.25", "20", "-20"]) | _BAD
_TSPECS = st.sampled_from([
    "rat:1/3", "rat:2/5", "rat:0/1", "rat:1/1", "quad:(-1+1*sqrt(5))/2",
    "quad:(0+1*sqrt(2))/1", "quad:(1+1*sqrt(0))/1", "quad:(0+1*sqrt(4))/1",
    "cf:0;(1)", "cf:0;(2)", "cf:0;(0)", "cf:1;(1)", "cf:0;1,(3,1)", "cf:0;1,2",
    "cf:0;()", "cf:x", "rat:(0+1*sqrt(2))/1", "-1", "-1/2", "3/4"]) | _BAD
_OPTIONS = {
    "sum": [("--n", _INTS), ("--t", _TSPECS),
            ("--method", st.sampled_from(["brute", "ostrowski", "bseq", "all", "x"])),
            ("--trace", None)],
    "plot": [("--which", st.sampled_from(["eta", "etaprime", "h", "rescaled", "x"])),
             ("--range", st.builds("{}:{}".format, _ENDS, _ENDS) | _BAD),
             ("--step", st.sampled_from(["1/4", "1/2", "1", "3", "0", "-1"]) | _BAD),
             ("--a-over-b", st.sampled_from(["1/2", "2/3", "0", "1", "3/2", "-1/3"]) | _BAD),
             ("--rescale-n", _INTS)],
    "verify": [("--suite", st.sampled_from(
                   ["oracle", "bounds", "measure", "farey", "dirichlet", "all", "x"])),
               ("--size", st.sampled_from(["quick", "x"])),
               ("--seed", _INTS), ("--json", None)],
    "bench": [("--t", _TSPECS), ("--n-max", _INTS), ("--points", _INTS)],
    "farey": [("--n", _INTS), ("--t", _TSPECS)],
    "measure": [("--alphas", st.sampled_from(
                    ["1", "2", "3", "2,2", "1;2;3", "3,3,3", "2,", "0", "-1"]) | _BAD)],
    "dirichlet": [("--t", _TSPECS),
                  ("--s", st.sampled_from(["2", "1", "0", "-1", "2+5j", "0.7+3i",
                                           "2+200j"]) | _BAD),
                  ("--K", _INTS),
                  ("--mode", st.sampled_from(["beta", "mellin", "q", "evidence", "x"]))],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS) + ["x"]))
    argv = [command]
    for flag, values in _OPTIONS.get(command, []):
        if draw(st.integers(0, 9)) == 0:  # sometimes leave a flag out
            continue
        argv.append(flag if values is None else f"{flag}={draw(values)}")
    return argv


@given(argvs())
@settings(max_examples=150, deadline=None)
def test_every_argv_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()
