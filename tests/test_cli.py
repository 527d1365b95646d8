import json
from fractions import Fraction as F

import pytest

from remsum import cfrac, cli
from remsum.exactnum import QuadExt


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTSpec:
    def test_grammar(self):
        assert cli.parse_tspec("rat:7/10") == (F(7, 10), None)
        assert cli.parse_tspec("quad:(-1+1*sqrt(5))/2") \
            == (QuadExt(-1, 1, 5, 2), None)
        assert cli.parse_tspec("cf:0;(1)") \
            == (QuadExt(-1, 1, 5, 2), cfrac.CFExpansion(0, (), (1,)))
        assert cli.parse_tspec("3/4") == (F(3, 4), None)

    def test_errors(self):
        with pytest.raises(cli.UsageError):
            cli.parse_tspec("bogus")
        with pytest.raises(cli.UsageError):
            cli.parse_tspec("rat:(0+1*sqrt(2))/1")


class TestSum:
    def test_all_methods_agree(self, capsys):
        code, out, _ = run(capsys, "sum", "--n", "100",
                           "--t", "quad:(-1+1*sqrt(5))/2")
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
        code, _, err = run(capsys, "sum", "--n", "5", "--t", "junk")
        assert code == 2 and "cannot parse" in err

    def test_cf_spec_keeps_its_expansion(self, capsys):
        # a period of 65 terms: re-expanding t with the 64-term limit fails
        period = ",".join(str(1 + i % 9) for i in range(64)) + ",9"
        code, out, _ = run(capsys, "sum", "--n", "10", "--t", f"cf:0;({period})")
        assert code == 0
        rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
        assert [r[0] for r in rows] == ["brute", "ostrowski", "bseq"]
        assert len({r[1] for r in rows}) == 1


@pytest.mark.parametrize("argv", [
    ("sum", "--n", "-1", "--t", "rat:1/3"),
    ("farey", "--n", "0"),
    ("dirichlet", "--t", "cf:0;(1)", "--s", "0"),
    ("dirichlet", "--t", "cf:0;(1)", "--s", "2", "--K", "0"),
    ("bench", "--t", "cf:0;(2)", "--n-max", "-5"),
])
def test_out_of_range_numbers_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "error: argument" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("plot", "--which", "rescaled", "--range", "0:1", "--step", "0.5",
     "--a-over-b", "1/2", "--rescale-n", "0"),
    ("sum", "--n", "5", "--t", "cf:1;(1)"),
    ("sum", "--n", "5", "--t", "quad:(0+1*sqrt(5))/1", "--method", "bseq"),
    ("measure", "--alphas", "5000,5000,5000"),
])
def test_library_errors_outside_verification_are_usage_errors(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


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


class TestFareyCommand:
    def test_sequence_dump(self, capsys):
        code, out, _ = run(capsys, "farey", "--n", "5")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "numerator,denominator"
        assert lines[1] == "0,1" and lines[-1] == "1,1"
        assert len(lines) == 12

    def test_count_identity(self, capsys):
        code, out, _ = run(capsys, "farey", "--n", "3", "--t", "rat:2/5")
        rec = json.loads(out)
        assert code == 0 and rec["count"] == 2 and rec["match"] is True


class TestMeasureCommand:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "measure", "--alphas", "2",
                           "--alphas", "2,2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alphas,exact,lower,upper"
        assert lines[1] == "2,1/2,1/4,1/2"
        assert lines[2] == "2;2,1/6,1/16,1/4"


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


class TestBench:
    def test_columns_and_crosscheck(self, capsys):
        code, out, _ = run(capsys, "bench", "--t", "cf:0;(2)",
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
