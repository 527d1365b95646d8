"""Self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest perfbench
"""

import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
GOLDEN = "(-1+1*sqrt(5))/2"


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    wl = workloads.WORKLOADS[name]()
    assert wl.generate(7).encode() == wl.generate(7).encode()
    assert wl.generate(7) != wl.generate(8)


def test_oracle_hand_checked_rational():
    # k*7/10 for k = 1..10: F = 0+1+2+2+3+4+4+5+6+7 = 34, S = 38.5 - 5 - 34
    assert oracle.S(Fraction(7, 10), 10) == Fraction(-1, 2)
    assert not oracle.same_value("1/2", oracle.S(Fraction(7, 10), 10))


@pytest.mark.parametrize("n", [100, 1000])
def test_oracle_matches_brute_force_on_golden(n):
    from remsum import exactnum, sums

    got = exactnum.format_scalar(sums.brute_S(n, exactnum.parse_scalar(GOLDEN)))
    expected = oracle.S(oracle.parse(GOLDEN), n)
    assert oracle.same_value(got, expected)
    P, Q, d, R = expected
    assert not oracle.same_value(got, (P + 1, Q, d, R))


def test_quad_from_cf_golden():
    assert oracle.parse(oracle.quad_from_cf((), (1,))) == oracle.parse(GOLDEN)


def test_metric_names_are_valid_and_match_the_code():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCHMARK[key]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_reported_for_every_workload(name, trace):
    report = run.run_workload(name, 0, 0, trace, small=True)
    result = report["result"]
    key = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[key]}
    assert result["correct"], report["failures"]
    assert result["attempted"] >= 1


def test_item_times_scale_to_the_reference_speed_and_group_by_key():
    ref = workloads.CAL_REF_S
    full, light = workloads.Pass(), workloads.Pass()
    full.keys, full.latencies, full.cal = ["a", "b"], [1.0, 2.0], [ref, ref]
    # the light pass ran "a" alone, on a machine at half the reference speed
    light.keys, light.latencies, light.cal = ["a"], [3.0], [2 * ref]
    assert run.item_times([full, light]) == [1.25, 2.0]


def test_tracer_counts_and_restores_every_patched_name():
    from remsum import dirichlet, exactnum, verify

    def names():
        return (exactnum.to_float, dirichlet.to_float, dict(verify.SUITES),
                exactnum.QuadExt.__init__)

    before = names()
    tracer = Tracer()
    tracer.install()
    try:
        assert dirichlet.to_float is not before[1]
        dirichlet.to_float(exactnum.parse_scalar(GOLDEN))
    finally:
        tracer.uninstall()
    assert names() == before
    assert tracer.counts["exactnum.to_float"] == 1
    assert tracer.counts["exactnum.quadext_new"] >= 1
    assert [s[0] for s in tracer.spans] == ["exactnum.parse_scalar"]


def test_refuses_thread_pool_runs(monkeypatch):
    monkeypatch.setenv("REMSUM_THREADS", "2")
    assert run.main(["--workload", "point-queries"]) == 2
