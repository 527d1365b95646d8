"""Run one workload of the remsum benchmark and print its metrics.

    python3 perfbench/run.py --workload point-queries --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
reports the per-layer metrics of a traced pass (see README.md).  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  Earlier lines give the environment, each metric with its sample
count, and the failures.  A copy of the result goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import CAL_REF_S, ROOT, SRC, WORKLOADS, child_env  # noqa: E402

RESULTS = HERE / "results"
SETUP_REPS = 9
# an item's scaled time uses the median calibration sample of the item and
# of this many items on each side of it in the same pass
CAL_WINDOW = 5
# in the second half of a run, passes repeat only the items that took less
# than this in the first pass: the short items, which set item_p50_ms and
# item_p90_ms, then get more samples than the few long ones
LIGHT_S = 0.2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "exactnum.quadext_new": "count",
    "exactnum.to_float_calls": "count",
    "exactnum.to_float_s": "s",
    "cfrac.expand_calls": "count",
    "cfrac.expand_s": "s",
    "sums.ostrowski_S_s": "s",
    "sums.ostrowski_steps": "count",
    "sums.bseq_S_s": "s",
    "sums.bseq_steps": "count",
    "sums.s0_prefix_s": "s",
    "sums.s0_prefix_terms": "count",
    "sums.ostrowski_sweep_s": "s",
    "sums.tab_sum_s": "s",
    "sums.lemma31_bound_s": "s",
    "sums.l2_norm_sq_sweep_s": "s",
    "farey.build_tables_s": "s",
    "farey.farey_count_s": "s",
    "farey.phi_x_s": "s",
    "dirichlet.f_beta_partial_s": "s",
    "dirichlet.f_beta_mellin_s": "s",
    "dirichlet.f_q_partial_s": "s",
    "dirichlet.continuation_evidence_s": "s",
    "dirichlet.self_s": "s",
    "limits.eta_tilde_calls": "count",
    "limits.eta_tilde_s": "s",
    "measure.measure_exact_s": "s",
    "measure.verify_b0_mass_s": "s",
    "verify.suite_oracle_s": "s",
    "verify.suite_bounds_s": "s",
    "verify.suite_measure_s": "s",
    "verify.suite_farey_s": "s",
    "verify.suite_dirichlet_s": "s",
    "cli.startup_s": "s",
    "cli.stdout_bytes": "count",
    "trace.overhead_s": "s",
}


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu": cpu, "seed": seed,
            "REMSUM_THREADS": os.environ.get("REMSUM_THREADS", "unset")}


# -- fresh-process probes ------------------------------------------------------


def _python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, check=True)
    return proc.stdout


def setup_probe(name: str, seed: int):
    """A function that times one set-up in a fresh process (see
    workloads.setup_probe) and returns (seconds, calibration seconds)."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
            f"workloads.setup_probe({name!r}, {seed})")
    return lambda: tuple(map(float, _python(code).split()[-2:]))


def cli_startup_seconds() -> float:
    """In a fresh process: import remsum.cli and answer --help in process."""
    code = ("import contextlib, io, time; t0 = time.perf_counter(); from remsum import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()): cli.main(['--help'])\n"
            "print(time.perf_counter() - t0)")
    _python(code)
    return statistics.median(float(_python(code)) for _ in range(SETUP_REPS))


# -- timed passes --------------------------------------------------------------


def one_pass(wl, inputs, tracer=None, keys=None):
    t0 = time.perf_counter()
    run = wl.run_pass(inputs, tracer, keys)
    run.wall = time.perf_counter() - t0
    return run


def timed_passes(run_one, seconds: float) -> list:
    """Two whole passes, and more while the next one is expected to end
    within half of `seconds`; then passes over the light items while the
    next one is expected to end within `seconds`.  `run_one(keys)` runs the
    items in `keys`, or all of them."""
    passes = [run_one(None)]
    elapsed = passes[0].wall
    while len(passes) < 2 or elapsed + passes[-1].wall <= seconds / 2:
        passes.append(run_one(None))
        elapsed += passes[-1].wall
    first = passes[0]
    light = {key for key, lat in zip(first.keys, scaled(first)) if lat < LIGHT_S}
    expected = first.wall * sum(lat for key, lat in zip(first.keys, first.latencies)
                                if key in light) / sum(first.latencies)
    while light and elapsed + expected <= seconds:
        passes.append(run_one(light))
        elapsed += passes[-1].wall
        expected = passes[-1].wall
    return passes


def scaled(run) -> list[float]:
    """The pass's item latencies at the reference speed (see workloads.py):
    each times CAL_REF_S over the median calibration sample around it."""
    cal = run.cal
    return [lat * CAL_REF_S / statistics.median(cal[max(0, j - CAL_WINDOW):j + CAL_WINDOW + 1])
            for j, lat in enumerate(run.latencies)]


def item_samples(passes) -> dict:
    """Each item's times at the reference speed, by key, in item order."""
    samples: dict = {}
    for run in passes:
        for key, lat in zip(run.keys, scaled(run)):
            samples.setdefault(key, []).append(lat)
    return samples


def item_times(passes) -> list[float]:
    """Each item's median time at the reference speed over its samples."""
    return [statistics.median(v) for v in item_samples(passes).values()]


def end_to_end(wl, inputs, seed, seconds, notes):
    """Each item counts with the median of its latencies at the reference
    speed over the passes that ran it."""
    probe = setup_probe(wl.name, seed)
    probe()  # untimed: fills the bytecode cache
    setups, first = [], []

    def pass_then_probe(keys):
        run = one_pass(wl, inputs, keys=keys)
        if len(setups) < SETUP_REPS:  # set-ups run between the first passes
            setups.append(probe())
        if first:
            # later passes must repeat the first one exactly; their outputs
            # are then dropped, so that memory does not grow with the passes
            for key, out in run.outputs.items():
                if key not in run.failures and wl.comparable(inputs, key, out) != \
                        wl.comparable(inputs, key, first[0].outputs.get(key)):
                    run.fail(key, "output differs from the first pass")
            run.outputs = {}
        else:
            first.append(run)
        return run

    passes = timed_passes(pass_then_probe, seconds)
    while len(setups) < SETUP_REPS:
        setups.append(probe())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    counts = [len(v) for v in item_samples(passes).values()]
    lat = item_times(passes)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    values = {
        "setup_s": statistics.median(elapsed * CAL_REF_S / cal for elapsed, cal in setups),
        "wall_s": sum(lat),
        "item_p50_ms": 1000 * statistics.median(lat),
        "item_p90_ms": 1000 * p90,
        "peak_rss_mb": peak_kb / 1024,
    }
    n = f"{min(counts)}" if min(counts) == max(counts) else f"{min(counts)}-{max(counts)}"
    raw = passes[0].wall
    notes.update({
        "setup_s": f"median of {len(setups)} fresh processes, at the reference speed; "
                   f"unscaled median {statistics.median(e for e, _ in setups):.4g} s",
        "wall_s": f"sum over {len(lat)} items of each one's median of {n} samples, at "
                  f"the reference speed; the first pass took {raw:.4g} s unscaled",
        "item_p50_ms": f"{len(lat)} samples, each an item's median of {n}",
        "item_p90_ms": f"{len(lat)} samples, {sum(x > p90 for x in lat)} beyond",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    })
    return values, passes


def traced_pair(wl, inputs):
    untraced = one_pass(wl, inputs)
    tracer = Tracer()
    tracer.install()
    try:
        traced = one_pass(wl, inputs, tracer)
    finally:
        tracer.uninstall()
    traced.tracer = tracer
    return untraced, traced


def per_layer(wl, inputs, seconds, notes, trace_path):
    """Untraced and traced passes in turn while time allows.  Layer values
    come from the fastest traced pass; the overhead compares the two kinds of
    pass the way wall_s is taken."""
    pairs = [traced_pair(wl, inputs)]
    elapsed = pairs[0][0].wall + pairs[0][1].wall
    while elapsed + elapsed / len(pairs) <= seconds:
        pairs.append(traced_pair(wl, inputs))
        elapsed += pairs[-1][0].wall + pairs[-1][1].wall

    untraced_s = sum(item_times([u for u, _ in pairs]))
    traced_s = sum(item_times([t for _, t in pairs]))
    traced = min((t for _, t in pairs), key=lambda run: run.wall)
    tracer = traced.tracer
    tracer.write(trace_path)
    # "<layer>.<function>_s" is the time in that function's spans
    span_s, counts = tracer.span_seconds(), tracer.counts
    values = {name: span_s[name[:-2]] for name, unit in PER_LAYER.items() if unit == "s"}
    values.update({
        "exactnum.quadext_new": counts["exactnum.quadext_new"],
        "exactnum.to_float_calls": counts["exactnum.to_float"],
        "exactnum.to_float_s": tracer.seconds["exactnum.to_float"],
        "cfrac.expand_calls": tracer.span_counts()["cfrac.expand"],
        "sums.ostrowski_steps": counts["sums.ostrowski_steps"],
        "sums.bseq_steps": counts["sums.bseq_steps"],
        "sums.s0_prefix_terms": counts["sums.s0_prefix_terms"],
        "dirichlet.self_s": tracer.self_seconds("dirichlet"),
        "limits.eta_tilde_calls": counts["limits.eta_tilde"],
        "limits.eta_tilde_s": tracer.seconds["limits.eta_tilde"],
        "cli.startup_s": cli_startup_seconds() if wl.name == "cli-verify" else 0.0,
        "cli.stdout_bytes": sum(len(out[1].encode()) for out in traced.outputs.values()
                                if out is not None) if wl.name == "cli-verify" else 0,
        "trace.overhead_s": traced_s - untraced_s,
    })
    notes["trace"] = (f"{len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}; "
                      f"{len(pairs)} untraced and {len(pairs)} traced passes: "
                      f"{untraced_s:.3f} s untraced, {traced_s:.3f} s traced")
    return values, [p for pair in pairs for p in pair]


def run_workload(name: str, seed: int, seconds: float, trace: bool, small=False) -> dict:
    wl = WORKLOADS[name](small)
    inputs = wl.decode(wl.generate(seed))
    notes: dict = {}
    RESULTS.mkdir(exist_ok=True)
    if trace:
        values, passes = per_layer(wl, inputs, seconds, notes,
                                   RESULTS / f"trace-{name}-seed{seed}.jsonl")
        units = PER_LAYER
    else:
        values, passes = end_to_end(wl, inputs, seed, seconds, notes)
        units = END_TO_END
    wl.check(inputs, passes, seed)
    attempted = sum(len(run.latencies) for run in passes)
    failures = [f"pass {i}: {key}: {msg}" for i, run in enumerate(passes)
                for key, msg in run.failures.items()]
    return {
        "workload": name,
        "environment": environment(seed),
        "notes": notes,
        "failures": failures,
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    threads = os.environ.get("REMSUM_THREADS")
    if threads not in (None, "1"):
        print(f"refusing to run: REMSUM_THREADS={threads!r}; the benchmark measures the "
              "serial program (leave it unset or set it to 1)", file=sys.stderr)
        return 2
    if not (SRC / "remsum" / "__init__.py").is_file():
        print(f"no remsum sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace))
        env = report["environment"]
        print(f"{name} env " + " ".join(f"{k}={v}" for k, v in env.items()))
        res = report["result"]
        for key, metric in res["metrics"].items():
            note = report["notes"].get(key, "")
            print(f"{name} {key} {metric['value']:.6g} {metric['unit']}"
                  + (f"  ({note})" if note else ""))
        if "trace" in report["notes"]:
            print(f"{name} trace {report['notes']['trace']}")
        print(f"{name} error_rate {res['failed'] / res['attempted']:.6g} "
              f"({res['failed']} failed of {res['attempted']} attempted)")
        for failure in report["failures"][:20]:
            print(f"{name} FAILED {failure}")
        out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.write_text(json.dumps(report, indent=1, default=str) + "\n")
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
