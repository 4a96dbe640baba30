"""Runs the benchmark's reps and reports them; run.sh calls it after the build.

Each rep is a fresh eco_benchmark process with a private work directory.
A run's value for each end-to-end metric is the median over its untraced
reps, except ops_per_s and setup_s: every rep of a run does the same work
(one seed) and reports its set-up and its measured phase as the same
sequences of segments, and the run's time for each is the sum over its
segments of each one's fastest rep. On a shared host, interference only
ever adds time, and it comes and goes within seconds while it shifts a
whole 30 s run's median by a quarter; the fastest execution of each short
segment is what the program itself costs. In a traced run, traced reps
alternate with untraced ones (untraced
first) and give the per-layer metrics (medians over the traced reps), the
per-layer self-time table and the tracing overhead over the compute-bound
part of the window (each traced rep's spans times the per-span cost it
measured, and, printed beside it, the traced reps' median compute time
against the untraced reps'). A traced run fails when the layers account for
less than 90 % of the sim thread's wall time or the overhead reaches 5 %.

Output: one line per metric, `name workload value unit`, then, as the last
line, one JSON object with the keys correct, attempted, failed and metrics.
The per-rep values go to <build>/results.json.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
REP_TIMEOUT_S = 60  # a rep takes up to about 9 s; a run must end within 180 s
MIN_REPS = 3        # a run with --seconds still reports a median of three
MIN_COVERAGE_PCT = 90.0
MAX_OVERHEAD_PCT = 5.0

# The names the printed report gives an end-to-end metric on the workloads
# where it has a more specific meaning; BENCHMARK.json, the JSON line and
# results.json keep the generic names every workload shares.
DISPLAY_NAMES = {
    ("submit_eco", "ops_per_s"): "peak_jobs_s",
    ("submit_plain", "ops_per_s"): "peak_jobs_s",
    ("submit_eco", "latency_p50_ms"): "submit_p50_ms",
    ("submit_plain", "latency_p50_ms"): "submit_p50_ms",
    ("fleet_replay", "ops_per_s"): "fleet_jobs_s",
}


def display_name(workload, name):
    return DISPLAY_NAMES.get((workload, name), name)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="run.sh")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measure for this long: reps run while the next "
                             "one fits (at least three)")
    parser.add_argument("--reps", type=int,
                        help="untraced reps (default 3, 1 with --smoke; "
                             "traced runs add as many)")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--build", required=True)
    return parser.parse_args(argv)


def run_rep(args, workload, rep, traced):
    tmp_root = os.path.join(args.build, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{rep}-", dir=tmp_root)
    cmd = [os.path.join(args.build, "eco_benchmark"), "--workload", workload,
           "--seed", str(args.seed), "--rep", str(rep), "--workdir", workdir]
    if traced:
        cmd += ["--trace", os.path.join(args.build, f"trace_{workload}.json")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"rep {rep} timed out after {REP_TIMEOUT_S} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        return None, f"rep {rep} exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, f"rep {rep} printed no result"


def run_workload(args, workload, spec):
    """All reps of one workload. Returns (summary, per-rep list)."""
    traced_run = args.trace == "1"
    planned = (args.reps or (1 if args.smoke else 3)) * (2 if traced_run else 1)
    reps, errors, durations = [], [], []
    start = time.monotonic()
    while not errors:
        index = len(reps)
        if args.seconds is not None:
            # Start another rep only while one as long as the longer of the
            # last two (traced and untraced reps alternate) still fits.
            next_s = max(durations[-2:], default=0.0)
            if index >= MIN_REPS and time.monotonic() - start + next_s > args.seconds:
                break
        elif index >= planned:
            break
        began = time.monotonic()
        rep, error = run_rep(args, workload, index, traced_run and index % 2 == 1)
        durations.append(time.monotonic() - began)
        if error:
            errors.append(error)
        else:
            reps.append(rep)
    return summarize(workload, spec, reps, errors, traced_run), reps


# What the report prints besides the end-to-end metrics, with units where
# BENCHMARK.json has none: the fleet's deterministic outcomes, the latency
# diagnostics (the open-loop submit p50 and tail, among others) and the
# whole model-build time.
EXTRA_UNITS = {"energy_saved_pct": "%", "mean_wait_s": "sim-s",
               "submit_p99_ms": "ms", "model_build_s": "s"}


def summarize(workload, spec, reps, errors, traced_run):
    failures = list(errors)
    for rep in reps:
        failures += [f"rep {rep['rep']}: {f}" for f in rep["failures"]]
    # Deterministic outputs must repeat bit-for-bit across reps of one seed.
    exact = {}
    for rep in reps:
        for name, value in rep["exact"].items():
            exact.setdefault(name, set()).add(value)
    failures += [f"{name} differs across reps: {sorted(values)}"
                 for name, values in exact.items() if len(values) > 1]

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    e2e = {}
    for metric in spec["end_to_end"]:
        values = metric_values(plain, metric["name"], failures)
        if values:
            e2e[metric["name"]] = stats.median(values)
    if plain:
        best_s = stats.best_segments([r["segment_s"] for r in plain])
        best_setup_s = stats.best_segments([r["setup_segment_s"] for r in plain])
        if best_s is None or best_setup_s is None:
            failures.append("reps measured different segments")
        else:
            e2e["ops_per_s"] = plain[0]["work"] / best_s
            e2e["setup_s"] = best_setup_s
    known = {m["name"] for m in spec["end_to_end"]} | set(layer_names)
    for name in sorted(set().union(*(r["metrics"] for r in reps)) - known):
        failures.append(f"rep metric {name} is not in BENCHMARK.json")

    extra = {name: sorted(values)[0] for name, values in exact.items()
             if name in EXTRA_UNITS}
    if plain:
        extra["latency_p50_ms"] = stats.median(
            [r["metrics"]["latency_p50_ms"] for r in plain])
    if plain and workload.startswith("submit_"):
        extra["submit_p99_ms"] = stats.median(
            [r["metrics"]["latency_p99_ms"] for r in plain])
    if plain and workload == "model_build":
        extra["model_build_s"] = stats.median([r["compute_s"] for r in plain])

    layers, self_table, wall_delta = {}, {}, None
    if traced_run and traced:
        for name in layer_names:
            values = metric_values(traced, name, failures)
            if values:
                layers[name] = stats.median(values)
        if plain:
            wall_delta = 100.0 * (
                stats.median([r["compute_s"] for r in traced]) /
                stats.median([r["compute_s"] for r in plain]) - 1.0)
        coverage = layers.get("trace.coverage_pct", 0.0)
        overhead = layers.get("trace.overhead_pct", 0.0)
        if coverage < MIN_COVERAGE_PCT:
            failures.append(f"layers account for {coverage:.1f} % of the sim "
                            f"thread's wall time, below {MIN_COVERAGE_PCT:.0f} %")
        if overhead >= MAX_OVERHEAD_PCT:
            failures.append(f"tracing overhead {overhead:.1f} % reaches "
                            f"{MAX_OVERHEAD_PCT:.0f} %")
        for layer in traced[0]["layer_self_s"]:
            self_table[layer] = stats.median(
                [r["layer_self_s"][layer] for r in traced])
        self_table["window"] = stats.median([r["wall_s"] for r in traced])
    return {
        "workload": workload,
        "correct": not failures and bool(reps),
        "failures": failures,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "reps": len(reps),
        "end_to_end": e2e,
        "extra": extra,
        "per_layer": layers,
        "self_s": self_table,
        "traced_wall_delta_pct": wall_delta,
    }


def metric_values(reps, name, failures):
    """Every rep's value of one metric; [] (and a failure) if a rep lacks it."""
    values = [r["metrics"][name] for r in reps if name in r["metrics"]]
    if len(values) != len(reps) or not values:
        failures.append(f"metric {name} missing from a rep")
        return []
    return values


def print_report(summary, spec):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    workload = summary["workload"]
    # A traced fleet run has its outcomes among the per-layer metrics too.
    lines = {**summary["end_to_end"], **summary["extra"], **summary["per_layer"]}
    for name, value in lines.items():
        print(f"{display_name(workload, name)} {workload} {value:.6g} {units[name]}")
    print(f"ops_attempted {workload} {summary['attempted']} count")
    print(f"ops_failed {workload} {summary['failed']} count")
    table = summary["self_s"]
    if table:
        window = table["window"]
        print(f"# {workload}: self time per layer over the traced window "
              f"({window:.3f} s, all threads; idle = sim thread waiting)")
        for layer, seconds in sorted(table.items(), key=lambda kv: -kv[1]):
            if layer != "window":
                print(f"#   {layer:8s} {seconds:9.4f} s  {100 * seconds / window:6.1f} %")
        layers = summary["per_layer"]
        delta = summary["traced_wall_delta_pct"]
        print(f"#   layers and idle account for "
              f"{layers.get('trace.coverage_pct', 0):.1f} % of the sim thread's "
              f"wall time; tracing overhead on the compute-bound part "
              f"{layers.get('trace.overhead_pct', 0):.2f} % (spans x per-span "
              f"cost); traced vs untraced median compute time "
              + ("n/a" if delta is None else f"{delta:+.1f} %"))
    for failure in summary["failures"]:
        print(f"# FAIL {workload}: {failure}")


def main(argv):
    args = parse_args(argv)
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    unknown = [w for w in workloads if w not in names]
    if unknown:
        print(f"run.sh: unknown workload {unknown[0]}; choose from {names}",
              file=sys.stderr)
        return 2

    summaries, raw = [], {}
    for workload in workloads:
        summary, reps = run_workload(args, workload, spec)
        summaries.append(summary)
        raw[workload] = {"summary": summary, "reps": reps}
        print_report(summary, spec)
    with open(os.path.join(args.build, "results.json"), "w") as f:
        json.dump({"seed": args.seed, "trace": args.trace == "1",
                   "smoke": args.smoke, "workloads": raw}, f, indent=1)

    section = "per_layer" if args.trace == "1" else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    def metrics_of(summary):
        return {name: {"value": value, "unit": units[name]}
                for name, value in summary[section].items()}

    correct = all(s["correct"] for s in summaries)
    result = {
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": (metrics_of(summaries[0]) if len(summaries) == 1 else
                    {s["workload"]: metrics_of(s) for s in summaries}),
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
