"""Compares two sets of benchmark results against the bounds in BENCHMARK.json.

    python3 benchmark/compare.py A.json B.json
    python3 benchmark/compare.py A1.json A2.json ... --vs B1.json B2.json ...

Each file is a results.json that run.sh wrote (build-bench/results.json; copy
it away between runs). A side given as one file contributes its reps as
samples; a side given as several files contributes each file's run value
(the one run.sh printed). For every metric on every workload in both sets
it prints each side's median and quartiles, the change, and a verdict:

  better / worse   the median moved past the metric's bound (worse) or past
                   A's own quartile spread (better);
  same             within the bound;
  unresolved       a side's spread exceeds the bound and the two sides
                   overlap, so the runs cannot tell;
  changed          (per-layer metrics, no bound) the sides do not overlap.

Deterministic outputs (the fleet's ledger joules, mean wait and energy
saving) must be bit-identical between the sets; any difference is listed.
Exit status 1 when any end-to-end metric is worse or unresolved, or a
deterministic output changed.
"""
import argparse
import json
import os
import sys

import stats
from harness import display_name

HERE = os.path.dirname(os.path.abspath(__file__))


def load(paths):
    return [json.load(open(p)) for p in paths]


def samples(results, workload, section, name):
    """The values one side contributes for one metric."""
    runs = [r["workloads"][workload] for r in results if workload in r["workloads"]]
    if len(runs) >= 2:
        return [run["summary"][section][name] for run in runs
                if name in run["summary"][section]]
    traced = section == "per_layer"
    return [rep["metrics"][name] for run in runs for rep in run["reps"]
            if rep["traced"] == traced and name in rep["metrics"]]


def verdict(a, b, better, bound):
    mid_a, mid_b = stats.median(a), stats.median(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (mid_b - mid_a) / abs(mid_a) if mid_a else 0.0
    b_wins = min(sign * x for x in b) > max(sign * x for x in a)
    a_wins = min(sign * x for x in a) > max(sign * x for x in b)
    if bound is None:
        return gain, "changed" if a_wins or b_wins else "same"
    spread = max(stats.relative_spread(a), stats.relative_spread(b))
    if spread > bound:
        return gain, "better" if b_wins else "worse" if a_wins else "unresolved"
    if gain < -bound:
        return gain, "worse"
    if gain > 0 and gain > stats.relative_spread(a):
        return gain, "better"
    return gain, "same"


def fmt(values):
    q1, q3 = stats.quartiles(values)
    return f"{stats.median(values):11.5g} [{q1:.4g}, {q3:.4g}]"


def exact_values(results, workload):
    """{(seed, name): set of values} over every rep of one side."""
    out = {}
    for r in results:
        for rep in r["workloads"].get(workload, {}).get("reps", []):
            for name, value in rep["exact"].items():
                out.setdefault((r["seed"], name), set()).add(value)
    return out


def main(argv):
    parser = argparse.ArgumentParser(prog="compare.py")
    parser.add_argument("a", nargs="+")
    parser.add_argument("--vs", nargs="+", dest="b")
    args = parser.parse_args(argv)
    if args.b is None:
        if len(args.a) != 2:
            parser.error("give A.json B.json, or A files --vs B files")
        args.a, args.b = args.a[:1], args.a[1:]
    spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    side_a, side_b = load(args.a), load(args.b)
    workloads = [w["name"] for w in spec["workloads"]
                 if any(w["name"] in r["workloads"] for r in side_a)
                 and any(w["name"] in r["workloads"] for r in side_b)]

    failing = 0
    print(f"{'workload':13s} {'metric':30s} {'unit':6s} "
          f"{'A median [Q1, Q3]':>30s} {'B median [Q1, Q3]':>30s} "
          f"{'change':>8s} {'bound':>6s} verdict")
    for workload in workloads:
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                name = metric["name"]
                a = samples(side_a, workload, section, name)
                b = samples(side_b, workload, section, name)
                if not a or not b:
                    continue
                bound = metric.get("bound")
                gain, word = verdict(a, b, metric["better"], bound)
                if bound is not None and word in ("worse", "unresolved"):
                    failing += 1
                print(f"{workload:13s} {display_name(workload, name):30s} "
                      f"{metric['unit']:6s} "
                      f"{fmt(a):>30s} {fmt(b):>30s} {100 * gain:+7.1f}% "
                      f"{'' if bound is None else f'{bound:.2f}':>6s} {word}")
        ea, eb = exact_values(side_a, workload), exact_values(side_b, workload)
        for seed, name in sorted(set(ea) & set(eb)):
            if ea[seed, name] != eb[seed, name]:
                failing += 1
                print(f"{workload:13s} {name:30s} seed {seed}: deterministic "
                      f"output CHANGED: {sorted(ea[seed, name])} vs "
                      f"{sorted(eb[seed, name])}")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
