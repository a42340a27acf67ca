#!/usr/bin/env python3
"""Measure every workload over several seeds and record the baseline.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py [--runs 10] [--workloads levelset,...]
        [--out perfbench/baseline.json] [--compare perfbench/baseline.json]

This runs the benchmark untraced with seeds 1..runs at BENCHMARK.json's
run_seconds, every workload once per seed, and then one traced run per
workload. It prints wall_s, setup_s, peak_rss_mb, failed_frac and
refused_frac with their units, and for each end-to-end metric the median,
the quartiles and the spread (interquartile range over the median) against
the metric's bound. From the traced run it records each layer's share of
the pass (busy time over pass wall time; nested layers overlap, so shares
do not add up) and the tracing overhead. With ``--compare`` it also prints
how far each median moved from an earlier baseline, as a share of that
median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from summarise import shares  # noqa: E402


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200,
                          check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-full-seed{seed}-trace{trace}"
    with open(os.path.join(HERE, "results", f"{tag}.json")) as fh:
        record = json.load(fh)
    return result, record, os.path.join(HERE, "results", f"spans-{tag}.json")


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    ap.add_argument("--compare")
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    old = {}
    if args.compare:
        with open(args.compare) as fh:
            old = json.load(fh)["workloads"]

    out = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    workloads = args.workloads.split(",")
    values = {w: {name: [] for name in bounds} for w in workloads}
    counts = {w: {"attempted": 0, "failed": 0, "refused": 0} for w in workloads}
    env = None
    # seeds outermost, so that a drift in the host's speed during the
    # baseline reaches every workload alike rather than the last ones only
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            result, record, _ = run(workload, seed, seconds, 0)
            for name in bounds:
                values[workload][name].append(result["metrics"][name]["value"])
            for key in counts[workload]:
                counts[workload][key] += record[key]
            env = record["env"]
            for msg in record["failures"]:
                print(f"FAILED {workload} seed {seed}: {msg}")
    for workload in workloads:
        attempted = counts[workload]["attempted"]
        traced, _, spans_path = run(workload, 1, seconds, 1)
        with open(spans_path) as fh:
            layer_shares = shares(json.load(fh))
        entry = {
            "env": env,
            "failed_frac": counts[workload]["failed"] / attempted,
            "refused_frac": counts[workload]["refused"] / attempted,
            "end_to_end": {name: quartiles(vals) for name, vals in values[workload].items()},
            "trace_overhead_s": traced["metrics"]["process.trace_overhead_s"]["value"],
            "layer_shares": {k: round(v, 4) for k, v in layer_shares.items()},
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        out["workloads"][workload] = entry
        print(f"{workload}: {args.runs} runs x {seconds} s, {attempted} ops")
        for name, q in entry["end_to_end"].items():
            steady = "steady" if q["spread"] < bounds[name] / 3 else (
                "within bound" if q["spread"] <= bounds[name] else "NOT STEADY")
            line = (f"  {name:12s} median {q['median']:10.4f} {units[name]:3s} "
                    f"q1 {q['q1']:10.4f} q3 {q['q3']:10.4f} spread {q['spread']:.4f} "
                    f"(bound {bounds[name]}) {steady}")
            if workload in old:
                was = old[workload]["end_to_end"][name]["median"]
                line += f"  moved {q['median'] / was - 1:+.4f}"
            print(line)
        print(f"  failed_frac  {entry['failed_frac']:.4f} ratio")
        print(f"  refused_frac {entry['refused_frac']:.4f} ratio")
        print(f"  trace overhead {entry['trace_overhead_s']:.3f} s; top layer shares: "
              + ", ".join(f"{k} {v:.2f}" for k, v in sorted(
                  layer_shares.items(), key=lambda kv: -kv[1])[:5]))
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
