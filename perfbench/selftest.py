#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about two minutes on two cores).

Usage, from the root of a checkout: python3 perfbench/selftest.py

* Every workload, untraced and traced, must pass its checks and emit
  exactly the metrics named in BENCHMARK.json, each with its unit.
* A count off by one (counting) and a Monte Carlo estimate moved by ten
  standard errors (levelset) must each land in ``failed``.
* In a directory holding only BENCHMARK.json and the benchmark's own files,
  the command must exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "results", "selftest")


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc, result


def check_result(result, metrics, label):
    expect(result is not None, f"{label}: no result line")
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, label)
    expect(result["attempted"] >= 1, label)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in metrics}
    wrong_units = [k for k in got.keys() & want.keys() if got[k] != want[k]]
    expect(got == want, f"{label}: metrics differ from BENCHMARK.json: missing "
           f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
           f"wrong units {wrong_units}")
    expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()), label)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for wl in bench["workloads"]:
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            label = f"{wl['name']} trace={trace}"
            proc, result = run(["--workload", wl["name"], "--seed", "7", "--seconds", "1",
                                "--trace", str(trace), "--size", "tiny"])
            expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
            check_result(result, metrics, label)
            expect(result["correct"] and result["failed"] == 0, f"{label}: {proc.stdout}")
            print(f"ok   {label}: {result['attempted']} ops, all metrics with units")

    for workload, kind in (("counting", "count"), ("levelset", "estimate")):
        proc, result = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", "0", "--size", "tiny", "--corrupt", kind])
        expect(proc.returncode == 0 and result is not None, proc.stderr)
        expect(result["failed"] >= 1 and not result["correct"],
               f"corrupted {kind} not caught: {proc.stdout}")
        print(f"ok   corrupted {kind} on {workload}: {result['failed']} failed ops")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc, result = run(["--workload", "counting", "--seed", "1", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
    expect(proc.returncode != 0 and result is None, "ran without the library source")
    print(f"ok   without src/: exit {proc.returncode}, no result")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
