#!/usr/bin/env python3
"""Benchmark of the dispersive lab: one workload per call, closed loop, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {levelset,counting,circle,dispersive}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]
        [--corrupt {count,estimate}]

The library is imported from this checkout's ``src/``; nothing is installed.
Set-up (fresh-process imports plus one warm-up op of each kind) is measured
in five fresh processes, one after another, and reported as the median.
The third of them then runs the workload's fixed op sequence in passes for
``--seconds`` and checks every result against a stored reference or an
invariant. BLAS/OpenMP thread variables are capped at ``nproc`` in every
child process.

With ``--trace 0`` the result line carries the end-to-end metrics:

    wall_s       median pass wall time: time to finish the op sequence
    setup_s      median set-up time over five fresh processes
    peak_rss_mb  peak resident memory of the measuring process

and the lines before it also report failed_frac (ops that raised an
unexpected error or failed their check) and refused_frac (ops refused by
the memory budget: a BudgetExceededError, or an envelope strategy skipped
for budget), each over the full-size ops attempted. The result line's
attempted and failed also count the tiny warm-up ops of every set-up.
With ``--trace 1`` the measuring process runs a warm pass, then untraced
passes alternating with traced ones and (on counting) one memory pass,
and the result line carries the per-layer metrics of summarise.py.
``--size tiny`` runs every op kind in seconds (the self-test uses it);
``--corrupt`` deliberately corrupts results before they are checked, to
show that the checks catch it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Results, with the environment
record, are also written to perfbench/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKLOADS = ("levelset", "counting", "circle", "dispersive")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5  # the measuring process is the middle one
TIME_LIMIT = 170.0  # seconds for the whole command, children included
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    """This process's environment with every thread variable capped at nproc."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        try:
            want = int(env.get(var, nproc))
        except ValueError:
            want = nproc
        env[var] = str(max(1, min(want, nproc)))
    return env


def run_worker(args, flags, result_path, deadline):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--result", result_path] + flags
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise SystemExit("time limit reached before the workload ran")
    # the worker's standard output goes to our standard error, so that the
    # result line stays the last line of ours
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=sys.stderr,
                          timeout=timeout, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", choices=("count", "estimate"))
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dispersive_lab", "__init__.py")):
        print("perfbench: src/dispersive_lab not found; run from the root of a "
              "dispersive-lab checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    if args.corrupt:
        tag += f"-corrupt-{args.corrupt}"

    def setup_only(i):
        path = os.path.join(RESULTS, f"{tag}-setup{i}.json")
        return run_worker(args, ["--setup-only"], path, deadline)

    before = SETUP_SAMPLES // 2
    setups = [setup_only(i) for i in range(before)]
    flags = ["--seconds", str(args.seconds)]
    spans_path = os.path.join(RESULTS, f"spans-{tag}.json")
    if args.trace:
        flags += ["--trace", "--spans", spans_path]
    res = run_worker(args, flags, os.path.join(RESULTS, f"{tag}.json"), deadline)
    setups.append(res)
    setups += [setup_only(i) for i in range(before, SETUP_SAMPLES - 1)]
    setup = [r["setup_s"] for r in setups]

    attempted, failed, refused = res["attempted"], res["failed"], res["refused"]
    warm_attempted = sum(r["setup_attempted"] for r in setups)
    warm_failed = sum(r["setup_failed"] for r in setups)
    failures = [msg for r in setups for msg in r["setup_failures"]] + res["failures"]
    untraced = [p["wall_s"] for p in res["passes"] if p["kind"] == "untraced"]
    e2e = {"wall_s": statistics.median(untraced),
           "setup_s": statistics.median(setup),
           "peak_rss_mb": res["peak_rss_mb"]}
    ratios = {"failed_frac": failed / attempted, "refused_frac": refused / attempted}
    if args.trace:
        sys.path.insert(0, HERE)
        from summarise import summarise

        with open(spans_path) as fh:
            metrics = summarise(json.load(fh))
        metrics["ops.failed_frac"]["value"] = ratios["failed_frac"]
        metrics["ops.refused_frac"]["value"] = ratios["refused_frac"]
    else:
        metrics = {name: {"value": val, "unit": END_TO_END_UNITS[name]}
                   for name, val in e2e.items()}

    print("env " + json.dumps(res["env"], sort_keys=True))
    print(f"{args.workload}: {len(res['passes'])} passes "
          f"({len(untraced)} untraced), {attempted} ops, {warm_attempted} warm-up ops "
          f"({warm_failed} failed), setup samples "
          + ", ".join(f"{s:.3f}" for s in setup))
    for name, val in e2e.items():
        print(f"{args.workload} {name:12s} {val:12.4f} {END_TO_END_UNITS[name]}")
    for name, val in ratios.items():
        print(f"{args.workload} {name:12s} {val:12.4f} ratio "
              f"({failed if name == 'failed_frac' else refused}/{attempted} ops)")
    if args.trace:
        for name, m in metrics.items():
            print(f"{args.workload} {name:52s} {m['value']:14.6g} {m['unit']}")
    for msg in failures:
        print(f"FAILED {msg}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "corrupt": args.corrupt,
              "env": res["env"], "setup_samples": setup, "passes": res["passes"],
              "attempted": attempted, "failed": failed, "refused": refused,
              "warm_attempted": warm_attempted, "warm_failed": warm_failed,
              "failures": failures, "end_to_end": e2e, **ratios, "metrics": metrics}
    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed + warm_failed == 0,
                      "attempted": attempted + warm_attempted,
                      "failed": failed + warm_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
