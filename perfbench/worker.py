#!/usr/bin/env python3
"""One benchmark process: set up, then run one workload's op sequence in passes.

run.py starts this script in a fresh interpreter. Set-up is the import of
numpy, scipy and the library from ``src/`` plus one warm-up op of each kind
(the workload at its tiny size), which pays every lazy cache a CLI process
pays: the Moebius/phi sieve, the bump-transform table and the Gauss nodes.
With ``--setup-only`` the process stops there. Otherwise it builds the
workload's inputs from the seed and repeats the full op sequence until
``--seconds`` would be exceeded by another pass. Each op is timed on its
own; a pass's wall time is the sum over its ops, so checking results is
not timed. The warm-up ops are counted apart from the measured ones. With
``--trace`` one full-size warm pass comes first, so that no compared pass
pays the one-off cold costs; then traced passes (layer spans) alternate
with untraced ones, starting and ending untraced, and, where the workload
asks for per-op peak memory, one memory pass (spans plus tracemalloc,
whose timings are not used) comes last; the spans are written out at exit.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCES = os.path.join(HERE, "references.json")
MAX_REPORTED_FAILURES = 20


def import_library():
    """Import dispersive_lab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "dispersive_lab", "__init__.py")):
        raise SystemExit(f"no library source at {os.path.relpath(SRC)}/dispersive_lab")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import dispersive_lab
    if os.path.commonpath([os.path.abspath(dispersive_lab.__file__), SRC]) != SRC:
        raise SystemExit(f"dispersive_lab imported from {dispersive_lab.__file__}, not {SRC}")


def git_commit():
    """HEAD commit of the repository at ROOT; None outside one or without git."""
    # the ceiling keeps git from taking up a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy
    import scipy

    from dispersive_lab import counting, kernels
    from run import THREAD_VARS

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "have_compiled": kernels.HAVE_COMPILED,
        "default_mem_budget": counting.DEFAULT_MEM_BUDGET,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Runner:
    """Runs ops, checks their results and counts outcomes."""

    def __init__(self, corrupt=None, tracer=None):
        self.corrupt = corrupt
        self.tracer = tracer
        self.attempted = self.failed = self.refused = 0
        self.failures: list = []
        self.counters: list = []

    def _fail(self, op, message):
        self.failed += 1
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f"{op.name}: {message}")

    def run_pass(self, ops, phase, op_prefix="", traced=False) -> float:
        from checks import Mismatch
        from dispersive_lab.counting import BudgetExceededError

        wall = 0.0
        for i, op in enumerate(ops):
            self.attempted += 1
            span = None
            if traced:
                self.tracer.op, self.tracer.phase = f"{op_prefix}{i}", phase
                span = self.tracer.open("op")
            error = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except BudgetExceededError:
                error = "refused"
            except Exception as exc:  # an op failing is a result to count, not a crash
                error = f"{type(exc).__name__}: {exc}"
            finally:
                wall += time.perf_counter() - t0
                if span is not None:
                    self.tracer.close(span, error)
                    self.tracer.phase = None
            if error == "refused":
                self.refused += 1
                continue
            if error is not None:
                self._fail(op, error)
                continue
            if self.corrupt and op.corrupt and op.corrupt[0] == self.corrupt:
                result = op.corrupt[1](result)
            try:
                op.check(result)
                if op.partly_refused and op.partly_refused(result):
                    self.refused += 1
                if traced and op.counters:
                    for name, value in op.counters(result).items():
                        self.counters.append({"name": name, "value": value, "phase": phase})
            except Mismatch as exc:
                self._fail(op, str(exc))
            except Exception as exc:  # a check that crashes is a failed check
                self._fail(op, f"check raised {type(exc).__name__}: {exc}")
        return wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--corrupt", choices=("count", "estimate"))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    import_library()
    import workloads
    from spans import Tracer

    with open(REFERENCES) as fh:
        refs = json.load(fh)
    out = os.path.join(HERE, "results", "cli", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)
    tracer = Tracer() if args.trace else None
    runner = Runner(args.corrupt, tracer)
    # the warm-up ops are tiny, so they are counted apart from the measured ones
    warm_runner = Runner(tracer=tracer)

    if tracer:
        tracer.install()
        tracer.phase = "setup"
    warm = workloads.build(args.workload, "tiny", args.seed, refs, out)
    warm_runner.run_pass(warm.ops, "setup", "setup:", traced=tracer is not None)
    if tracer:
        tracer.uninstall()
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "setup_attempted": warm_runner.attempted,
              "setup_failed": warm_runner.failed,
              "setup_failures": [f"warm-up {msg}" for msg in warm_runner.failures]}

    if not args.setup_only:
        work = workloads.build(args.workload, args.size, args.seed, refs, out)
        passes = []

        def run(kind):
            """One full pass of the given kind; returns its wall time with checks."""
            traced = kind in ("traced", "memory")
            if traced:
                tracer.install()
            if kind == "memory":
                tracemalloc.start()
                tracer.memory = True
            t0, cpu0 = time.perf_counter(), time.process_time()
            wall = runner.run_pass(work.ops, len(passes), traced=traced)
            cpu = time.process_time() - cpu0
            if kind == "memory":
                tracer.memory = False
                tracemalloc.stop()
            if traced:
                tracer.uninstall()
            passes.append({"index": len(passes), "kind": kind, "wall_s": wall, "cpu_s": cpu})
            return time.perf_counter() - t0

        if tracer is None:
            start = time.perf_counter()
            while True:
                took = run("untraced")
                if time.perf_counter() - start + took > args.seconds:
                    break
        else:
            # the warm pass, not compared, pays the one-off cold costs; every
            # traced pass then sits between two untraced ones, so a drift in
            # speed from pass to pass cancels out of the tracing overhead
            run("warm")
            start = time.perf_counter()
            took = [run("untraced")]
            while True:
                took += [run("traced"), run("untraced")]
                if time.perf_counter() - start + took[-1] + took[-2] > args.seconds:
                    break
            if work.trace_memory:
                run("memory")
        result.update({
            "passes": passes,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "refused": runner.refused,
            "failures": runner.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(),
        })
        if tracer is not None:
            ops = {f"setup:{i}": op for i, op in enumerate(warm.ops)}
            ops.update({str(i): op for i, op in enumerate(work.ops)})
            dump = {"workload": args.workload, "seed": args.seed, "passes": passes,
                    "ops": {key: {"name": op.name, "case": op.case} for key, op in ops.items()},
                    "classes": work.classes, "counters": runner.counters,
                    "spans": tracer.spans}
            with open(args.spans, "w") as fh:
                json.dump(dump, fh)
    shutil.rmtree(out, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
