"""The four benchmark workloads as fixed sequences of calls into the library.

Each workload is a list of ops. An op is one call, made by the benchmark,
into a public function of ``counting``, ``strichartz``, ``kernels``,
``weyl``, ``kdv``, ``torus``, ``norms`` or ``cli``, plus the check of its
result. Ops run in a fixed order, one after another, by one caller. Inputs
that vary come from the run seed: Monte Carlo sampler seeds, random
coefficient vectors, blocks of Fourier indices, arc samples, minor-arc
points and forcing phases. Sizes are fixed, so every seed does the same
amount of work. Two sizes exist: "full" for measurement and "tiny", which
runs every op kind in well under a second (apart from the sieve) and
serves as the warm-up and the self-test.

Sizes are scaled down from the acceptance criteria so that one pass of a
workload takes a few seconds on two cores:

* levelset: criterion-13 profiles at 20k samples per level (not 1M), and
  ``dlab levelset`` at 20k samples.
* counting: every op runs under a 256 MiB table budget (the library default
  is 1.6 GB), which puts the streamed, dense, sparse and refused paths at
  sizes that finish in under a second each and keeps peak memory near
  0.3 GB.
* circle: ``phi_hat_max_scan`` at N = 16 and 23 only; ``dlab kernel`` at N = 16.
* dispersive: one single-mode forcing (fixed frequency, random phase)
  instead of three random modes, so the quadrature work is the same for
  every seed; ``picard_solve`` at band_cap 12 runs once, through
  ``dlab solve``, whose defaults are exactly that call.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from dispersive_lab import cli, counting, kdv, norms, strichartz, weyl
from dispersive_lab.counting import BudgetExceededError, SystemSpec
from dispersive_lab.torus import FourierSeries, HarmonicTrajectory, TorusConvention

from checks import (Mismatch, close, exact, h1_distance, mc_agrees, mc_standard_error,
                    require)

WORKLOADS = ("levelset", "counting", "circle", "dispersive")
TP = TorusConvention.TWO_PI


@dataclass
class Op:
    name: str                        # stable across seeds; keys the reference
    call: Callable[[], Any]
    check: Callable[[Any], None]     # raises Mismatch
    case: str | None = None          # level-set case, for the per-case layer metrics
    partly_refused: Callable[[Any], bool] | None = None
    counters: Callable[[Any], dict] | None = None
    corrupt: tuple | None = None     # (kind, result -> wrong result), for the self-test


@dataclass
class Workload:
    ops: list
    classes: dict = field(default_factory=dict)  # "d,b,N" -> count_S input class
    # record per-op peak memory in traced passes; tracemalloc slows the
    # pure-Python layers several times over, so only where memory is the question
    trace_memory: bool = False


def _seed(rng) -> int:
    return int(rng.integers(2**31 - 1))


def _dlab(out_dir: str, command: str, params: dict):
    argv = [command, "--out", out_dir]
    for key, val in params.items():
        argv += ["--param", f"{key}={val}"]

    def call():
        code = cli.main(argv)
        if code == 3:
            raise BudgetExceededError(f"dlab {command} exited 3")
        if code != 0:
            raise RuntimeError(f"dlab {command} exited {code}")
        return out_dir

    return call


def _rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _bytes_written(out_dir: str) -> dict:
    files = _json(os.path.join(out_dir, "manifest.json"))["files"] + ["manifest.json"]
    return {"cli.bytes_written": sum(os.path.getsize(os.path.join(out_dir, f)) for f in files)}


def _ref(refs: dict, name: str):
    if name not in refs:
        raise Mismatch(f"{name}: no stored reference")
    return refs[name]


# ---------------------------------------------------------------------------
# levelset

LEVELSET = {
    "full": {"N": 64, "samples": 20_000, "points": 10, "cli_N": 32, "cli_samples": 20_000},
    "tiny": {"N": 8, "samples": 2_000, "points": 4, "cli_N": 8, "cli_samples": 2_000},
}


def profile_ref_name(case: str, N: int, points: int) -> str:
    return f"levelset {case} d3 N{N} points{points}"


def _check_profile(lams, estimates, n, ref, name):
    require(len(lams) == len(ref["lams"]), f"{name}: {len(lams)} levels, reference has "
            f"{len(ref['lams'])}")
    for lam, est, ref_lam, ref_hits in zip(lams, estimates, ref["lams"], ref["hits"]):
        close(lam, ref_lam, f"{name}: level", rtol=1e-9)
        mc_agrees(est, n, ref_hits, ref["n"], f"{name} at lambda={lam:.6g}")


def _shift_estimate(rep, ref, n):
    """The estimate at the best-resolved level, moved up by 10 standard errors."""
    rep = copy.deepcopy(rep)
    i = int(np.argmax(ref["hits"]))
    se = mc_standard_error(ref["hits"][i] / ref["n"], n, ref["n"])
    rep["rows"][i]["measure"] += 10 * se
    return rep


def _levelset(size, rng, refs, out):
    p = LEVELSET[size]
    ops = []
    for case, verify in (("kernel", strichartz.verify_kernel_levelset_decay),
                         ("curve", strichartz.verify_curve_levelset_decay)):
        name = profile_ref_name(case, p["N"], p["points"])
        cfg = strichartz.SamplerConfig(samples=p["samples"], seed=_seed(rng))

        def check(rep, name=name):
            ref = _ref(refs, name)
            _check_profile([r["lam"] for r in rep["rows"]], [r["measure"] for r in rep["rows"]],
                           p["samples"], ref, name)

        ops.append(Op(
            name, lambda verify=verify, cfg=cfg: verify(3, p["N"], config=cfg, points=p["points"]),
            check, case=case,
            counters=lambda rep: {
                "strichartz.levelset.qualifying_levels": rep["qualifying"],
                "strichartz.levelset.hits": sum(r["hits"] for r in rep["rows"])},
            corrupt=("estimate", lambda rep, name=name: _shift_estimate(
                rep, _ref(refs, name), p["samples"]))))

    name = "dlab " + profile_ref_name("kernel", p["cli_N"], p["points"])
    params = {"case": "kernel", "d": 3, "N": p["cli_N"], "samples": p["cli_samples"],
              "points": p["points"], "seed": _seed(rng)}
    out_dir = os.path.join(out, "levelset")

    def check_cli(path):
        rows = _rows(os.path.join(path, "levelset.csv"))
        require(all(int(r["samples"]) == p["cli_samples"] for r in rows), f"{name}: samples")
        _check_profile([float(r["lambda"]) for r in rows], [float(r["estimate"]) for r in rows],
                       p["cli_samples"], _ref(refs, name), name)
        require(os.path.exists(os.path.join(path, "decay_report.json")), f"{name}: report")

    ops.append(Op(name, _dlab(out_dir, "levelset", params), check_cli,
                  case="kernel", counters=_bytes_written))
    return Workload(ops)


# ---------------------------------------------------------------------------
# counting

COUNTING = {
    "full": {
        "budget": 2**28,
        "classes": {
            "small": [(5, b, N) for b in (2, 3) for N in (8, 16, 32, 45, 64)],
            "mid": [(3, 4, 22), (3, 5, 16), (5, 6, 6), (5, 8, 6)],
            "large": [(5, 6, 12), (3, 4, 32)],
            "over_budget": [(5, 6, 32), (5, 8, 32)],
        },
        "envelope_N": (6, 12, 32),
        "even_norm": ((5, 6, 6), (5, 6, 12)),
        "offcurve_N": (16, 32, 64),
        "cli_N": (8, 16),
    },
    "tiny": {
        "budget": 2**20,
        "classes": {
            "small": [(5, 2, 4), (5, 3, 4)],
            "mid": [(3, 3, 6)],
            "large": [(3, 4, 4)],
            "over_budget": [(5, 4, 16)],
        },
        "envelope_N": (2, 4),
        "even_norm": ((5, 3, 4), (3, 3, 4)),
        "offcurve_N": (8,),
        "cli_N": (4, 8),
    },
}
ENVELOPE_P, ENVELOPE_D = 12, 5


def count_ref_name(d: int, b: int, N: int) -> str:
    return f"count_S d{d} b{b} N{N}"


def offcurve_ref_name(d: int, N: int) -> str:
    return f"max_offcurve_solution_count d{d} N{N}"


def _strichartz_floor(p: int, d: int, N: int) -> float:
    """Criterion-05 floor 0.1 (1 + N^{1/2 - (d+1)/p}) on the L^p Strichartz constant."""
    return 0.1 * (1.0 + N ** (0.5 - (d + 1) / p))


def _check_count_completed(S, d, b, N, name):
    """What an input refused today must satisfy once a later change completes it."""
    require(S >= (2 * N + 1) ** b, f"{name}: S = {S} < (2N+1)^b")
    require((S / (2 * N + 1) ** b) ** (1.0 / (2 * b)) >= _strichartz_floor(2 * b, d, N),
            f"{name}: all-ones ratio below the criterion-05 floor")


def _count_op(d, b, N, cls, budget, refs):
    name = count_ref_name(d, b, N)
    spec = SystemSpec(d, b, N)
    if cls == "over_budget":
        def check(S):
            _check_count_completed(S, d, b, N, name)
    else:
        def check(S):
            exact(S, _ref(refs, name), name)
    return Op(name, lambda: counting.count_S(spec, mem_budget=budget), check,
              corrupt=("count", lambda S: S + 1))


def _envelope_op(N, budget, refs):
    p, d, b = ENVELOPE_P, ENVELOPE_D, ENVELOPE_P // 2
    name = f"k_lower_envelope p{p} d{d} N{N}"

    def check(res):
        require(res.value >= _strichartz_floor(p, d, N), f"{name}: {res.value} below floor")
        require(all("budget" in why for why in res.skipped.values()),
                f"{name}: skipped for a reason other than the budget: {res.skipped}")
        if "all_ones" in res.per_strategy:
            S = refs.get(count_ref_name(d, b, N))
            if S is None:
                _check_count_completed(
                    round(res.per_strategy["all_ones"] ** p * (2 * N + 1) ** b), d, b, N, name)
            else:
                close(res.per_strategy["all_ones"], (S / (2 * N + 1) ** b) ** (1.0 / p),
                      f"{name}: all_ones", rtol=1e-12)

    return Op(name, lambda: strichartz.k_lower_envelope(
        p, N, d, strategies=("single", "all_ones"), seed=1, mem_budget=budget), check,
        partly_refused=lambda res: bool(res.skipped))


def _even_norm_op(d, b, N, budget, rng):
    a = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
    vec = strichartz.CoefficientVector(N, a)
    name = f"even_norm d{d} b{b} N{N}"

    def check(val):
        ratio = val / vec.l2_norm()
        require(1.0 - 1e-12 <= ratio <= math.sqrt(2 * N + 1) * (1.0 + 1e-12),
                f"{name}: ||F||_{2 * b} / ||a||_2 = {ratio} outside [1, sqrt(2N+1)]")

    return Op(name, lambda: strichartz.even_norm(vec, b, d, mem_budget=budget), check)


def _table_sums(path):
    total = squares = 0
    for row in _rows(path):
        c = int(row["count"])
        total += c
        squares += c * c
    return total, squares


def _counting(size, rng, refs, out):
    p = COUNTING[size]
    budget = p["budget"]
    classes = {f"{d},{b},{N}": cls for cls, specs in p["classes"].items()
               for d, b, N in specs}
    ops = [_count_op(d, b, N, cls, budget, refs)
           for cls, specs in p["classes"].items() for d, b, N in specs]
    ops += [_envelope_op(N, budget, refs) for N in p["envelope_N"]]
    ops += [_even_norm_op(d, b, N, budget, rng) for d, b, N in p["even_norm"]]
    for d in (3, 5, 7):
        for N in p["offcurve_N"]:
            name = offcurve_ref_name(d, N)
            ops.append(Op(name, lambda d=d, N=N: counting.max_offcurve_solution_count(d, N),
                          lambda got, name=name: exact(got, _ref(refs, name), name),
                          corrupt=("count", lambda got: got + 1)))

    d, b = 3, 2
    name = f"dlab count d{d} b{b} table"
    out_dir = os.path.join(out, "count")

    def check_cli(path):
        rows = _rows(os.path.join(path, "count_scan.csv"))
        require([int(r["N"]) for r in rows] == list(p["cli_N"]), f"{name}: rows")
        for r in rows:
            N = int(r["N"])
            S = _ref(refs, count_ref_name(d, b, N))
            exact(int(r["S"]), S, f"{name}: S at N={N}")
            total, squares = _table_sums(os.path.join(path, f"table_d{d}_b{b}_N{N}.csv"))
            exact(total, (2 * N + 1) ** b, f"{name}: table mass at N={N}")
            exact(squares, S, f"{name}: table squares at N={N}")

    ops.append(Op(name, _dlab(out_dir, "count", {
        "d": d, "b": b, "N": ",".join(map(str, p["cli_N"])), "table": 1,
        "mem_budget": budget}), check_cli, counters=_bytes_written))
    for N in p["cli_N"]:
        classes.setdefault(f"{d},{b},{N}", "small")
    return Workload(ops, classes, trace_memory=True)


# ---------------------------------------------------------------------------
# circle

CIRCLE = {
    "full": {"scan_N": (16, 23), "many_Q": (64, 256, 1024), "block": 48,
             "k1_N": (32, 64, 128), "k1_samples": 600, "k2_N": 8,
             "weyl_N": (64, 128), "weyl_count": 40,
             "rbr_Q": (8, 16, 32, 64, 128, 256), "rbr_n": 8,
             "cli_N": 16, "cli_count": 100},
    "tiny": {"scan_N": (4,), "many_Q": (16,), "block": 8,
             "k1_N": (8,), "k1_samples": 20, "k2_N": 4,
             "weyl_N": (16,), "weyl_count": 4,
             "rbr_Q": (8, 16), "rbr_n": 2,
             "cli_N": 4, "cli_count": 10},
}
BUMP_MAX = math.exp(-4.0)  # the bump prototype exp(-1/(u(1-u))) peaks at u = 1/2


def scan_ref_name(N: int) -> str:
    return f"phi_hat_max_scan Q=N^2 N{N}"


def _divisors(n: int) -> list:
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return sorted(set(small + [n // i for i in small]))


def _phi_hat_by_divisors(phi, k: int):
    """Phi_hat(k) with c_q(k) summed over the divisors of k, and its absolute scale."""
    mu = counting.mobius_phi_sieve(max(1_000_000, phi.q_hi + 1))[0]
    q = np.arange(phi.q_lo, phi.q_hi + 1, dtype=np.int64)
    c = np.zeros(len(q))
    for delta in _divisors(k):
        hit = q % delta == 0
        c[hit] += delta * mu[q[hit] // delta]
    terms = c / q.astype(float) ** 2 * phi.bump.fourier_transform(k / q.astype(float) ** 2)
    return complex(terms.sum()), float(np.abs(terms).sum())


def _block_ratio(Q: int, n: int, eps: float = 0.05) -> float:
    """ramanujan_block_ratio by the Moebius formula c_q(n) = mu(q/g) phi(q) / phi(q/g)."""
    mu, phi, _ = counting.mobius_phi_sieve()
    q = np.arange(Q, 2 * Q, dtype=np.int64)
    g = np.gcd(q, n)
    block = float(np.abs(mu[q // g] * (phi[q] // phi[q // g])).sum())
    divs = sum(1 for v in _divisors(n) if v < Q)
    return block / (divs * Q ** (1.0 + eps))


def _circle(size, rng, refs, out):
    p = CIRCLE[size]
    ops = []
    for N in p["scan_N"]:
        name = scan_ref_name(N)

        def check(res, name=name):
            ref = _ref(refs, name)
            exact(res["k"], ref["k"], f"{name}: argmax k")
            close(res["max_abs"], ref["max_abs"], f"{name}: max", rtol=1e-9)

        ops.append(Op(name, lambda N=N: weyl.phi_hat_max_scan(
            weyl.build_phi(N * N), k_limit=2 * N**3), check))

    for Q in p["many_Q"]:
        phi = weyl.build_phi(Q)
        ks = rng.integers(1, 4 * Q + 1, p["block"])

        def check(vals, phi=phi, ks=ks, Q=Q):
            for k, v in zip(ks.tolist(), vals):
                ref, scale = _phi_hat_by_divisors(phi, k)
                close(v, ref, f"phi_hat_many Q={Q} k={k}", atol=1e-12 * scale)

        ops.append(Op(f"phi_hat_many Q{Q}", lambda phi=phi, ks=ks: phi.phi_hat_many(ks), check))

    for N in p["k1_N"]:
        Q = N * N
        samples = []
        while len(samples) < p["k1_samples"]:
            q = int(rng.integers(Q, 5 * Q + 1))
            a = int(rng.integers(1, q))
            if math.gcd(a, q) == 1:
                samples.append((a, q, 1 / 200 + rng.random() * (1 / 100 - 1 / 200),
                                float(rng.random())))

        def call(N=N, Q=Q, samples=samples):
            dec = weyl.decompose_kernel(N, 3, Q)
            return dec.phi_hat0, [dec.k1_at_arc(a, q, u, x) for a, q, u, x in samples]

        def check(res, N=N):
            phi_hat0, vals = res
            bound = (2 * N + 1) * BUMP_MAX / phi_hat0 * (1 + 1e-9)
            require(all(math.isfinite(abs(v)) and abs(v) <= bound for v in vals),
                    f"k1_at_arc N={N}: |K_1| above (2N+1) max(bump) / Phi_hat(0)")
            require(max(abs(v) for v in vals) > 0, f"k1_at_arc N={N}: all zero")

        ops.append(Op(f"k1_at_arc N{N}", call, check))

    N = p["k2_N"]

    def k2_call(N=N):
        dec = weyl.decompose_kernel(N, 3, N * N)
        return [dec.k2_hat(n, n**3) for n in range(-N, N + 1)]

    ops.append(Op(f"k2_hat on curve N{N}", k2_call, lambda vals: require(
        all(v == 0 for v in vals), "K2_hat(n, n^d) != 0 on the curve")))

    for N in p["weyl_N"]:
        seed = _seed(rng)

        def call(N=N, seed=seed):
            pts = weyl.minor_arc_points(N, 3, p["weyl_count"], seed=seed)
            return [(t, a, q, weyl.weyl_sum(N, 3, t)) for t, a, q in pts]

        def check(res, N=N):
            for t, a, q, s in res:
                require(q >= N**2 and abs(t - Fraction(a, q)) <= Fraction(1, q * q),
                        f"minor_arc_points N={N}: {t} not within 1/q^2 of a/q")
                ph = [(t.numerator * n**3 % t.denominator) / t.denominator
                      for n in range(1, N + 1)]
                want = complex(np.exp(2j * np.pi * np.array(ph)).sum())
                close(s, want, f"weyl_sum N={N} t={t}", atol=1e-9 * N)
                require(abs(s) <= N * (1 + 1e-12), f"weyl_sum N={N}: |S| > N")

        ops.append(Op(f"weyl_sum minor arcs N{N}", call, check))

    pairs = [(Q, int(n)) for Q in p["rbr_Q"] for n in rng.integers(1, Q**3, p["rbr_n"])]

    def rbr_check(vals):
        for (Q, n), v in zip(pairs, vals):
            close(v, _block_ratio(Q, n), f"ramanujan_block_ratio Q={Q} n={n}", rtol=1e-12)

    ops.append(Op("ramanujan_block_ratio", lambda: [
        counting.ramanujan_block_ratio(Q, n) for Q, n in pairs], rbr_check))

    N = p["cli_N"]
    name = f"dlab kernel N{N}"
    out_dir = os.path.join(out, "kernel")

    def check_cli(path):
        exact(_json(os.path.join(path, "kernel_report.json"))["k2_hat_on_curve_max"], 0.0,
              f"{name}: K2_hat on the curve")
        scan, arcs = _rows(os.path.join(path, "kernel_scan.csv"))
        ref = _ref(refs, scan_ref_name(N))
        close(float(scan["quantity"]), ref["max_abs"] * N * N, f"{name}: max |Phi_hat| Q",
              rtol=1e-9)
        require(0 < float(arcs["quantity"]) <= (2 * N + 1) * BUMP_MAX / ref["phi_hat0"],
                f"{name}: sup |K_1| out of range")

    ops.append(Op(name, _dlab(out_dir, "kernel", {
        "d": 3, "N": N, "count": p["cli_count"], "seed": _seed(rng)}), check_cli,
        counters=_bytes_written))
    return Workload(ops)


# ---------------------------------------------------------------------------
# dispersive

DISPERSIVE = {
    "full": {"solve": {}, "gauge": {}, "illposed": {}, "embeddings": {},
             "picard_bc": (16, 24), "max_iter": 8, "time_samples": 257,
             "two_mode": {"N": 4, "band_cap": 12, "time_samples": 257},
             "c9_N": (4, 8, 16, 32, 64), "c9_s": (0.3, 0.5, 1.0), "rtol": 1e-7},
    "tiny": {"solve": {"max_iter": 6, "time_samples": 33, "band_cap": 6},
             "gauge": {"max_iter": 6, "time_samples": 33, "band_cap": 6},
             "illposed": {"N": "16,32"}, "embeddings": {"N": "2", "samples": 2000},
             "picard_bc": (6,), "max_iter": 6, "time_samples": 33,
             "two_mode": {"N": 2, "band_cap": 8, "time_samples": 65},
             "c9_N": (4,), "c9_s": (0.5,), "rtol": 1e-2},
}
FORCING_MODE = (2, 13.0)  # (n, lambda) of the single forcing term
FORCING_S, WINDOW = 0.6, 0.5


def picard_ref_name(band_cap: int, max_iter: int, time_samples: int) -> str:
    return f"picard_solve band_cap{band_cap} iters{max_iter} samples{time_samples}"


def forcing_ref_name(rtol: float) -> str:
    return f"forcing n{FORCING_MODE[0]} lam{FORCING_MODE[1]:g} s{FORCING_S} rtol{rtol:g}"


def final_coefficients(traj, band: int, delta: float) -> list:
    """Coefficients on [-band, band] of the last Picard iterate at t = delta."""
    if isinstance(traj, kdv.SampledTrajectory):
        return [complex(c) for c in traj.coeffs[:, -1]]
    f = traj.at_time(delta)
    return [f[n] for n in range(-band, band + 1)]


def solve_final_coefficients(path: str, band: int) -> list:
    """Final Picard iterate at t = delta from a ``dlab solve`` trajectory.json."""
    traj = _json(os.path.join(path, "trajectory.json"))
    if traj.get("kind") == "sampled":
        return [complex(re, im) for re, im in traj["frames"][-1]]
    return final_coefficients(HarmonicTrajectory.from_json(json.dumps(traj)), band, 1e-3)


def _check_final(got, ref, name):
    want = [complex(re, im) for re, im in ref]
    require(len(got) == len(want), f"{name}: band")
    dist = h1_distance(got, want)
    require(dist <= 1e-6, f"{name}: H1 distance {dist:.2e} to the reference > 1e-6")


def forcing_term(phase: float) -> HarmonicTrajectory:
    n, lam = FORCING_MODE
    return HarmonicTrajectory(TP, {(n, 0, lam): complex(math.cos(phase), math.sin(phase))})


def _dispersive(size, rng, refs, out):
    p = DISPERSIVE[size]
    ops = []
    solve_name = "dlab solve " + json.dumps(p["solve"], sort_keys=True)
    delta = 1e-3

    def check_solve(path):
        require(_json(os.path.join(path, "solve_report.json"))["contraction"],
                f"{solve_name}: no contraction")
        _check_final(solve_final_coefficients(path, p["solve"].get("band_cap", 12)),
                     _ref(refs, solve_name), solve_name)

    ops.append(Op(solve_name, _dlab(os.path.join(out, "solve"), "solve", p["solve"]),
                  check_solve, counters=_bytes_written))

    def check_gauge(path):
        rep = _json(os.path.join(path, "gauge.json"))
        require(rep["contraction"], "dlab gauge-check: no contraction")
        require(rep["residual_original_equation"] <= 1e-6,
                f"dlab gauge-check: residual {rep['residual_original_equation']:.2e} > 1e-6")

    ops.append(Op("dlab gauge-check", _dlab(os.path.join(out, "gauge"), "gauge-check",
                                             p["gauge"]), check_gauge, counters=_bytes_written))

    for case, s in (("p1", 0.3), ("p2", 0.7)):
        def check_ill(path, case=case):
            rep = _json(os.path.join(path, "slope.json"))
            close(rep["slope"], rep["target"], f"dlab illposed {case}: slope", atol=0.05)

        ops.append(Op(f"dlab illposed {case}", _dlab(
            os.path.join(out, f"illposed_{case}"), "illposed",
            {"case": case, "s": s, **p["illposed"]}), check_ill, counters=_bytes_written))

    emb_name = "dlab embeddings " + json.dumps(p["embeddings"], sort_keys=True)

    def check_emb(path):
        rows = _rows(os.path.join(path, "embeddings.csv"))
        ref = _ref(refs, emb_name)
        require(len(rows) == len(ref), f"{emb_name}: rows")
        for row, want in zip(rows, ref):
            for key in ("l4", "xsb", "ratio"):
                close(float(row[key]), want[key], f"{emb_name}: {key}", rtol=1e-6)

    ops.append(Op(emb_name, _dlab(os.path.join(out, "embeddings"), "embeddings",
                                  p["embeddings"]), check_emb, counters=_bytes_written))

    phi = FourierSeries(TP, {1: 0.1, -1: 0.1})
    for bc in p["picard_bc"]:
        name = picard_ref_name(bc, p["max_iter"], p["time_samples"])

        def check(states, name=name, bc=bc):
            require(kdv.contraction_achieved(states), f"{name}: no contraction")
            _check_final(final_coefficients(states[-1].trajectory, bc, delta),
                         _ref(refs, name), name)

        ops.append(Op(name, lambda bc=bc: kdv.picard_solve(
            phi, kdv.u_squared_p1(), delta, max_iter=p["max_iter"], band_cap=bc, s=1.0,
            time_samples=p["time_samples"]), check))

    tm = p["two_mode"]
    two_mode = kdv.two_mode_data(tm["N"], 0.5, float(rng.uniform(0.05, 0.1)))
    ops.append(Op(f"picard_solve two-mode N{tm['N']}", lambda: kdv.picard_solve(
        two_mode, kdv.u_squared_p1(), delta, max_iter=8, band_cap=tm["band_cap"],
        time_samples=tm["time_samples"]),
        lambda states: require(kdv.contraction_achieved(states), "two-mode: no contraction")))

    t = float(rng.uniform(0.1, 0.5))
    grid = [(s, N) for s in p["c9_s"] for N in p["c9_N"]]

    def c9_call():
        out_ = []
        for s, N in grid:
            data = kdv.two_mode_data(N, s, 1.0)
            out_.append((kdv.first_iterate(data, kdv.u_squared_p1()).at_time(t)[N],
                         kdv.first_iterate(data, kdv.u_p2()).at_time(t)[N]))
        return out_

    def c9_check(vals):
        for (s, N), (c1, c2) in zip(grid, vals):
            rot = np.exp(-1j * float(N) ** 5 * t)
            want1 = (N**-s - 1j * N ** (1 - 3 * s) * t) * rot
            want2 = (N**-s - N ** (2 - 3 * s) * t) * rot
            close(c1, want1, f"first iterate P1 s={s} N={N}", rtol=1e-10)
            close(c2, want2, f"first iterate P2 s={s} N={N}", rtol=1e-10)

    ops.append(Op("first_iterate closed forms", c9_call, c9_check))

    w = forcing_term(float(rng.uniform(0.0, 2 * math.pi)))
    win = norms.TimeWindow(WINDOW)
    rtol = p["rtol"]
    fname = forcing_ref_name(rtol)

    def forcing_call():
        lhs = norms.y_s_norm(kdv.duhamel(w, horizon=1.0), FORCING_S, win, rtol=rtol)
        return lhs, norms.duhamel_forcing_bound(w, FORCING_S, win, rtol=rtol)

    def forcing_check(res):
        lhs, rhs = res
        ref = _ref(refs, fname)
        require(rhs > 0 and lhs / rhs < 50.0, f"{fname}: forcing ratio {lhs / rhs} >= 50")
        close(lhs, ref["y_s"], f"{fname}: Y_s norm of the Duhamel output", rtol=10 * rtol)
        close(rhs, ref["bound"], f"{fname}: forcing bound", rtol=10 * rtol)

    ops.append(Op(fname, forcing_call, forcing_check))

    def xsb_check(res):
        val, err = res
        close(val, _ref(refs, fname)["xsb"], f"{fname}: X_(s,1/2) norm", rtol=10 * rtol)
        require(0 <= err <= 10 * rtol * val, f"{fname}: quadrature error {err}")

    ops.append(Op(f"xsb_norm_with_error {fname}", lambda: norms.xsb_norm_with_error(
        kdv.duhamel(w, horizon=1.0), FORCING_S, 0.5, win, rtol=rtol), xsb_check,
        counters=lambda res: {"norms.quad_err_sum": res[1]}))
    return Workload(ops)


BUILDERS = {"levelset": _levelset, "counting": _counting, "circle": _circle,
            "dispersive": _dispersive}


def build(name: str, size: str, seed: int, refs: dict, out: str) -> Workload:
    """The workload's op sequence at ``size``, with inputs drawn from ``seed``."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return BUILDERS[name](size, rng, refs, os.path.join(out, name))
