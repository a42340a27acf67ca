#!/usr/bin/env python3
"""Regenerate perfbench/references.json from the library in this checkout.

Usage: python3 perfbench/make_references.py   (about ten minutes on two cores)

Run it only on a commit whose results are trusted: every later run is
checked against what it writes. Exact counts whose brute-force enumeration
is small, (2N+1)^{2b} <= 10^8 as in acceptance criterion 01, are
cross-checked against exhaustive enumeration, and off-curve maxima for
N <= 32 against a dictionary count over all triples. Monte Carlo
references use 50 times the samples of the benchmark runs, under a seed
no benchmark run draws from the same stream.
"""

import collections
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from dispersive_lab import cli, counting, kdv, norms, strichartz, weyl  # noqa: E402
from dispersive_lab.counting import BudgetExceededError, SystemSpec  # noqa: E402
from worker import environment  # noqa: E402

REF_SEED = 2**31 - 1
MC_FACTOR = 50


def brute_force_S(d: int, b: int, N: int) -> int:
    """Sum of squared signature counts by enumerating all (2N+1)^b tuples."""
    rng = np.arange(-N, N + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * b), indexing="ij")
    A = sum(g for g in grids).ravel()
    B = sum(g**d for g in grids).ravel()
    _, runs = np.unique(np.stack([A, B]), axis=1, return_counts=True)
    return int(np.dot(runs, runs))


def brute_force_offcurve(d: int, N: int) -> int:
    counts = collections.Counter()
    r = range(-N, N + 1)
    for x in r:
        for y in r:
            for z in r:
                A, B = x + y + z, x**d + y**d + z**d
                if B != A**d:
                    counts[A, B] += 1
    return max(counts.values())


def counts(refs):
    specs = set()
    for size in ("full", "tiny"):
        p = W.COUNTING[size]
        for cls, group in p["classes"].items():
            if cls != "over_budget":
                specs.update(group)
        specs.update((W.ENVELOPE_D, W.ENVELOPE_P // 2, N) for N in p["envelope_N"])
        specs.update((3, 2, N) for N in p["cli_N"])
    for d, b, N in sorted(specs):
        try:
            S = counting.count_S(SystemSpec(d, b, N))
        except BudgetExceededError:
            print(f"count_S d{d} b{b} N{N}: refused at the default budget, no reference")
            continue
        if (2 * N + 1) ** (2 * b) <= 10**8:
            assert S == brute_force_S(d, b, N), (d, b, N)
        refs[W.count_ref_name(d, b, N)] = S
        print(W.count_ref_name(d, b, N), S, flush=True)
    for size in ("full", "tiny"):
        for d in (3, 5, 7):
            for N in W.COUNTING[size]["offcurve_N"]:
                val = counting.max_offcurve_solution_count(d, N)
                if N <= 32:
                    assert val == brute_force_offcurve(d, N), (d, N)
                refs[W.offcurve_ref_name(d, N)] = val


def profiles(refs):
    for size in ("full", "tiny"):
        p = W.LEVELSET[size]
        cfg = strichartz.SamplerConfig(samples=MC_FACTOR * p["samples"], seed=REF_SEED)
        for case, verify in (("kernel", strichartz.verify_kernel_levelset_decay),
                             ("curve", strichartz.verify_curve_levelset_decay)):
            rep = verify(3, p["N"], config=cfg, points=p["points"])
            refs[W.profile_ref_name(case, p["N"], p["points"])] = {
                "lams": [r["lam"] for r in rep["rows"]],
                "hits": [r["hits"] for r in rep["rows"]], "n": cfg.samples}
            print(size, case, [r["hits"] for r in rep["rows"]], flush=True)
        cfg = strichartz.SamplerConfig(samples=MC_FACTOR * p["cli_samples"], seed=REF_SEED)
        rep = strichartz.verify_kernel_levelset_decay(3, p["cli_N"], config=cfg,
                                                      points=p["points"])
        refs["dlab " + W.profile_ref_name("kernel", p["cli_N"], p["points"])] = {
            "lams": [r["lam"] for r in rep["rows"]],
            "hits": [r["hits"] for r in rep["rows"]], "n": cfg.samples}


def circle(refs):
    for size in ("full", "tiny"):
        for N in W.CIRCLE[size]["scan_N"]:
            scan = weyl.phi_hat_max_scan(weyl.build_phi(N * N), k_limit=2 * N**3)
            refs[W.scan_ref_name(N)] = {"max_abs": scan["max_abs"], "k": scan["k"],
                                        "phi_hat0": weyl.decompose_kernel(N, 3, N * N).phi_hat0}


def dispersive(refs, tmp):
    for size in ("full", "tiny"):
        p = W.DISPERSIVE[size]
        out = os.path.join(tmp, f"solve-{size}")
        argv = ["solve", "--out", out]
        for key, val in p["solve"].items():
            argv += ["--param", f"{key}={val}"]
        assert cli.main(argv) == 0
        refs["dlab solve " + json.dumps(p["solve"], sort_keys=True)] = [
            [c.real, c.imag]
            for c in W.solve_final_coefficients(out, p["solve"].get("band_cap", 12))]

        out = os.path.join(tmp, f"embeddings-{size}")
        argv = ["embeddings", "--out", out]
        for key, val in p["embeddings"].items():
            argv += ["--param", f"{key}={val}"]
        assert cli.main(argv) == 0
        refs["dlab embeddings " + json.dumps(p["embeddings"], sort_keys=True)] = [
            {k: float(row[k]) for k in ("l4", "xsb", "ratio")}
            for row in W._rows(os.path.join(out, "embeddings.csv"))]

        phi = W.FourierSeries(W.TP, {1: 0.1, -1: 0.1})
        for bc in p["picard_bc"]:
            states = kdv.picard_solve(phi, kdv.u_squared_p1(), 1e-3, max_iter=p["max_iter"],
                                      band_cap=bc, s=1.0, time_samples=p["time_samples"])
            assert kdv.contraction_achieved(states)
            refs[W.picard_ref_name(bc, p["max_iter"], p["time_samples"])] = [
                [c.real, c.imag] for c in W.final_coefficients(states[-1].trajectory, bc, 1e-3)]

        w = W.forcing_term(0.0)
        win = norms.TimeWindow(W.WINDOW)
        rtol = p["rtol"]
        refs[W.forcing_ref_name(rtol)] = {
            "y_s": norms.y_s_norm(kdv.duhamel(w, horizon=1.0), W.FORCING_S, win, rtol=rtol),
            "bound": norms.duhamel_forcing_bound(w, W.FORCING_S, win, rtol=rtol),
            "xsb": norms.xsb_norm_with_error(kdv.duhamel(w, horizon=1.0), W.FORCING_S, 0.5,
                                             win, rtol=rtol)[0]}
        print(size, refs[W.forcing_ref_name(rtol)], flush=True)


def main():
    refs = {}
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "results")) as tmp:
        counts(refs)
        circle(refs)
        dispersive(refs, tmp)
    profiles(refs)
    env = environment()
    refs["_source"] = {"commit": env["commit"], "have_compiled": env["have_compiled"],
                       "mc_seed": REF_SEED}
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(dict(sorted(refs.items())), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
