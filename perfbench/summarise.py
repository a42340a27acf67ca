#!/usr/bin/env python3
"""Turn a traced run's span dump into the per-layer metrics.

Usage: python3 perfbench/summarise.py perfbench/results/spans-<workload>-<seed>.json

Every layer figure is per traced pass (the pass total divided by the
number of traced passes), except the set-up layers (the Moebius/phi sieve
and the bump-transform quadrature), which are measured over the warm-up
phase because their results are cached for the rest of the process, and
peak memory, which comes from separate memory passes (tracemalloc slows
the traced code, so their timings are not used). A
layer's busy time is the total duration of its spans; its self time is
each span's duration minus the part of it that child spans cover. Rates
divide work units, computed by the benchmark from each call's inputs, by
busy time, so a rate moves only when time does. The tracing overhead is
the median, over traced passes, of each one's wall time minus the mean of
the two untraced passes either side of it.
"""

from __future__ import annotations

import json
import statistics
import sys

SETUP_LAYERS = ("counting.mobius_phi_sieve", "weyl.fourier_transform_quad")
COUNT_CLASSES = ("small", "mid", "large", "over_budget")

# name -> (unit, better)
METRICS = {
    "kernels.curve_sum.calls": ("count", "lower"),
    "kernels.curve_sum.busy_s": ("s", "lower"),
    "kernels.curve_sum.points_per_s": ("points/s", "higher"),
    "kernels.curve_sum.mode_evals_per_s": ("evals/s", "higher"),
    "strichartz.level_set_profile.kernel.self_s": ("s", "lower"),
    "strichartz.level_set_profile.kernel.points_per_s": ("points/s", "higher"),
    "strichartz.level_set_profile.curve.self_s": ("s", "lower"),
    "strichartz.level_set_profile.curve.points_per_s": ("points/s", "higher"),
    "strichartz.levelset.qualifying_levels": ("count", "higher"),
    "strichartz.levelset.hits": ("count", "higher"),
    **{f"counting.count_S.{c}.{m}": u for c in COUNT_CLASSES
       for m, u in (("busy_s", ("s", "lower")), ("cells_per_s", ("cells/s", "higher")))},
    "counting.count_S.refused": ("count", "lower"),
    "counting.count_S.refused_busy_s": ("s", "lower"),
    "counting.count_S.useful_frac": ("ratio", "higher"),
    "strichartz.even_norm.busy_s": ("s", "lower"),
    "strichartz.even_norm.cells_per_s": ("cells/s", "higher"),
    "strichartz.even_norm.peak_mb": ("MB", "lower"),
    "strichartz.k_lower_envelope.self_s": ("s", "lower"),
    "strichartz.k_lower_envelope.skipped": ("count", "lower"),
    "counting.max_offcurve_solution_count.busy_s": ("s", "lower"),
    "counting.max_offcurve_solution_count.tuples_per_s": ("tuples/s", "higher"),
    "counting.max_offcurve_solution_count.peak_mb": ("MB", "lower"),
    "counting.power_sum_distribution.busy_s": ("s", "lower"),
    "counting.power_sum_distribution.cells_per_s": ("cells/s", "higher"),
    "counting.mobius_phi_sieve.busy_s": ("s", "lower"),
    "weyl.fourier_transform_quad.busy_s": ("s", "lower"),
    "weyl.phi_hat.calls": ("count", "lower"),
    "weyl.phi_hat.busy_s": ("s", "lower"),
    "weyl.phi_hat.coeffs_per_s": ("coeffs/s", "higher"),
    "weyl.phi_hat_dense.busy_s": ("s", "lower"),
    "weyl.phi_hat_dense.coeffs_per_s": ("coeffs/s", "higher"),
    "weyl.phi_hat_max_scan.self_s": ("s", "lower"),
    "weyl.k1_at_arc.calls": ("count", "lower"),
    "weyl.k1_at_arc.evals_per_s": ("evals/s", "higher"),
    "weyl.weyl_sum.calls": ("count", "lower"),
    "weyl.weyl_sum.busy_s": ("s", "lower"),
    "counting.ramanujan_sum.calls": ("count", "lower"),
    "counting.ramanujan_sum.busy_s": ("s", "lower"),
    "kdv.picard_solve.busy_s": ("s", "lower"),
    "kdv.picard_solve.iterations_per_s": ("iter/s", "higher"),
    "kdv.picard_solve.exact_iterations": ("count", "higher"),
    "kdv.picard_solve.sampled_iterations": ("count", "lower"),
    **{f"kdv.{name}.busy_s": ("s", "lower") for name in (
        "nonlinear_term", "duhamel", "gauge_transform", "residual", "illposedness_scan")},
    "torus.product.calls": ("count", "lower"),
    "torus.product.busy_s": ("s", "lower"),
    "torus.product.term_pairs_per_s": ("pairs/s", "higher"),
    "torus.at_time.busy_s": ("s", "lower"),
    **{f"norms.{name}.{m}": u for name in ("xsb_norm", "y_s_norm", "duhamel_forcing_bound")
       for m, u in (("busy_s", ("s", "lower")), ("modes_per_s", ("modes/s", "higher")))},
    "norms.quad_err_sum": ("abs", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "process.cpu_s": ("s", "lower"),
    "process.trace_overhead_s": ("s", "lower"),
    "ops.failed_frac": ("ratio", "lower"),
    "ops.refused_frac": ("ratio", "lower"),
}

# (layer, work unit, rate metric suffix) for the rates in METRICS
RATES = (
    ("kernels.curve_sum", "points", "points_per_s"),
    ("kernels.curve_sum", "mode_evals", "mode_evals_per_s"),
    ("strichartz.level_set_profile.kernel", "points", "points_per_s"),
    ("strichartz.level_set_profile.curve", "points", "points_per_s"),
    *((f"counting.count_S.{c}", "cells", "cells_per_s") for c in COUNT_CLASSES),
    ("strichartz.even_norm", "cells", "cells_per_s"),
    ("counting.max_offcurve_solution_count", "tuples", "tuples_per_s"),
    ("counting.power_sum_distribution", "cells", "cells_per_s"),
    ("weyl.phi_hat", "coeffs", "coeffs_per_s"),
    ("weyl.phi_hat_dense", "coeffs", "coeffs_per_s"),
    ("weyl.k1_at_arc", "evals", "evals_per_s"),
    ("kdv.picard_solve", "iterations", "iterations_per_s"),
    ("torus.product", "term_pairs", "term_pairs_per_s"),
    ("norms.xsb_norm", "modes", "modes_per_s"),
    ("norms.y_s_norm", "modes", "modes_per_s"),
    ("norms.duhamel_forcing_bound", "modes", "modes_per_s"),
)


def _self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


class _Layer:
    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_s = 0.0
        self.units: dict = {}
        self.peak = 0

    def add(self, span, self_s):
        self.calls += 1
        self.busy += span["end"] - span["start"]
        self.self_s += self_s
        for key, val in span.get("units", {}).items():
            if isinstance(val, (int, float)):
                self.units[key] = self.units.get(key, 0) + val
        self.peak = max(self.peak, span.get("peak_bytes", 0))


def _layers(spans, ops, classes):
    """Accumulate spans by layer name, plus the per-case and per-class variants."""
    selfs = _self_times(spans)
    layers: dict = {}
    for s in spans:
        names = [s["name"]]
        if s["name"] == "strichartz.level_set_profile":
            names.append(f"{s['name']}.{ops.get(s['op'], {}).get('case')}")
        if s["name"] == "counting.count_S":
            names.append(f"{s['name']}.{classes.get(s.get('units', {}).get('spec'), 'other')}")
            if s["error"] == "BudgetExceededError":
                names.append("counting.count_S.refused")
        for name in names:
            layers.setdefault(name, _Layer()).add(s, selfs[s["id"]])
    return layers


def summarise(dump: dict) -> dict:
    """Per-layer metrics {name: {"value", "unit"}} from one traced run's dump."""
    passes = dump["passes"]
    traced = [p for p in passes if p["kind"] == "traced"]
    untraced = [p for p in passes if p["kind"] == "untraced"]
    n = max(len(traced), 1)
    traced_ids = {p["index"] for p in traced}
    memory_ids = {p["index"] for p in passes if p["kind"] == "memory"}
    spans = dump["spans"]

    def layers_in(phases):
        return _layers([s for s in spans if s["phase"] in phases], dump["ops"], dump["classes"])

    layers = layers_in(traced_ids)
    peaks = layers_in(memory_ids)
    setup = layers_in({"setup"})
    empty = _Layer()

    values = {name: 0.0 for name in METRICS}
    for name, layer in layers.items():
        for field, val in (("calls", layer.calls), ("busy_s", layer.busy),
                           ("self_s", layer.self_s)):
            if f"{name}.{field}" in values:
                values[f"{name}.{field}"] = val / n
    for name, layer in peaks.items():
        if f"{name}.peak_mb" in values:
            values[f"{name}.peak_mb"] = layer.peak / 2**20
    for layer, unit, suffix in RATES:
        acc = layers.get(layer, empty)
        values[f"{layer}.{suffix}"] = acc.units.get(unit, 0) / acc.busy if acc.busy else 0.0
    refused = layers.get("counting.count_S.refused", empty)
    count_all = layers.get("counting.count_S", empty)
    values["counting.count_S.refused"] = refused.calls / n
    values["counting.count_S.refused_busy_s"] = refused.busy / n
    values["counting.count_S.useful_frac"] = (
        1.0 - refused.busy / count_all.busy if count_all.busy else 0.0)
    for key in ("skipped", "exact_iterations", "sampled_iterations"):
        for layer in ("strichartz.k_lower_envelope", "kdv.picard_solve"):
            if f"{layer}.{key}" in values:
                values[f"{layer}.{key}"] = layers.get(layer, empty).units.get(key, 0) / n
    for layer in SETUP_LAYERS:
        values[f"{layer}.busy_s"] = setup.get(layer, empty).busy
    for counter in dump["counters"]:
        if counter["phase"] in traced_ids:
            values[counter["name"]] += counter["value"] / n
    if untraced:
        values["process.cpu_s"] = statistics.fmean(p["cpu_s"] for p in untraced)
        by_index = {p["index"]: p for p in passes}
        overheads = [p["wall_s"] - (by_index[p["index"] - 1]["wall_s"]
                                    + by_index[p["index"] + 1]["wall_s"]) / 2
                     for p in traced]
        if overheads:
            values["process.trace_overhead_s"] = statistics.median(overheads)
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in METRICS.items()}


def shares(dump: dict) -> dict:
    """Each layer's busy time over the wall time of the traced passes."""
    traced = [p for p in dump["passes"] if p["kind"] == "traced"]
    ids = {p["index"] for p in traced}
    wall = sum(p["wall_s"] for p in traced)
    layers = _layers([s for s in dump["spans"] if s["phase"] in ids],
                     dump["ops"], dump["classes"])
    return {name: layer.busy / wall for name, layer in sorted(layers.items()) if name != "op"}


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        dump = json.load(fh)
    for name, metric in summarise(dump).items():
        print(f"{name:52s} {metric['value']:14.6g} {metric['unit']}")
    for name, share in shares(dump).items():
        print(f"share {name:46s} {share:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
