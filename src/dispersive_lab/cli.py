"""dlab: batch experiment runner exposing every verification scan as a subcommand.

Every run records its resolved configuration (with a seed for the commands
that sample) and a manifest of produced files; reruns with an identical config reproduce all
deterministic CSV outputs byte for byte. Exit codes: 0 success, 2 config
error, int64 overflow, a frequency float64 cannot hold exactly, or a result
that leaves the float64 range (a diverging Picard iteration, an underflowing
ill-posedness response), 3 memory budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import sys
import time

import numpy as np

from . import __version__, counting, kdv, strichartz, weyl
from .counting import BudgetExceededError, Int64OverflowError, SystemSpec
from .svgplot import write_loglog_svg
from .kernels import BandCapExceeded
from .torus import FourierSeries, TorusConvention


class ConfigError(Exception):
    pass


def _parse_list(item):
    """Parser for a nonempty comma-separated list of ``item`` values."""
    def parse(text):
        vals = [item(v) for v in str(text).split(",") if v != ""]
        if not vals:
            raise ConfigError("empty list")
        return vals
    return parse


def _float(text) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("expected a finite number")
    return v


def _parse_bool(text) -> bool:
    v = str(text).lower()
    if v not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError("expected 1/0, true/false or yes/no")
    return v in ("1", "true", "yes")


def _fmt_float(v) -> str:
    return f"{float(v):.12g}"


def write_csv(path, header, rows):
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_float(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _fit_slope(xs, ys):
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


# ---------------------------------------------------------------------------
# subcommand implementations; each returns a list of produced file names and
# may add run-dependent figures, such as wall times, to the manifest through
# ``telemetry``, so that data files stay byte-identical across reruns


def _run_count(cfg, out, telemetry):
    d, b_list, n_list = cfg["d"], cfg["b"], cfg["N"]
    rows = []
    series = []
    times = telemetry.setdefault("row_runtime_ms", [])
    for b in b_list:
        svals = []
        for N in n_list:
            t0 = time.perf_counter()
            s_val = counting.count_S(SystemSpec(d, b, N), mem_budget=cfg["mem_budget"])
            times.append({"d": d, "b": b, "N": N,
                          "runtime_ms": (time.perf_counter() - t0) * 1000.0})
            rows.append((d, b, N, s_val))
            svals.append(s_val)
            if cfg["table"]:
                columns = counting.power_sum_distribution(
                    SystemSpec(d, b, N), mem_budget=cfg["mem_budget"])
                write_csv(os.path.join(out, f"table_d{d}_b{b}_N{N}.csv"), ["A", "B", "count"],
                          zip(*(column.tolist() for column in columns)))
        slope = _fit_slope(n_list, svals) if len(n_list) >= 2 else None
        series.append({"label": f"b={b}", "x": n_list, "y": svals, "slope": slope})
    write_csv(os.path.join(out, "count_scan.csv"),
              ["d", "b", "N", "S"], rows)
    files = ["count_scan.csv"]
    if cfg["table"]:
        files += [f"table_d{d}_b{b}_N{N}.csv" for b in b_list for N in n_list]
    if len(n_list) >= 2:
        write_loglog_svg(os.path.join(out, "count_scan.svg"), series,
                         title=f"solution counts, d={d}", xlabel="N", ylabel="S(N;b)")
        files.append("count_scan.svg")
    return files


def _run_strichartz(cfg, out, telemetry):
    d, n_list = cfg["d"], cfg["N"]
    rows = []
    series = []
    for p in cfg["p"]:
        if p % 2 != 0:
            raise ConfigError(f"odd p={p}: even-norm scans need even p")
        env = []
        for N in n_list:
            res = strichartz.k_lower_envelope(
                p, N, d, strategies=tuple(cfg["strategies"]),
                random_draws=cfg["draws"], seed=cfg["seed"],
                mem_budget=cfg["mem_budget"])
            rows.append((N, p, d, res.value, strichartz.theory_upper_shape(p, d, N)))
            env.append(res.value)
        slope = _fit_slope(n_list, env) if len(n_list) >= 2 else None
        series.append({"label": f"p={p} envelope", "x": n_list, "y": env, "slope": slope})
        series.append({"label": f"p={p} upper shape", "x": n_list,
                       "y": [strichartz.theory_upper_shape(p, d, N) for N in n_list],
                       "slope": None})
    write_csv(os.path.join(out, "envelope.csv"),
              ["N", "p", "d", "envelope", "theory_upper"], rows)
    files = ["envelope.csv"]
    if len(n_list) >= 2:
        write_loglog_svg(os.path.join(out, "envelope.svg"), series,
                         title=f"Strichartz lower envelopes, d={d}",
                         xlabel="N", ylabel="K lower bound")
        files.append("envelope.svg")
    return files


def _run_levelset(cfg, out, telemetry):
    if len(cfg["N"]) != 1:
        raise ConfigError(f"levelset takes one N, got {cfg['N']}")
    d, N = cfg["d"], cfg["N"][0]
    lam_hi = strichartz.decay_regime(cfg["case"], d, N)[1]
    if (2.0**d + 2) * math.log(lam_hi) >= math.log(sys.float_info.max):
        raise ConfigError(f"the decay ratio's lambda^(2^d+2) overflows float64 at d={d}, "
                          f"lambda = {lam_hi:g}")
    sampler = strichartz.SamplerConfig(samples=cfg["samples"], seed=cfg["seed"])
    verify = {"curve": strichartz.verify_curve_levelset_decay,
              "kernel": strichartz.verify_kernel_levelset_decay}[cfg["case"]]
    rep = verify(d, N, config=sampler, points=cfg["points"], min_hits=cfg["min_hits"])
    rows = [(r["lam"], r["measure"], r["ci"], cfg["samples"]) for r in rep["rows"]]
    write_csv(os.path.join(out, "levelset.csv"),
              ["lambda", "estimate", "ci", "samples"], rows)
    report = {k: v for k, v in rep.items() if k != "rows"}
    report["rows"] = rep["rows"]
    with open(os.path.join(out, "decay_report.json"), "w") as fh:
        json.dump(report, fh, indent=1, default=float)
    files = ["levelset.csv", "decay_report.json"]
    pos = [(r["lam"], r["measure"]) for r in rep["rows"] if r["measure"] > 0]
    if len(pos) >= 2:
        write_loglog_svg(
            os.path.join(out, "levelset.svg"),
            [{"label": f"{cfg['case']} d={d} N={N}",
              "x": [p[0] for p in pos], "y": [p[1] for p in pos],
              "slope": _fit_slope([p[0] for p in pos], [p[1] for p in pos])}],
            title="level-set measure", xlabel="lambda", ylabel="measure")
        files.append("levelset.svg")
    return files


def _run_weyl(cfg, out, telemetry):
    if cfg["arcs"] == 1:
        raise ConfigError("arcs must be 0 (no dump) or >= 2, got 1")
    d = cfg["d"]
    for N in cfg["N"]:
        if not weyl.minor_arc_moduli(N, d):
            raise ConfigError(f"no primes above N^(d-1) = {N ** (d - 1)} within the sieve "
                              f"(N={N}, d={d})")
    rows = []
    for N in cfg["N"]:
        pts = weyl.minor_arc_points(N, d, cfg["count"], seed=cfg["seed"] + N)
        for t, a, q in pts:
            s_val = abs(weyl.weyl_sum(N, d, t))
            bound = N ** (1.0 - d * 2.0 ** (1 - d)) * q ** (2.0 ** (1 - d))
            rows.append((N, q, s_val, bound, s_val / bound))
    write_csv(os.path.join(out, "weyl_scan.csv"),
              ["N", "Q", "quantity", "bound", "ratio"], rows)
    files = ["weyl_scan.csv"]
    if cfg["arcs"] > 0:
        phi = weyl.build_phi(cfg["arcs"])
        with open(os.path.join(out, "arcs.txt"), "w", newline="\n") as fh:
            for a, q in phi.arcs():
                lo, hi = phi.arc_interval(a, q)
                fh.write(f"{a}/{q} [{lo},{hi}]\n")
        files.append("arcs.txt")
    return files


def _run_kernel(cfg, out, telemetry):
    d = cfg["d"]
    for N in cfg["N"]:
        if 5 * N ** (d - 1) > counting.DEFAULT_SIEVE_LIMIT:
            raise ConfigError(f"moduli up to 5 N^(d-1) = {5 * N ** (d - 1)} (N={N}, d={d}) "
                              f"exceed the sieve limit {counting.DEFAULT_SIEVE_LIMIT}")
    rng = np.random.default_rng(cfg["seed"])
    rows = []
    zero_worst = 0.0
    for N in cfg["N"]:
        Q = N ** (d - 1)
        dec = weyl.decompose_kernel(N, d, Q)
        for n in range(-min(N, 8), min(N, 8) + 1):
            zero_worst = max(zero_worst, abs(dec.k2_hat(n, n**d)))
        scan = weyl.phi_hat_max_scan(dec.phi, k_limit=2 * N**d)
        rows.append((N, Q, scan["max_abs"] * Q, 1.0, scan["max_abs"] * Q))
        samples = []  # (a, q, u, x), drawn in order; a non-coprime (a, q) draws no u, x
        for _ in range(cfg["count"]):
            q = int(rng.integers(Q, 5 * Q + 1))
            a = int(rng.integers(1, max(q, 2)))
            if math.gcd(a, q) != 1:
                continue
            u = 1 / 200 + rng.random() * (1 / 100 - 1 / 200)
            samples.append((a, q, u, float(rng.random())))
        k1 = dec.k1_at_arc(*np.array(samples, dtype=np.float64).reshape(-1, 4).T)
        sup = float(np.abs(k1).max(initial=0.0))
        bound = N ** (1.0 - d * 2.0 ** (1 - d)) * Q ** (2.0 ** (1 - d))
        rows.append((N, Q, sup, bound, sup / bound))
    write_csv(os.path.join(out, "kernel_scan.csv"),
              ["N", "Q", "quantity", "bound", "ratio"], rows)
    with open(os.path.join(out, "kernel_report.json"), "w") as fh:
        json.dump({"k2_hat_on_curve_max": zero_worst}, fh, indent=1)
    return ["kernel_scan.csv", "kernel_report.json"]


def _run_illposed(cfg, out, telemetry):
    if len(set(cfg["N"])) < 2:
        raise ConfigError(f"the slope fit needs at least two distinct N, got {cfg['N']}")
    if cfg["case"] == "p1":
        spec = kdv.u_squared_p1()
        target = 1.0 - 2.0 * cfg["s"]
    else:
        spec = kdv.u_p2()
        target = 2.0 - 2.0 * cfg["s"]
    scan = kdv.illposedness_scan(spec, cfg["s"], cfg["eps"], cfg["t"], cfg["N"])
    rows = [(N, cfg["s"], resp, scan.slope)
            for N, resp in zip(scan.N_list, scan.responses)]
    write_csv(os.path.join(out, "illposed.csv"),
              ["N", "s", "norm", "fitted_slope"], rows)
    with open(os.path.join(out, "slope.json"), "w") as fh:
        json.dump({"slope": scan.slope, "target": target,
                   "secular_visible": scan.secular_visible,
                   "warning": scan.warning}, fh, indent=1)
    write_loglog_svg(
        os.path.join(out, "illposed.svg"),
        [{"label": f"{cfg['case']} s={cfg['s']}", "x": scan.N_list,
          "y": scan.responses, "slope": scan.slope}],
        title="first-iterate nonlinear response", xlabel="N",
        ylabel="H^s response")
    return ["illposed.csv", "slope.json", "illposed.svg"]


def _phi_from_cfg(cfg) -> FourierSeries:
    m = cfg["mode"]
    return FourierSeries(TorusConvention.TWO_PI, {m: cfg["amp"], -m: cfg["amp"]})


def _run_solve(cfg, out, telemetry):
    phi = _phi_from_cfg(cfg)
    spec = kdv.u_squared_p1()
    states = kdv.picard_solve(phi, spec, cfg["delta"], max_iter=cfg["max_iter"],
                              band_cap=cfg["band_cap"], s=cfg["s"],
                              time_samples=cfg["time_samples"])
    rows = [(st.j, st.diff_norm, st.representation, st.term_count, st.truncated_mass)
            for st in states]
    write_csv(os.path.join(out, "picard.csv"),
              ["j", "diff_norm", "representation", "terms", "truncated_mass"], rows)
    final = states[-1].trajectory
    if isinstance(final, kdv.SampledTrajectory):
        dump = {"kind": "sampled",
                "times": [float(t) for t in final.times],
                "band": final.band,
                "frames": [[[c.real, c.imag] for c in final.coeffs[:, m]]
                           for m in range(len(final.times))]}
        text = json.dumps(dump)
    else:
        text = final.to_json()
    with open(os.path.join(out, "trajectory.json"), "w") as fh:
        fh.write(text)
    with open(os.path.join(out, "solve_report.json"), "w") as fh:
        json.dump({"contraction": kdv.contraction_achieved(states)}, fh)
    return ["picard.csv", "trajectory.json", "solve_report.json"]


def _run_gauge_check(cfg, out, telemetry):
    phi = _phi_from_cfg(cfg)
    k = cfg["k"]
    p1 = tuple([0.0] * k + [1.0])
    spec_gauged = kdv.NonlinearitySpec(p1=p1, mean_removed=True)
    states = kdv.picard_solve(phi, spec_gauged, cfg["delta"], max_iter=cfg["max_iter"],
                              band_cap=cfg["band_cap"], s=cfg["s"],
                              time_samples=cfg["time_samples"])
    times = kdv.picard_times(cfg["delta"], cfg["time_samples"])
    v = kdv.SampledTrajectory(times, cfg["band_cap"],
                              states[-1].trajectory.coefficients(times, cfg["band_cap"]))
    u, theta = kdv.gauge_transform(v, k)
    spec = kdv.NonlinearitySpec(p1=p1)
    with open(os.path.join(out, "gauge.json"), "w") as fh:
        json.dump({"residual_gauged_equation": kdv.residual(v, spec_gauged),
                   "residual_original_equation": kdv.residual(u, spec),
                   "theta_final": float(theta[-1]),
                   "time_step": float(u.times[1] - u.times[0]),
                   "contraction": kdv.contraction_achieved(states)}, fh, indent=1)
    return ["gauge.json"]


def _run_embeddings(cfg, out, telemetry):
    from .norms import TimeWindow
    window = TimeWindow(cfg["delta"])
    trials = []
    for N in cfg["N"]:
        trials.append(kdv.flow_trajectory(
            FourierSeries(TorusConvention.TWO_PI, {N: 1.0, -N: 1.0})))
    rep = strichartz.verify_embeddings(trials, window, samples=cfg["samples"],
                                       seed=cfg["seed"])
    rows = [(r["trial"], r.get("l4", 0.0), r.get("xsb", 0.0), r.get("ratio", 0.0))
            for r in rep["rows"] if not r.get("skipped")]
    write_csv(os.path.join(out, "embeddings.csv"), ["trial", "l4", "xsb", "ratio"], rows)
    return ["embeddings.csv"]


# command: (runner, {key: (parser, default, domain)}). A domain is None, a
# set of allowed values, or a bound such as ">= 1"; list values are checked
# item by item.
_INTS = _parse_list(int)
COMMANDS = {
    "count": (_run_count, {
        "d": (int, 3, ">= 2"), "b": (_INTS, [2], ">= 1"), "N": (_INTS, [8, 16], ">= 1"),
        "table": (_parse_bool, False, None),
        "mem_budget": (int, counting.DEFAULT_MEM_BUDGET, ">= 1")}),
    "strichartz": (_run_strichartz, {
        "d": (int, 5, ">= 2"), "p": (_INTS, [12], ">= 2"), "N": (_INTS, [8, 16], ">= 1"),
        "strategies": (_parse_list(str), ["single", "all_ones", "random"],
                       {"single", "all_ones", "random", "ascent"}),
        "draws": (int, 8, ">= 1"), "mem_budget": (int, counting.DEFAULT_MEM_BUDGET, ">= 1"),
        "seed": (int, 0, ">= 0")}),
    "levelset": (_run_levelset, {
        "case": (str, "kernel", {"kernel", "curve"}), "d": (int, 3, ">= 2"),
        "N": (_INTS, [32], ">= 1"), "samples": (int, 1_000_000, ">= 1"),
        "points": (int, 10, ">= 1"), "min_hits": (int, 50, ">= 0"), "seed": (int, 0, ">= 0")}),
    "weyl": (_run_weyl, {
        "d": (int, 3, ">= 2"), "N": (_INTS, [64, 128], ">= 1"), "count": (int, 12, ">= 1"),
        "arcs": (int, 0, ">= 0"), "seed": (int, 0, ">= 0")}),
    "kernel": (_run_kernel, {
        "d": (int, 3, ">= 2"), "N": (_INTS, [16, 32], ">= 2"), "count": (int, 400, ">= 1"),
        "seed": (int, 0, ">= 0")}),
    "illposed": (_run_illposed, {
        "case": (str, "p1", {"p1", "p2"}), "s": (_float, 0.3, None), "eps": (_float, 1.0, "> 0"),
        "t": (_float, 0.01, "> 0"), "N": (_INTS, [16, 32, 64, 128, 256], ">= 1")}),
    "solve": (_run_solve, {
        "amp": (_float, 0.1, None), "mode": (int, 1, None), "delta": (_float, 1e-3, "> 0"),
        "s": (_float, 1.0, None), "band_cap": (int, 12, ">= 1"), "max_iter": (int, 8, ">= 0"),
        "time_samples": (int, 257, ">= 2")}),
    "gauge-check": (_run_gauge_check, {
        "amp": (_float, 0.1, None), "mode": (int, 1, None), "k": (int, 2, ">= 0"),
        "delta": (_float, 1e-3, "> 0"), "s": (_float, 1.0, None), "band_cap": (int, 12, ">= 1"),
        "max_iter": (int, 6, ">= 0"), "time_samples": (int, 257, ">= 2")}),
    "embeddings": (_run_embeddings, {
        "N": (_INTS, [4, 8, 16], ">= 1"), "delta": (_float, 0.5, "> 0"),
        "samples": (int, 100_000, ">= 1"), "seed": (int, 0, ">= 0")}),
}
_BOUNDS = {">=": operator.ge, ">": operator.gt}


def _check_domain(key, value, domain):
    if domain is None:
        return
    for item in value if isinstance(value, list) else [value]:
        if isinstance(domain, str):
            op, bound = domain.split()
            if not _BOUNDS[op](item, float(bound)):
                raise ConfigError(f"{key} must be {domain}, got {item!r}")
        elif item not in domain:
            raise ConfigError(f"{key} must be one of {sorted(domain)}, got {item!r}")


def _load_config_file(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {line!r}")
            k, v = line.split("=", 1)
            out[k.strip()] = v.strip()
    return out


def _resolve_config(command, file_values, flag_values):
    _, schema = COMMANDS[command]
    cfg = {}
    for key, (parser, default, domain) in schema.items():
        raw = None
        if flag_values.get(key) is not None:
            raw = flag_values[key]
        elif key in file_values:
            raw = file_values[key]
        if raw is None:
            cfg[key] = default
        else:
            try:
                cfg[key] = parser(raw)
            except (ValueError, ConfigError) as exc:
                raise ConfigError(f"invalid value for {key}: {raw!r} ({exc})")
        _check_domain(key, cfg[key], domain)
    unknown = (set(file_values) | set(flag_values)) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _config_hash(command, cfg) -> str:
    canon = "\n".join(f"{k}={cfg[k]}" for k in sorted(cfg))
    return hashlib.sha256(f"{command}\n{canon}".encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dlab",
        description="batch verification runner for the dispersive counting lab")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    args = parser.parse_args(argv)

    try:
        file_values = _load_config_file(args.config) if args.config else {}
        flag_values = {}
        for item in args.param:
            if "=" not in item:
                raise ConfigError(f"--param needs KEY=VALUE, got {item!r}")
            k, v = item.split("=", 1)
            flag_values[k.strip()] = v.strip()
        cfg = _resolve_config(args.command, file_values, flag_values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(args.out, exist_ok=True)
    lock_path = os.path.join(args.out, ".dlab.lock")
    try:
        lock_fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        print(f"config error: output directory is locked ({lock_path})",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        runner, _ = COMMANDS[args.command]
        telemetry = {}
        files = runner(cfg, args.out, telemetry)
        runtime_ms = (time.perf_counter() - t0) * 1000.0
        manifest = {
            "command": args.command,
            "config": cfg,
            "config_hash": _config_hash(args.command, cfg),
            "versions": {
                "dispersive_lab": __version__,
                "python": sys.version.split()[0],
                "numpy": np.__version__,
            },
            "files": sorted(files),
            "runtime_ms": runtime_ms,
            **telemetry,
        }
        with open(os.path.join(args.out, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1)
        return 0
    except (ConfigError, Int64OverflowError, BandCapExceeded, FloatingPointError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    finally:
        os.close(lock_fd)
        os.unlink(lock_path)


if __name__ == "__main__":
    sys.exit(main())
