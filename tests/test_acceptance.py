"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Expected values come from independent oracles computed in
place (exhaustive enumeration, Monte Carlo, a classical time stepper) or
from closed forms verified in the module test suites.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from dispersive_lab import counting, kdv, strichartz, weyl
from dispersive_lab.counting import BudgetExceededError, SystemSpec
from dispersive_lab.norms import h_s_norm
from dispersive_lab.strichartz import SamplerConfig, all_ones
from dispersive_lab.torus import FourierSeries, TorusConvention

TP = TorusConvention.TWO_PI


def _report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _fit(ns, vals):
    return float(np.polyfit(np.log(np.asarray(ns, float)),
                            np.log(np.asarray(vals, float)), 1)[0])


# ---------------------------------------------------------------------------
# criterion 1: exact counting oracle


def _signature_table(d: int, b: int, N: int):
    """Distinct signatures (A, B) of all (2N+1)^b tuples and their counts.

    Exhaustive enumeration grouped by lexsort, independent of the packed
    keys the library uses.
    """
    rng = np.arange(-N, N + 1, dtype=np.int64)
    A, B = rng, rng**d
    for _ in range(b - 1):
        A = np.add.outer(A, rng).ravel()
        B = np.add.outer(B, rng**d).ravel()
    order = np.lexsort((B, A))
    A, B = A[order], B[order]
    new = np.flatnonzero((np.diff(A) != 0) | (np.diff(B) != 0))
    starts = np.concatenate(([0], new + 1, [len(A)]))
    return A[starts[:-1]], B[starts[:-1]], np.diff(starts)


def _oracle_S(d: int, b: int, N: int) -> int:
    """Exhaustive signature enumeration over all (2N+1)^b tuples."""
    runs = _signature_table(d, b, N)[2]
    return int(np.dot(runs, runs))


def test_criterion_01_exact_counting_oracle():
    t0 = time.perf_counter()
    cases = 0
    for d in (3, 5):
        b = 1
        while 3 ** (2 * b) <= 10**8:
            N = 1
            while (2 * N + 1) ** (2 * b) <= 10**8:
                assert counting.count_S(SystemSpec(d, b, N)) == _oracle_S(d, b, N), \
                    (d, b, N)
                cases += 1
                N += 1
            b += 1
    elapsed = time.perf_counter() - t0
    _report(1, elapsed < 60.0,
            f"count_S == brute force on {cases} cases (d in {{3,5}}), "
            f"{elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# criterion 2: divisor theorem


def _divisor_property_all(d: int, N: int) -> bool:
    rng = np.arange(-N, N + 1, dtype=np.int64)
    n1, n2, n3 = np.meshgrid(rng, rng, rng, indexing="ij")
    A = n1 + n2 + n3
    B = n1**d + n2**d + n3**d
    M = B - A**d
    ok = np.ones(A.shape, dtype=bool)
    for sigma in (n1 + n2, n2 + n3, n1 + n3):
        zero = sigma == 0
        ok &= np.where(zero, M == 0, np.mod(M, np.where(zero, 1, sigma)) == 0)
    return bool(ok.all())


def _tau_upto(M, S: int):
    """tau_S(m) = #{1 <= s <= S : s | m}, elementwise (tau_S(0) = S)."""
    tau = np.zeros(len(M), dtype=np.int64)
    for s in range(1, S + 1):
        tau += M % s == 0
    return tau


def _divisor_bound_violations(d: int, A, B, counts, tau) -> int:
    """Table rows on the curve (B = A^d) or with count above 2(d-1) tau.

    tau holds tau_{2N}(|B - A^d|) for each row. Off the curve the pair sum
    sigma = n1 + n2 is nonzero, divides M = B - A^d and has |sigma| <= 2N; it
    fixes n3 = A - sigma, and n1^d + (sigma - n1)^d = B - n3^d has degree
    d - 1 in n1 (leading coefficient d*sigma), so each of the 2 tau_{2N}(|M|)
    choices of sigma gives at most d - 1 solutions.
    """
    on_curve = B == A**d
    return int(np.count_nonzero(on_curve | (counts > 2 * (d - 1) * tau)))


def test_criterion_02_divisor_theorem():
    for d in (3, 5, 7):
        assert _divisor_property_all(d, 20), f"divisor property failed, d={d}"
    ns = [8, 12, 16, 24, 32, 48, 64]
    raw, normalised, fill = {}, {}, {}
    for d in (3, 5, 7):
        maxima, ratios, fills = [], [], []
        for N in ns:
            A, B, counts = _signature_table(d, 3, N)
            off = B != A**d
            A, B, counts = A[off], B[off], counts[off]
            maxima.append(counts.max())
            assert counting.max_offcurve_solution_count(d, N) == maxima[-1], (d, N)
            tau = _tau_upto(np.abs(B - A**d), 2 * N)
            bad = _divisor_bound_violations(d, A, B, counts, tau)
            assert bad == 0, f"{bad} signatures break the divisor bound, d={d}, N={N}"
            ratios.append((counts / tau).max())
            fills.append(ratios[-1] / (2 * (d - 1)))
        raw[d], normalised[d], fill[d] = _fit(ns, maxima), _fit(ns, ratios), max(fills)
    detail = ("divisor property 100% (d in {3,5,7}, N<=20); "
              "count <= 2(d-1) tau_2N(|B-A^d|) on every off-curve signature, "
              "N in {8..64}; slopes of max count/tau_2N "
              + ", ".join(f"d={d}: {s:.3f}" for d, s in normalised.items())
              + " (need < 0.3); raw max-count slopes "
              + ", ".join(f"d={d}: {s:.3f}" for d, s in raw.items())
              + "; largest count/(2(d-1) tau_2N) "
              + ", ".join(f"d={d}: {f:.3f}" for d, f in fill.items()))
    _report(2, all(s < 0.3 for s in normalised.values()), detail)


def test_criterion_02_bound_check_flags_corrupt_tables():
    assert _tau_upto(np.array([12, 7, 0]), 6).tolist() == [5, 1, 6]
    d, N = 3, 8
    A, B, counts = _signature_table(d, 3, N)
    tau = _tau_upto(np.abs(B - A**d), 2 * N)
    off = B != A**d
    assert _divisor_bound_violations(d, A[off], B[off], counts[off], tau[off]) == 0

    raised = counts[off].copy()
    i = int(np.argmax(raised))
    raised[i] = 2 * (d - 1) * tau[off][i] + 1
    assert _divisor_bound_violations(d, A[off], B[off], raised, tau[off]) == 1

    on = int(np.argmax(np.where(off, 0, counts)))
    keep = off.copy()
    keep[on] = True
    assert _divisor_bound_violations(d, A[keep], B[keep], counts[keep], tau[keep]) == 1


# ---------------------------------------------------------------------------
# criteria 3 and 4: counting lower bounds and the b=5 trend


_C34_GRID = (8, 11, 16, 22, 32)


@lru_cache(maxsize=None)
def _s_value(d: int, b: int, N: int) -> int:
    return counting.count_S(SystemSpec(d, b, N))


def test_criterion_03_counting_lower_bounds():
    details = []
    ok = True
    for b in (2, 3, 4, 5):
        vals = [_s_value(3, b, N) for N in _C34_GRID]
        for N, v in zip(_C34_GRID, vals):
            assert v >= N**b, f"S({N};{b}) < N^b"
        slope = _fit(_C34_GRID, vals)
        target = max(b, 2 * b - 4)
        ok &= abs(slope - target) <= 0.3
        details.append(f"b={b}: slope {slope:.3f} (target {target}+-0.3)")
    _report(3, ok, "S >= N^b exact; " + "; ".join(details))


def test_criterion_04_b5_trend():
    vals = [_s_value(3, 5, N) for N in _C34_GRID]
    slope = _fit(_C34_GRID, vals)
    _report(4, 5.7 <= slope <= 6.3,
            f"d=3, b=5 exponent {slope:.3f} in [5.7, 6.3] (target 2b-(d+1) = 6)")


# ---------------------------------------------------------------------------
# criterion 5: Strichartz lower bounds at d=5


def test_criterion_05_strichartz_lower_bound():
    details = []
    ok = True
    for p in (12, 16):
        for N in (8, 16, 32):
            res = strichartz.k_lower_envelope(
                p, N, 5, strategies=("single", "all_ones"), seed=1)
            floor = 0.1 * (1.0 + N ** (0.5 - 6.0 / p))
            ok &= res.value >= floor
            tag = "S" if "all_ones" in res.per_strategy else "s"
            details.append(f"p={p},N={N}: {res.value:.3f}>={floor:.3f}[{tag}]")
    _report(5, ok, "envelope bounds: " + "; ".join(details)
            + " (S = exact all-ones count included, s = single-mode floor; "
              "all-ones tables beyond the memory budget are skipped)")


# ---------------------------------------------------------------------------
# criterion 6: L4/L6 flatness at d=5


def test_criterion_06_l4_l6_flatness():
    grid = (8, 16, 32, 45, 64)
    details = []
    ok = True
    for b in (2, 3):
        ratios = []
        for N in grid:
            s_val = _s_value(5, b, N)
            ratios.append((s_val / (2 * N + 1) ** b) ** (1.0 / (2 * b)))
        slope = _fit(grid, ratios)
        ok &= slope <= 0.1
        details.append(f"b={b}: exponent {slope:.4f}")
    _report(6, ok, "normalized all-ones growth " + "; ".join(details)
            + " (need <= 0.1)")


# ---------------------------------------------------------------------------
# criterion 7: Ramanujan sums and the divisor-block bound


def test_criterion_07_ramanujan():
    mu, phi_tot, _ = counting.mobius_phi_sieve()
    ns = np.arange(-500, 501)
    worst = 0.0
    for q in range(1, 501):
        a = np.array([x for x in range(1, q + 1) if math.gcd(x, q) == 1])
        theta = 2.0 * np.pi * np.outer(a, ns) / q
        direct = np.cos(theta).sum(axis=0)
        g = np.gcd(np.int64(q), np.abs(ns).astype(np.int64))
        g[ns == 0] = q
        qg = q // g
        formula = mu[qg] * (phi_tot[q] // phi_tot[qg])
        worst = max(worst, float(np.abs(direct - formula).max()))
    assert worst < 1e-9, f"Ramanujan mismatch {worst}"

    rng = np.random.default_rng(77)
    stats = []
    for Q in (8, 16, 32, 64, 128, 256):
        best = 0.0
        for n in rng.integers(1, Q**3, 100):
            best = max(best, counting.ramanujan_block_ratio(Q, int(n)))
        stats.append(best)
    spread = max(stats) / min(stats)
    _report(7, worst < 1e-9 and spread <= 10.0,
            f"Moebius formula vs direct sums: max err {worst:.2e} < 1e-9 "
            f"(q<=500, |n|<=500); block-ratio spread {spread:.2f} <= 10")


# ---------------------------------------------------------------------------
# criterion 8: kernel decomposition


def test_criterion_08_kernel_decomposition():
    # (i) the coefficient rule vanishes on the curve, exactly
    dec = weyl.decompose_kernel(8, 3, 64)
    zero_ok = all(dec.k2_hat(n, n**3) == 0.0 for n in range(-8, 9))

    # (ii) max |Phi_hat| * Q over the kernel-application range k <= 2N^d,
    # with a single constant fitted at the nominal N^0.1
    grid = (16, 23, 32, 45, 64, 91, 128)
    maxima = []
    for N in grid:
        phi = weyl.build_phi(N * N)
        scan = weyl.phi_hat_max_scan(phi, k_limit=2 * N**3)
        maxima.append(scan["max_abs"] * N * N)
    logc = np.mean(np.log(maxima) - 0.1 * np.log(grid))
    envelope_ok = all(
        m <= 4.0 * math.exp(logc) * N**0.1 for m, N in zip(maxima, grid))
    raw_slope = _fit(grid, maxima)

    # (iii) sampled sup |K_1| against N^{1/4} Q^{1/4}, stable within factor 4
    rng = np.random.default_rng(3)
    ratios = []
    for N in (32, 45, 64, 91, 128, 181, 256):
        Q = N * N
        dec_n = weyl.decompose_kernel(N, 3, Q)
        sup = 0.0
        for _ in range(600):
            q = int(rng.integers(Q, 5 * Q + 1))
            a = int(rng.integers(1, q))
            if math.gcd(a, q) != 1:
                continue
            u = 1 / 200 + rng.random() * (1 / 100 - 1 / 200)
            sup = max(sup, abs(dec_n.k1_at_arc(a, q, u, float(rng.random()))))
        ratios.append(sup / (N**0.25 * Q**0.25))
    k1_spread = max(ratios) / min(ratios)
    _report(8, zero_ok and envelope_ok and k1_spread <= 4.0,
            f"K2_hat(n, n^d) = 0 exactly; max|Phi_hat| Q within 4x of the "
            f"fitted N^0.1 envelope (raw slope {raw_slope:.2f}, reported per "
            f"the open-question policy); sup K1 ratio spread "
            f"{k1_spread:.2f} <= 4")


# ---------------------------------------------------------------------------
# criterion 9: counterexample closed forms and growth slopes


def test_criterion_09_counterexamples():
    eps, t = 1.0, 0.37
    worst = 0.0
    for s in (0.3, 0.5, 1.0):
        for N in (4, 8, 16, 32, 64):
            phi = kdv.two_mode_data(N, s, eps)
            c1 = kdv.first_iterate(phi, kdv.u_squared_p1()).at_time(t)[N]
            want1 = (eps * N**-s - 1j * eps**3 * N ** (1 - 3 * s) * t) \
                * np.exp(-1j * float(N) ** 5 * t)
            worst = max(worst, abs(c1 - want1) / abs(want1))
            c2 = kdv.first_iterate(phi, kdv.u_p2()).at_time(t)[N]
            want2 = (eps * N**-s - eps**3 * N ** (2 - 3 * s) * t) \
                * np.exp(-1j * float(N) ** 5 * t)
            worst = max(worst, abs(c2 - want2) / abs(want2))
    forms_ok = worst <= 1e-10

    t0 = time.perf_counter()
    grid = [16, 32, 64, 128, 256]
    scan1 = kdv.illposedness_scan(kdv.u_squared_p1(), 0.3, 1.0, 0.01, grid)
    scan2 = kdv.illposedness_scan(kdv.u_p2(), 0.7, 1.0, 0.01, grid)
    elapsed = time.perf_counter() - t0
    slopes_ok = (abs(scan1.slope - 0.4) <= 0.05 and abs(scan2.slope - 0.6) <= 0.05
                 and elapsed < 60.0)
    _report(9, forms_ok and slopes_ok,
            f"first-iterate coefficients match closed forms to {worst:.1e} "
            f"(<= 1e-10; the quadratic-gradient secular term is real, forced "
            f"by the nonlinear expansion); slopes {scan1.slope:.3f}~0.4, "
            f"{scan2.slope:.3f}~0.6, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 10: Picard contraction against the classical stepper


def test_criterion_10_picard_contraction():
    from test_kdv import hs_distance, rk4_integrating_factor

    phi = FourierSeries(TP, {1: 0.1, -1: 0.1})
    spec = kdv.u_squared_p1()
    delta, band = 1e-3, 12
    states = kdv.picard_solve(phi, spec, delta, max_iter=8, band_cap=band,
                              s=1.0, time_samples=257)
    diffs = [st.diff_norm for st in states[1:]]
    run, best_run = 0, 0
    for prev, cur in zip(diffs, diffs[1:]):
        run = run + 1 if cur <= 0.5 * prev else 0
        best_run = max(best_run, run)
    contracted = kdv.contraction_achieved(states)

    got = states[-1].trajectory.coefficients([delta], band)[:, 0]
    ref = rk4_integrating_factor(phi, spec, delta, 2560, band)
    h1 = hs_distance(got, ref, band, 1.0)
    _report(10, contracted and best_run >= 4 and h1 <= 1e-6,
            f"{best_run} consecutive halvings (need >= 4); H1 distance to the "
            f"10x-resolution integrating-factor RK4 oracle {h1:.2e} <= 1e-6")


# ---------------------------------------------------------------------------
# criterion 11: gauge transform residual


def test_criterion_11_gauge_transform():
    phi = FourierSeries(TP, {1: 0.1, -1: 0.1})
    spec_mr = kdv.NonlinearitySpec(p1=(0.0, 0.0, 1.0), mean_removed=True)
    states = kdv.picard_solve(phi, spec_mr, 1e-3, max_iter=6, band_cap=12,
                              s=1.0, time_samples=257)
    v = states[-1].trajectory
    u, theta = kdv.gauge_transform(v, 2)
    res = kdv.residual(u, kdv.NonlinearitySpec(p1=(0.0, 0.0, 1.0)))
    _report(11, res <= 1e-6 and abs(theta[-1]) > 0,
            f"sup-in-time L2 residual of the gauged solution {res:.2e} <= 1e-6 "
            f"(theta(delta) = {theta[-1]:.3e})")


# ---------------------------------------------------------------------------
# criterion 12: the planar L4 bound


def test_criterion_12_l4_bound():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(500):
        fhat = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
        lhs, rhs = strichartz.verify_l4_weighted_bound(fhat, 3)
        worst = max(worst, lhs / rhs)
    _report(12, worst <= 1.0,
            f"exact L4 <= C * weighted-l2 with C = {worst:.3f} <= 1.0 over "
            f"500 random band-8 tables (measured spread is a single constant)")


# ---------------------------------------------------------------------------
# criterion 13: level sets


def test_criterion_13_level_sets():
    t0 = time.perf_counter()
    cfg = SamplerConfig(samples=1_000_000, seed=97)
    kernel_rep = strichartz.verify_kernel_levelset_decay(3, 64, config=cfg,
                                                         points=10)
    curve_rep = strichartz.verify_curve_levelset_decay(3, 64, config=cfg,
                                                       points=10)
    elapsed = time.perf_counter() - t0
    monotone = kernel_rep["monotone"] and curve_rep["monotone"]
    kernel_ok = (not kernel_rep["regime_unreachable"]
                 and kernel_rep["stability"] <= 4.0)
    curve_ok = curve_rep["regime_unreachable"] or curve_rep["stability"] <= 4.0
    curve_tag = ("unreachable (measures below Monte Carlo resolution, "
                 "reported per the errors contract)"
                 if curve_rep["regime_unreachable"]
                 else f"stability {curve_rep['stability']:.2f}")
    _report(13, monotone and kernel_ok and curve_ok and elapsed < 600.0,
            f"profiles monotone up to CI; kernel-case ratio stability "
            f"{kernel_rep['stability']:.2f} <= 4 over "
            f"{kernel_rep['qualifying']} qualifying levels; curve case: "
            f"{curve_tag}; {elapsed:.0f}s < 600s")
