"""Exact even-exponent space-time norms, Strichartz lower-bound probes, level sets.

Even L^p norms of curve sums reduce to weighted signature counting, so they
are computed exactly by convolution; all other p are out of scope. Level
sets are measured by uniform Monte Carlo over the unit square: |F|^2
carries time frequencies up to 2 N^d, so grids are never used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import counting
from .counting import BudgetExceededError, SystemSpec
from .kernels import curve_sum
from .norms import TimeWindow, xsb_norm
from .torus import HarmonicTrajectory

TWO_PI = 2.0 * math.pi
SAMPLE_CHUNK = 250_000  # level-set points drawn (x, then t) per curve_sum call
Z_95 = 1.96  # Wilson interval quantile


@dataclass
class CoefficientVector:
    """Coefficients a_n on n in [-N, N]; normalized to unit l2 on construction."""

    N: int
    a: np.ndarray
    normalize: bool = True

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=np.complex128).copy()
        if len(arr) != 2 * self.N + 1:
            raise ValueError("coefficient vector must cover n in [-N, N]")
        if self.normalize:
            norm = np.linalg.norm(arr)
            if norm == 0:
                raise ValueError("cannot normalize the zero vector")
            arr /= norm
        self.a = arr

    def l2_norm(self) -> float:
        return float(np.linalg.norm(self.a))


def all_ones(N: int, normalize: bool = True) -> CoefficientVector:
    return CoefficientVector(N, np.ones(2 * N + 1), normalize=normalize)


def single_mode(N: int, n: int = 0) -> CoefficientVector:
    a = np.zeros(2 * N + 1)
    a[n + N] = 1.0
    return CoefficientVector(N, a)


def even_norm(vec: CoefficientVector, b: int, d: int,
              mem_budget: int = counting.DEFAULT_MEM_BUDGET) -> float:
    """Exact L^{2b}(T^2) norm of F(x,t) = sum a_n e^{2 pi i (n x + n^d t)}.

    Computed as (sum_{A,B} |mu^{*b}(A,B)|^2)^{1/(2b)} where mu places a_n
    at the curve point (n, n^d); with unit weights the 2b-th power is the
    exact solution count of the equal-power-sum system.
    """
    if b < 1:
        raise ValueError("b must be >= 1")
    spec = SystemSpec(d, b, vec.N)
    table = counting.power_sum_distribution(spec, weights=vec.a, mem_budget=mem_budget)
    return float(table.sum_of_squared_moduli()) ** (1.0 / (2 * b))


def theory_upper_shape(p: float, d: int, N: int) -> float:
    """Reference shape N^{1/2-(d+1)/p} of the large-p upper bound (constant not asserted)."""
    return 1.0 + N ** (0.5 - (d + 1) / p)


# ---------------------------------------------------------------------------
# gradient ascent on the even norm


def even_norm_power_gradient(vec: CoefficientVector, b: int, d: int,
                             mem_budget: int = counting.DEFAULT_MEM_BUDGET):
    """(Phi, g) with Phi = ||F||_{2b}^{2b} and g_m = dPhi/d conj(a_m).

    g_m = b * sum_z c_b(z) conj(c_{b-1})(z - (m, m^d)); ascent steps move a
    along g and renormalize. Raises BudgetExceededError when the dense
    tables c_{b-1} and c_b do not fit ``mem_budget``.
    """
    N = vec.N
    if b == 1:
        power = float(np.sum(np.abs(vec.a) ** 2))
        return power, vec.a.copy()
    c_prev, c_full = counting.dense_top_levels(SystemSpec(d, b, N), vec.a, mem_budget)
    phi_val = float(np.sum(np.abs(c_full) ** 2))
    rows, cols = c_prev.shape
    g = np.zeros(2 * N + 1, dtype=np.complex128)
    for m in range(-N, N + 1):
        i0 = m + N
        j0 = m**d + N**d
        block = c_full[i0:i0 + rows, j0:j0 + cols]
        g[m + N] = b * np.vdot(c_prev, block)
    return phi_val, g


def ascent_strategy(N: int, b: int, d: int, iterations: int = 200, restarts: int = 8,
                    seed: int = 0, step: float = 0.5,
                    mem_budget: int = counting.DEFAULT_MEM_BUDGET):
    """Projected gradient ascent of the even norm over the unit sphere.

    Fixed step with backtracking; ties broken by first-found. Returns the
    best ratio even_norm/||a||_2 over restarts.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    best_vec = None
    for _ in range(restarts):
        a = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
        vec = CoefficientVector(N, a)
        val, g = even_norm_power_gradient(vec, b, d, mem_budget)
        eta = step
        for _ in range(iterations):
            trial = vec.a + eta * g / max(np.linalg.norm(g), 1e-300)
            trial_vec = CoefficientVector(N, trial)
            t_val, t_g = even_norm_power_gradient(trial_vec, b, d, mem_budget)
            if t_val > val:
                vec, val, g = trial_vec, t_val, t_g
                eta = min(eta * 1.5, 4.0)
            else:
                eta *= 0.5
                if eta < 1e-8:
                    break
        ratio = val ** (1.0 / (2 * b))
        if ratio > best:
            best = ratio
            best_vec = vec
    return best, best_vec


@dataclass
class EnvelopeResult:
    p: int
    d: int
    N: int
    value: float
    per_strategy: dict
    skipped: dict


def k_lower_envelope(p: int, N: int, d: int,
                     strategies=("single", "all_ones", "random", "ascent"),
                     random_draws: int = 12, seed: int = 0,
                     ascent_iterations: int = 200, ascent_restarts: int = 8,
                     ascent_cost_cap: float = 5e7,
                     mem_budget: int = counting.DEFAULT_MEM_BUDGET) -> EnvelopeResult:
    """Certified lower bound on the Strichartz constant K_{d,p,N} for even p.

    Every strategy value is a true ratio even_norm(a)/||a||_2, so the max is
    a lower bound; strategies whose signature tables exceed the memory or
    cost budget are skipped and recorded.
    """
    if p % 2 != 0 or p < 2:
        raise ValueError("even-norm probes need even p >= 2")
    b = p // 2
    per, skipped = {}, {}
    if "single" in strategies:
        per["single"] = 1.0  # |F| is constant for one mode
    if "all_ones" in strategies:
        try:
            s_val = counting.count_S(SystemSpec(d, b, N), mem_budget=mem_budget)
            per["all_ones"] = (s_val / (2 * N + 1) ** b) ** (1.0 / p)
        except BudgetExceededError as exc:
            skipped["all_ones"] = str(exc)
    if "random" in strategies:
        rng = np.random.default_rng(seed)
        best = 0.0
        try:
            for _ in range(random_draws):
                a = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
                vec = CoefficientVector(N, a)
                best = max(best, even_norm(vec, b, d, mem_budget=mem_budget))
            per["random"] = best
        except BudgetExceededError as exc:
            skipped["random"] = str(exc)
    if "ascent" in strategies:
        cost = (2 * N + 1) * sum(SystemSpec(d, k, N).cells for k in range(1, b + 1))
        if cost > ascent_cost_cap:
            skipped["ascent"] = f"per-iteration cost {cost:.2g} above cap {ascent_cost_cap:.2g}"
        else:
            try:
                per["ascent"], _ = ascent_strategy(N, b, d, ascent_iterations,
                                                   ascent_restarts, seed, mem_budget=mem_budget)
            except BudgetExceededError as exc:
                skipped["ascent"] = str(exc)
    value = max(per.values()) if per else 0.0
    return EnvelopeResult(p, d, N, value, per, skipped)


# ---------------------------------------------------------------------------
# level sets


@dataclass
class SamplerConfig:
    samples: int = 1_000_000
    seed: int = 0


@dataclass
class LevelSetEntry:
    lam: float
    measure_estimate: float
    ci_halfwidth: float
    hits: int


@dataclass
class LevelSetProfile:
    entries: list = field(default_factory=list)

    def monotone_up_to_ci(self) -> bool:
        """Estimates nonincreasing in lambda, allowing CI-overlap violations."""
        entries = sorted(self.entries, key=lambda e: e.lam)
        for prev, cur in zip(entries, entries[1:]):
            if cur.measure_estimate - prev.measure_estimate > (
                cur.ci_halfwidth + prev.ci_halfwidth
            ):
                return False
        return True


def _wilson_halfwidth(hits: int, n: int) -> float:
    p_hat = hits / n
    denom = 1.0 + Z_95 * Z_95 / n
    return Z_95 * math.sqrt(p_hat * (1 - p_hat) / n + Z_95 * Z_95 / (4 * n * n)) / denom


def level_set_measure(vec: CoefficientVector, d: int, lam: float,
                      config: SamplerConfig | None = None) -> LevelSetEntry:
    """Monte Carlo measure of {(x,t) in [0,1)^2 : |F(x,t)| > lam}, Wilson CI."""
    return level_set_profile(vec, d, [lam], config).entries[0]


def level_set_profile(vec: CoefficientVector, d: int, lams,
                      config: SamplerConfig | None = None) -> LevelSetProfile:
    """Level-set measures for every lam (any order), from one seeded sample set.

    |F| is evaluated once per point and binned against the sorted levels.
    The points are i.i.d., so each level's Wilson interval holds as for its
    own sample, and the estimates are exactly nonincreasing in lambda.
    """
    config = config or SamplerConfig()
    lams = np.asarray(lams, dtype=np.float64)
    if not np.all(lams >= 0):
        raise ValueError("lambda must be nonnegative")
    grid = np.sort(lams)
    rng = np.random.default_rng(config.seed)
    # bins[i] counts the points with exactly i levels strictly below |F|
    bins = np.zeros(len(grid) + 1, dtype=np.int64)
    for done in range(0, config.samples, SAMPLE_CHUNK):
        m = min(SAMPLE_CHUNK, config.samples - done)
        x = rng.random(m)
        t = rng.random(m)
        vals = np.abs(curve_sum(vec.a, d, x, t, scale=TWO_PI))
        bins += np.bincount(np.searchsorted(grid, vals), minlength=len(bins))
    # |F| > lam exactly when more than the levels <= lam lie below |F|
    tails = np.cumsum(bins[::-1])[::-1]
    hits = tails[np.searchsorted(grid, lams, side="right")].tolist()
    n = config.samples
    return LevelSetProfile([LevelSetEntry(float(lam), h / n, _wilson_halfwidth(h, n), h)
                            for lam, h in zip(lams, hits)])


# case: (normalized, lo(d), top(N), law(d)): the regime lam in [c N^lo, 2 top]
# is checked against the law lam^{-(2^d+2)} N^law
_DECAY_CASES = {
    "curve": (True, lambda d: 0.5 - 2.0 ** (-d), math.sqrt, lambda d: 2.0 ** (d - 1) - d),
    "kernel": (False, lambda d: 1.0 - 2.0 ** (1 - d), float, lambda d: 2.0**d - d + 1),
}


def _levelset_decay(case: str, d: int, N: int, lam_grid, config: SamplerConfig | None,
                    c_low: float, points: int, min_hits: int) -> dict:
    """Decay report for one _DECAY_CASES row; levels under min_hits do not qualify."""
    normalize, lo, top, law = _DECAY_CASES[case]
    lam_lo = c_low * N ** lo(d)
    lam_hi = 2.0 * top(N)
    if lam_grid is None:
        lam_grid = np.geomspace(lam_lo, lam_hi, points)
    profile = level_set_profile(all_ones(N, normalize=normalize), d, lam_grid, config)
    rows = []
    for e in profile.entries:
        rows.append({
            "lam": e.lam,
            "measure": e.measure_estimate,
            "ci": e.ci_halfwidth,
            "hits": e.hits,
            "ratio": e.measure_estimate * e.lam ** (2.0**d + 2) / N ** law(d),
            "qualifies": e.hits >= min_hits,
        })
    ratios = [r["ratio"] for r in rows if r["qualifies"]]
    return {
        "rows": rows,
        "qualifying": len(ratios),
        "stability": (max(ratios) / min(ratios)) if len(ratios) >= 2 else None,
        "regime_unreachable": len(ratios) < 2,
        "d": d, "N": N, "lam_lo": lam_lo, "lam_hi": lam_hi,
        "monotone": profile.monotone_up_to_ci(), "case": case,
    }


def verify_curve_levelset_decay(d: int, N: int, lam_grid=None,
                                config: SamplerConfig | None = None,
                                c_low: float = 1.0, points: int = 10,
                                min_hits: int = 50) -> dict:
    """Decay of |E_lam| for the normalized all-ones curve sum.

    Regime lam in [c N^{1/2 - 2^{-d}}, 2 N^{1/2}] against lam^{-(2^d+2)} N^{2^{d-1}-d}.
    """
    return _levelset_decay("curve", d, N, lam_grid, config, c_low, points, min_hits)


def verify_kernel_levelset_decay(d: int, N: int, lam_grid=None,
                                 config: SamplerConfig | None = None,
                                 c_low: float = 1.0, points: int = 10,
                                 min_hits: int = 50) -> dict:
    """Decay of |G_lam| for the unnormalized kernel K_N.

    Regime lam in [c N^{1 - 2^{1-d}}, 2N] against lam^{-(2^d+2)} N^{2^d-d+1}.
    """
    return _levelset_decay("kernel", d, N, lam_grid, config, c_low, points, min_hits)


# ---------------------------------------------------------------------------
# the planar L^4 bound and local embeddings


def verify_l4_weighted_bound(fhat: np.ndarray, d: int):
    """(lhs, rhs): exact L^4(T^2) norm of f vs the curve-distance weighted l2 size.

    ``fhat[m + M, n + L]`` holds the coefficient of e^{2 pi i (m x + n t)}.
    The L^4 norm comes from the exact self-convolution of the coefficient
    table: ||f||_4^4 = sum |(fhat * fhat)|^2.
    """
    fhat = np.asarray(fhat, dtype=np.complex128)
    rows, cols = fhat.shape
    if rows % 2 == 0 or cols % 2 == 0:
        raise ValueError("fhat must have odd extents centered at zero frequency")
    M, L = rows // 2, cols // 2
    conv = np.zeros((2 * rows - 1, 2 * cols - 1), dtype=np.complex128)
    for i in range(rows):
        for j in range(cols):
            c = fhat[i, j]
            if c != 0:
                conv[i:i + rows, j:j + cols] += c * fhat
    lhs = float(np.sum(np.abs(conv) ** 2)) ** 0.25
    m = np.arange(-M, M + 1).reshape(-1, 1)
    n = np.arange(-L, L + 1).reshape(1, -1)
    weight = (1.0 + np.abs(n - m.astype(object) ** d).astype(np.float64)) ** ((d + 1) / (2.0 * d))
    rhs = math.sqrt(float(np.sum(weight * np.abs(fhat) ** 2)))
    return lhs, rhs


def _trajectory_values(u: HarmonicTrajectory, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    w = u.convention.wavenumber_factor
    out = np.zeros(len(x), dtype=np.complex128)
    for n, j, lam, c in u.rows():
        out += c * t**j * np.exp(1j * (w * n * x + lam * t))
    return out


def local_l4_norm(u: HarmonicTrajectory, window: TimeWindow, samples: int = 200_000,
                  seed: int = 0) -> float:
    """Monte Carlo ||psi_delta u||_{L^4(T x R)} over the window support."""
    rng = np.random.default_rng(seed)
    period = u.convention.period
    x = rng.random(samples) * period
    t = (rng.random(samples) * 4.0 - 2.0) * window.delta
    vals = _trajectory_values(u, x, t) * window.psi_array(t)
    mean4 = float(np.mean(np.abs(vals) ** 4))
    return (mean4 * period * 4.0 * window.delta) ** 0.25


def verify_embeddings(trials, window: TimeWindow, samples: int = 200_000,
                      seed: int = 0, rtol: float = 1e-7) -> dict:
    """Max ratio ||u||_4 / ||u||_{X_{0,3/10}} over trial trajectories.

    Zero trajectories are skipped (the ratio is undefined); the ratio is
    scale-invariant, so trials may be passed unnormalized.
    """
    rows = []
    for i, u in enumerate(trials):
        norm_x = xsb_norm(u, 0.0, 0.3, window, rtol=rtol)
        if norm_x == 0.0:
            rows.append({"trial": i, "skipped": True})
            continue
        l4 = local_l4_norm(u, window, samples=samples, seed=seed + i)
        rows.append({"trial": i, "l4": l4, "xsb": norm_x, "ratio": l4 / norm_x,
                     "skipped": False})
    ratios = [r["ratio"] for r in rows if not r.get("skipped")]
    return {"rows": rows, "max_ratio": max(ratios) if ratios else None}
