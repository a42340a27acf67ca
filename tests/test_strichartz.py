import math

import numpy as np
import pytest

from dispersive_lab import counting, kernels, strichartz
from dispersive_lab.counting import BudgetExceededError, SystemSpec, count_S
from dispersive_lab.kernels import curve_sum
from dispersive_lab.norms import TimeWindow
from dispersive_lab.strichartz import (
    SAMPLE_CHUNK,
    CoefficientVector,
    SamplerConfig,
    all_ones,
    even_norm,
    even_norm_power_gradient,
    k_lower_envelope,
    level_set_profile,
    local_l4_norm,
    verify_embeddings,
    verify_l4_weighted_bound,
)
from dispersive_lab.torus import FourierSeries, HarmonicTrajectory, TorusConvention


def random_vec(rng, N, normalize=True):
    a = rng.standard_normal(2 * N + 1) + 1j * rng.standard_normal(2 * N + 1)
    return CoefficientVector(N, a, normalize=normalize)


def test_even_norm_b1_is_l2():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        N = int(rng.integers(1, 5))
        vec = random_vec(rng, N, normalize=False)
        assert even_norm(vec, 1, 3) == pytest.approx(float(np.linalg.norm(vec.a)),
                                                     rel=1e-12)


def test_even_norm_all_ones_equals_count():
    for d, b, N in [(3, 2, 5), (5, 2, 4), (3, 3, 3)]:
        vec = all_ones(N, normalize=False)
        power = even_norm(vec, b, d) ** (2 * b)
        assert round(power) == count_S(SystemSpec(d, b, N))
        assert abs(power - round(power)) < 1e-6


def test_even_norm_bits_pinned():
    # the bits of even_norm on one dense-planned and three sparse-planned inputs
    for (d, b, N), layout, pinned in (((2, 5, 12), "dense", "0x1.8cd3f5743af9fp+0"),
                                      ((5, 3, 4), "sparse", "0x1.3f75e60437903p+0"),
                                      ((3, 3, 4), "sparse", "0x1.3f75e60437903p+0"),
                                      ((2, 3, 10), "sparse", "0x1.4f5283f5569dcp+0")):
        spec = SystemSpec(d, b, N)
        assert counting._plan(spec, counting.DEFAULT_MEM_BUDGET, weighted=True) == layout
        vec = random_vec(np.random.default_rng(7), N)
        assert even_norm(vec, b, d).hex() == pinned, (d, b, N)


def test_even_norm_bits_pinned_large_sparse(monkeypatch):
    # a sparse top level of C(30, 6) = 593,775 multiset rows, summed once on the
    # packed sort: the bits that expanding every level through the stable
    # lexsort reducer gave, whatever sort the reducer uses
    pairs = []
    sum_by_key = counting.sum_by_key
    monkeypatch.setattr(counting, "sum_by_key", lambda cols, vals: pairs.append(
        (len(vals), kernels._packing(cols) is not None)) or sum_by_key(cols, vals))
    vec = random_vec(np.random.default_rng(7), 12)
    assert even_norm(vec, 6, 5).hex() == "0x1.9a73374f6067bp+0"
    assert pairs == [(593_775, True)]


def test_even_norm_reflection_covariant():
    rng = np.random.default_rng(3)
    for d in (3, 5):
        vec = random_vec(rng, 4)
        rev = CoefficientVector(4, vec.a[::-1].copy(), normalize=False)
        assert even_norm(rev, 2, d) == pytest.approx(even_norm(vec, 2, d), rel=1e-12)


def test_even_norm_against_monte_carlo():
    # int |F|^4 via exact convolution against Monte Carlo quadrature, 3 sigma
    rng = np.random.default_rng(7)
    vec = random_vec(rng, 8)
    exact4 = even_norm(vec, 2, 3) ** 4
    M = 1_000_000
    x = rng.random(M)
    t = rng.random(M)
    vals = np.abs(curve_sum(vec.a, 3, x, t)) ** 4
    mean = float(np.mean(vals))
    sigma = float(np.std(vals)) / math.sqrt(M)
    assert abs(mean - exact4) < 3 * sigma


def test_gradient_matches_finite_differences():
    # central differences at 1e-6 step, 1e-5 relative, 100 random points
    rng = np.random.default_rng(11)
    b, d, N = 2, 3, 4
    checks = 0
    while checks < 100:
        vec = random_vec(rng, N, normalize=False)
        val, g = even_norm_power_gradient(vec, b, d)
        m = int(rng.integers(0, 2 * N + 1))
        h = 1e-6
        for direction, part in ((1.0, "re"), (1j, "im")):
            ap = vec.a.copy()
            ap[m] += h * direction
            am = vec.a.copy()
            am[m] -= h * direction
            fp, _ = even_norm_power_gradient(CoefficientVector(N, ap, normalize=False), b, d)
            fm, _ = even_norm_power_gradient(CoefficientVector(N, am, normalize=False), b, d)
            fd = (fp - fm) / (2 * h)
            analytic = 2 * (g[m].real if part == "re" else g[m].imag)
            assert analytic == pytest.approx(fd, rel=1e-5, abs=1e-7)
            checks += 1


def test_envelope_single_mode_floor():
    res = k_lower_envelope(12, 16, 5, strategies=("single",))
    assert res.value == 1.0


def test_envelope_skips_over_budget_strategies():
    res = k_lower_envelope(12, 16, 5, strategies=("single", "all_ones", "random"),
                           mem_budget=50_000_000)
    assert res.value >= 1.0
    assert "all_ones" in res.skipped or "all_ones" in res.per_strategy


def test_envelope_ascent_beats_random_floor():
    res = k_lower_envelope(4, 6, 3, strategies=("single", "random", "ascent"),
                           random_draws=4, ascent_iterations=40, ascent_restarts=2,
                           seed=2)
    assert res.value >= 1.0
    assert res.per_strategy.get("ascent", 0.0) >= res.per_strategy.get("random", 0.0) * 0.99


def test_ascent_honours_mem_budget():
    # the dense tables of (d, b, N) = (3, 2, 6) take 436,064 bytes
    vec = random_vec(np.random.default_rng(0), 6)
    with pytest.raises(BudgetExceededError, match="budget"):
        even_norm_power_gradient(vec, 2, 3, mem_budget=400_000)
    assert even_norm_power_gradient(vec, 2, 3, mem_budget=440_000)[0] > 0
    res = k_lower_envelope(4, 6, 3, strategies=("ascent",), ascent_iterations=2,
                           ascent_restarts=1, mem_budget=400_000)
    assert "ascent" not in res.per_strategy
    assert "budget" in res.skipped["ascent"]


def test_envelope_rejects_odd_p():
    with pytest.raises(ValueError):
        k_lower_envelope(7, 8, 3)


def test_level_set_trivial_levels():
    vec = CoefficientVector(4, np.eye(9)[2 + 4])  # the single mode n = 2
    cfg = SamplerConfig(samples=4000, seed=1)
    total = float(np.sum(np.abs(vec.a)))
    low, high = level_set_profile(vec, 3, [0.0, total + 1e-9], cfg).entries
    assert low.measure_estimate == 1.0
    assert high.measure_estimate == 0.0


def test_level_set_profile_monotone():
    vec = all_ones(8)
    lams = np.linspace(0.2, 3.0, 8)
    prof = level_set_profile(vec, 3, lams, SamplerConfig(samples=20_000, seed=3))
    assert prof.monotone_up_to_ci()


def _sample_abs_values(vec, d, samples, seed):
    """|F| on the seeded sample, drawn x then t chunk by chunk."""
    rng = np.random.default_rng(seed)
    parts = []
    for done in range(0, samples, SAMPLE_CHUNK):
        m = min(SAMPLE_CHUNK, samples - done)
        x = rng.random(m)
        t = rng.random(m)
        parts.append(np.abs(curve_sum(vec.a, d, x, t)))
    return np.concatenate(parts)


def test_level_set_profile_one_sample_set_serves_every_level(monkeypatch):
    # oracle: count |F| > lam level by level on the same seeded points;
    # levels equal to sampled |F| values check that the count is strict
    vec, d = all_ones(4), 3
    samples = 2 * SAMPLE_CHUNK + 1234
    cfg = SamplerConfig(samples=samples, seed=5)
    vals = _sample_abs_values(vec, d, samples, cfg.seed)
    lams = [0.0, 0.4, 1.1, 1.1, 2.0, 3.5, float(vals[7]), float(vals[-1]), float(vals.max())]
    lams = [float(lam) for lam in np.random.default_rng(1).permutation(lams)]
    calls = []
    real_curve_sum = strichartz.curve_sum

    def counted(*args, **kwargs):
        calls.append(1)
        return real_curve_sum(*args, **kwargs)

    monkeypatch.setattr(strichartz, "curve_sum", counted)
    prof = level_set_profile(vec, d, lams, cfg)
    assert [e.lam for e in prof.entries] == lams
    assert [e.hits for e in prof.entries] == [int(np.count_nonzero(vals > lam)) for lam in lams]
    assert prof.monotone_up_to_ci()
    for levels in (lams, lams[:1]):
        calls.clear()
        level_set_profile(vec, d, levels, cfg)
        assert len(calls) == math.ceil(samples / SAMPLE_CHUNK)
    assert level_set_profile(vec, d, [lams[3]], cfg).entries == [prof.entries[3]]
    with pytest.raises(ValueError, match="nonnegative"):
        level_set_profile(vec, d, [0.5, -0.1], cfg)


@pytest.mark.parametrize("N,hits", [
    (32, [19269, 9369, 3306, 824, 137, 28, 6, 2, 0, 0]),
    (64, [9297, 2930, 584, 79, 12, 3, 0, 0, 0, 0]),
])
def test_kernel_levelset_hits_pinned(N, hits):
    # hits pinned from a sum over all 2N+1 modes with unreduced phase sums:
    # folding n with -n moves |F| by ulps, which must not move a point across a level
    cfg = SamplerConfig(samples=200_000, seed=13)
    rep = strichartz.verify_kernel_levelset_decay(3, N, config=cfg, points=10)
    assert [r["hits"] for r in rep["rows"]] == hits


def test_l4_bound_single_mode():
    fhat = np.zeros((5, 5), dtype=complex)
    fhat[2 + 1, 2 + 1] = 2.0  # single mode amplitude 2 at (m, n) = (1, 1)
    lhs, rhs = verify_l4_weighted_bound(fhat, 3)
    assert lhs == pytest.approx(2.0, rel=1e-12)
    assert rhs == pytest.approx(2.0, rel=1e-12)  # weight (1+|1-1|) = 1


def test_l4_bound_on_curve_reduces_to_l2():
    # support on the curve (m, m^d): rhs becomes the plain l2 norm
    M = 2
    rng = np.random.default_rng(5)
    fhat = np.zeros((2 * M + 1, 2 * M**3 + 1), dtype=complex)
    a = rng.standard_normal(2 * M + 1) + 1j * rng.standard_normal(2 * M + 1)
    for m in range(-M, M + 1):
        fhat[m + M, m**3 + M**3] = a[m + M]
    lhs, rhs = verify_l4_weighted_bound(fhat, 3)
    assert rhs == pytest.approx(float(np.linalg.norm(a)), rel=1e-12)
    vec = CoefficientVector(M, a, normalize=False)
    assert lhs == pytest.approx(even_norm(vec, 2, 3), rel=1e-10)


def test_l4_bound_random_tables():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(60):
        fhat = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
        lhs, rhs = verify_l4_weighted_bound(fhat, 3)
        worst = max(worst, lhs / rhs)
    assert worst <= 1.0  # see the acceptance suite for the tighter scan


def test_local_l4_scaling_exact():
    u = HarmonicTrajectory(TorusConvention.TWO_PI, {(1, 0, -1.0): 0.5})
    win = TimeWindow(0.5)
    base = local_l4_norm(u, win, samples=20_000, seed=4)
    scaled = local_l4_norm(u.scaled(3.0), win, samples=20_000, seed=4)
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def test_level_set_inequality_from_kernel_split():
    # the level-set bound with measured kernel constants: for the
    # normalized all-ones curve sum and a (lambda, Q) grid,
    #   lam^2 |E|^2 <= C1_hat N^{1-3/4+eps} Q^{1/4} |E|^2 + C2_hat N^eps / Q |E|
    # where C1_hat is the sampled sup of |K1| over the arcs and C2_hat the
    # scanned sup of |K2_hat| * Q; eps = 0.05, 1.5x sampling headroom
    import math as _math

    from dispersive_lab import weyl

    d, N, eps = 3, 32, 0.05
    rng = np.random.default_rng(21)
    vec = all_ones(N)
    measures = {}
    for lam in (1.0, 2.0, 3.5):
        cfg = SamplerConfig(samples=200_000, seed=int(lam * 10))
        measures[lam] = level_set_profile(vec, d, [lam], cfg).entries[0].measure_estimate
    for Q in (N**2, 2 * N**2):
        dec = weyl.decompose_kernel(N, d, Q)
        sup1 = 0.0
        for _ in range(400):
            q = int(rng.integers(Q, 5 * Q + 1))
            a = int(rng.integers(1, q))
            if _math.gcd(a, q) != 1:
                continue
            u = 1 / 200 + rng.random() * (1 / 100 - 1 / 200)
            sup1 = max(sup1, abs(dec.k1_at_arc(a, q, u, float(rng.random()))))
        c1_hat = sup1 / (N ** (1 - 3 / 4 + eps) * Q**0.25)
        scan = weyl.phi_hat_max_scan(dec.phi, k_limit=2 * N**d)
        c2_hat = scan["max_abs"] / dec.phi_hat0 * Q / N**eps
        for lam, e_meas in measures.items():
            lhs = lam**2 * e_meas**2
            rhs = (c1_hat * N ** (1 - 3 / 4 + eps) * Q**0.25 * e_meas**2
                   + c2_hat * N**eps / Q * e_meas)
            assert lhs <= 1.5 * rhs, (Q, lam, lhs, rhs)


def test_embeddings_report():
    win = TimeWindow(0.5)
    trials = [
        HarmonicTrajectory(TorusConvention.TWO_PI, {}),  # skipped
        HarmonicTrajectory(TorusConvention.TWO_PI, {(2, 0, -32.0): 1.0}),
        HarmonicTrajectory(TorusConvention.TWO_PI, {(4, 0, -1024.0): 1.0}),
    ]
    rep = verify_embeddings(trials, win, samples=50_000, seed=6, rtol=1e-6)
    assert rep["rows"][0]["skipped"]
    assert rep["max_ratio"] is not None and rep["max_ratio"] < 10.0
