import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from dispersive_lab.counting import mobius_phi_sieve
from dispersive_lab.kernels import curve_sum
from dispersive_lab.weyl import (
    BumpSpec,
    KernelDecomposition,
    PhiData,
    RationalApprox,
    build_phi,
    decompose_kernel,
    dirichlet_curve_kernel,
    minor_arc_points,
    phi_hat_max_scan,
    rational_approx,
    weyl_sum,
)

# ---------------------------------------------------------------------------
# rational approximation


def test_rational_examples():
    r = rational_approx(Fraction(1, 3), 10)
    assert (r.a, r.q) == (1, 3)
    r = rational_approx(0.0, 7)
    assert (r.a, r.q) == (0, 1)
    r = rational_approx(math.pi % 1.0, 120)
    assert (r.a, r.q) == (16, 113)


def test_rational_invariants_exact():
    rng = np.random.default_rng(9)
    for _ in range(200):
        t = float(rng.random())
        q_max = int(rng.integers(1, 500))
        r = rational_approx(t, q_max)
        assert r.q <= q_max
        assert math.gcd(r.a, r.q) == 1
        # |t - a/q| <= 1/q^2 checked in exact rational arithmetic
        assert abs(Fraction(t) - Fraction(r.a, r.q)) <= Fraction(1, r.q**2)


def test_rational_reduced_enforced():
    with pytest.raises(ValueError):
        RationalApprox(2, 4, 0.5)


# ---------------------------------------------------------------------------
# Weyl sums and the curve kernel


def test_weyl_trivial_t_zero():
    assert weyl_sum(7, 3, 0.0) == pytest.approx(7.0)


def test_weyl_alternating_example():
    # e^{pi i n^3} alternates -1, +1, -1, +1
    assert abs(weyl_sum(4, 3, Fraction(1, 2))) < 1e-14


def test_weyl_triangle_inequality():
    rng = np.random.default_rng(1)
    for _ in range(50):
        N = int(rng.integers(1, 60))
        d = int(rng.choice([3, 5]))
        t = float(rng.random())
        p = tuple(rng.standard_normal(2))
        assert abs(weyl_sum(N, d, t, p)) <= N + 1e-12


def test_weyl_degree_guard():
    with pytest.raises(ValueError):
        weyl_sum(5, 3, 0.1, (0.0, 0.0, 0.0, 1.0))


def test_kernel_at_origin():
    assert dirichlet_curve_kernel(8, 3, 0.0, 0.0) == pytest.approx(17.0)


def test_kernel_conjugate_symmetry():
    v1 = dirichlet_curve_kernel(6, 3, 0.31, 0.77)
    v2 = dirichlet_curve_kernel(6, 3, -0.31, -0.77)
    assert v1 == pytest.approx(v2.conjugate(), abs=1e-12)


def test_kernel_matches_weyl_assembly():
    # split n < 0, n = 0, n > 0; for odd d the negative block is the
    # mirrored Weyl sum with reversed signs
    N, d, x, t = 9, 3, 0.37, 0.59
    plus = weyl_sum(N, d, t, (0.0, x))
    minus = weyl_sum(N, d, -t, (0.0, -x))
    assembled = plus + minus + 1.0
    direct = dirichlet_curve_kernel(N, d, x, t)
    assert abs(assembled - direct) < 1e-10


def test_kernel_grid_matches_scalar():
    rng = np.random.default_rng(3)
    x = rng.random(40)
    t = rng.random(40)
    grid = curve_sum(np.ones(2 * 12 + 1), 3, x, t)
    for i in range(0, 40, 7):
        assert grid[i] == pytest.approx(
            dirichlet_curve_kernel(12, 3, float(x[i]), float(t[i])), abs=1e-9)


# ---------------------------------------------------------------------------
# bump profile


def test_bump_support_and_positivity():
    b = BumpSpec()
    assert b.profile(1 / 200 - 1e-9) == 0.0
    assert b.profile(1 / 100 + 1e-9) == 0.0
    assert b.profile(0.0075) > 0.0
    assert b.transform_at_zero > 0.0


def test_bump_transform_matches_qawo_oracle():
    # the trapezoid rule against scipy's Fourier-weighted quadrature (QUADPACK
    # QAWO), an independent rule, across the whole live range of xi
    b = BumpSpec()
    lo, hi = b.SUPPORT
    peak = b.transform_at_zero
    xi = np.linspace(0.0, b.XI_DEAD, 10, endpoint=False) + 37.3

    def oracle(x):
        kw = dict(wvar=2.0 * math.pi * x, epsabs=1e-18, epsrel=0.0, limit=200)
        re = quad(b.profile, lo, hi, weight="cos", **kw)[0]
        return re - 1j * quad(b.profile, lo, hi, weight="sin", **kw)[0]

    want = np.array([oracle(x) for x in xi])
    assert np.abs(b.fourier_transform_quad(xi) - want).max() < 1e-13 * peak


def test_bump_transform_interpolation_accuracy():
    b = BumpSpec()
    peak = b.transform_at_zero
    rng = np.random.default_rng(8)
    xi = rng.random(400) * 17_400.0
    fast = b.fourier_transform(xi)
    slow = b.fourier_transform_quad(xi)
    assert np.abs(fast - slow).max() < 1e-11 * peak
    # the first cell's stencil is centred on the mirrored entry at -0.05, so
    # it is as accurate as every other cell (7.6e-13 of the peak at most)
    xi0 = np.arange(0.0, 0.05, 1e-3)
    assert np.abs(b.fourier_transform(xi0) - b.fourier_transform_quad(xi0)).max() < 8e-13 * peak
    # exact conjugate symmetry, and exact zeros past XI_DEAD
    assert np.array_equal(b.fourier_transform(-xi), np.conj(fast))
    dead = np.array([b.XI_DEAD, -b.XI_DEAD, 2 * b.XI_DEAD, -1e9])
    assert np.array_equal(b.fourier_transform(dead), np.zeros(4))
    assert b.fourier_transform(-b.XI_DEAD) == 0


# ---------------------------------------------------------------------------
# the Farey bump Phi


def test_phi_hat0_formula():
    p = build_phi(8)
    mu_phi = 0.0
    _, phi_tot, _ = mobius_phi_sieve()
    total = sum(int(phi_tot[q]) / q**2 for q in range(8, 41))
    assert p.phi_hat0() == pytest.approx(total * p.bump.transform_at_zero, rel=1e-12)
    assert p.phi_hat0() > 0


def _phi_hat_divisor_oracle(p, ks):
    """Phi_hat(k) with c_q(k) = sum over delta | (q, k) of delta mu(q/delta), and sum |terms|."""
    mu = mobius_phi_sieve()[0]
    q = np.arange(p.q_lo, p.q_hi + 1, dtype=np.int64)
    c = np.zeros((len(ks), len(q)), dtype=np.int64)
    for row, k in zip(c, ks):
        # every delta divides 0; otherwise the divisors of k up to 5Q
        deltas = range(1, p.q_hi + 1) if k == 0 else [
            v for i in range(1, math.isqrt(k) + 1) if k % i == 0
            for v in {i, k // i} if v <= p.q_hi]
        for delta in deltas:
            first = -(-p.q_lo // delta) * delta  # least multiple of delta in [Q, 5Q]
            hit = slice(first - p.q_lo, None, delta)
            row[hit] += delta * mu[q[hit] // delta]
    xi = np.asarray(ks, dtype=float)[:, None] / q.astype(float) ** 2
    terms = c / q.astype(float) ** 2 * p.bump.fourier_transform(xi.ravel()).reshape(xi.shape)
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def test_phi_hat_dense_matches_exact():
    # the batched evaluator against the divisor-sum form of c_q, on the
    # dense window k = 0..4Q and on random k up to 2 Q^{3/2}
    rng = np.random.default_rng(31)
    for Q in (64, 256, 1024):
        p = build_phi(Q)
        ks = np.concatenate((np.arange(0, 4 * Q + 1),
                             rng.integers(1, int(2 * Q**1.5) + 1, 48)))
        got = p.phi_hat_many(ks)
        for i in range(0, len(ks), 128):
            want, scale = _phi_hat_divisor_oracle(p, ks[i:i + 128].tolist())
            assert np.all(np.abs(got[i:i + 128] - want) <= 1e-13 * scale), Q
        assert np.array_equal(p.phi_hat_dense(16), got[:17])


def test_phi_eval_support():
    p = build_phi(8)
    # inside the q=10, a=1 arc
    t = 1 / 10 + 0.006 / 100
    assert p.phi_eval(t) == pytest.approx(float(p.bump.profile(0.006)), rel=1e-9)
    # far from every arc of denominators in [8, 40]
    assert p.phi_eval(0.5 + 0.003) == 0.0


def test_phi_hat_ramanujan_reduction_vs_arc_integral_oracle():
    # the defining sum integrated arc by arc (fine trapezoid on phi_eval's
    # support) against the Ramanujan-sum reduction, |k| <= 64, Q = 8
    p = build_phi(8)
    ks = np.array([0, 1, 2, 5, 17, 40, 64])
    got = p.phi_hat_many(ks)
    M = 96
    want = np.zeros(len(ks), dtype=complex)
    for a, q in p.arcs():
        lo, hi = p.arc_interval(a, q)
        ts = np.linspace(float(lo), float(hi), M)
        vals = p.bump.profile((ts - a / q) * q * q)
        for i, k in enumerate(ks):
            want[i] += np.trapezoid(vals * np.exp(-2j * np.pi * k * ts), ts)
    assert np.abs(got - want).max() < 1e-6 * max(1.0, np.abs(want).max() / abs(got[0]))


def test_arcs_pairwise_disjoint_exact():
    for Q in (8, 64):
        p = build_phi(Q)
        intervals = sorted(p.arc_interval(a, q) for a, q in p.arcs())
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert hi1 < lo2  # exact Fraction comparison


# ---------------------------------------------------------------------------
# kernel decomposition


def test_k2_hat_vanishes_on_curve_exactly():
    for N, d, Q in ((4, 3, 16), (3, 5, 81)):
        dec = decompose_kernel(N, d, Q)
        assert dec.phi.phi_hat_dense(2 * N**d)[0] == dec.phi_hat0
        for n in range(-N, N + 1):
            assert dec.k2_hat(n, n**d) == 0.0


def test_k2_hat_off_curve_rule():
    dec = decompose_kernel(4, 3, 16)
    v = dec.k2_hat(2, 8 + 5)
    assert v == pytest.approx(-dec.phi.phi_hat(5) / dec.phi_hat0, rel=1e-12)


def test_decomposition_identity_random_points():
    # K_1 + K_2 = K_N at 1e4 random points, 1e-8 relative to the kernel
    # height, with K_2 evaluated from its Fourier coefficient rule: the
    # (n1, n2) grid sum factorizes as K_N(x,t) * (1 - S(t)/Phi_hat0) where
    # S is the deep truncated Fourier series of the arc bump
    N, d, Q = 2, 3, 4
    dec = decompose_kernel(N, d, Q)
    k_max = 7_000_000
    tab = dec.phi.phi_hat_dense(k_max)
    assert np.abs(tab[6_000_000:]).sum() < 1e-12  # truncated tail is dead
    M = 1 << 24
    padded = np.zeros(M, dtype=np.complex128)
    padded[:k_max + 1] = tab
    series = 2.0 * (np.fft.ifft(padded) * M).real - tab[0].real
    rng = np.random.default_rng(12)
    idx = rng.integers(0, M, 10_000)
    ts = idx / M
    xs = rng.random(10_000)
    phi_vals = np.array([dec.phi.phi_eval(t) for t in ts])
    k_n = curve_sum(np.ones(2 * N + 1), d, xs, ts)
    k1 = k_n * phi_vals / dec.phi_hat0
    k2 = k_n * (1.0 - series[idx] / dec.phi_hat0)
    assert np.abs(k1 + k2 - k_n).max() < 1e-8 * (2 * N + 1)


def test_regime_warning():
    with pytest.warns(UserWarning):
        decompose_kernel(4, 3, 3)  # Q below N^{d-1}


def test_q_floor():
    dec = decompose_kernel(4, 3, 16.9)
    assert dec.Q == 16


def test_minor_arc_points_hypothesis():
    pts = minor_arc_points(8, 3, 10, seed=1)
    for t, a, q in pts:
        assert q >= 8**2
        assert math.gcd(a, q) == 1
        assert abs(t - Fraction(a, q)) <= Fraction(1, q * q)


def test_phi_max_scan_candidates_match_dense():
    p = build_phi(64)
    klim = 2 * 8**3
    cand = phi_hat_max_scan(p, k_limit=klim)
    dense = phi_hat_max_scan(p, k_limit=klim, dense_limit=klim)
    assert cand["max_abs"] >= 0.98 * dense["max_abs"]
