import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from dispersive_lab import counting, weyl
from dispersive_lab.counting import mobius_phi_sieve
from dispersive_lab.kernels import curve_sum
from dispersive_lab.weyl import (
    BumpSpec,
    KernelDecomposition,
    PhiData,
    RationalApprox,
    build_phi,
    decompose_kernel,
    minor_arc_points,
    phi_hat_max_scan,
    primes_in,
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


def exact_weyl_sum(N, d, t):
    """sum_{n<=N} e(t n^d) with t n^d reduced mod 1 in Python integers."""
    t = Fraction(t)
    return sum(cmath.exp(2j * math.pi * (t.numerator * n**d % t.denominator) / t.denominator)
               for n in range(1, N + 1))


def test_weyl_sum_float_guard_and_exact_fraction():
    # a float t is the dyadic rational it holds: past 1553^5 > 2^53 as well
    want = exact_weyl_sum(1553, 5, Fraction(3, 4))
    for t in (0.75, Fraction(3, 4)):
        assert abs(weyl_sum(1553, 5, t) - want) < 1e-11
    # rounding n^5 t in float64 was off by 153 here (|S| <= 1552) and by 0.097
    # at N = 1000, t = 0.1
    for N, t in ((1552, 0.75), (1000, 0.1)):
        assert abs(weyl_sum(N, 5, t) - exact_weyl_sum(N, 5, t)) < 1e-10


def _kernel(N, d, x, t):
    return complex(curve_sum(np.ones(2 * N + 1), d, np.array([x]), np.array([t]))[0])


def test_kernel_at_origin():
    assert _kernel(8, 3, 0.0, 0.0) == pytest.approx(17.0)


def test_kernel_conjugate_symmetry():
    v1 = _kernel(6, 3, 0.31, 0.77)
    v2 = _kernel(6, 3, -0.31, -0.77)
    assert v1 == pytest.approx(v2.conjugate(), abs=1e-12)


def test_kernel_matches_weyl_assembly():
    # split n < 0, n = 0, n > 0; for odd d the negative block is the
    # mirrored Weyl sum with reversed signs
    N, d, x, t = 9, 3, 0.37, 0.59
    plus = weyl_sum(N, d, t, (0.0, x))
    minus = weyl_sum(N, d, -t, (0.0, -x))
    assembled = plus + minus + 1.0
    direct = _kernel(N, d, x, t)
    assert abs(assembled - direct) < 1e-10


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


def _phi_hat_divisor_oracle(p, ks, transform):
    """Phi_hat(k) with c_q(k) = sum over delta | (q, k) of delta mu(q/delta), and sum |terms|.

    This is the same divisor-sum form that ``counting.ramanujan_sum`` now
    uses, so it checks the evaluator's assembly, not the Ramanujan sums; the
    independent check of those is the np.gcd Moebius-quotient oracle in
    test_counting.py (test_ramanujan_sum_bit_identical_to_gcd_oracle).
    ``transform`` is the bump transform the terms read: the trapezoid rule
    (``fourier_transform_quad``) or its table (``fourier_transform``).
    """
    mu = mobius_phi_sieve()[0]
    q = np.arange(p.q_lo, p.q_hi + 1, dtype=np.int64)
    c = np.zeros((len(ks), len(q)), dtype=np.int64)
    for row, k in zip(c, ks):
        # every delta divides 0; otherwise the divisors of k up to 5Q
        deltas = range(1, p.q_hi + 1) if k == 0 else [
            v for i in range(1, math.isqrt(abs(k)) + 1) if k % i == 0
            for v in {i, abs(k) // i} if v <= p.q_hi]
        for delta in deltas:
            first = -(-p.q_lo // delta) * delta  # least multiple of delta in [Q, 5Q]
            hit = slice(first - p.q_lo, None, delta)
            row[hit] += delta * mu[q[hit] // delta]
    xi = np.asarray(ks, dtype=float)[:, None] / q.astype(float) ** 2
    terms = c / q.astype(float) ** 2 * transform(xi.ravel()).reshape(xi.shape)
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def test_phi_hat_dense_matches_exact():
    # the moment path (every xi = |k|/q^2 at most XI_MOMENTS) on the dense
    # window k = 0..4Q and on random k up to 2 Q^{3/2}: every k against the
    # divisor-sum form through the 4-point table, within the table's own
    # error (up to 3.9e-13 of the scale from the rule), and every (Q/64)-th
    # dense k plus the random ks against the rule itself at 1e-14
    rng = np.random.default_rng(31)
    for Q in (64, 256, 1024):
        p = build_phi(Q)
        ks = np.concatenate((np.arange(0, 4 * Q + 1),
                             rng.integers(1, int(2 * Q**1.5) + 1, 48)))
        assert ks.max() <= weyl.XI_MOMENTS * Q * Q
        got = p.phi_hat_many(ks)
        on_rule = np.zeros(len(ks), dtype=bool)
        on_rule[np.r_[0:4 * Q + 1:Q // 64, 4 * Q + 1:len(ks)]] = True
        for i in range(0, len(ks), 128):
            idx = np.arange(i, min(i + 128, len(ks)))
            want, scale = _phi_hat_divisor_oracle(p, ks[idx].tolist(), p.bump.fourier_transform)
            assert np.all(np.abs(got[idx] - want) <= 5e-13 * scale), Q
            idx = idx[on_rule[idx]]
            want, scale = _phi_hat_divisor_oracle(p, ks[idx].tolist(),
                                                  p.bump.fourier_transform_quad)
            assert np.all(np.abs(got[idx] - want) <= 1e-14 * scale), Q
        assert np.array_equal(p.phi_hat_dense(16), got[:17])


def test_phi_hat_table_path_matches_exact():
    # a call with ks on both sides of XI_MOMENTS: each k past it takes the
    # table path, checked against the divisor-sum form through the same
    # table; each k up to it takes the moment path, checked against the rule
    # itself (the table's own error, up to 3.9e-13 of the scale, would not
    # pass 1e-13 there)
    rng = np.random.default_rng(32)
    for Q in (64, 256, 1024):
        p = build_phi(Q)
        ks = np.concatenate((np.arange(-5, 64), rng.integers(-2 * Q * Q, 2 * Q * Q, 48),
                             [2 * Q * Q]))
        got = p.phi_hat_many(ks)
        table = np.abs(ks) > weyl.XI_MOMENTS * Q * Q
        assert 0 < table.sum() < len(ks), Q
        for sel, transform, rtol in ((table, p.bump.fourier_transform, 1e-13),
                                     (~table, p.bump.fourier_transform_quad, 1e-14)):
            want, scale = _phi_hat_divisor_oracle(p, ks[sel].tolist(), transform)
            assert np.all(np.abs(got[sel] - want) <= rtol * scale), Q


def test_phi_hat_paths_agree_at_the_regime_boundary():
    # the moment and table paths on the same ks, up to xi = XI_MOMENTS and one
    # step past it, agree within 1e-12 of Phi_hat(0); and a k's path is its
    # own, so a mixed call gives every k the bytes of a call on it alone
    for Q in (16, 64, 256):
        p = build_phi(Q)
        edge = int(weyl.XI_MOMENTS * Q * Q)
        ks = np.concatenate((np.arange(-40, 0), np.arange(1, 4 * Q + 1),
                             [Q * Q // 2, edge - 1, edge, edge + 1]))
        moments, table = p._by_moments(ks), p._by_ramanujan_sums(ks)
        assert np.abs(moments - table).max() <= 1e-12 * p.phi_hat0(), Q
        mixed = np.concatenate((ks, [0, -edge - 1, 40 * Q * Q]))
        got = p.phi_hat_many(mixed)
        assert got.tobytes() == np.array([p.phi_hat(k) for k in mixed.tolist()]).tobytes(), Q


def phi_eval(p, t: float) -> float:
    """Direct evaluation of the defining arc sum of ``p`` at t (periodic in t)."""
    t = t % 1.0
    total = 0.0
    lo, hi = p.bump.SUPPORT
    for q in range(p.q_lo, p.q_hi + 1):
        a = round(t * q)
        if a < 1 or a > q or math.gcd(a, q) != 1:
            continue
        u = (t - a / q) * q * q
        if lo <= u <= hi:
            total += float(p.bump.profile(u))
    return total


def test_phi_eval_support():
    p = build_phi(8)
    # inside the q=10, a=1 arc
    t = 1 / 10 + 0.006 / 100
    assert phi_eval(p, t) == pytest.approx(float(p.bump.profile(0.006)), rel=1e-9)
    # far from every arc of denominators in [8, 40]
    assert phi_eval(p, 0.5 + 0.003) == 0.0


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


def test_kernel_regime_reads_no_ramanujan_sums(monkeypatch):
    # the normaliser is the closed form and kernel-regime k take the moment
    # path: decompose_kernel at Q = 16384 builds no Ramanujan row
    def refuse(q, n):
        raise AssertionError("Ramanujan row built")

    monkeypatch.setattr(weyl, "ramanujan_sum", refuse)
    dec = decompose_kernel(128, 3, 128**2)
    assert dec.phi_hat0 == dec.phi.phi_hat0() == dec.phi.phi_hat(0).real
    assert all(dec.k2_hat(n, n**3) == 0.0 for n in (-128, -1, 0, 5, 128))
    assert np.all(np.isfinite(dec.phi.phi_hat_many(np.arange(-2 * 128**3, 2 * 128**3, 4099))))


def test_k2_hat_off_curve_rule():
    dec = decompose_kernel(4, 3, 16)
    v = dec.k2_hat(2, 8 + 5)
    assert v == pytest.approx(-dec.phi.phi_hat(5) / dec.phi_hat0, rel=1e-12)


def test_k1_at_arc_batched_matches_scalar_calls():
    # arrays go through one plan call; K_1 = K_N(x, a/q + u/q^2) bump(u) / Phi_hat(0)
    N, d, Q = 8, 3, 64
    dec = decompose_kernel(N, d, Q)
    rng = np.random.default_rng(4)
    q = rng.integers(Q, 5 * Q + 1, 50)
    a = rng.integers(1, q)
    u, x = 1 / 200 + rng.random(50) / 200, rng.random(50)
    batched = dec.k1_at_arc(a, q, u, x)
    assert batched.shape == (50,) and batched.dtype == np.complex128
    scalars = [dec.k1_at_arc(*s) for s in zip(a.tolist(), q.tolist(), u.tolist(), x.tolist())]
    assert all(type(v) is complex for v in scalars)
    scale = (2 * N + 1) * math.exp(-4.0) / dec.phi_hat0  # |K_N| <= 2N+1, bump <= e^-4
    assert np.abs(batched - np.array(scalars)).max() <= 1e-14 * scale
    t = a / q + u / (q * q)
    want = [_kernel(N, d, xi, ti) * float(dec.phi.bump.profile(ui)) / dec.phi_hat0
            for xi, ti, ui in zip(x.tolist(), t.tolist(), u.tolist())]
    assert np.abs(batched - np.array(want)).max() <= 1e-14 * scale
    assert dec.k1_at_arc([], [], [], []).shape == (0,)


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
    phi_vals = np.array([phi_eval(dec.phi, t) for t in ts])
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


def test_primes_in_reads_the_default_sieve():
    def trial(lo, hi):
        return [p for p in range(max(2, lo), hi + 1)
                if all(p % f for f in range(2, math.isqrt(p) + 1))]

    mobius_phi_sieve()
    misses = counting._sieve.cache_info().misses
    minor_arc_points(800, 3, 5)  # primes up to 10^6: no second sieve
    assert counting._sieve.cache_info().misses == misses
    for lo, hi in ((0, 60), (2, 2), (10, 9), (64, 1128), (999_000, 10**6)):
        assert primes_in(lo, hi) == trial(lo, hi), (lo, hi)


def test_phi_max_scan_candidates_match_dense():
    p = build_phi(64)
    klim = 2 * 8**3
    cand = phi_hat_max_scan(p, k_limit=klim)
    dense = phi_hat_max_scan(p, k_limit=klim, dense_limit=klim)
    assert cand["max_abs"] >= 0.98 * dense["max_abs"]
