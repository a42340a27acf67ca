import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from dispersive_lab.norms import (
    REACH,
    QuadratureNotConverged,
    TimeWindow,
    _mode_integrals,
    duhamel_forcing_bound,
    h_s_norm,
    window_transform,
    xsb_norm,
    xsb_norm_with_error,
    y_s_norm,
)
from dispersive_lab.torus import FourierSeries, HarmonicTrajectory, TorusConvention

TP = TorusConvention.TWO_PI


def free_wave(N, amp=1.0):
    return HarmonicTrajectory(TP, {(N, 0, -float(N) ** 5): amp})


def test_h_s_single_mode_at_zero():
    f = FourierSeries(TP, {0: 1.0})
    for s in (-1.0, 0.0, 0.5, 2.0):
        assert h_s_norm(f, s) == 1.0


def test_h_s_two_mode_value():
    # amplitude N^{-s} at +-N with N=8, s=1/2: sqrt(2 * 9 / 8) = 1.5
    f = FourierSeries(TP, {8: 8**-0.5, -8: 8**-0.5})
    assert h_s_norm(f, 0.5) == pytest.approx(1.5, rel=1e-14)


def test_h_s_zero_s_is_l2():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        band = int(rng.integers(0, 6))
        coeff = {
            n: complex(rng.standard_normal(), rng.standard_normal())
            for n in range(-band, band + 1)
        }
        f = FourierSeries(TP, coeff)
        l2 = math.sqrt(sum(abs(c) ** 2 for c in coeff.values()))
        assert h_s_norm(f, 0.0) == pytest.approx(l2, rel=1e-12)


def test_window_transform_against_quad():
    win = TimeWindow(0.5)
    for j in (0, 1, 2):
        for mu in (0.0, 3.7, 31.0, 140.0):
            re = quad(lambda t: win.psi_array(t)[0] * t**j * math.cos(mu * t), -1.0, 1.0,
                      limit=500)[0]
            im = -quad(lambda t: win.psi_array(t)[0] * t**j * math.sin(mu * t), -1.0, 1.0,
                       limit=500)[0]
            got = window_transform(win, j, mu)
            assert abs(got - complex(re, im)) < 1e-10


def test_xsb_rejects_low_b():
    u = free_wave(2)
    with pytest.raises(ValueError):
        xsb_norm(u, 0.0, -0.5, TimeWindow(0.5))


def test_xsb_zero_trajectory():
    u = HarmonicTrajectory(TP, {})
    assert xsb_norm(u, 0.0, 0.5, TimeWindow(0.5)) == 0.0


def test_xsb_homogeneity():
    u = free_wave(3) + free_wave(1).scaled(0.3j)
    win = TimeWindow(0.25)
    base = xsb_norm(u, 0.5, 0.5, win)
    scaled = xsb_norm(u.scaled(-2.5j), 0.5, 0.5, win)
    assert scaled == pytest.approx(2.5 * base, rel=1e-9)


def _half_seminorm_time_domain(win: TimeWindow) -> float:
    """(1/2pi) int |mu| |psi_hat|^2 dmu via the difference-quotient identity."""
    d = win.delta
    tg = np.linspace(-6 * d, 6 * d, 24001)
    pg = win.psi_array(tg)

    def F(h):
        return np.trapezoid((win.psi_array(tg + h) - pg) ** 2, tg)

    head, _ = quad(lambda h: F(h) / h**2, 1e-9, 4 * d, limit=400)
    l2 = np.trapezoid(pg**2, tg)
    tail = 2 * l2 / (4 * d)
    return 2 * (head + tail) / (2 * math.pi)


def test_xsb_free_wave_against_time_domain_oracle():
    # X_{0,1/2}^2 of a windowed free wave reduces to
    # int psi^2 + (1/2pi) intint (psi(t)-psi(s))^2/(t-s)^2 dt ds,
    # independent of the mode; agreement within 1e-6 relative.
    win = TimeWindow(0.5)
    tg = np.linspace(-2 * win.delta, 2 * win.delta, 8001)
    l2 = float(np.trapezoid(win.psi_array(tg) ** 2, tg))
    oracle = math.sqrt(l2 + _half_seminorm_time_domain(win))
    for N in (1, 4, 9):
        val = xsb_norm(free_wave(N), 0.0, 0.5, win, rtol=1e-10)
        assert val == pytest.approx(oracle, rel=1e-6)


def test_xsb_quadrature_convergence_invariant():
    u = free_wave(2) + free_wave(5).scaled(0.4)
    win = TimeWindow(0.3)
    coarse, err = xsb_norm_with_error(u, 0.3, 0.5, win, rtol=1e-6)
    fine, _ = xsb_norm_with_error(u, 0.3, 0.5, win, rtol=5e-7)
    assert abs(fine - coarse) <= max(err, 1e-12 * coarse)


def _l1_oracle(win: TimeWindow) -> float:
    """(1/2pi) int |psi_hat(mu)| dmu over |mu delta| <= REACH, by quad between sign changes.

    psi_hat is window_transform, which test_window_transform_against_quad checks.
    """
    def f(mu):
        return window_transform(win, 0, mu).real

    top = REACH / win.delta
    grid = np.linspace(0.0, top, 20001)
    vals = f(grid)
    flips = np.flatnonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))
    edges = [0.0, *(brentq(f, grid[i], grid[i + 1], xtol=1e-14) for i in flips), top]
    pieces = [quad(lambda m: abs(f(m)), lo, hi, epsabs=1e-13, epsrel=1e-11)[0]
              for lo, hi in zip(edges[:-1], edges[1:])]
    return 2.0 * math.fsum(pieces) / (2.0 * math.pi)


def test_l1_term_of_free_wave_against_piecewise_quad():
    # |psi_hat| kinks at every zero of the real psi_hat (about 150 of them
    # inside the reach); the bisected rule must still reach rtol and say how
    # far it is from the answer
    win = TimeWindow(0.5)
    (val,), (err,) = _mode_integrals(4, [(0, -1024.0, 1.0)], win, 1e-8, [(1, 0.0)])
    oracle = _l1_oracle(win)
    assert val == pytest.approx(oracle, rel=1e-8)
    assert abs(val - oracle) <= err
    u = free_wave(4)
    l1_term = y_s_norm(u, 0.0, win, rtol=1e-8) - xsb_norm(u, 0.0, 0.5, win, rtol=1e-8)
    assert l1_term == pytest.approx(oracle, rel=1e-7)


def test_xsb_with_centres_far_apart():
    # each term's transform is read up to 1200 + 250/delta from its centre,
    # past where the trapezoid rule aliases; it must read 0 there. The
    # reference value is from per-point adaptive quad.
    u = HarmonicTrajectory(TP, {(1, 0, -1.0): 1.0, (1, 0, 1199.0): 1.0})
    val = xsb_norm(u, 0.0, 0.5, TimeWindow(0.5))
    assert val == pytest.approx(41.12988014454709, rel=1e-9)


def test_unreachable_rtol_raises_within_panel_cap():
    u = free_wave(4)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(QuadratureNotConverged):
            y_s_norm(u, 0.0, TimeWindow(0.5), rtol=1e-16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 30.0
    assert peak < 8e6


def test_y_s_dominates_xsb():
    u = free_wave(4) + free_wave(2).scaled(0.5j)
    win = TimeWindow(0.5)
    assert y_s_norm(u, 0.4, win) >= xsb_norm(u, 0.4, 0.5, win)


def test_y_s_homogeneity():
    u = free_wave(2)
    win = TimeWindow(0.5)
    assert y_s_norm(u.scaled(3.0), 0.0, win) == pytest.approx(
        3.0 * y_s_norm(u, 0.0, win), rel=1e-9)


def test_free_wave_y_s_to_h_s_ratio_constant():
    # the linear-flow bound: Y_s norm of the windowed free evolution is a
    # fixed multiple of the data's H^s norm, exactly independent of N
    win = TimeWindow(0.5)
    ratios = []
    for N in (4, 8, 16, 32, 64):
        phi = FourierSeries(TP, {N: 1.0, -N: 1.0})
        u = HarmonicTrajectory(
            TP, {(n, 0, -float(n) ** 5): c for n, c in phi.coeff.items()})
        ratios.append(y_s_norm(u, 0.5, win) / h_s_norm(phi, 0.5))
    assert max(ratios) / min(ratios) == pytest.approx(1.0, abs=1e-6)


def test_duhamel_forcing_bound_controls_duhamel_output():
    # the nonlinear-term estimate: ||N u||_{Y_s} <= C * forcing functional;
    # the measured constant stays O(1) across random small forcings
    from dispersive_lab.kdv import duhamel

    rng = np.random.default_rng(5)
    win = TimeWindow(0.5)
    worst = 0.0
    for _ in range(4):
        terms = {}
        for _ in range(3):
            n = int(rng.integers(-3, 4))
            lam = float(rng.integers(-50, 50))
            terms[(n, 0, lam)] = complex(rng.standard_normal(), rng.standard_normal())
        w = HarmonicTrajectory(TP, terms)
        lhs = y_s_norm(duhamel(w, horizon=1.0), 0.6, win, rtol=1e-7)
        rhs = duhamel_forcing_bound(w, 0.6, win, rtol=1e-7)
        assert rhs > 0
        worst = max(worst, lhs / rhs)
    assert worst < 50.0
