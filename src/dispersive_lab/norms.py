"""Sobolev and dispersive space-time norms of band-limited data.

The space-time norm weights Fourier mass in lambda by its distance to the
fifth-order dispersion curve lambda = -n^5. Time-line transforms use the
convention  F g(lambda) = int g(t) e^{-i lambda t} dt  together with the
Parseval measure d lambda / (2 pi), so the (s=0, b=0) norm of a windowed
trajectory equals its plain l^2_n L^2_t size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .torus import BandCapExceeded, FourierSeries, HarmonicTrajectory, bracket

TWO_PI = 2.0 * math.pi


def h_s_norm(f: FourierSeries, s: float) -> float:
    """(sum_n <n>^{2s} |f_hat(n)|^2)^{1/2} with <n> = 1 + |n|."""
    total = 0.0
    for n, c in f.coeff.items():
        total += bracket(n) ** (2.0 * s) * abs(c) ** 2
    return math.sqrt(total)


def _smooth_step(v: float) -> float:
    """C-infinity step: 1 for v <= 0, 0 for v >= 1."""
    if v <= 0.0:
        return 1.0
    if v >= 1.0:
        return 0.0
    a = math.exp(-1.0 / (1.0 - v))
    b = math.exp(-1.0 / v)
    return a / (a + b)


def _smooth_step_array(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    out[v <= 0.0] = 1.0
    mid = (v > 0.0) & (v < 1.0)
    vm = v[mid]
    a = np.exp(-1.0 / (1.0 - vm))
    b = np.exp(-1.0 / vm)
    out[mid] = a / (a + b)
    return out


@dataclass(frozen=True)
class TimeWindow:
    """Smooth bump psi_delta: equal to 1 on [-delta, delta], supported in [-2delta, 2delta]."""

    delta: float

    def __post_init__(self):
        if self.delta <= 0:
            raise ValueError("window length must be positive")

    def psi(self, t: float) -> float:
        return _smooth_step(abs(t) / self.delta - 1.0)

    def psi_array(self, t) -> np.ndarray:
        return _smooth_step_array(np.abs(np.atleast_1d(t)) / self.delta - 1.0)


@lru_cache(maxsize=8)
def _window_nodes(panels: int, order: int = 16):
    """Composite Gauss-Legendre grid on [-2, 2] with unit-window node values."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-2.0, 2.0, panels + 1)
    nodes = []
    weights = []
    for left, right in zip(edges[:-1], edges[1:]):
        half = 0.5 * (right - left)
        nodes.append(0.5 * (left + right) + half * x)
        weights.append(half * w)
    u = np.concatenate(nodes)
    wt = np.concatenate(weights)
    psi = _smooth_step_array(np.abs(u) - 1.0)
    return u, wt, psi


def window_transform(window: TimeWindow, j: int, mu) -> np.ndarray:
    """F[t^j psi_delta](mu) = int t^j psi_delta(t) e^{-i mu t} dt, vectorized in mu.

    Computed on a composite Gauss grid after rescaling t = delta*u; the panel
    count scales with max |mu*delta| so each panel resolves the oscillation.
    """
    mu_arr = np.atleast_1d(np.asarray(mu, dtype=float))
    d = window.delta
    peak = float(np.max(np.abs(mu_arr))) * d if len(mu_arr) else 0.0
    panels = 64
    while panels * 6.0 < peak and panels < 2048:
        panels *= 2
    u, wt, psi = _window_nodes(panels)
    phase = np.exp(-1j * np.outer(mu_arr, u) * d)
    vals = phase @ (wt * psi * u**j) * d ** (j + 1)
    return vals if np.ndim(mu) else vals[0]


MAX_EXACT_MODE = 1552  # 1552^5 < 2^53 <= 1553^5


def dispersion(n):
    """n^5, the frequency of mode n under e^{-t d_x^5} (the curve is lambda = -n^5).

    Takes an int or an integer array. Past MAX_EXACT_MODE float64 would
    round n^5, so any |n| > MAX_EXACT_MODE raises ``BandCapExceeded``.
    """
    array = isinstance(n, np.ndarray)
    top = int(np.abs(n).max(initial=0)) if array else abs(n)
    if top > MAX_EXACT_MODE:
        raise BandCapExceeded(
            f"mode |n| = {top}: n^5 is not below 2^53, "
            "where float64 stops holding integers exactly")
    return n.astype(float) ** 5 if array else float(n) ** 5


def _mode_groups(u: HarmonicTrajectory):
    groups: dict = {}
    for (n, j, lam), c in u.terms.items():
        groups.setdefault(n, []).append((j, lam, c))
    return groups


def _mode_transform(terms, lam_grid: np.ndarray, window: TimeWindow) -> np.ndarray:
    """u_hat(n, lambda) of the windowed mode profile sum_k c_k t^{j_k} e^{i lam_k t}."""
    out = np.zeros(len(lam_grid), dtype=complex)
    for j, lam0, c in terms:
        out += c * window_transform(window, j, lam_grid - lam0)
    return out


def _integration_interval(terms, window: TimeWindow, rel_floor: float):
    """Lambda interval holding all window bumps down to rel_floor of their peak."""
    # the window transform decays like exp(-c sqrt(|mu| delta)); mu*delta ~ 250
    # is below 1e-12 relative for the canonical bump
    reach = 250.0 / window.delta
    centers = [lam for (_, lam, _) in terms]
    return min(centers) - reach, max(centers) + reach, sorted(set(centers))


def _quad_mode(f, lo: float, hi: float, points, rtol: float, limit: int = 400):
    # absolute-value integrands kink at transform zeros and bottom out near
    # quad's roundoff floor; the returned error estimate carries that floor
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(
            f,
            lo,
            hi,
            points=[p for p in points if lo < p < hi],
            epsrel=rtol,
            epsabs=0.0,
            limit=limit,
        )
    return val, err


def _xsb_mode_integral(n, terms, s, b, window, rtol):
    weight_s = bracket(n) ** (2.0 * s)
    disp = dispersion(n)

    def integrand(lam):
        amp = _mode_transform(terms, np.array([lam]), window)[0]
        return weight_s * bracket(lam + disp) ** (2.0 * b) * abs(amp) ** 2 / TWO_PI

    lo, hi, centers = _integration_interval(terms, window, rtol)
    return _quad_mode(integrand, lo, hi, centers, rtol)


def xsb_norm(u: HarmonicTrajectory, s: float, b: float, window: TimeWindow,
             rtol: float = 1e-8) -> float:
    """Dispersive space-time norm of the time-windowed trajectory.

    Rejects b <= -1/2: the weight <lambda + n^5>^{2b} is then too weak to
    define a restriction norm (divergent against non-decaying profiles).
    """
    value, _ = xsb_norm_with_error(u, s, b, window, rtol)
    return value


def xsb_norm_with_error(u: HarmonicTrajectory, s: float, b: float, window: TimeWindow,
                        rtol: float = 1e-8):
    if b <= -0.5:
        raise ValueError("divergent weight: b must exceed -1/2")
    total = 0.0
    err_total = 0.0
    for n, terms in _mode_groups(u).items():
        val, err = _xsb_mode_integral(n, terms, s, b, window, rtol)
        total += val
        err_total += err
    norm = math.sqrt(total)
    err_norm = 0.5 * err_total / norm if norm > 0 else math.sqrt(err_total)
    return norm, err_norm


def _l1_mode_integral(n, terms, s, window, rtol, disp_weight=0.0):
    """(1/2pi) int |u_hat(n, lambda)| <lambda+n^5>^{-disp_weight} d lambda."""
    disp = dispersion(n)

    def integrand(lam):
        amp = _mode_transform(terms, np.array([lam]), window)[0]
        w = bracket(lam + disp) ** (-disp_weight) if disp_weight else 1.0
        return abs(amp) * w / TWO_PI

    lo, hi, centers = _integration_interval(terms, window, rtol)
    # absolute values kink at the transform zeros; give quad extra room
    val, err = _quad_mode(integrand, lo, hi, centers, rtol, limit=2000)
    return val, err


def y_s_norm(u: HarmonicTrajectory, s: float, window: TimeWindow,
             rtol: float = 1e-8) -> float:
    """X_{s,1/2} plus the l^2_n-of-L^1_lambda correction term."""
    base = xsb_norm(u, s, 0.5, window, rtol)
    total = 0.0
    for n, terms in _mode_groups(u).items():
        val, _ = _l1_mode_integral(n, terms, s, window, rtol)
        total += bracket(n) ** (2.0 * s) * val**2
    return base + math.sqrt(total)


def duhamel_forcing_bound(w: HarmonicTrajectory, s: float, window: TimeWindow,
                          rtol: float = 1e-8) -> float:
    """Forcing-size functional controlling the Duhamel output in Y_s.

    Equals the X_{s,-1/2}-type integral plus the l^2_n of the
    curve-weighted L^1_lambda mass. The -1/2 weight converges here because
    windowed harmonic sums have rapidly decaying time transforms; this
    bypasses xsb_norm's contract, which rejects b <= -1/2 for general data.
    """
    sq = 0.0
    l1 = 0.0
    for n, terms in _mode_groups(w).items():
        weight_s = bracket(n) ** (2.0 * s)
        disp = dispersion(n)

        def integrand(lam, terms=terms, weight_s=weight_s, disp=disp):
            amp = _mode_transform(terms, np.array([lam]), window)[0]
            return weight_s * abs(amp) ** 2 / bracket(lam + disp) / TWO_PI

        lo, hi, centers = _integration_interval(terms, window, rtol)
        val, _ = _quad_mode(integrand, lo, hi, centers, rtol, limit=2000)
        sq += val
        l1_val, _ = _l1_mode_integral(n, terms, s, window, rtol, disp_weight=1.0)
        l1 += weight_s * l1_val**2
    return math.sqrt(sq) + math.sqrt(l1)
