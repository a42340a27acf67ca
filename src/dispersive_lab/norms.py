"""Sobolev and dispersive space-time norms of band-limited data.

The space-time norm weights Fourier mass in lambda by its distance to the
fifth-order dispersion curve lambda = -n^5. Time-line transforms use the
convention  F g(lambda) = int g(t) e^{-i lambda t} dt  together with the
Parseval measure d lambda / (2 pi), so the (s=0, b=0) norm of a windowed
trajectory equals its plain l^2_n L^2_t size. The window transforms are
``kernels.TabulatedTransform`` tables, the evaluator of the Farey bump too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter

import numpy as np

from .kernels import BandCapExceeded, TabulatedTransform
from .torus import FourierSeries, HarmonicTrajectory, bracket

TWO_PI = 2.0 * math.pi


def h_s_norm(f: FourierSeries, s: float) -> float:
    """(sum_n <n>^{2s} |f_hat(n)|^2)^{1/2} with <n> = 1 + |n|."""
    total = 0.0
    for n, c in f.coeff.items():
        total += bracket(n) ** (2.0 * s) * abs(c) ** 2
    return math.sqrt(total)


def _smooth_step_array(v: np.ndarray) -> np.ndarray:
    """C-infinity step: 1 for v <= 0, 0 for v >= 1."""
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
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"window length must be positive and finite, got {self.delta!r}")

    def psi_array(self, t) -> np.ndarray:
        return _smooth_step_array(np.abs(np.atleast_1d(t)) / self.delta - 1.0)


# The 512 midpoint nodes u = +-(k + 1/2)/128 alias the transform at omega by the
# one at omega +- 256 pi: for j <= 4 the rule is within 3e-14 of the peak, and
# its table within 1e-12, while |omega| < REACH; past REACH the transform is
# below 1e-10 of the peak and is returned as 0, and lambda integrals stop there.
REACH = 250.0


@functools.cache
def _window_table(j: int) -> TabulatedTransform:
    """F[u^j psi_1](omega) in 8-point cells of width 0.05."""
    u = (np.arange(256) + 0.5) / 128  # spacing 1/128; each node pairs with -u
    return TabulatedTransform(u, 2 / 128 * u**j * _smooth_step_array(u - 1.0), 0.0,
                              odd=j % 2 == 1, points=8, step=0.05, dead=REACH)


def window_transform(window: TimeWindow, j: int, mu) -> np.ndarray:
    """F[t^j psi_delta](mu) = int t^j psi_delta(t) e^{-i mu t} dt, vectorized in mu.

    It is delta^(j+1) F[u^j psi_1](mu delta), read from one table per power j;
    exactly 0 where |mu*delta| >= REACH.
    """
    return window.delta ** (j + 1) * _window_table(j)(np.asarray(mu) * window.delta)


MAX_EXACT_MODE = 1552  # 1552^5 < 2^53 <= 1553^5


def dispersion(n):
    """n^5, the frequency of mode n under e^{-t d_x^5} (the curve is lambda = -n^5).

    An int for an int, an int64 array for an integer array. Past
    MAX_EXACT_MODE n^5 reaches 2^53, where float64 would round it, so any
    |n| > MAX_EXACT_MODE raises ``BandCapExceeded``.
    """
    array = isinstance(n, np.ndarray)
    top = int(np.abs(n).max(initial=0)) if array else abs(n)
    if top > MAX_EXACT_MODE:
        raise BandCapExceeded(
            f"mode |n| = {top}: n^5 is not below 2^53, "
            "where float64 stops holding integers exactly")
    return n.astype(np.int64) ** 5 if array else int(n) ** 5


class QuadratureNotConverged(RuntimeError):
    """The lambda-quadrature would need more than _MAX_PANELS active panels."""


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)
_MAX_PANELS = 4096  # halves per bisection round; at the cap a complex node array is 1 MB


def _mode_integrals(n, terms, window: TimeWindow, rtol: float, powers):
    """(1/2pi) int |u_hat(n, lambda)|^q <lambda + n^5>^e d lambda for each (q, e) in powers.

    u_hat(n, .) is the transform of the windowed mode profile
    sum_k c_k t^{j_k} e^{i lam_k t}; it is below 1e-10 of its peak past REACH/delta
    from every centre lam_k. That interval is cut at the centres and at -n^5 into
    16-point Gauss panels, which are bisected in rounds: a panel is accepted once
    its halves agree with it to rtol * (running total) * (its share of the
    interval), for every power. Returns the values and the summed disagreements
    of the accepted panels as error estimates. Raises QuadratureNotConverged
    rather than bisect past _MAX_PANELS.
    """
    disp = dispersion(n)
    reach = REACH / window.delta
    centres = [lam for _, lam, _ in terms]
    lo, hi = min(centres) - reach, max(centres) + reach
    edges = np.unique([lo, hi, *centres, *([-disp] if lo < -disp < hi else [])])
    span = hi - lo

    def panel_sums(a, b):
        half = 0.5 * (b - a)
        lam = (0.5 * (a + b))[:, None] + half[:, None] * _GAUSS_X
        amp = sum(c * window_transform(window, j, lam - lam0) for j, lam0, c in terms)
        weight = 1.0 + np.abs(lam + disp)
        return np.stack([(np.abs(amp) ** q * weight**e) @ _GAUSS_W * half for q, e in powers])

    a, b = edges[:-1], edges[1:]
    parent = panel_sums(a, b)
    value = np.zeros(len(powers))
    error = np.zeros(len(powers))
    while len(a):
        if 2 * len(a) > _MAX_PANELS:
            raise QuadratureNotConverged(
                f"mode {n}: {2 * len(a)} panels needed for rtol={rtol:g}, "
                f"more than {_MAX_PANELS}")
        mid = 0.5 * (a + b)
        halves = panel_sums(np.concatenate([a, mid]), np.concatenate([mid, b]))
        left, right = halves[:, :len(a)], halves[:, len(a):]
        kids = left + right
        gap = np.abs(kids - parent)
        total = np.abs(value + kids.sum(axis=1))
        done = np.all(gap <= rtol * total[:, None] * ((b - a) / span), axis=0)
        value += kids[:, done].sum(axis=1)
        error += gap[:, done].sum(axis=1)
        keep = ~done
        a, b = np.concatenate([a[keep], mid[keep]]), np.concatenate([mid[keep], b[keep]])
        parent = np.concatenate([left[:, keep], right[:, keep]], axis=1)
    return (value / TWO_PI).tolist(), (error / TWO_PI).tolist()


def xsb_norm(u: HarmonicTrajectory, s: float, b: float, window: TimeWindow,
             rtol: float = 1e-8) -> float:
    """Dispersive space-time norm of the time-windowed trajectory.

    Rejects b <= -1/2: the weight <lambda + n^5>^{2b} is then too weak to
    define a restriction norm (divergent against non-decaying profiles).
    """
    value, _ = xsb_norm_with_error(u, s, b, window, rtol)
    return value


def _per_mode(u: HarmonicTrajectory, s: float, window: TimeWindow, rtol: float, powers):
    """(<n>^{2s}, values, errors) of ``_mode_integrals`` for each mode n of u, in mode order."""
    if not (math.isfinite(rtol) and rtol > 0):
        raise ValueError(f"rtol must be positive and finite, got {rtol!r}")
    for n, rows in groupby(u.rows(), itemgetter(0)):
        values, errors = _mode_integrals(n, [row[1:] for row in rows], window, rtol, powers)
        yield bracket(n) ** (2.0 * s), values, errors


def xsb_norm_with_error(u: HarmonicTrajectory, s: float, b: float, window: TimeWindow,
                        rtol: float = 1e-8):
    if b <= -0.5:
        raise ValueError("divergent weight: b must exceed -1/2")
    total = 0.0
    err_total = 0.0
    for weight_s, (val,), (err,) in _per_mode(u, s, window, rtol, [(2, 2.0 * b)]):
        total += weight_s * val
        err_total += weight_s * err
    norm = math.sqrt(total)
    err_norm = 0.5 * err_total / norm if norm > 0 else math.sqrt(err_total)
    return norm, err_norm


def _l2_plus_l1(u: HarmonicTrajectory, s: float, window: TimeWindow, rtol: float,
                e2: float, e1: float) -> float:
    """(sum_n <n>^{2s} I_n(2, e2))^{1/2} + (sum_n <n>^{2s} I_n(1, e1)^2)^{1/2}.

    I_n(q, e) is the mode integral of |u_hat|^q <lambda + n^5>^e.
    """
    sq = 0.0
    l1 = 0.0
    for weight_s, (v2, v1), _ in _per_mode(u, s, window, rtol, [(2, e2), (1, e1)]):
        sq += weight_s * v2
        l1 += weight_s * v1**2
    return math.sqrt(sq) + math.sqrt(l1)


def y_s_norm(u: HarmonicTrajectory, s: float, window: TimeWindow,
             rtol: float = 1e-8) -> float:
    """X_{s,1/2} plus the l^2_n-of-L^1_lambda correction term."""
    return _l2_plus_l1(u, s, window, rtol, 1.0, 0.0)


def duhamel_forcing_bound(w: HarmonicTrajectory, s: float, window: TimeWindow,
                          rtol: float = 1e-8) -> float:
    """Forcing-size functional controlling the Duhamel output in Y_s.

    Equals the X_{s,-1/2}-type integral plus the l^2_n of the
    curve-weighted L^1_lambda mass. The -1/2 weight converges here because
    windowed harmonic sums have rapidly decaying time transforms; this
    bypasses xsb_norm's contract, which rejects b <= -1/2 for general data.
    """
    return _l2_plus_l1(w, s, window, rtol, -1.0, -1.0)
