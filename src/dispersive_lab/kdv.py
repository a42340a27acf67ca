"""Fifth-order dispersive flow: linear propagator, nonlinearities, Duhamel, Picard.

Everything lives on the 2-pi torus. Trajectories are kept as exact harmonic
sums (closed under the flow, products and Duhamel integration) while the
term count stays manageable, then projected to Simpson time samples with
quadrature Duhamel. Resonant frequencies produce the secular t powers that
drive the sharp ill-posedness examples. Sampled trajectories hold a
(2 band + 1, times) frame matrix, and their nonlinearity is evaluated on the
whole matrix at once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson

from .norms import MAX_EXACT_MODE, dispersion, h_s_norm
from .torus import (
    DEFAULT_BAND_CAP,
    BandCapExceeded,
    FourierSeries,
    HarmonicTrajectory,
    TorusConvention,
)

TWO_PI = 2.0 * math.pi
RESONANCE_TOL = 1e-9
TERM_CAP = 2500  # exact Picard iterates hold at most this many terms
WORK_CAP = 5e6  # and predict at most this much spectral-product work


@dataclass(frozen=True)
class NonlinearitySpec:
    """P1(u) u_x + P2(u) u_x^2 with polynomial coefficient tuples (low to high degree).

    ``mean_removed`` replaces the P1 factor by P1(u) - int_T P1(u) dx (the
    literal space integral over the 2-pi period, i.e. 2 pi times the zero
    mode), as produced by the gauge reduction.
    """

    p1: tuple = ()
    p2: tuple = ()
    mean_removed: bool = False


def u_squared_p1() -> NonlinearitySpec:
    return NonlinearitySpec(p1=(0.0, 0.0, 1.0))


def u_p2() -> NonlinearitySpec:
    return NonlinearitySpec(p2=(0.0, 1.0))


# ---------------------------------------------------------------------------
# linear flow


def linear_flow(phi: FourierSeries, t: float) -> FourierSeries:
    """e^{-t d_x^5} phi: multiplies mode n by e^{-i n^5 t}; an H^s isometry."""
    if phi.convention is not TorusConvention.TWO_PI:
        raise ValueError("the flow lives on the 2-pi torus")
    return FourierSeries(
        phi.convention,
        {n: c * cmath.exp(-1j * dispersion(n) * t) for n, c in phi.coeff.items()},
    )


def flow_trajectory(phi: FourierSeries) -> HarmonicTrajectory:
    if phi.convention is not TorusConvention.TWO_PI:
        raise ValueError("the flow lives on the 2-pi torus")
    return HarmonicTrajectory(
        phi.convention, {(n, 0, -dispersion(n)): c for n, c in phi.coeff.items()}
    )


# ---------------------------------------------------------------------------
# exact nonlinearity of a harmonic sum


def _apply_poly(u: HarmonicTrajectory, coeffs, band_cap):
    """sum_k coeffs[k] * u^k by exact products."""
    terms = None
    power = HarmonicTrajectory(u.convention, {(0, 0, 0.0): 1.0 + 0j})
    for k, c in enumerate(coeffs):
        if k > 0:
            power = power.product(u, band_cap=band_cap)
        if c:
            piece = power.scaled(c)
            terms = piece if terms is None else terms + piece
    return terms


def _remove_mean(f: HarmonicTrajectory) -> HarmonicTrajectory:
    """f -> f - int_T f dx = f - 2 pi * (zero mode)."""
    return f + f.zero_mode_terms().scaled(-TWO_PI)


def nonlinear_term(u: HarmonicTrajectory, spec: NonlinearitySpec,
                   band_cap: int = DEFAULT_BAND_CAP) -> HarmonicTrajectory:
    """P1(u) u_x + P2(u) u_x^2, evaluated by exact spectral products."""
    ux = u.x_derivative()
    out = None
    if any(spec.p1):
        p1u = _apply_poly(u, spec.p1, band_cap)
        if spec.mean_removed:
            p1u = _remove_mean(p1u)
        out = p1u.product(ux, band_cap=band_cap)
    if any(spec.p2):
        p2u = _apply_poly(u, spec.p2, band_cap)
        uxx2 = ux.product(ux, band_cap=band_cap)
        piece = p2u.product(uxx2, band_cap=band_cap)
        out = piece if out is None else out + piece
    if out is None:
        return HarmonicTrajectory(u.convention, {})
    return out


# ---------------------------------------------------------------------------
# exact Duhamel integration


def _poly_exp_antiderivative(j: int, mu: float, horizon: float):
    """int_0^t tau^j e^{i mu tau} d tau as {(power, freq): coeff} in (t^power e^{i freq t}).

    Near-resonant |mu| below the tolerance is integrated by series to avoid
    the cancellation in the closed form; the series is truncated once terms
    fall below 1e-18 relative on [0, horizon].
    """
    if abs(mu) * horizon < 1e-6 or abs(mu) < RESONANCE_TOL:
        out = {}
        coef = 1.0 + 0j
        for p in range(41):
            val = coef / (j + p + 1)
            out[(j + p + 1, 0.0)] = val
            if abs(val) * horizon ** (j + p + 1) < 1e-18 * max(horizon**j, 1e-30) and p >= 2:
                break
            coef *= 1j * mu / (p + 1)
        return out
    # recursion I_j = (t^j e^{i mu t} - j I_{j-1}) / (i mu)
    inv = 1.0 / (1j * mu)
    cur = {(0, mu): inv, (0, 0.0): -inv}
    for jj in range(1, j + 1):
        cur = {(jj, mu): inv, **{key: -jj * inv * c for key, c in cur.items()}}
    return cur


def duhamel(w: HarmonicTrajectory, horizon: float = 1.0) -> HarmonicTrajectory:
    """-int_0^t e^{-(t-tau) d_x^5} w(tau) d tau, exactly, as a harmonic sum.

    Resonant terms (lambda = -n^5) pick up the secular factor t (and
    t^{j+1}/(j+1) for higher powers); ``horizon`` only tunes the series
    truncation for near-resonant frequencies. A real-symmetric forcing
    gives an exactly real-symmetric output (the canonical-key rule of
    ``torus``).
    """
    real = w.is_real_symmetric()
    rows = []
    for n, j, lam, c in w.rows():
        if real and n < 0:
            continue  # the canonical-key rule fills in the conjugates
        disp = dispersion(n)
        for (p, freq), val in _poly_exp_antiderivative(j, lam + disp, horizon).items():
            # e^{-i n^5 t} * t^p e^{i freq t}: freq = mu gives back e^{i lam t}
            rows.append((n, p, freq - disp, -c * val))
    n, p, lam, c = zip(*rows) if rows else ((),) * 4
    return HarmonicTrajectory.from_columns(w.convention, n, p, lam, c, real)


def first_iterate(phi: FourierSeries, spec: NonlinearitySpec,
                  band_cap: int = DEFAULT_BAND_CAP, horizon: float = 1.0) -> HarmonicTrajectory:
    """Linear flow plus Duhamel of the nonlinearity of the free evolution."""
    u0 = flow_trajectory(phi)
    w = nonlinear_term(u0, spec, band_cap)
    return u0 + duhamel(w, horizon)


# ---------------------------------------------------------------------------
# ill-posedness scan


@dataclass
class IllposednessScan:
    slope: float
    intercept: float
    N_list: list
    responses: list
    full_norms: list
    secular_visible: bool
    warning: str | None


def two_mode_data(N: int, s: float, eps: float) -> FourierSeries:
    amp = eps / N**s
    return FourierSeries(TorusConvention.TWO_PI, {N: amp, -N: amp})


def illposedness_scan(spec: NonlinearitySpec, s: float, eps: float, t: float,
                      N_list) -> IllposednessScan:
    """Least-squares slope of log response vs log N for the first iterate.

    The response is the H^s size of the nonlinear increment u1 - u0 at time
    t: the secular mode dominates it at every N, exposing the sharp growth
    exponent. The full H^s norm of u1 is also recorded; when the secular
    term is below the linear part everywhere (t not large against the
    N^{2s-1}-type threshold), a warning marks that the full norm would not
    show the growth.
    """
    N_list = list(N_list)
    responses, fulls, ratios = [], [], []
    for N in N_list:
        phi = two_mode_data(N, s, eps)
        u1 = first_iterate(phi, spec, horizon=max(1.0, 2 * t))
        u0 = flow_trajectory(phi)
        inc = (u1 - u0).at_time(t)
        responses.append(h_s_norm(inc, s))
        full = h_s_norm(u1.at_time(t), s)
        fulls.append(full)
        lin = h_s_norm(phi, s)
        ratios.append(responses[-1] / lin if lin > 0 else math.inf)
    logs_n = np.log(np.array(N_list, dtype=float))
    logs_r = np.log(np.array(responses))
    slope, intercept = np.polyfit(logs_n, logs_r, 1)
    visible = max(ratios) >= 1.0
    warning = None
    if not visible:
        warning = ("secular term below the linear part at every N; "
                   "slope measured on the nonlinear response u1 - u0")
    return IllposednessScan(float(slope), float(intercept), N_list, responses,
                            fulls, visible, warning)


# ---------------------------------------------------------------------------
# sampled representation and Picard iteration


@dataclass
class SampledTrajectory:
    """Mode coefficients on a Simpson time grid: coeffs[n + band, m] at times[m]."""

    convention: TorusConvention
    times: np.ndarray
    band: int
    coeffs: np.ndarray


def _cumulative_simpson_complex(y: np.ndarray, x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Complex-safe cumulative Simpson (scipy casts complex input to real)."""
    return (cumulative_simpson(y.real, x=x, axis=axis, initial=0.0)
            + 1j * cumulative_simpson(y.imag, x=x, axis=axis, initial=0.0))


def _center_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of two zero-centered odd-length coefficient arrays (along axis 0)."""
    if len(a) < len(b):
        a, b = b, a
    out = a.copy()
    off = (len(a) - len(b)) // 2
    out[off:off + len(b)] += b
    return out


def _recentered(frames: np.ndarray, band: int) -> np.ndarray:
    """Zero-centered rows of ``frames`` on [-band, band], cropped or zero-padded."""
    old = (len(frames) - 1) // 2
    if old >= band:
        return frames[old - band:old + band + 1]
    return _center_add(np.zeros((2 * band + 1,) + frames.shape[1:], dtype=np.complex128),
                       frames)


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mode convolution of two frame matrices, column by column, by direct
    shift-and-add along axis 0 (no FFT, so small modes keep their accuracy)."""
    if len(a) > len(b):
        a, b = b, a
    out = np.zeros((len(a) + len(b) - 1,) + b.shape[1:], dtype=np.complex128)
    for i in range(len(a)):
        out[i:i + len(b)] += a[i] * b
    return out


def _poly_eval_array(frames: np.ndarray, coeffs) -> np.ndarray:
    """sum_k coeffs[k] frames^{*k} as a zero-centered frame matrix."""
    out = np.zeros((1,) + frames.shape[1:], dtype=np.complex128)
    power = np.ones((1,) + frames.shape[1:], dtype=np.complex128)
    for k, c in enumerate(coeffs):
        if k > 0:
            power = _convolve(power, frames)
        if c:
            out = _center_add(out, c * power)
    return out


def _array_nonlinear(frames: np.ndarray, band: int, spec: NonlinearitySpec):
    """Nonlinearity of a (2 band + 1, T) frame matrix; returns (matrix, its band)."""
    frames = np.asarray(frames, dtype=np.complex128)
    ux = (1j * np.arange(-band, band + 1))[:, None] * frames
    total = np.zeros((1,) + frames.shape[1:], dtype=np.complex128)
    if any(spec.p1):
        poly = _poly_eval_array(frames, spec.p1)
        if spec.mean_removed:
            poly[(len(poly) - 1) // 2] *= 1.0 - TWO_PI
        total = _center_add(total, _convolve(poly, ux))
    if any(spec.p2):
        poly = _poly_eval_array(frames, spec.p2)
        total = _center_add(total, _convolve(poly, _convolve(ux, ux)))
    return total, (len(total) - 1) // 2


def _sampled_nonlinear(u: SampledTrajectory, spec: NonlinearitySpec, band_cap: int):
    """Nonlinearity of every frame, truncated back to band_cap; reports the
    largest dropped l2 mass of one frame."""
    w_full, wb = _array_nonlinear(u.coeffs, u.band, spec)
    lo = max(wb - band_cap, 0)
    tail = np.concatenate((w_full[:lo], w_full[len(w_full) - lo:]))
    dropped = float(np.max(np.linalg.norm(tail, axis=0), initial=0.0))
    return _recentered(w_full, band_cap), dropped


def _sampled_duhamel(phi: FourierSeries, w_frames: np.ndarray, times: np.ndarray,
                     band: int) -> SampledTrajectory:
    """u(t) = e^{-t d_x^5} phi - int_0^t e^{-(t-tau) d_x^5} w d tau by cumulative Simpson."""
    disp = dispersion(np.arange(-band, band + 1))
    phase = np.exp(1j * disp[:, None] * times[None, :])
    integrand = phase * w_frames
    J = _cumulative_simpson_complex(integrand, times, axis=1)
    phi_vec = np.array([phi[n] for n in range(-band, band + 1)], dtype=np.complex128)
    coeffs = np.conj(phase) * (phi_vec[:, None] - J)
    return SampledTrajectory(phi.convention, times, band, coeffs)


def _frames_at(u, times: np.ndarray, band: int) -> np.ndarray:
    """Coefficients on [-band, band] at ``times`` (grid times for a sampled u)."""
    if isinstance(u, HarmonicTrajectory):
        return u.coefficients(times, band)
    cols = np.abs(u.times[:, None] - times[None, :]).argmin(axis=0)
    return _recentered(u.coeffs[:, cols], band)


def _sup_hs_distance(a, b, s: float, times: np.ndarray, band: int) -> float:
    """Discrete sup-in-time H^s distance between two representations."""
    weights = (1.0 + np.abs(np.arange(-band, band + 1))) ** (2 * s)
    diff = _frames_at(a, times, band) - _frames_at(b, times, band)
    return math.sqrt(float(np.max(np.sum(weights[:, None] * np.abs(diff) ** 2, axis=0))))


@dataclass
class PicardState:
    j: int
    trajectory: object
    diff_norm: float
    representation: str
    term_count: int
    truncated_mass: float


def contraction_achieved(states, ratio: float = 0.5, needed: int = 4) -> bool:
    """True once diff-norm ratios stay at or below ``ratio`` for ``needed`` steps."""
    diffs = [st.diff_norm for st in states[1:]]
    run = 0
    for prev, cur in zip(diffs, diffs[1:]):
        ok = cur <= ratio * prev or (prev == 0.0 and cur == 0.0)
        run = run + 1 if ok else 0
        if run >= needed:
            return True
    return False


def _nonlinear_work_estimate(term_count: int, spec: NonlinearitySpec) -> float:
    deg1 = len(spec.p1) - 1 if any(spec.p1) else 0
    deg2 = len(spec.p2) - 1 if any(spec.p2) else 0
    g = max(deg1 + 1 if any(spec.p1) else 0, deg2 + 2 if any(spec.p2) else 0, 1)
    return float(term_count) ** g


def picard_solve(phi: FourierSeries, spec: NonlinearitySpec, delta: float,
                 max_iter: int = 8, band_cap: int = 16, s: float = 1.0,
                 time_samples: int = 257) -> list:
    """Picard iterates of the truncated Duhamel operator on [0, delta].

    Iterates stay exact harmonic sums while the term count is at most
    ``TERM_CAP`` and the predicted spectral-product work stays under
    ``WORK_CAP``; past that they are projected onto a Simpson grid and the
    Duhamel integral switches to cumulative quadrature (step delta /
    (time_samples - 1), reported via the representation tag). Modes above
    ``band_cap`` are discarded with the dropped l2 mass recorded; the
    diff norms are taken on a 33-point diagnostic time grid. A band_cap
    above ``MAX_EXACT_MODE`` raises ``BandCapExceeded``: the sampled path
    needs n^5 exactly for every mode up to it.
    """
    if delta <= 0:
        raise ValueError("time horizon must be positive")
    if band_cap > MAX_EXACT_MODE:
        raise BandCapExceeded(
            f"band_cap {band_cap} exceeds {MAX_EXACT_MODE}, the largest mode whose "
            "dispersion n^5 float64 holds exactly")
    if time_samples % 2 == 0:
        time_samples += 1
    times = np.linspace(0.0, delta, time_samples)
    diag = times[::max(1, (time_samples - 1) // 32)]
    u0_exact = flow_trajectory(phi)
    states = [PicardState(0, u0_exact, _sup_hs_distance(
        u0_exact, HarmonicTrajectory(phi.convention, {}), s, diag, band_cap),
        "exact", u0_exact.term_count(), 0.0)]
    u_prev = u0_exact
    for j in range(1, max_iter + 1):
        if isinstance(u_prev, HarmonicTrajectory) and (
                u_prev.term_count() > TERM_CAP
                or _nonlinear_work_estimate(u_prev.term_count(), spec) > WORK_CAP):
            u_prev = SampledTrajectory(u_prev.convention, times, band_cap,
                                       u_prev.coefficients(times, band_cap))
        if isinstance(u_prev, HarmonicTrajectory):
            w = nonlinear_term(u_prev, spec, band_cap=4 * band_cap)
            w, _ = w.truncated(band_cap)
            u_next = u0_exact + duhamel(w, horizon=2 * delta)
            u_next, truncated = u_next.truncated(band_cap)
            rep = "exact"
            count = u_next.term_count()
        else:
            w_frames, truncated = _sampled_nonlinear(u_prev, spec, band_cap)
            u_next = _sampled_duhamel(phi, w_frames, times, band_cap)
            rep = f"sampled(step={times[1] - times[0]:.3e})"
            count = u_next.coeffs.size
        diff = _sup_hs_distance(u_next, u_prev, s, diag, band_cap)
        states.append(PicardState(j, u_next, diff, rep, count, truncated))
        u_prev = u_next
    return states


# ---------------------------------------------------------------------------
# gauge transform and residuals


def gauge_shift(v, k: int, times: np.ndarray) -> np.ndarray:
    """theta(t) = int_0^t int_T v^k dy d tau at the sample times.

    The inner integral is 2 pi times the zero mode of v^k; for harmonic sums
    the time integral is exact (Duhamel of the zero mode, where the flow is
    the identity, is minus its time integral), otherwise cumulative Simpson
    on the sampled zero mode.
    """
    if isinstance(v, HarmonicTrajectory):
        vk = v
        for _ in range(k - 1):
            vk = vk.product(v)
        integral = duhamel(vk.zero_mode_terms(), horizon=float(np.max(np.abs(times))))
        return -TWO_PI * integral.coefficients(times, 0)[0].real
    zm = _poly_eval_array(v.coeffs, (0.0,) * k + (1.0,))[k * v.band]
    integ = _cumulative_simpson_complex(zm, times)
    return TWO_PI * integ.real


def gauge_transform(v, k: int, times: np.ndarray | None = None):
    """u(x, t) = v(x - theta(t), t) as a sampled trajectory, plus theta.

    The spatial shift acts as the phase e^{-i n theta(t)} on mode n; the
    output is sampled because theta(t) is generally not harmonic. A harmonic
    v is sampled at ``times`` over its own band.
    """
    if isinstance(v, HarmonicTrajectory):
        if times is None:
            raise ValueError("sample times are required for a harmonic input")
        base = SampledTrajectory(v.convention, times, v.band, v.coefficients(times, v.band))
    else:
        base = v
    theta = gauge_shift(v, k, base.times)
    n_idx = np.arange(-base.band, base.band + 1)
    shifted = base.coeffs * np.exp(-1j * n_idx[:, None] * theta[None, :])
    return SampledTrajectory(base.convention, base.times, base.band, shifted), theta


def residual(u: SampledTrajectory, spec: NonlinearitySpec, return_details: bool = False):
    """sup-in-time L^2 norm of d_t u + d_x^5 u + nonlinearity on a sampled trajectory.

    d_t is a centered difference, so the sup runs over the interior of the
    grid (step reported in the details); the nonlinearity keeps its full band.
    """
    dt = u.times[1] - u.times[0]
    frames = u.coeffs[:, 1:-1]
    dudt = (u.coeffs[:, 2:] - u.coeffs[:, :-2]) / (2 * dt)
    dx5 = ((1j * np.arange(-u.band, u.band + 1)) ** 5)[:, None] * frames
    w_full, _ = _array_nonlinear(frames, u.band, spec)
    res = _center_add(w_full, dudt + dx5)
    worst = float(np.max(np.linalg.norm(res, axis=0), initial=0.0))
    if return_details:
        return worst, {"step": float(dt), "times": len(u.times)}
    return worst
