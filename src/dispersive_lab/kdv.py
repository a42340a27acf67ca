"""Fifth-order dispersive flow: linear propagator, nonlinearities, Duhamel, Picard.

Everything lives on the 2-pi torus. Trajectories are kept as exact harmonic
sums (closed under the flow, products and Duhamel integration) while the
term count stays manageable, then projected to Simpson time samples with
quadrature Duhamel. Resonant frequencies produce the secular t powers that
drive the sharp ill-posedness examples. There is one nonlinearity,
``nonlinear_term``, with two algebras: exact harmonic sums
(``HarmonicTrajectory``) and sampled trajectories, which hold a
(2 band + 1, times) frame matrix (``SampledTrajectory``). Both offer the
same constants, sums, scalings, x-derivatives, zero modes, band-capped
products and truncations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import BandCapExceeded
from .norms import MAX_EXACT_MODE, dispersion, h_s_norm
from .torus import DEFAULT_BAND_CAP, FourierSeries, HarmonicTrajectory, TorusConvention

TWO_PI = 2.0 * math.pi
TERM_CAP = 2500  # exact Picard iterates hold at most this many terms
WORK_CAP = 5e6  # and predict at most this much spectral-product work
CONTRACTION_RATIO = 0.5  # contraction_achieved: the largest accepted diff-norm ratio
CONTRACTION_RUN = 4  # and how many steps in a row must keep it


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


def flow_trajectory(phi: FourierSeries) -> HarmonicTrajectory:
    """e^{-t d_x^5} phi as a harmonic sum: mode n runs at frequency -n^5; an H^s isometry."""
    return HarmonicTrajectory(
        phi.convention, {(n, 0, -dispersion(n)): c for n, c in phi.coeff.items()}
    )


# ---------------------------------------------------------------------------
# the nonlinearity, in either trajectory algebra


def _apply_poly(u, coeffs, band_cap):
    """sum_k coeffs[k] * u^k by the products of u's algebra."""
    terms = None
    power = u.constant(1.0 + 0j)
    for k, c in enumerate(coeffs):
        if k > 0:
            power = power.product(u, band_cap=band_cap)
        if c:
            piece = power.scaled(c)
            terms = piece if terms is None else terms + piece
    return terms


def _band_factor(spec: NonlinearitySpec) -> int:
    """g with band(P1(u) u_x + P2(u) u_x^2) <= g band(u): deg P1 + 1 and
    deg P2 + 2 factors of u, counted from the coefficient tuples."""
    return max(len(spec.p1) if any(spec.p1) else 0,
               len(spec.p2) + 1 if any(spec.p2) else 0, 1)


def nonlinear_term(u, spec: NonlinearitySpec, band_cap: int = DEFAULT_BAND_CAP):
    """P1(u) u_x + P2(u) u_x^2 by the products of u's algebra (harmonic or sampled).

    With ``spec.mean_removed`` the P1 factor loses int_T P1(u) dx, 2 pi
    times its zero mode.
    """
    ux = u.x_derivative()
    out = None
    if any(spec.p1):
        p1u = _apply_poly(u, spec.p1, band_cap)
        if spec.mean_removed:
            p1u = p1u + p1u.zero_mode_terms().scaled(-TWO_PI)
        out = p1u.product(ux, band_cap=band_cap)
    if any(spec.p2):
        p2u = _apply_poly(u, spec.p2, band_cap)
        uxx2 = ux.product(ux, band_cap=band_cap)
        piece = p2u.product(uxx2, band_cap=band_cap)
        out = piece if out is None else out + piece
    return u.constant(0.0) if out is None else out


# ---------------------------------------------------------------------------
# exact Duhamel integration


def duhamel(w: HarmonicTrajectory, horizon: float = 1.0) -> HarmonicTrajectory:
    """-int_0^t e^{-(t-tau) d_x^5} w(tau) d tau, exactly, as a harmonic sum.

    Term c t^j e^{i lam t} of mode n gives -c e^{-i n^5 t} I_j(t), where
    I_j(t) = int_0^t tau^j e^{i mu tau} d tau and mu = lam + n^5, an
    integer. Terms with |mu| horizon < 1e-6 take the series, which gives
    resonant ones (mu = 0) the secular factor t^{j+1}/(j+1); ``horizon``
    must be positive and finite (``ValueError``). A real-symmetric forcing
    gives an exactly real-symmetric output (the canonical-key rule of ``torus``).

    All terms are evaluated at once, on columns: ``_closed_slots`` for the
    closed form, ``_series_slots`` near resonance. Complex products and
    quotients are spelled out on real and imaginary parts and round as
    Python's complex arithmetic does (numpy's complex multiply may fuse
    them), so every value has the bits of the scalar recursion. The slots
    are laid out term by term, so equal keys (every non-resonant term of
    mode n adds to (n, 0, -n^5)) are summed in a fixed order.
    """
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    real = w.is_real_symmetric()
    n, j, lam, c = (col[w.n >= 0] for col in w.columns) if real else w.columns
    if not len(n):
        return HarmonicTrajectory(w.convention, {})
    disp = dispersion(n)  # raises past MAX_EXACT_MODE
    mu = lam + disp
    near = np.abs(mu) * horizon < 1e-6
    # slots per term: t^j, ..., t^0 at mu, then the constant; or three series slots
    count = np.where(near, 3, j + 2)
    slots = _series_slots(near.nonzero()[0], j, mu)
    far = (~near).nonzero()[0]
    if len(far):
        slots += _closed_slots(far, j, mu)
    # term by term, slot by slot: slot s of a term is t^{j-s} at mu (the
    # constant at 0 for s = j + 1) in the closed form, t^{j+s+1} at 0 in the series
    start = count.cumsum() - count
    at = np.concatenate([start[terms] + slot for terms, slot, _, _ in slots])
    re, im = np.empty(len(at)), np.empty(len(at))
    re[at] = np.concatenate([vr for _, _, vr, _ in slots])
    im[at] = np.concatenate([vi for _, _, _, vi in slots])
    slot = np.arange(len(at)) - start.repeat(count)
    j, near = j.repeat(count), near.repeat(count)
    p = np.where(near, j + slot + 1, np.maximum(j - slot, 0))
    freq = np.where(near | (slot > j), 0, mu.repeat(count))
    cr, ci = (-c.real).repeat(count), (-c.imag).repeat(count)  # -c * val
    out = np.empty(len(at), dtype=np.complex128)
    out.real = cr * re - ci * im
    out.imag = cr * im + ci * re
    return HarmonicTrajectory.from_columns(n.repeat(count), p, freq - disp.repeat(count),
                                           out, real)


def _closed_slots(terms, j, mu) -> list:
    """I_j of non-resonant terms by I_0 = (e^{i mu t} - 1)/(i mu) and
    I_j = (t^j e^{i mu t} - j I_{j-1})/(i mu): slot j - q holds t^q e^{i mu t},
    slot j + 1 the constant, as (terms, slot, re, im). The terms run by
    decreasing j, so those that step jj multiplies lead the columns."""
    terms = terms[np.argsort(-j[terms])]
    j, m = j[terms], mu[terms]
    zr, zi = 0.0 * m - 0.0, 0.0 + m  # 1j * mu
    ratio = zr / zi  # 1.0 / (1j * mu): Python's quotient for |imag| > |real|
    denom = zr * ratio + zi
    inv = ((ratio + 0.0) / denom, (0.0 * ratio - 1.0) / denom)
    powers = [(inv[0].copy(), inv[1].copy())]  # t^q e^{i mu t}, q = 0, 1, ...
    const = (-inv[0], -inv[1])
    for jj in range(1, j[0] + 1):
        top = np.count_nonzero(j >= jj)
        ir, ii = inv[0][:top], inv[1][:top]
        fr, fi = -jj * ir - 0.0 * ii, -jj * ii + 0.0 * ir  # -jj * inv
        for vr, vi in powers + [const]:
            vr[:top], vi[:top] = fr * vr[:top] - fi * vi[:top], fr * vi[:top] + fi * vr[:top]
        powers.append((ir.copy(), ii.copy()))
    slots = [(terms, j + 1, *const)]
    for q, (vr, vi) in enumerate(powers):
        top = np.count_nonzero(j >= q)
        slots.append((terms[:top], j[:top] - q, vr[:top], vi[:top]))
    return slots


def _series_slots(terms, j, mu) -> list:
    """I_j of near-resonant terms by its series sum_p t^{j+p+1} (i mu)^p /
    (p! (j+p+1)), where the closed form would cancel: slot p is t^{j+p+1} at
    frequency 0, as (terms, slot, re, im), for p = 0, 1, 2.

    Three slots suffice because mu is an integer: either mu = 0, where every
    p >= 1 term is 0, or 1 <= |mu| < 1e-6 / horizon, so horizon < 1e-6 and at
    every t <= horizon the p = 3 term is below (mu t)^3 / 6 < 2e-19 of the
    p = 0 term."""
    j, mu = j[terms], mu[terms]
    zr, zi = 0.0 * mu - 0.0, 0.0 + mu  # 1j * mu
    ar, ai = zr + zi * 0.0, zi - zr * 0.0  # divided by p + 1 below, as Python divides
    cr, ci = np.ones(len(terms)), np.zeros(len(terms))  # coef = (i mu)^p / p!
    out = []
    for p in range(3):
        k = j + (p + 1)
        out.append((terms, p, (cr + ci * 0.0) / k, (ci - cr * 0.0) / k))  # coef / (j + p + 1)
        wr, wi = ar / (p + 1), ai / (p + 1)
        cr, ci = cr * wr - ci * wi, cr * wi + ci * wr  # coef *= 1j * mu / (p + 1)
    return out


def first_iterate(phi: FourierSeries, spec: NonlinearitySpec) -> HarmonicTrajectory:
    """Linear flow plus Duhamel of the nonlinearity of the free evolution.

    Every frequency is an integer, so mu = lambda + n^5 is 0 or at least 1
    in modulus, and every Duhamel horizon >= 1 integrates it the same way.
    """
    u0 = flow_trajectory(phi)
    return u0 + duhamel(nonlinear_term(u0, spec))


# ---------------------------------------------------------------------------
# ill-posedness scan


@dataclass
class IllposednessScan:
    slope: float
    N_list: list
    responses: list
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
    exponent. When the secular term is below the linear part everywhere (t
    not large against the N^{2s-1}-type threshold), a warning marks that
    the full norm of u1 would not show the growth. Fewer than two distinct N
    fit no line: ``ValueError``. A response that float64 cannot hold, 0
    (|c|^2 underflows, e.g. at s = 50) or not finite, has no logarithm:
    ``FloatingPointError``.
    """
    N_list = list(N_list)
    if len(set(N_list)) < 2:
        raise ValueError(f"a slope needs at least two distinct N, got {N_list}")
    responses, ratios = [], []
    for N in N_list:
        phi = two_mode_data(N, s, eps)
        u1 = first_iterate(phi, spec)
        u0 = flow_trajectory(phi)
        response = h_s_norm((u1 - u0).at_time(t), s)
        if not 0 < response < math.inf:
            raise FloatingPointError(
                f"the H^s response at N = {N}, s = {s} reads {response}: its squared "
                "amplitudes leave the float64 range")
        responses.append(response)
        lin = h_s_norm(phi, s)
        ratios.append(response / lin if lin > 0 else math.inf)
    logs_n = np.log(np.array(N_list, dtype=float))
    logs_r = np.log(np.array(responses))
    slope = np.polyfit(logs_n, logs_r, 1)[0]
    visible = max(ratios) >= 1.0
    warning = None
    if not visible:
        warning = ("secular term below the linear part at every N; "
                   "slope measured on the nonlinear response u1 - u0")
    return IllposednessScan(float(slope), N_list, responses, visible, warning)


# ---------------------------------------------------------------------------
# sampled representation and Picard iteration


@dataclass
class SampledTrajectory:
    """Mode coefficients on a Simpson time grid: coeffs[n + band, m] at times[m].

    The algebra of ``HarmonicTrajectory`` acts frame by frame: a product is
    the mode convolution of every column, by direct shift-and-add along
    axis 0 (no FFT, so small modes keep their accuracy).
    """

    times: np.ndarray
    band: int
    coeffs: np.ndarray

    def constant(self, c: complex) -> "SampledTrajectory":
        return SampledTrajectory(self.times, 0,
                                 np.full((1, len(self.times)), c, dtype=np.complex128))

    def __add__(self, other: "SampledTrajectory") -> "SampledTrajectory":
        return SampledTrajectory(self.times, max(self.band, other.band),
                                 _center_add(self.coeffs, other.coeffs))

    def scaled(self, alpha: complex) -> "SampledTrajectory":
        return SampledTrajectory(self.times, self.band, alpha * self.coeffs)

    def x_derivative(self) -> "SampledTrajectory":
        n = np.arange(-self.band, self.band + 1)
        return SampledTrajectory(self.times, self.band, (1j * n)[:, None] * self.coeffs)

    def zero_mode_terms(self) -> "SampledTrajectory":
        return SampledTrajectory(self.times, 0, self.coeffs[self.band:self.band + 1])

    def product(self, other: "SampledTrajectory",
                band_cap: int = DEFAULT_BAND_CAP) -> "SampledTrajectory":
        if self.band + other.band > band_cap:
            raise BandCapExceeded(f"product band {self.band + other.band} exceeds cap {band_cap}")
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        out = np.zeros((len(a) + len(b) - 1,) + b.shape[1:], dtype=np.complex128)
        row = np.empty_like(out[:len(b)])  # one buffer for every row's products
        for i in range(len(a)):
            out[i:i + len(b)] += np.multiply(a[i], b, out=row)
        return SampledTrajectory(self.times, self.band + other.band, out)

    def truncated(self, band: int) -> tuple["SampledTrajectory", float]:
        """Frames on exactly [-band, band], and the largest l2 mass one frame drops."""
        lo = max(self.band - band, 0)
        tail = np.concatenate((self.coeffs[:lo], self.coeffs[len(self.coeffs) - lo:]))
        dropped = float(np.max(np.linalg.norm(tail, axis=0), initial=0.0))
        return SampledTrajectory(self.times, band, _recentered(self.coeffs, band)), dropped

    def coefficients(self, times, band: int) -> np.ndarray:
        """Frames on [-band, band] at the grid times nearest to ``times``."""
        cols = np.abs(self.times[:, None] - np.asarray(times)[None, :]).argmin(axis=0)
        return _recentered(self.coeffs[:, cols], band)


def _cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x_0}^{x_m} y dx for every m, along the last axis of a complex array.

    Interval m integrates the quadratic through the sample triple starting at
    m (m even) or ending at m + 1 (m odd, and the last interval) by eq. (8) of
    Cartwright, J. Math. Sci. Math. Educ. 12(2); below three points it is the
    trapezoid rule. This is scipy's cumulative_simpson arithmetic, bit for bit.
    """
    dx = np.diff(x)
    if len(x) < 3:
        pieces = dx * (y[..., 1:] + y[..., :-1]) / 2.0
    else:
        def first_interval(f1, f2, f3, h1, h2):
            r31 = h1 / (h1 + h2)
            r = r31 * (h1 / h2)
            return h1 / 6 * ((3 - r31) * f1 + (3 + r + r31) * f2 - r * f3)

        f1, f2, f3, h1, h2 = y[..., :-2], y[..., 1:-1], y[..., 2:], dx[:-1], dx[1:]
        ends = first_interval(f3, f2, f1, h2, h1)  # interval m + 1 from triple m, reversed
        pieces = np.concatenate((ends[..., :1], ends), axis=-1)  # slot 0 is overwritten next
        pieces[..., :-1:2] = first_interval(f1, f2, f3, h1, h2)[..., ::2]
    out = np.zeros(y.shape, dtype=np.complex128)
    out[..., 1:] = np.cumsum(pieces, axis=-1) + 0.0  # as scipy's initial=0: -0.0 reads +0.0
    return out


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


def _sampled_duhamel(phi: FourierSeries, w_frames: np.ndarray, times: np.ndarray,
                     band: int) -> SampledTrajectory:
    """u(t) = e^{-t d_x^5} phi - int_0^t e^{-(t-tau) d_x^5} w d tau by cumulative Simpson."""
    disp = dispersion(np.arange(-band, band + 1))
    phase = np.exp(1j * disp[:, None] * times[None, :])
    integrand = phase * w_frames
    J = _cumulative_simpson(integrand, times)
    phi_vec = np.array([phi[n] for n in range(-band, band + 1)], dtype=np.complex128)
    coeffs = np.conj(phase) * (phi_vec[:, None] - J)
    return SampledTrajectory(times, band, coeffs)


def _sup_hs_distance(a, b, s: float, times: np.ndarray, band: int) -> float:
    """Discrete sup-in-time H^s distance between two representations."""
    weights = (1.0 + np.abs(np.arange(-band, band + 1))) ** (2 * s)
    diff = a.coefficients(times, band) - b.coefficients(times, band)
    return math.sqrt(float(np.max(np.sum(weights[:, None] * np.abs(diff) ** 2, axis=0))))


@dataclass
class PicardState:
    """Iterate j of ``picard_solve``, its representation and size.

    ``truncated_mass`` is the l2 mass that iterate j loses to ``band_cap``:
    the largest over the frames of the Picard time grid of the mass that the
    nonlinearity of iterate j-1 has past band_cap, or the data's mass past
    band_cap if that is larger. It is measured the same way for exact and
    sampled iterates; iterate 0, the linear flow kept whole, reports 0.
    """

    j: int
    trajectory: object
    diff_norm: float
    representation: str
    term_count: int
    truncated_mass: float


def contraction_achieved(states) -> bool:
    """True once CONTRACTION_RUN diff-norm ratios in a row are at most CONTRACTION_RATIO."""
    diffs = [st.diff_norm for st in states[1:]]
    run = 0
    for prev, cur in zip(diffs, diffs[1:]):
        ok = cur <= CONTRACTION_RATIO * prev or (prev == 0.0 and cur == 0.0)
        run = run + 1 if ok else 0
        if run >= CONTRACTION_RUN:
            return True
    return False


def _finite(state: PicardState, step: float) -> PicardState:
    """``state``, once its diff norm is finite; else ``FloatingPointError``."""
    if not math.isfinite(state.diff_norm):
        raise FloatingPointError(
            f"Picard iterate {state.j} has diff norm {state.diff_norm} at time step "
            f"{step:.3e}: the iteration diverged")
    return state


def _nonlinear_work_estimate(term_count: int, spec: NonlinearitySpec) -> float:
    return float(term_count) ** _band_factor(spec)


def picard_times(delta: float, time_samples: int) -> np.ndarray:
    """The Picard time grid on [0, delta]: an even ``time_samples`` is rounded
    up to odd, so the Simpson rule sees an even number of intervals."""
    return np.linspace(0.0, delta, time_samples | 1)


def picard_solve(phi: FourierSeries, spec: NonlinearitySpec, delta: float,
                 max_iter: int = 8, band_cap: int = 16, s: float = 1.0,
                 time_samples: int = 257) -> list:
    """Picard iterates of the truncated Duhamel operator on [0, delta].

    Iterates stay exact harmonic sums while the term count is at most
    ``TERM_CAP`` and the predicted spectral-product work stays under
    ``WORK_CAP``; past that they are projected onto a Simpson grid and the
    Duhamel integral switches to cumulative quadrature (step delta /
    (time_samples - 1), reported via the representation tag). Modes above
    ``band_cap`` are discarded with the dropped l2 mass recorded (see
    ``PicardState``); the products inside the nonlinearity are capped at g
    times the larger of band_cap and the data's band, g = max(deg P1 + 1,
    deg P2 + 2), which every iterate's products fit. The diff norms are
    taken on a 33-point diagnostic time grid. A band_cap above ``MAX_EXACT_MODE`` raises
    ``BandCapExceeded``: the sampled path needs n^5 exactly for every mode
    up to it. A diff norm that is not finite (the iteration diverged past
    float64) raises ``FloatingPointError``.
    """
    if delta <= 0:
        raise ValueError("time horizon must be positive")
    if time_samples < 2:
        raise ValueError("the Picard time grid needs time_samples >= 2")
    if band_cap > MAX_EXACT_MODE:
        raise BandCapExceeded(
            f"band_cap {band_cap} exceeds {MAX_EXACT_MODE}, the largest mode whose "
            "dispersion n^5 float64 holds exactly")
    times = picard_times(delta, time_samples)
    cap = _band_factor(spec) * max(band_cap, phi.band)
    diag = times[::max(1, (len(times) - 1) // 32)]
    u0_exact = flow_trajectory(phi)
    data_dropped = u0_exact.truncated(band_cap)[1]  # constant in time: one term per mode
    step = times[1] - times[0]
    states = [_finite(PicardState(0, u0_exact, _sup_hs_distance(
        u0_exact, HarmonicTrajectory(phi.convention, {}), s, diag, band_cap),
        "exact", u0_exact.term_count(), 0.0), step)]
    u_prev = u0_exact
    for j in range(1, max_iter + 1):
        if isinstance(u_prev, HarmonicTrajectory) and (
                u_prev.term_count() > TERM_CAP
                or _nonlinear_work_estimate(u_prev.term_count(), spec) > WORK_CAP):
            u_prev = SampledTrajectory(times, band_cap, u_prev.coefficients(times, band_cap))
        w, dropped = nonlinear_term(u_prev, spec, cap).truncated(band_cap)
        if isinstance(u_prev, HarmonicTrajectory):
            if dropped:  # measured as on a sampled iterate: the nonlinearity of
                # u_prev's frames on the Picard grid, frame by frame
                frames = SampledTrajectory(times, u_prev.band,
                                           u_prev.coefficients(times, u_prev.band))
                dropped = nonlinear_term(frames, spec, cap).truncated(band_cap)[1]
            u_next = (u0_exact + duhamel(w, horizon=2 * delta)).truncated(band_cap)[0]
            rep = "exact"
            count = u_next.term_count()
        else:
            u_next = _sampled_duhamel(phi, w.coeffs, times, band_cap)
            rep = f"sampled(step={step:.3e})"
            count = u_next.coeffs.size
        diff = _sup_hs_distance(u_next, u_prev, s, diag, band_cap)
        states.append(_finite(PicardState(j, u_next, diff, rep, count,
                                          max(dropped, data_dropped)), step))
        u_prev = u_next
    return states


# ---------------------------------------------------------------------------
# gauge transform and residuals


def gauge_shift(v: SampledTrajectory, k: int) -> np.ndarray:
    """theta(t) = int_0^t int_T v^k dy d tau at the sample times of v.

    The inner integral is 2 pi times the zero mode of v^k; the time integral
    is cumulative Simpson on the sampled zero mode.
    """
    zm = _apply_poly(v, (0.0,) * k + (1.0,), k * v.band).zero_mode_terms().coeffs[0]
    return TWO_PI * _cumulative_simpson(zm, v.times).real


def gauge_transform(v: SampledTrajectory, k: int):
    """u(x, t) = v(x - theta(t), t) as a sampled trajectory, plus theta.

    The spatial shift acts as the phase e^{-i n theta(t)} on mode n.
    """
    theta = gauge_shift(v, k)
    n_idx = np.arange(-v.band, v.band + 1)
    shifted = v.coeffs * np.exp(-1j * n_idx[:, None] * theta[None, :])
    return SampledTrajectory(v.times, v.band, shifted), theta


def residual(u: SampledTrajectory, spec: NonlinearitySpec) -> float:
    """sup-in-time L^2 norm of d_t u + d_x^5 u + nonlinearity on a sampled trajectory.

    d_t is a centered difference, so the sup runs over the interior of the
    grid; the nonlinearity keeps its full band.
    """
    dt = u.times[1] - u.times[0]
    inner = SampledTrajectory(u.times[1:-1], u.band, u.coeffs[:, 1:-1])
    dudt = (u.coeffs[:, 2:] - u.coeffs[:, :-2]) / (2 * dt)
    dx5 = ((1j * np.arange(-u.band, u.band + 1)) ** 5)[:, None] * inner.coeffs
    w = nonlinear_term(inner, spec, _band_factor(spec) * u.band)
    res = _center_add(w.coeffs, dudt + dx5)
    return float(np.max(np.linalg.norm(res, axis=0), initial=0.0))
