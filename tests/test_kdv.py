import cmath
import json
import math

import numpy as np
import pytest

from dispersive_lab.kdv import (
    NonlinearitySpec,
    SampledTrajectory,
    contraction_achieved,
    duhamel,
    first_iterate,
    flow_trajectory,
    gauge_shift,
    gauge_transform,
    illposedness_scan,
    linear_flow,
    nonlinear_term,
    picard_solve,
    residual,
    two_mode_data,
    u_p2,
    u_squared_p1,
)
from dispersive_lab.kdv import _array_nonlinear
from dispersive_lab.norms import dispersion, h_s_norm
from dispersive_lab.torus import BandCapExceeded, FourierSeries, HarmonicTrajectory, TorusConvention

TP = TorusConvention.TWO_PI


def rk4_integrating_factor(phi, spec, delta, steps, band):
    """Classical explicit oracle: 4th-order RK on the stiffness-removed system."""
    n_idx = np.arange(-band, band + 1, dtype=float)
    disp = n_idx**5
    u = np.zeros(2 * band + 1, dtype=complex)
    for n, c in phi.coeff.items():
        u[n + band] = c

    def rhs(v, t):
        ph = np.exp(1j * disp * t)
        ucur = np.conj(ph) * v
        w_full, wb = _array_nonlinear(ucur[:, None], band, spec)
        w_full = w_full[:, 0]
        lo = wb - band
        w = w_full[lo:lo + 2 * band + 1] if lo > 0 else np.pad(
            w_full, (band - wb, band - wb))
        return -ph * w

    v = u.copy()
    t = 0.0
    dt = delta / steps
    for _ in range(steps):
        k1 = rhs(v, t)
        k2 = rhs(v + dt / 2 * k1, t + dt / 2)
        k3 = rhs(v + dt / 2 * k2, t + dt / 2)
        k4 = rhs(v + dt * k3, t + dt)
        v = v + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return np.conj(np.exp(1j * disp * t)) * v


def hs_distance(coeffs_a, coeffs_b, band, s):
    n_idx = np.arange(-band, band + 1)
    w = (1.0 + np.abs(n_idx)) ** (2 * s)
    return math.sqrt(float(np.sum(w * np.abs(coeffs_a - coeffs_b) ** 2)))


# ---------------------------------------------------------------------------
# linear flow


def test_flow_identity_at_zero():
    phi = two_mode_data(4, 0.5, 1.0)
    assert linear_flow(phi, 0.0).coeff == phi.coeff


def test_flow_matches_free_evolution():
    phi = two_mode_data(8, 0.5, 1.0)
    t = 0.3
    got = linear_flow(phi, t)
    amp = 8**-0.5
    assert got[8] == pytest.approx(amp * cmath.exp(-1j * 8**5 * t), rel=1e-14)
    assert got[-8] == pytest.approx(amp * cmath.exp(1j * 8**5 * t), rel=1e-14)


def test_flow_isometry():
    rng = np.random.default_rng(0)
    phi = FourierSeries(TP, {n: complex(*rng.standard_normal(2)) for n in range(-5, 6)})
    for s in (0.0, 0.7, 2.0):
        assert h_s_norm(linear_flow(phi, 0.83), s) == pytest.approx(
            h_s_norm(phi, s), rel=1e-12)


def test_zero_mode_frequency_is_positive_zero():
    # -dispersion(0) is -0.0; the stored key and the JSON record hold +0.0
    u = flow_trajectory(FourierSeries(TP, {0: 1.0, 1: 0.5, -1: 0.5}))
    records = json.loads(u.to_json())["terms"]
    assert [math.copysign(1.0, r["lam"]) for r in records if r["n"] == 0] == [1.0]
    assert '"lam": -0.0' not in u.to_json()


def test_flow_frequencies_exact_up_to_1552():
    # 1552^5 < 2^53 <= 1553^5: past that float64 would round the frequency
    u = flow_trajectory(FourierSeries(TP, {1552: 1.0}))
    (key,) = u.terms
    assert key[2] == -(1552**5)
    with pytest.raises(BandCapExceeded):
        flow_trajectory(FourierSeries(TP, {1553: 1.0}))
    # the guard sits in dispersion itself, so the flow and the array form
    # (sampled Duhamel, norm weights) refuse the mode too
    t = 0.3
    got = linear_flow(FourierSeries(TP, {-1552: 1.0}), t)[-1552]
    assert got == cmath.exp(-1j * float((-1552) ** 5) * t)
    with pytest.raises(BandCapExceeded):
        linear_flow(FourierSeries(TP, {1553: 1.0}), t)
    assert np.array_equal(dispersion(np.arange(-1552, 1553)),
                          [float(n**5) for n in range(-1552, 1553)])
    with pytest.raises(BandCapExceeded):
        dispersion(np.array([0, -1553]))


def test_picard_rejects_band_cap_past_exact_dispersion():
    phi = FourierSeries(TP, {1: 0.1, -1: 0.1})
    with pytest.raises(BandCapExceeded):
        picard_solve(phi, u_squared_p1(), 1e-3, max_iter=1, band_cap=1553)


def test_flow_requires_two_pi():
    phi = FourierSeries(TorusConvention.UNIT, {1: 1.0})
    with pytest.raises(ValueError):
        linear_flow(phi, 0.1)


# ---------------------------------------------------------------------------
# nonlinearities: the two counterexample expansions


def test_cubic_derivative_nonlinearity_closed_form():
    N, s, eps = 8, 0.5, 1.0
    u0 = flow_trajectory(two_mode_data(N, s, eps))
    w = nonlinear_term(u0, u_squared_p1())
    amp = eps**3 * N ** (1 - 3 * s)
    expected = {
        (N, 0, -float(N) ** 5): 1j * amp,
        (-N, 0, float(N) ** 5): -1j * amp,
        (3 * N, 0, -3.0 * N**5): 1j * amp,
        (-3 * N, 0, 3.0 * N**5): -1j * amp,
    }
    assert set(w.terms) == set(expected)
    for key, val in expected.items():
        assert w.terms[key] == pytest.approx(val, rel=1e-13)


def test_quadratic_gradient_nonlinearity_closed_form():
    N, s, eps = 8, 0.5, 1.0
    u0 = flow_trajectory(two_mode_data(N, s, eps))
    w = nonlinear_term(u0, u_p2())
    amp = eps**3 * N ** (2 - 3 * s)
    expected = {
        (N, 0, -float(N) ** 5): amp,
        (-N, 0, float(N) ** 5): amp,
        (3 * N, 0, -3.0 * N**5): -amp,
        (-3 * N, 0, 3.0 * N**5): -amp,
    }
    assert set(w.terms) == set(expected)
    for key, val in expected.items():
        assert w.terms[key] == pytest.approx(val, rel=1e-13)


def test_constant_data_kills_nonlinearity():
    u = HarmonicTrajectory(TP, {(0, 0, 0.0): 2.5})
    for spec in (u_squared_p1(), u_p2(),
                 NonlinearitySpec(p1=(0.0, 0.0, 1.0), mean_removed=True)):
        assert nonlinear_term(u, spec).terms == {}


# ---------------------------------------------------------------------------
# Duhamel


def test_duhamel_zero():
    assert duhamel(HarmonicTrajectory(TP, {})).terms == {}


def test_duhamel_resonant_secular():
    w = HarmonicTrajectory(TP, {(3, 0, -3.0**5): 2.0})
    out = duhamel(w)
    assert out.terms == {(3, 1, -243.0): -2.0 + 0j}


def test_duhamel_nonresonant_formula():
    lam, n = 7.0, 2
    w = HarmonicTrajectory(TP, {(n, 0, lam): 1.0})
    out = duhamel(w)
    t = 0.9
    mu = lam + n**5
    val = sum(c * t**j * cmath.exp(1j * freq * t)
              for (nn, j, freq), c in out.terms.items())
    want = -cmath.exp(-1j * n**5 * t) * (cmath.exp(1j * mu * t) - 1) / (1j * mu)
    assert val == pytest.approx(want, rel=1e-13)


def test_duhamel_near_resonant_series():
    # |mu| below the resonance tolerance goes through the series expansion
    mu = 1e-12
    w = HarmonicTrajectory(TP, {(1, 0, -1.0 + mu): 1.0})
    out = duhamel(w, horizon=1.0)
    t = 0.5
    val = sum(c * t**j * cmath.exp(1j * freq * t)
              for (nn, j, freq), c in out.terms.items())
    want = -t * cmath.exp(-1j * t) * (1 + 1j * mu * t / 2)  # series to first order
    assert val == pytest.approx(want, rel=1e-10)


def test_duhamel_real_forcing_matches_termwise_sum():
    # the canonical-key rule gives the same numbers as Duhamel of each term
    # alone (single terms are not real, so the rule never fires on them)
    rng = np.random.default_rng(4)
    terms = {(0, 0, 0.0): 0.7, (0, 1, 5.0): 0.2 - 0.1j, (0, 1, -5.0): 0.2 + 0.1j}
    for _ in range(6):
        n, j, lam = int(rng.integers(1, 4)), int(rng.integers(0, 2)), float(rng.integers(-300, 300))
        c = complex(*rng.standard_normal(2))
        terms[(n, j, lam)] = c
        terms[(-n, j, -lam)] = c.conjugate()
    terms[(2, 0, -32.0)] = 1.5j  # resonant
    terms[(-2, 0, 32.0)] = -1.5j
    w = HarmonicTrajectory(TP, terms)
    assert w.is_real_symmetric()
    got = duhamel(w, horizon=2.0)
    assert got.is_real_symmetric()
    want = HarmonicTrajectory(TP, {})
    for key, c in w.terms.items():
        want = want + duhamel(HarmonicTrajectory(TP, {key: c}), horizon=2.0)
    assert set(got.terms) == set(want.terms)
    scale = max(abs(c) for c in want.terms.values())
    assert max(abs(got.terms[k] - want.terms[k]) for k in want.terms) <= 1e-15 * scale


def test_duhamel_differential_identity():
    # d/dt D(w) + d_x^5 D(w) = -w, term by term on random forcings
    rng = np.random.default_rng(1)
    terms = {}
    for _ in range(8):
        key = (int(rng.integers(-4, 5)), int(rng.integers(0, 3)),
               float(rng.integers(-600, 600)))
        terms[key] = complex(*rng.standard_normal(2))
    w = HarmonicTrajectory(TP, terms)
    dw = duhamel(w, horizon=2.0)
    resid = dw.t_derivative() + dw.x_derivative_power(5) + w
    assert max((abs(c) for c in resid.terms.values()), default=0.0) < 1e-12


# ---------------------------------------------------------------------------
# first iterate and the ill-posedness scan


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
def test_first_iterate_mode_n_coefficient(s):
    eps, t = 1.0, 0.37
    for N in (4, 8, 16, 32, 64):
        phi = two_mode_data(N, s, eps)
        u1 = first_iterate(phi, u_squared_p1())
        got = u1.at_time(t)[N]
        want = (eps * N**-s - 1j * eps**3 * N ** (1 - 3 * s) * t) * cmath.exp(
            -1j * float(N) ** 5 * t)
        assert abs(got - want) <= 1e-10 * abs(want)


def test_first_iterate_gradient_case_real_secular():
    # the quadratic-gradient case: secular coefficient comes out real
    # (forced by the real nonlinear expansion), decreasing the amplitude
    s, eps, t, N = 0.7, 1.0, 0.2, 8
    phi = two_mode_data(N, s, eps)
    u1 = first_iterate(phi, u_p2())
    got = u1.at_time(t)[N]
    want = (eps * N**-s - eps**3 * N ** (2 - 3 * s) * t) * cmath.exp(
        -1j * float(N) ** 5 * t)
    assert abs(got - want) <= 1e-10 * abs(want)


def test_zero_spec_gives_linear_flow():
    phi = two_mode_data(4, 0.5, 1.0)
    u1 = first_iterate(phi, NonlinearitySpec())
    assert u1.terms == flow_trajectory(phi).terms


def test_illposedness_slopes():
    scan = illposedness_scan(u_squared_p1(), 0.3, 1.0, 0.01, [16, 32, 64])
    assert scan.slope == pytest.approx(1.0 - 2 * 0.3, abs=0.05)
    scan2 = illposedness_scan(u_p2(), 0.7, 1.0, 0.01, [16, 32, 64])
    assert scan2.slope == pytest.approx(2.0 - 2 * 0.7, abs=0.05)


def test_illposedness_linear_regime_flat():
    # tiny t: the response is still secular-dominated, but the full norm is
    # flat after normalization; the scan records that the secular term is
    # not visible in the full norm
    scan = illposedness_scan(u_squared_p1(), 0.3, 0.05, 1e-9, [16, 32])
    assert not scan.secular_visible
    assert scan.warning is not None


# ---------------------------------------------------------------------------
# Picard iteration


def test_picard_zero_data():
    phi = FourierSeries(TP, {})
    states = picard_solve(phi, u_squared_p1(), 1e-3, max_iter=3, band_cap=4,
                          time_samples=17)
    for st in states:
        assert st.diff_norm == 0.0


def test_picard_constant_data_mean_removed():
    phi = FourierSeries(TP, {0: 0.7})
    spec = NonlinearitySpec(p1=(0.0, 0.0, 1.0), mean_removed=True)
    states = picard_solve(phi, spec, 1e-3, max_iter=3, band_cap=4, time_samples=17)
    assert all(st.diff_norm == 0.0 for st in states[1:])


def test_picard_contraction_and_oracle():
    phi = FourierSeries(TP, {1: 0.1, -1: 0.1})
    spec = u_squared_p1()
    delta = 1e-3
    states = picard_solve(phi, spec, delta, max_iter=7, band_cap=10, s=1.0,
                          time_samples=129)
    assert contraction_achieved(states)
    final = states[-1].trajectory
    band = 10
    if isinstance(final, SampledTrajectory):
        got = final.coeffs[:, -1]
    else:
        f = final.at_time(delta)
        got = np.array([f[n] for n in range(-band, band + 1)])
    ref = rk4_integrating_factor(phi, spec, delta, 1290, band)
    assert hs_distance(got, ref, band, 1.0) < 1e-6


def test_picard_mean_conserved():
    # P1 = Q' polynomial: the nonlinearity is an exact x-derivative, so the
    # zero mode of every iterate stays that of the data
    phi = FourierSeries(TP, {0: 0.2, 1: 0.05, -1: 0.05})
    states = picard_solve(phi, u_squared_p1(), 1e-3, max_iter=4, band_cap=8,
                          time_samples=65)
    for st in states:
        traj = st.trajectory
        if isinstance(traj, SampledTrajectory):
            zero = traj.coeffs[traj.band]
        else:
            zero = np.array([traj.at_time(t)[0]
                             for t in np.linspace(0, 1e-3, 9)])
        assert np.abs(zero - 0.2).max() < 1e-10


def test_picard_reality_preserved():
    phi = FourierSeries(TP, {1: 0.1 + 0.02j, -1: 0.1 - 0.02j, 2: 0.03, -2: 0.03})
    assert phi.is_real_symmetric()
    states = picard_solve(phi, u_squared_p1(), 1e-3, max_iter=3, band_cap=8,
                          time_samples=33)
    for st in states:
        traj = st.trajectory
        if isinstance(traj, HarmonicTrajectory):
            assert traj.is_real_symmetric()


def test_picard_p2_contracts():
    phi = FourierSeries(TP, {1: 0.05, -1: 0.05})
    states = picard_solve(phi, u_p2(), 1e-3, max_iter=8, band_cap=8,
                          time_samples=65)
    assert contraction_achieved(states)


@pytest.mark.parametrize("spec", [
    u_squared_p1(), u_p2(), NonlinearitySpec(p1=(0.0, 0.0, 1.0), mean_removed=True)],
    ids=["u_squared_p1", "u_p2", "gauge"])
def test_frame_nonlinearity_matches_exact(spec):
    # the frame-matrix nonlinearity against exact products of the harmonic sum
    rng = np.random.default_rng(5)
    band = 4
    coeff = {0: 0.2}
    for n in range(1, band + 1):
        c = 0.3 * complex(*rng.standard_normal(2))
        coeff[n], coeff[-n] = c, c.conjugate()
    u, _ = first_iterate(FourierSeries(TP, coeff), u_squared_p1()).truncated(band)
    times = np.linspace(0.0, 1e-2, 9)
    w, wb = _array_nonlinear(u.coefficients(times, band), band, spec)
    want = nonlinear_term(u, spec).coefficients(times, 3 * band)
    assert wb == 3 * band
    assert np.abs(w - want).max() <= 1e-13 * np.abs(want).max()


def test_sampled_projection_matches_exact():
    # coefficients() against a term-by-term sum, including rows above the band
    phi = two_mode_data(2, 1.0, 0.5)
    u = first_iterate(phi, u_squared_p1())
    times = np.linspace(0.0, 1e-2, 9)
    samp = u.coefficients(times, 8)
    assert samp.shape == (17, 9)
    for m, t in enumerate(times):
        want = np.zeros(17, dtype=complex)
        for (n, j, lam), c in u.terms.items():
            if abs(n) <= 8:
                want[n + 8] += c * t**j * cmath.exp(1j * lam * t)
        assert np.abs(samp[:, m] - want).max() <= 1e-14


# ---------------------------------------------------------------------------
# gauge transform and residuals


def test_gauge_zero_mean_power():
    # int v^k dx = 0 identically -> theta = 0 and u = v
    v = HarmonicTrajectory(TP, {(1, 0, -1.0): 1.0})  # v^1 has no zero mode
    times = np.linspace(0.0, 1e-2, 17)
    theta = gauge_shift(v, 1, times)
    assert np.abs(theta).max() < 1e-15


def test_gauge_constant_shift():
    c = 0.3
    v = HarmonicTrajectory(TP, {(0, 0, 0.0): c})
    times = np.linspace(0.0, 0.5, 33)
    theta = gauge_shift(v, 2, times)
    assert theta[-1] == pytest.approx(2 * math.pi * c**2 * 0.5, rel=1e-12)
    u, _ = gauge_transform(v, 2, times)
    assert np.abs(u.coeffs[u.band] - c).max() < 1e-14


def test_gauge_residual_small():
    phi = FourierSeries(TP, {1: 0.1, -1: 0.1})
    spec_mr = NonlinearitySpec(p1=(0.0, 0.0, 1.0), mean_removed=True)
    states = picard_solve(phi, spec_mr, 1e-3, max_iter=6, band_cap=10,
                          time_samples=129)
    v = states[-1].trajectory
    assert isinstance(v, SampledTrajectory)
    u, theta = gauge_transform(v, 2)
    assert residual(v, spec_mr) < 1e-6
    assert residual(u, NonlinearitySpec(p1=(0.0, 0.0, 1.0))) < 1e-6
    assert theta[-1] != 0.0
