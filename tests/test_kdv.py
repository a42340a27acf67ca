import cmath
import hashlib
import json
import math

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson

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
    nonlinear_term,
    picard_solve,
    residual,
    two_mode_data,
    u_p2,
    u_squared_p1,
)
from dispersive_lab.kdv import _cumulative_simpson
from dispersive_lab.norms import dispersion, h_s_norm
from dispersive_lab.torus import BandCapExceeded, FourierSeries, HarmonicTrajectory, TorusConvention
from test_torus import t_derivative

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
        ucur = SampledTrajectory(np.array([t]), band, (np.conj(ph) * v)[:, None])
        w, _ = nonlinear_term(ucur, spec).truncated(band)
        return -ph * w.coeffs[:, 0]

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
    assert flow_trajectory(phi).at_time(0.0).coeff == phi.coeff


def test_flow_matches_free_evolution():
    phi = two_mode_data(8, 0.5, 1.0)
    t = 0.3
    got = flow_trajectory(phi).at_time(t)
    amp = 8**-0.5
    assert got[8] == pytest.approx(amp * cmath.exp(-1j * 8**5 * t), rel=1e-14)
    assert got[-8] == pytest.approx(amp * cmath.exp(1j * 8**5 * t), rel=1e-14)


def test_flow_isometry():
    rng = np.random.default_rng(0)
    phi = FourierSeries(TP, {n: complex(*rng.standard_normal(2)) for n in range(-5, 6)})
    for s in (0.0, 0.7, 2.0):
        assert h_s_norm(flow_trajectory(phi).at_time(0.83), s) == pytest.approx(
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
    # the flow at mode -1552 is exact; the guard sits in dispersion itself,
    # so the array form (sampled Duhamel, norm weights) refuses 1553 too
    t = 0.3
    got = flow_trajectory(FourierSeries(TP, {-1552: 1.0})).at_time(t)[-1552]
    assert got == cmath.exp(-1j * float((-1552) ** 5) * t)
    assert np.array_equal(dispersion(np.arange(-1552, 1553)),
                          [float(n**5) for n in range(-1552, 1553)])
    with pytest.raises(BandCapExceeded):
        dispersion(np.array([0, -1553]))


def test_picard_rejects_band_cap_past_exact_dispersion():
    phi = FourierSeries(TP, {1: 0.1, -1: 0.1})
    with pytest.raises(BandCapExceeded):
        picard_solve(phi, u_squared_p1(), 1e-3, max_iter=1, band_cap=1553)


def test_flow_requires_two_pi():
    # the flow lives on the 2 pi torus: a series tagged with another is refused
    with pytest.raises(ValueError):
        flow_trajectory(FourierSeries("unit", {1: 1.0})).at_time(0.1)


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
    # an integer mu != 0 with |mu| horizon < 1e-6 goes through the series expansion
    mu, horizon = 3, 1e-7
    w = HarmonicTrajectory(TP, {(1, 0, -1 + mu): 1.0})
    out = duhamel(w, horizon=horizon)
    assert all(freq == -1 for _, _, freq in out.terms)  # series terms: t^p e^{-i t}
    t = 0.5 * horizon
    val = sum(c * t**j * cmath.exp(1j * freq * t)
              for (nn, j, freq), c in out.terms.items())
    # -e^{-i t} (e^{i mu t} - 1)/(i mu), the closed form, well conditioned in this check
    want = -cmath.exp(-1j * t) * (cmath.exp(1j * mu * t) - 1) / (1j * mu)
    assert val == pytest.approx(want, rel=1e-12)


def test_duhamel_refuses_a_horizon_that_is_not_positive_and_finite():
    # the horizon decides which terms take the series; at t = 0 or below every
    # term would, and at t = 1 the series would be far off the closed form
    w = HarmonicTrajectory(TP, {(1, 0, 40): 1.0})
    for horizon in (0.0, -0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="horizon"):
            duhamel(w, horizon=horizon)
    t = 1.0
    got = duhamel(w, horizon=t).at_time(t)[1]
    mu = 40 + 1
    want = -cmath.exp(-1j * t) * (cmath.exp(1j * mu * t) - 1) / (1j * mu)
    assert got == pytest.approx(want, rel=1e-14)
    assert abs(got - (-0.0387 - 0.0294j)) < 1e-4


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


def _poly_exp_antiderivative(j, mu, horizon):
    """int_0^t tau^j e^{i mu tau} d tau as {(power, freq): coeff}, one term at a
    time in Python complex arithmetic: the scalar recursion that ``duhamel``
    evaluates on columns."""
    if abs(mu) * horizon < 1e-6:
        out = {}
        coef = 1.0 + 0j
        for p in range(41):
            val = coef / (j + p + 1)
            out[(j + p + 1, 0)] = val
            if abs(val) * horizon ** (j + p + 1) < 1e-18 * max(horizon**j, 1e-30) and p >= 2:
                break
            coef *= 1j * mu / (p + 1)
        return out
    # recursion I_j = (t^j e^{i mu t} - j I_{j-1}) / (i mu)
    inv = 1.0 / (1j * mu)
    cur = {(0, mu): inv, (0, 0): -inv}
    for jj in range(1, j + 1):
        cur = {(jj, mu): inv, **{key: -jj * inv * c for key, c in cur.items()}}
    return cur


def scalar_duhamel(w, horizon=1.0):
    """Duhamel term by term through ``_poly_exp_antiderivative``: the oracle."""
    real = w.is_real_symmetric()
    rows = []
    for n, j, lam, c in w.rows():
        if real and n < 0:
            continue
        disp = dispersion(n)
        for (p, freq), val in _poly_exp_antiderivative(j, lam + disp, horizon).items():
            rows.append((n, p, freq - disp, -c * val))
    n, p, lam, c = zip(*rows) if rows else ((),) * 4
    return HarmonicTrajectory.from_columns(n, p, lam, c, real)


def random_forcing(rng, real):
    """Terms on modes -6..6 with j up to 3: exactly resonant, near-resonant
    (mu of a few units, a series at small horizons) and farther integer
    frequencies, and some purely real or purely imaginary amplitudes;
    conjugate mirrors if ``real``."""
    terms = {}
    for _ in range(int(rng.integers(1, 40))):
        n, j = int(rng.integers(0 if real else -6, 7)), int(rng.integers(0, 4))
        kind = int(rng.integers(0, 5))
        lam = -n**5 + (
            0, int(rng.choice([1, -3, 2, -5])), int(rng.integers(-20000, 20000)),
            round(rng.standard_normal() * 1e3), int(rng.integers(-50, 50)))[kind]
        c = complex(*rng.standard_normal(2))
        c = (c, complex(c.real, 0.0), complex(0.0, c.imag))[int(rng.integers(0, 3))]
        if real and n == 0 and lam == 0:
            c = complex(c.real, 0.0)
        terms[(n, j, lam)] = c
        if real:
            terms[(-n, j, -lam)] = c.conjugate()
    return HarmonicTrajectory(TP, terms)


def test_duhamel_columns_match_scalar_recursion_bytes():
    rng = np.random.default_rng(3)
    slots = set()
    near = 0  # terms with mu != 0 that take the series
    for trial in range(300):
        w = random_forcing(rng, real=trial % 2 == 0)
        assert w.is_real_symmetric() == (trial % 2 == 0)
        for horizon in (1.0, 2e-3, 1e7, 3, 1e-7):
            want, got = scalar_duhamel(w, horizon), duhamel(w, horizon)
            for a, b in zip(want.columns, got.columns):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert got.is_real_symmetric() == want.is_real_symmetric()
            for j, mu in zip(w.j.tolist(), (w.lam + dispersion(w.n)).tolist()):
                slots.add(len(_poly_exp_antiderivative(j, mu, horizon)))
                near += mu != 0 and abs(mu) * horizon < 1e-6
    # closed forms j = 0..3, and series on integer mu != 0 (|mu| horizon < 1e-6)
    assert {2, 3, 4, 5} <= slots and near > 1000, near
    assert duhamel(HarmonicTrajectory(TP, {})).term_count() == 0
    # powers j = 4..6 at long horizons: resonant terms take the three series
    # slots, near-resonant ones (mu = 3) the closed form
    w = HarmonicTrajectory(TP, {(n, j, -n**5 + mu): complex(j, mu + 1)
                                for n in (1, -2) for j in (4, 5, 6) for mu in (0, 3)})
    for horizon in (1e6, 1e7):
        want, got = scalar_duhamel(w, horizon), duhamel(w, horizon)
        for a, b in zip(want.columns, got.columns):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_sampled_product_matches_rowwise_temporaries():
    rng = np.random.default_rng(6)
    times = np.linspace(0.0, 1e-3, 9)
    for la, lb in ((1, 1), (3, 7), (9, 5)):
        a = rng.standard_normal((la, 9)) + 1j * rng.standard_normal((la, 9))
        b = rng.standard_normal((lb, 9)) + 1j * rng.standard_normal((lb, 9))
        got = SampledTrajectory(times, la // 2, a).product(SampledTrajectory(times, lb // 2, b))
        x, y = (a, b) if la <= lb else (b, a)
        want = np.zeros((la + lb - 1, 9), dtype=np.complex128)
        for i in range(len(x)):
            want[i:i + len(y)] += x[i] * y
        assert got.coeffs.tobytes() == want.tobytes()


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
    resid = t_derivative(dw) + dw.x_derivative_power(5) + w
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


def test_illposedness_scan_needs_two_distinct_n():
    # one N (or one N repeated) fits no line: refused, not a degenerate slope
    for N_list in ([16], [1], [16, 16], []):
        with pytest.raises(ValueError, match="two distinct N"):
            illposedness_scan(u_squared_p1(), 0.3, 1.0, 0.01, N_list)


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
    band = 10
    got = states[-1].trajectory.coefficients([delta], band)[:, 0]
    ref = rk4_integrating_factor(phi, spec, delta, 1290, band)
    assert hs_distance(got, ref, band, 1.0) < 1e-6


def test_picard_mean_conserved():
    # P1 = Q' polynomial: the nonlinearity is an exact x-derivative, so the
    # zero mode of every iterate stays that of the data
    phi = FourierSeries(TP, {0: 0.2, 1: 0.05, -1: 0.05})
    states = picard_solve(phi, u_squared_p1(), 1e-3, max_iter=4, band_cap=8,
                          time_samples=65)
    for st in states:
        zero = st.trajectory.coefficients(np.linspace(0, 1e-3, 65), 0)[0]
        assert np.abs(zero - 0.2).max() < 1e-10


def test_picard_reality_preserved():
    phi = FourierSeries(TP, {1: 0.1 + 0.02j, -1: 0.1 - 0.02j, 2: 0.03, -2: 0.03})
    assert HarmonicTrajectory.from_series(phi).is_real_symmetric()
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
    # nonlinear_term on frame matrices against exact products of the harmonic sum
    rng = np.random.default_rng(5)
    band = 4
    coeff = {0: 0.2}
    for n in range(1, band + 1):
        c = 0.3 * complex(*rng.standard_normal(2))
        coeff[n], coeff[-n] = c, c.conjugate()
    u, _ = first_iterate(FourierSeries(TP, coeff), u_squared_p1()).truncated(band)
    times = np.linspace(0.0, 1e-2, 9)
    w = nonlinear_term(SampledTrajectory(times, band, u.coefficients(times, band)), spec)
    want = nonlinear_term(u, spec).coefficients(times, 3 * band)
    assert w.band == 3 * band
    assert np.abs(w.coeffs - want).max() <= 1e-13 * np.abs(want).max()


def test_both_products_refuse_past_band_cap():
    u = HarmonicTrajectory(TP, {(2, 0, -32.0): 0.5, (-2, 0, 32.0): 0.5})
    times = np.linspace(0.0, 1e-2, 5)
    for v in (u, SampledTrajectory(times, 2, u.coefficients(times, 2))):
        assert v.product(v, band_cap=4).band == 4
        with pytest.raises(BandCapExceeded, match="product band 4 exceeds cap 3"):
            v.product(v, band_cap=3)


def test_picard_band_cap_follows_the_nonlinearity():
    # P1 = u^4 makes products of band 5 band_cap = 15, past a fixed 4 band_cap
    phi = FourierSeries(TP, {3: .05, -3: .05})
    spec = NonlinearitySpec(p1=(0, 0, 0, 0, 1), mean_removed=True)
    states = picard_solve(phi, spec, 1e-3, max_iter=3, band_cap=3)
    assert [st.j for st in states] == [0, 1, 2, 3]
    assert all(math.isfinite(st.diff_norm) for st in states)


def test_picard_truncated_mass_same_on_exact_and_sampled_iterates():
    # u^2 P1 of modes +-3 reaches mode 9, past band_cap 8: exact iterates report
    # what their nonlinearity drops, as the sampled iterates after them do
    phi = FourierSeries(TP, {3: 0.1, -3: 0.1, 1: 0.05, -1: 0.05})
    spec, band_cap, delta = u_squared_p1(), 8, 0.05
    states = picard_solve(phi, spec, delta, max_iter=6, band_cap=band_cap)
    reps = [st.representation.split("(")[0] for st in states]
    assert reps == ["exact"] * 3 + ["sampled"] * 4
    assert states[0].truncated_mass == 0.0
    masses = [st.truncated_mass for st in states[1:]]
    assert min(masses) > 4.2e-3 and max(masses) < 4.25e-3 * (1 + 1e-3)
    # oracle: the exact nonlinearity's terms past band_cap, summed at every
    # time of the Picard grid
    times = np.linspace(0.0, delta, 257)
    for prev, st in zip(states[:2], states[1:3]):
        w = nonlinear_term(prev.trajectory, spec, 3 * band_cap)
        frames = w.coefficients(times, w.band)
        frames[w.band - band_cap:w.band + band_cap + 1] = 0
        want = np.linalg.norm(frames, axis=0).max()
        assert st.truncated_mass == pytest.approx(want, rel=1e-12)


def test_picard_truncated_mass_counts_the_data_past_band_cap():
    # modes +-5 of the data are dropped by every iterate, exact or sampled
    phi = FourierSeries(TP, {5: 0.03, -5: 0.03, 1: 0.1, -1: 0.1})
    states = picard_solve(phi, u_squared_p1(), 1e-3, max_iter=6, band_cap=4,
                          time_samples=33)
    assert states[-1].representation.startswith("sampled")
    assert all(st.truncated_mass >= math.hypot(0.03, 0.03) for st in states[1:])


@pytest.mark.parametrize("band_cap, exact_digest, states_digest", [
    (16, "9f21b219a7bc56f7832d180e9a72487d584fabbce759bf941d288054c1febd3e",
     "72f5b0169223a5c3344e44b2102ac6396422b63f0518320eb7a2c87a6ddf7512"),
    (24, "40dcab710a7d8fbe6b4ec448d0003757797b48f8b85a4dcd7a0aa8a6b1ccb83d",
     "84d126236c86ec25d4eb30a3972b7ba57eda9d5b02378985c1152063ef6ca462"),
])
def test_picard_bytes_pinned(band_cap, exact_digest, states_digest):
    # the benchmark's Picard runs: sha256 of the exact iterates' (n, j, lam, c)
    # columns, and of every state's columns or frames with its diff norm,
    # truncated mass and term count (numpy 2.4, x86-64 with AVX-512)
    phi = FourierSeries(TP, {1: 0.1, -1: 0.1})
    states = picard_solve(phi, u_squared_p1(), 1e-3, max_iter=8, band_cap=band_cap, s=1.0,
                          time_samples=257)
    exact = [st.trajectory for st in states if st.representation == "exact"]
    assert len(exact) == 4
    def float_lam(u):  # the columns with lam as float64, as the digests were taken
        return u.n, u.j, u.lam.astype(np.float64), u.c

    digest = hashlib.sha256(b"".join(col.tobytes() for u in exact for col in float_lam(u)))
    assert digest.hexdigest() == exact_digest
    digest = hashlib.sha256()
    for st in states:
        u = st.trajectory
        for col in (float_lam(u) if isinstance(u, HarmonicTrajectory) else (u.coeffs,)):
            digest.update(np.ascontiguousarray(col).tobytes())
        digest.update(repr((st.diff_norm, st.truncated_mass, st.term_count)).encode())
    assert digest.hexdigest() == states_digest


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
# cumulative Simpson


def _grids(T):
    uniform = np.linspace(0.0, 1e-3, T)
    irregular = np.sort(np.random.default_rng(T).uniform(0.0, 1.0, T))
    return uniform, irregular


@pytest.mark.parametrize("T", [1, 2, 3, 4, 17, 256, 257])
@pytest.mark.parametrize("shape", [(), (25,)], ids=["1d", "2d"])
def test_cumulative_simpson_matches_scipy_bit_for_bit(T, shape):
    rng = np.random.default_rng(T + len(shape))
    y = rng.standard_normal(shape + (T,)) + 1j * rng.standard_normal(shape + (T,))
    y[..., ::3] = 0.0  # zero samples, so that the sign of zero is compared too
    for x in _grids(T):
        want = (cumulative_simpson(y.real, x=x, initial=0)
                + 1j * cumulative_simpson(y.imag, x=x, initial=0))
        got = _cumulative_simpson(y, x)
        assert got.shape == y.shape
        assert np.array_equal(got.view(np.float64), want.view(np.float64))
        assert np.array_equal(np.signbit(got.view(np.float64)),
                              np.signbit(want.view(np.float64)))


@pytest.mark.parametrize("T", [3, 4, 5, 17])
def test_cumulative_simpson_integrates_quadratics(T):
    # exact up to roundoff; on long unit-scale grids the running sum's own
    # roundoff reaches a few 1e-15, which the bit-for-bit test covers instead
    a, b, c = 1 - 2j, 0.5 + 1j, -3 + 0.5j
    antiderivative = lambda t: a * t + b * t**2 / 2 + c * t**3 / 3
    for x in (np.linspace(0.0, 1.0, T), _grids(T)[1]):
        got = _cumulative_simpson(a + b * x + c * x**2, x)
        want = antiderivative(x) - antiderivative(x[0])
        assert np.abs(got - want).max() <= 1e-15


# ---------------------------------------------------------------------------
# gauge transform and residuals


def _sampled(v, times):
    return SampledTrajectory(times, v.band, v.coefficients(times, v.band))


def test_gauge_zero_mean_power():
    # int v^k dx = 0 identically -> theta = 0 and u = v
    v = HarmonicTrajectory(TP, {(1, 0, -1.0): 1.0})  # v^1 has no zero mode
    theta = gauge_shift(_sampled(v, np.linspace(0.0, 1e-2, 17)), 1)
    assert np.abs(theta).max() < 1e-15


def test_gauge_constant_shift():
    c = 0.3
    v = _sampled(HarmonicTrajectory(TP, {(0, 0, 0.0): c}), np.linspace(0.0, 0.5, 33))
    theta = gauge_shift(v, 2)
    assert theta[-1] == pytest.approx(2 * math.pi * c**2 * 0.5, rel=1e-12)
    u, _ = gauge_transform(v, 2)
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
