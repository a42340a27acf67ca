import json
import math

import numpy as np
import pytest

from dispersive_lab.torus import (
    BandCapExceeded,
    ConventionMismatch,
    FourierSeries,
    HarmonicTrajectory,
    TorusConvention,
    bracket,
)

UNIT = TorusConvention.UNIT
TWO_PI = TorusConvention.TWO_PI


def random_real_trajectory(rng, band=3):
    """Exactly real-symmetric terms on modes 0..band, each at a random
    integer frequency and at the non-integer 0.25 and -1 + 1e-12, with
    random secular powers; the zero mode gets conjugate pairs at +-lambda.
    Terms are in key order, as ``from_json`` builds them, so conjugate
    partners are not neighbours."""
    terms = {(0, 0, 0.0): complex(rng.standard_normal(), 0.0)}
    for n in range(band + 1):
        for lam in (float(rng.integers(1, 200)), 0.25, -1.0 + 1e-12):
            key = (n, int(rng.integers(0, 2)), lam)
            c = complex(*rng.standard_normal(2))
            terms[key] = c
            terms[(-n, key[1], -lam)] = c.conjugate()
    return HarmonicTrajectory(TWO_PI, dict(sorted(terms.items())))


def brute_product(u, v):
    out = {}
    for (n1, j1, l1), c1 in u.terms.items():
        for (n2, j2, l2), c2 in v.terms.items():
            key = (n1 + n2, j1 + j2, l1 + l2)
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def random_series(rng, band, convention=TWO_PI):
    coeff = {
        n: complex(rng.standard_normal(), rng.standard_normal())
        for n in range(-band, band + 1)
    }
    return FourierSeries(convention, coeff)


def test_bracket():
    assert bracket(0) == 1.0
    assert bracket(-3) == 4.0


def test_single_mode_product():
    f = FourierSeries(TWO_PI, {1: 1.0})
    g = f.product(f)
    assert g.coeff == {2: (1 + 0j)}


def test_derivative_two_pi():
    f = FourierSeries(TWO_PI, {5: 1.0})
    assert f.derivative()[5] == 5j


def test_derivative_unit_convention():
    f = FourierSeries(UNIT, {3: 1.0})
    assert f.derivative()[3] == pytest.approx(2j * math.pi * 3)


def test_convention_mismatch_rejected():
    f = FourierSeries(UNIT, {1: 1.0})
    g = FourierSeries(TWO_PI, {1: 1.0})
    with pytest.raises(ConventionMismatch):
        f.product(g)
    with pytest.raises(ConventionMismatch):
        _ = f + g


def test_band_cap():
    f = FourierSeries(TWO_PI, {100: 1.0})
    with pytest.raises(BandCapExceeded):
        f.product(f, band_cap=150)


def test_convolution_matches_grid_sampling():
    # pointwise multiplication on a 64-point grid + DFT, 1e-10 relative
    rng = np.random.default_rng(7)
    f = random_series(rng, 8)
    g = random_series(rng, 8)
    h = f.product(g)
    M = 64
    xs = 2 * math.pi * np.arange(M) / M
    fv = np.array([f.evaluate(x) for x in xs])
    gv = np.array([g.evaluate(x) for x in xs])
    hv = fv * gv
    spec = np.fft.fft(hv) / M
    for n in range(-16, 17):
        got = h[n]
        want = spec[n % M]
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def test_reality_preserved_exactly():
    rng = np.random.default_rng(3)
    for _ in range(20):
        half = {
            n: complex(rng.standard_normal(), rng.standard_normal())
            for n in range(1, 6)
        }
        coeff = {0: complex(rng.standard_normal(), 0.0)}
        for n, c in half.items():
            coeff[n] = c
            coeff[-n] = c.conjugate()
        f = FourierSeries(TWO_PI, coeff)
        assert f.is_real_symmetric()
        assert f.product(f).is_real_symmetric()
        assert f.derivative().is_real_symmetric()


def test_series_json_roundtrip_exact():
    rng = np.random.default_rng(11)
    f = random_series(rng, 6, convention=UNIT)
    g = FourierSeries.from_json(f.to_json())
    assert g.convention is UNIT
    assert g.coeff == f.coeff
    # tagged with the convention
    assert json.loads(f.to_json())["convention"] == "unit"


def test_trajectory_json_roundtrip_exact():
    u = HarmonicTrajectory(TWO_PI, {(2, 1, -32.0): 1.5 - 2j, (0, 0, 0.25): 1j})
    v = HarmonicTrajectory.from_json(u.to_json())
    assert v.terms == u.terms


def test_trajectory_product_merges_terms():
    u = HarmonicTrajectory(TWO_PI, {(1, 0, -1.0): 1.0, (-1, 0, 1.0): 1.0})
    sq = u.product(u)
    assert sq.terms[(0, 0, 0.0)] == 2.0 + 0j
    assert sq.terms[(2, 0, -2.0)] == 1.0 + 0j
    assert len(sq.terms) == 3


def test_trajectory_time_derivative():
    u = HarmonicTrajectory(TWO_PI, {(1, 2, 5.0): 3.0})
    du = u.t_derivative()
    assert du.terms[(1, 1, 5.0)] == 6.0
    assert du.terms[(1, 2, 5.0)] == 15j


def test_trajectory_evaluate_consistency():
    u = HarmonicTrajectory(TWO_PI, {(2, 1, -4.0): 1.0 + 1j})
    t = 0.7
    f = u.at_time(t)
    want = (1 + 1j) * t * np.exp(-4j * t)
    assert abs(f[2] - want) < 1e-15


def test_real_trajectory_evaluates_exactly_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(10):
        u = random_real_trajectory(rng)
        assert u.is_real_symmetric()
        times = np.linspace(0.0, 0.9, 7)
        coeffs = u.coefficients(times, 5)
        assert np.array_equal(coeffs[::-1], np.conj(coeffs))
        for t in times:
            assert u.at_time(t).is_real_symmetric()


def test_real_product_matches_brute_force():
    rng = np.random.default_rng(8)
    for _ in range(10):
        u, v = random_real_trajectory(rng), random_real_trajectory(rng)
        got = u.product(v)
        assert got.is_real_symmetric()
        want = brute_product(u, v)
        scale = max(abs(c) for c in want.values())
        for key in set(got.terms) | set(want):
            assert abs(got.terms.get(key, 0j) - want.get(key, 0j)) <= 1e-15 * scale


def test_real_times_nonreal_product_sums_in_full():
    # a single-mode forcing is not real, so the canonical-key rule must not fire
    rng = np.random.default_rng(9)
    u = random_real_trajectory(rng)
    forcing = HarmonicTrajectory(TWO_PI, {(2, 0, 13.0): complex(0.6, -0.8)})
    assert not forcing.is_real_symmetric()
    for got in (u.product(forcing), forcing.product(u)):
        want = brute_product(u, forcing)
        assert set(got.terms) == {k for k, c in want.items() if c != 0}
        for key, c in want.items():
            assert abs(got.terms.get(key, 0j) - c) <= 1e-15 * abs(c)


def test_product_does_not_depend_on_insertion_order():
    rng = np.random.default_rng(3)
    terms = {}
    for _ in range(60):
        key = (int(rng.integers(0, 5)), 0, float(rng.integers(-20, 20)))
        c = complex(*rng.standard_normal(2))
        if key[0] == 0 and key[2] == 0.0:
            c = complex(c.real)
        terms[key] = c
        terms[(-key[0], 0, -key[2])] = c.conjugate()
    items = sorted(terms.items())
    shuffled = [items[i] for i in rng.permutation(len(items))]
    u = HarmonicTrajectory(TWO_PI, dict(items))
    v = HarmonicTrajectory(TWO_PI, dict(shuffled))
    assert u.is_real_symmetric() and v.is_real_symmetric()
    assert u.product(u).to_json() == v.product(v).to_json()


def test_frequency_guard_at_2_pow_53():
    # every integer below 2^53 is a float64; a sum reaching it raises
    near = 2.0**52
    u = HarmonicTrajectory(TWO_PI, {(1, 0, near): 1.0})
    assert u.terms == {(1, 0, near): 1.0 + 0j}
    with pytest.raises(BandCapExceeded):
        u.product(u)
    with pytest.raises(BandCapExceeded):
        HarmonicTrajectory(TWO_PI, {(0, 0, -(2.0**53)): 1.0})


def test_truncation_reports_mass():
    u = HarmonicTrajectory(TWO_PI, {(1, 0, 0.0): 3.0, (9, 0, 0.0): 4.0})
    v, dropped = u.truncated(5)
    assert v.band == 1
    assert dropped == pytest.approx(4.0)
