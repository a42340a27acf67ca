import cmath
import json
import math

import numpy as np
import pytest

from dispersive_lab.kernels import sum_by_key
from dispersive_lab.torus import (
    BandCapExceeded,
    FourierSeries,
    HarmonicTrajectory,
    TorusConvention,
    bracket,
)

TWO_PI = TorusConvention.TWO_PI


def random_real_trajectory(rng, band=3):
    """Exactly real-symmetric terms on modes 0..band, each at a random
    integer frequency and at 2^40 and -1, with random secular powers; the
    zero mode gets conjugate pairs at +-lambda. Terms are in key order, as
    ``from_json`` builds them, so conjugate partners are not neighbours."""
    terms = {(0, 0, 0): complex(rng.standard_normal(), 0.0)}
    for n in range(band + 1):
        for lam in (int(rng.integers(1, 200)), 2**40, -1):
            key = (n, int(rng.integers(0, 2)), lam)
            c = complex(*rng.standard_normal(2))
            terms[key] = c
            terms[(-n, key[1], -lam)] = c.conjugate()
    return HarmonicTrajectory(TWO_PI, dict(sorted(terms.items())))


def evaluate(f, x) -> complex:
    """f at the point x, summed mode by mode."""
    return sum(c * cmath.exp(1j * n * x) for n, c in f.coeff.items())


def t_derivative(u):
    """Exact d/dt: t^j e^{i lam t} -> j t^{j-1} e^{i lam t} + i lam t^j e^{i lam t}."""
    s = u.j > 0
    return HarmonicTrajectory.from_columns(
        np.concatenate((u.n, u.n[s])),
        np.concatenate((u.j, u.j[s] - 1)), np.concatenate((u.lam, u.lam[s])),
        np.concatenate((1j * u.lam * u.c, u.j[s] * u.c[s])))


def brute_product(u, v):
    out = {}
    for (n1, j1, l1), c1 in u.terms.items():
        for (n2, j2, l2), c2 in v.terms.items():
            key = (n1 + n2, j1 + j2, l1 + l2)
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def random_series(rng, band):
    coeff = {
        n: complex(rng.standard_normal(), rng.standard_normal())
        for n in range(-band, band + 1)
    }
    return FourierSeries(TWO_PI, coeff)


def test_bracket():
    assert bracket(0) == 1.0
    assert bracket(-3) == 4.0


def test_single_mode_product():
    f = FourierSeries(TWO_PI, {1: 1.0})
    g = f.product(f)
    assert g.coeff == {2: (1 + 0j)}


def test_derivative_two_pi():
    # mode n has wavenumber n on the 2 pi torus
    f = FourierSeries(TWO_PI, {5: 1.0})
    assert HarmonicTrajectory.from_series(f).x_derivative().terms == {(5, 0, 0.0): 5j}


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
    fv = np.array([evaluate(f, x) for x in xs])
    gv = np.array([evaluate(g, x) for x in xs])
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
        u = HarmonicTrajectory.from_series(f)
        assert u.is_real_symmetric()
        assert HarmonicTrajectory.from_series(f.product(f)).is_real_symmetric()
        assert u.x_derivative().is_real_symmetric()


def test_trajectory_json_roundtrip_exact():
    u = HarmonicTrajectory(TWO_PI, {(2, 1, -32): 1.5 - 2j, (0, 0, 2**53 - 1): 1j,
                                    (-1, 0, 1 - 2**53): 0.1 + 1e-300j})
    text = u.to_json()
    v = HarmonicTrajectory.from_json(text)
    assert v.terms == u.terms and v.lam.dtype == np.int64
    for a, b in zip(u.columns, v.columns):
        assert a.tobytes() == b.tobytes()
    # lam is written as a float, as saved trajectories hold it
    assert [r["lam"] for r in json.loads(text)["terms"]] == [1.0 - 2**53, 2.0**53 - 1, -32.0]
    assert '"lam": -32.0' in text
    # tagged with the one torus
    assert json.loads(u.to_json())["convention"] == "two_pi"


def test_frequencies_are_checked_integers():
    # frequencies come in as integers, or as floats holding an integer
    def record(lam):
        return json.dumps({"convention": "two_pi",
                           "terms": [{"n": 1, "j": 0, "lam": lam, "re": 1.0, "im": 0.0}]})

    for load in (lambda lam: HarmonicTrajectory(TWO_PI, {(1, 0, lam): 1.0}),
                 lambda lam: HarmonicTrajectory.from_json(record(lam)),
                 lambda lam: HarmonicTrajectory.from_columns([1], [0], [lam], [1.0])):
        u = load(13.0)
        assert u.lam.dtype == np.int64 and u.lam.tolist() == [13]
        assert u.terms == {(1, 0, 13): 1.0 + 0j}
        for bad in (0.25, -1.0 + 1e-12, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="not an integer"):
                load(bad)
        for big in (-(2.0**53), 2.0**53, 1e300):
            with pytest.raises(BandCapExceeded):
                load(big)
    assert HarmonicTrajectory(TWO_PI, {(1, 0, 2**53 - 1): 1.0}).lam.tolist() == [2**53 - 1]
    with pytest.raises(BandCapExceeded):
        HarmonicTrajectory(TWO_PI, {(1, 0, -(2**53)): 1.0})
    with pytest.raises(BandCapExceeded):
        HarmonicTrajectory(TWO_PI, {(1, 0, 2**64): 1.0})


def test_modes_and_powers_are_checked_integers():
    # n and j are checked as lambda is: a non-integer or a negative power raises
    for key in ((1.5, 0.7, 0), (1.5, 0, 0), (1, 0.7, 0), (math.nan, 0, 0)):
        with pytest.raises(ValueError, match="not an integer"):
            HarmonicTrajectory(TWO_PI, {key: 1.0})
        with pytest.raises(ValueError, match="not an integer"):
            HarmonicTrajectory.from_columns(*([v] for v in key), [1.0])
    # a term is t^j with j >= 0; coefficients has no row for t^-1
    with pytest.raises(ValueError, match="power -1 is negative"):
        HarmonicTrajectory(TWO_PI, {(1, -1, 0): 1.0, (1, 2, 0): 1.0})
    with pytest.raises(ValueError, match="negative"):
        HarmonicTrajectory.from_columns(np.array([1]), np.array([-1]), np.array([0]), [1.0])
    # floats holding integers are taken as their integers
    u = HarmonicTrajectory(TWO_PI, {(2.0, 1.0, 0): 1.0})
    assert u.terms == {(2, 1, 0): 1 + 0j}
    assert u.n.dtype == u.j.dtype == np.int64


def test_trajectory_json_from_another_torus_rejected():
    # a record tagged with another torus must not load onto the 2 pi one
    record = json.loads(HarmonicTrajectory(TWO_PI, {(1, 0, -1.0): 1.0}).to_json())
    record["convention"] = "unit"
    with pytest.raises(ValueError):
        HarmonicTrajectory.from_json(json.dumps(record))


def test_trajectory_product_merges_terms():
    u = HarmonicTrajectory(TWO_PI, {(1, 0, -1.0): 1.0, (-1, 0, 1.0): 1.0})
    sq = u.product(u)
    assert sq.terms[(0, 0, 0.0)] == 2.0 + 0j
    assert sq.terms[(2, 0, -2.0)] == 1.0 + 0j
    assert len(sq.terms) == 3


def test_trajectory_time_derivative():
    u = HarmonicTrajectory(TWO_PI, {(1, 2, 5.0): 3.0})
    du = t_derivative(u)
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
            assert HarmonicTrajectory.from_series(u.at_time(t)).is_real_symmetric()


def blockwise_coefficients(u, times, band, block_cells=1 << 15):
    """Mode coefficients by one exp and one power per (term, time) cell, in
    blocks of the same size, each summed by sort: the per-cell oracle."""
    times = np.asarray(times, dtype=float)
    out = np.zeros((2 * band + 1, len(times)), dtype=np.complex128)
    real = u.is_real_symmetric()
    sel = ((0 if real else -band) <= u.n) & (u.n <= band)
    n, j, lam, c = (col[sel] for col in u.columns)
    step = max(1, block_cells // max(len(times), 1))
    for lo in range(0, len(c), step):
        blk = slice(lo, lo + step)
        vals = c[blk, None] * times ** j[blk, None] * np.exp(1j * lam[blk, None] * times)
        (rows,), sums = sum_by_key((n[blk],), vals)
        out[rows + band] += sums
    if real:
        out[:band] = np.conj(out[:band:-1])
        out[band] = out[band].real
    return out


def repeated_trajectory(rng, real, count=3000):
    """Terms on modes -40..40 with j up to 5 that share a few hundred frequencies."""
    lams = rng.integers(-10**6, 10**6, 300).astype(float)
    terms = {}
    for _ in range(count):
        n, j, lam = int(rng.integers(0, 41)), int(rng.integers(0, 6)), float(rng.choice(lams))
        c = complex(*rng.standard_normal(2))
        terms[(n, j, lam)] = c
        terms[(-n, j, -lam)] = c.conjugate() if real else complex(*rng.standard_normal(2))
    for key in list(terms):
        if key[0] == 0 and key[2] == 0.0:
            terms[key] = complex(terms[key].real)
    return HarmonicTrajectory(TWO_PI, terms)


@pytest.mark.parametrize("samples", [1, 33, 257])
def test_coefficients_match_per_cell_evaluation(samples):
    rng = np.random.default_rng(samples)
    times = np.linspace(0.0, 1e-3, samples) + (0.3 if samples == 1 else 0.0)
    for real in (True, False):
        u = repeated_trajectory(rng, real)
        assert u.is_real_symmetric() == real
        assert len(np.unique(u.lam)) < u.term_count() // 4
        for band in (40, 17):
            got = u.coefficients(times, band)
            assert got.tobytes() == blockwise_coefficients(u, times, band).tobytes()
        # and the plain sum of c t^j e^{i lam t} over every term, mode by mode
        want = np.zeros((81, samples), dtype=np.complex128)
        size = np.zeros((81, samples))
        for n, j, lam, c in u.rows():
            cell = c * times**j * np.exp(1j * lam * times)
            want[n + 40] += cell
            size[n + 40] += np.abs(cell)
        got = u.coefficients(times, 40)
        assert np.all(np.abs(got - want) <= 1e-13 * size)


def test_real_flag_agrees_with_the_full_test():
    rng = np.random.default_rng(21)
    for _ in range(12):
        u, v = random_real_trajectory(rng), random_real_trajectory(rng)
        w = HarmonicTrajectory(TWO_PI, {(2, 0, 13.0): complex(0.6, -0.8), (-2, 0, -13.0): 0.6})
        for x in (u.product(v), u + v, (u + v).truncated(2)[0], u.product(w), u + w,
                  (u + w).truncated(2)[0], (u + w).truncated(1)[0], w.truncated(2)[0],
                  u.scaled(0.5), u.x_derivative(),
                  HarmonicTrajectory.from_columns(*u.columns, True)):
            flag = x.is_real_symmetric()
            fresh = HarmonicTrajectory.from_columns(*x.columns)  # not recorded: the full test
            assert flag == fresh.is_real_symmetric()
        assert not (u + w).truncated(2)[0].is_real_symmetric() and u.product(v)._real
        assert (u + v)._real and (u + v).truncated(2)[0]._real


def test_scaled_and_constant_record_the_full_test_answer():
    # scaled() by a finite real alpha and constant() record the flag without
    # the lexsort test; where they record it, it is that test's answer, on
    # symmetric inputs, non-symmetric ones and non-finite amplitudes
    rng = np.random.default_rng(24)
    odd = HarmonicTrajectory(TWO_PI, {(2, 0, 13.0): complex(0.6, -0.8)})
    infinite = HarmonicTrajectory(TWO_PI, {(0, 0, 0.0): math.inf, (1, 0, 2.0): 1 + 1j,
                                           (-1, 0, -2.0): 1 - 1j})
    recorded = 0
    for _ in range(12):
        u = random_real_trajectory(rng)
        x = float(rng.standard_normal())
        real = (0.5, -math.tau, x, 0.0, 2, 5e-324, 1e308, complex(x, 0.0), complex(x, -0.0))
        for v in (u, u + odd, u.product(odd), infinite):
            v.is_real_symmetric()  # known, as inside a Picard step
            for alpha in real + (complex(x, 1e-300), 1j, math.inf, math.nan):
                with np.errstate(over="ignore", invalid="ignore"):  # inf and nan cases
                    got = v.scaled(alpha)
                fresh = HarmonicTrajectory.from_columns(*got.columns).is_real_symmetric()
                assert got._real is (True if v is u and alpha in real else None), alpha
                if got._real:
                    assert fresh, alpha
                    recorded += 1
        for c in (x, 0.0, -0.0, complex(x, 0.0), complex(x, -0.0), complex(x, x), 1e-300j,
                  math.inf, math.nan, complex(math.inf, 1.0)):
            got = u.constant(c)
            assert got._real == HarmonicTrajectory.from_columns(*got.columns).is_real_symmetric()
    assert recorded == 12 * 9


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
