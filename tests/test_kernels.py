import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from dispersive_lab import kernels
from dispersive_lab.kernels import BandCapExceeded
from dispersive_lab.norms import _window_table
from dispersive_lab.weyl import MOMENTS, XI_MOMENTS, BumpSpec, minor_arc_points

ULP = 2.0**-53


def _exact_curve_sum(coeff, d, x, t):
    """(values, error bounds) of sum_n a_n e(phi_n) at every point, with phi_n =
    n x + n^d t reduced mod 1 in rational arithmetic on the float inputs.

    The bound allows, per mode, the rounding of n x and, for float t, of
    n^d t (|p| 2^-53 each, in cycles), a few ulps for the reduction, the
    2 pi scaling, cos/sin and the oracle's own phase, and one ulp of
    sum |a_n| per mode for the summation.
    """
    N = len(coeff) // 2
    modes = [(k - N, complex(coeff[k])) for k in np.flatnonzero(coeff).tolist()]
    mass = sum(abs(a) for _, a in modes)
    values, bounds = [], []
    for i, xi in enumerate(np.asarray(x).tolist()):
        ti = t if isinstance(t, Fraction) else float(t[i])
        total, err = 0j, len(modes) * mass * ULP
        for n, a in modes:
            phase = (Fraction(xi) * n + Fraction(ti) * n**d) % 1
            total += a * cmath.exp(2j * math.pi * float(phase))
            rounded = abs(n * xi) + (0.0 if isinstance(t, Fraction) else abs(n**d * ti))
            err += abs(a) * 2 * math.pi * (rounded + 4) * ULP
        values.append(total)
        bounds.append(err)
    return np.array(values), np.array(bounds)


def _single_mode(n, N=256):
    a = np.zeros(2 * N + 1)
    a[n + N] = 1.0
    return a


def _oracle_cases():
    rng = np.random.default_rng(11)
    modes = (-256, -255, -97, -2, -1, 0, 1, 2, 97, 255, 256)
    cases = {}
    for d in (3, 5):
        x, t = rng.random(25), rng.random(25)
        cases[f"single-mode-d{d}-float-t"] = [(_single_mode(n), d, x, t) for n in modes]
        arcs = minor_arc_points(6, d, 2, seed=d)
        cases[f"single-mode-d{d}-fraction-t"] = [(_single_mode(n), d, x, ft)
                                                 for n in modes for ft, _, _ in arcs]
    # the inputs of the two tests that compared curve_sum with a scalar kernel loop
    cases["kernel-N7-d3"] = [(np.ones(2 * 7 + 1), 3, np.array([0.21, 0.9]),
                              np.array([0.47, 0.05]))]
    rng = np.random.default_rng(3)
    x = rng.random(40)
    cases["kernel-grid-N12-d3"] = [(np.ones(2 * 12 + 1), 3, x, rng.random(40))]
    # one case per plan branch: odd d folds n and -n into a cos and a sin block,
    # and a block whose weights all vanish is skipped; even d keeps every mode
    rng = np.random.default_rng(17)
    a = rng.normal(size=25) + 1j * rng.normal(size=25)  # n in [-12, 12], a_n != a_{-n}
    x, t = rng.random(30), rng.random(30)
    odd = a - a[::-1]
    odd[12] = 0.0
    cases["folded-both-blocks"] = [(a, d, x, t) for d in (3, 5)]
    cases["folded-cos-only"] = [(a + a[::-1], d, x, t) for d in (3, 5)]
    cases["folded-sin-only"] = [(odd, d, x, t) for d in (3, 5)]
    cases["unfolded-even-d"] = [(a, d, x, t) for d in (2, 4)]
    cases["all-zero-coeff"] = [(np.zeros(25), d, x, t) for d in (2, 3)]
    cases["single-point"] = [(a, d, x[:1], t[:1]) for d in (2, 3)]
    cases["folded-fraction-t"] = [(a, 3, x, Fraction(12345, 65537)),
                                  (a + a[::-1], 5, x, Fraction(-7, 1024))]
    return cases


ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_curve_sum_matches_exact_phases(case):
    for coeff, d, x, t in ORACLE_CASES[case]:
        got = kernels.curve_sum(coeff, d, x, t)
        want, bound = _exact_curve_sum(coeff, d, x, t)
        assert np.all(np.abs(got - want) <= bound), np.max(np.abs(got - want) / bound)


@pytest.mark.parametrize("d,N", [(5, 1552), (7, 190)])
def test_curve_sum_float_t_guard_boundary(d, N):
    # N^d < 2^53 <= (N+1)^d: a float t evaluates at N and raises one mode later
    x, t = np.array([0.3, 0.8]), np.array([0.7, 0.1])
    vals = kernels.curve_sum(np.ones(2 * N + 1), d, x, t)
    assert np.all(np.isfinite(vals)) and np.all(np.abs(vals) <= 2 * N + 1)
    with pytest.raises(BandCapExceeded, match=r"2\^53"):
        kernels.curve_sum(np.ones(2 * N + 3), d, x, t)
    # a Fraction t is reduced exactly at any n
    coeff = _single_mode(N + 1, N + 1)
    got = kernels.curve_sum(coeff, d, x, Fraction(7, 10))
    want, bound = _exact_curve_sum(coeff, d, x, Fraction(7, 10))
    assert np.all(np.abs(got - want) <= bound)


def test_curve_plan_evaluates_only_live_blocks():
    # a_n = a_{-n} needs only cos, a_n = -a_{-n} only sin, both otherwise; even d both
    a = np.arange(1.0, 10.0) + 1j
    for coeff, d, funcs in ((a + a[::-1], 3, (np.cos,)), (a - a[::-1], 3, (np.sin,)),
                            (a, 3, (np.cos, np.sin)), (a + a[::-1], 2, (np.cos, np.sin)),
                            (np.zeros(9), 3, ())):
        plan = kernels.CurvePlan(coeff, d)
        assert plan._funcs == funcs
        x, t = np.array([0.1, 0.7]), np.array([0.3, 0.9])
        # a plan called again, or on part of the points, gives the one-shot values
        assert np.array_equal(plan(x, t), kernels.curve_sum(coeff, d, x, t))
        assert np.array_equal(plan(x[1:], t[1:]), kernels.curve_sum(coeff, d, x[1:], t[1:]))


def test_curve_sum_validates_shapes():
    with pytest.raises(ValueError):
        kernels.curve_sum(np.ones(4, dtype=complex), 3, np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError):
        kernels.curve_sum(np.ones(3, dtype=complex), 3, np.zeros(3), np.zeros(2))


def _dict_sums(key_rows, vals):
    out = {}
    for key, v in zip(key_rows, vals):
        out[key] = out.get(key, 0) + v
    return out


def test_sum_by_key_matches_dict_accumulation():
    rng = np.random.default_rng(5)
    n = rng.integers(-3, 4, 400)
    j = rng.integers(0, 2, 400)
    lam = rng.integers(-4, 5, 400)
    vals = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    for cols in ((n,), (n, j, lam)):
        keys, sums = kernels.sum_by_key(cols, vals)
        rows = list(zip(*(c.tolist() for c in keys)))
        want = _dict_sums(zip(*(c.tolist() for c in cols)), vals.tolist())
        assert rows == sorted(want)  # unique, in lexicographic order
        assert all(c.dtype == np.int64 for c in keys)
        for row, s in zip(rows, sums):
            assert abs(s - want[row]) <= 1e-12


def test_sum_by_key_exact_integers_and_empty():
    keys = np.array([7, -2, 7, 7, -2, 0], dtype=np.int64)
    (uniq,), sums = kernels.sum_by_key((keys,), np.array([1, 2, 3, 4, 5, 6], dtype=np.int64))
    assert uniq.tolist() == [-2, 0, 7] and sums.tolist() == [7, 6, 8]
    (uniq, lam), sums = kernels.sum_by_key((np.zeros(0, np.int64), np.zeros(0, np.int64)),
                                           np.zeros(0, complex))
    assert len(uniq) == len(lam) == len(sums) == 0


def test_sum_by_key_refuses_non_integer_key_columns():
    # keys are signed integers; a float column, even of integer values, is refused
    ints = np.arange(5000) % 7
    vals = np.ones(5000)
    for bad in (ints.astype(float), ints.astype(np.uint64), ints.astype(bool),
                ints.astype(complex)):
        for n in (5000, 3, 0):
            for cols in ((bad[:n],), (ints[:n], bad[:n])):
                with pytest.raises(TypeError):
                    kernels.sum_by_key(cols, vals[:n])


def _lexsort_sum_by_key(key_columns, vals):
    """The reducer through a stable np.lexsort on every input: the oracle."""
    order = np.lexsort(key_columns[::-1])
    vals = vals[order]
    keys = [col[order] for col in key_columns]
    new = np.zeros(len(vals), dtype=bool)
    new[:1] = True
    for col in keys:
        new[1:] |= col[1:] != col[:-1]
    starts = np.flatnonzero(new)
    return [col[starts] for col in keys], np.add.reduceat(vals, starts)


def _packs(monkeypatch, key, vals):
    """Whether sum_by_key reduces ``key`` (a column, or a tuple of columns) as
    packed words, i.e. without np.lexsort; asserts that its keys and sums
    equal the oracle's, dtype and bytes."""
    cols = key if isinstance(key, tuple) else (key,)
    calls = []
    lexsort = np.lexsort
    with monkeypatch.context() as m:
        m.setattr(np, "lexsort", lambda cols: calls.append(len(cols)) or lexsort(cols))
        keys, sums = kernels.sum_by_key(cols, vals)
    want_keys, want_sums = _lexsort_sum_by_key(cols, vals)
    for got, want in zip(keys, want_keys, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert sums.dtype == want_sums.dtype and sums.shape == want_sums.shape
    assert sums.tobytes() == want_sums.tobytes()
    return not calls


def test_sum_by_key_packed_is_byte_identical_to_lexsort(monkeypatch):
    rng = np.random.default_rng(11)
    rows = 3 * kernels._PACK_ROWS
    dup = rng.integers(0, 300, rows)  # many duplicates, nonnegative: packed as they are
    neg = rng.integers(-500, 20, rows)  # negative keys: packed less their minimum
    counts = rng.integers(1, 1 << 40, rows)
    flat = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    grid = rng.standard_normal((rows, 5)) + 1j * rng.standard_normal((rows, 5))  # (rows, times)
    for key in (dup, neg):
        for vals in (counts, flat, grid):
            assert _packs(monkeypatch, key, vals)
    # runs of increasing keys, as a delta-major signature level lays them out
    runs = (np.sort(rng.integers(0, 4000, (9, rows // 9)))
            + rng.integers(0, 40, 9)[:, None]).ravel()
    assert _packs(monkeypatch, runs, counts[:len(runs)])
    # fewer rows, a single row and an empty input take np.lexsort, with the same result
    for n in (kernels._PACK_ROWS - 1, 1, 0):
        assert not _packs(monkeypatch, dup[:n], flat[:n])
        assert not _packs(monkeypatch, dup[:n], grid[:n])


def test_sum_by_key_packing_never_wraps(monkeypatch):
    rng = np.random.default_rng(12)
    rows = 5000
    bits = (rows - 1).bit_length()  # 13 row bits leave 49 key bits
    vals = rng.integers(-9, 10, rows)
    # narrow integer columns are widened before the shift: shifted in int32 they would wrap
    for dtype in (np.int16, np.int32):
        info = np.iinfo(dtype)
        key = rng.integers(info.min, info.max, rows, dtype=dtype, endpoint=True)
        key[:40] = key[40:80]  # some duplicates
        key[80], key[81] = info.min, info.max
        assert _packs(monkeypatch, key, vals)
    # keys next to +-2^62: a small span, packed less the minimum
    small = rng.integers(0, 64, rows)
    for base in (2**62 - 64, -(2**62)):
        assert _packs(monkeypatch, base + small, vals)
    # the widest span that packs, and one more, which takes np.lexsort
    for span, packed in ((2 ** (62 - bits) - 1, True), (2 ** (62 - bits), False)):
        for lo in (0, -3, 2**62):
            key = lo + small
            key[[7, 3000, 4999]] = lo + span
            key[100] = lo
            assert _packs(monkeypatch, key, vals) == packed, (span, lo)
    # a span of 2^63 or more does not even fit int64 arithmetic, and is not packed
    key = rng.integers(-(2**63), 2**63 - 1, rows, endpoint=True)
    key[:2] = -(2**63), 2**63 - 1
    assert not _packs(monkeypatch, key, vals)


@pytest.mark.parametrize("table", [BumpSpec().fourier_transform, _window_table(3)],
                         ids=["bump-4-point", "window-j3-8-point"])
def test_tabulated_read_at_a_node_returns_the_entry(table):
    # the Lagrange-to-monomial matrix has an exact unit row 0, so a read whose
    # cell offset is exactly 0 returns the rule's value at that node bit for
    # bit, and its conjugate at -w; the rule is re-evaluated on the grid that
    # filled the table, so its rounding is the table's
    n = np.arange(-800, 801)
    w = n * table.step
    n, w = n[w / table.step == n], w[w / table.step == n]
    assert len(n) > 800 and 0 in n
    got = table(w)
    nodes = np.arange(table._nodes[0], table._coef.shape[1] + table._nodes[-1])
    want = table.direct(nodes * table.step)[np.abs(n) - nodes[0]]
    assert np.array_equal(got, np.where(n < 0, np.conj(want), want))


def test_taylor_series_is_the_rule():
    # sum_m a_m w^m against the trapezoid rule it expands, where every node
    # phase |w tau| is at most 1 (at most XI_MOMENTS for the bump)
    table = BumpSpec().fourier_transform
    reach = abs(table.centre) + table.offsets.max()
    w = np.linspace(-1.0, 1.0, 201) * min(XI_MOMENTS, 1.0 / reach)
    got = np.polyval(table.taylor(MOMENTS)[::-1], w)
    assert np.abs(got - table.direct(w)).max() <= 1e-15 * np.abs(table.weights).sum()


def test_sum_by_key_packs_several_integer_valued_columns(monkeypatch):
    rng = np.random.default_rng(13)
    rows = 3000  # 12 row bits leave 50 key bits
    assert rows >= kernels._PACK_ROWS_MULTI
    n = rng.integers(-40, 41, rows)
    j = rng.integers(0, 4, rows)
    lam = rng.choice(rng.integers(-2**30, 2**30, 200), rows)  # duplicates
    lam[:300] = 0
    vals = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
    grid = rng.standard_normal((rows, 3)) + 1j * rng.standard_normal((rows, 3))
    for cols in ((n, j, lam), (n, lam), (j.astype(np.int32), n, lam, j),
                 (lam, n), (np.sort(n), j, lam)):
        for v in (vals, grid, rng.integers(-9, 10, rows)):
            assert _packs(monkeypatch, cols, v)
    # a frequency column whose span, beside n and j, passes the word takes np.lexsort
    for wide in (2**53, -(2**53), 2**60, -(2**63), 2**63 - 1):
        odd = lam.copy()
        odd[17] = wide
        assert not _packs(monkeypatch, (n, j, odd), vals), wide
    near = lam.copy()
    near[17] = 2**53 - 1  # a span past 50 bits
    assert not _packs(monkeypatch, (n, near), vals)
    # fewer rows take np.lexsort, with the same result
    for k in (kernels._PACK_ROWS_MULTI - 1, 1, 0):
        assert not _packs(monkeypatch, (n[:k], j[:k], lam[:k]), vals[:k])


def test_sum_by_key_multi_column_span_limit(monkeypatch):
    rng = np.random.default_rng(14)
    rows = 3000
    bits = (rows - 1).bit_length()
    vals = rng.integers(-9, 10, rows)
    # spans 16, 2 and 2^(57 - bits) multiply to exactly 2^(62 - bits): the widest that packs
    n = rng.integers(0, 16, rows) - 7
    j = rng.integers(0, 2, rows)
    for lo in (0, -(2**52), 2**52 - 2**45):
        for extra, packed in ((0, True), (1, False)):
            span = 2 ** (62 - bits - 5) + extra
            lam = lo + rng.integers(0, span, rows)
            lam[[5, 99]] = lo, lo + span - 1
            n[[5, 99]] = -7, 8
            j[[5, 99]] = 0, 1
            assert _packs(monkeypatch, (n, j, lam), vals) == packed, (lo, extra)
    # one column of span 1 beside one of span 2^(62 - bits), and of one more
    for extra, packed in ((0, True), (1, False)):
        span = 2 ** (62 - bits) + extra
        key = rng.integers(0, span, rows)
        key[[5, 99]] = 0, span - 1
        assert _packs(monkeypatch, (np.full(rows, 3), key), vals) == packed
    # int64 columns near +-2^62 pack less their minimum, without wrapping
    small = rng.integers(0, 64, rows)
    for base in (2**62 - 64, -(2**62)):
        assert _packs(monkeypatch, (j, base + small, small), vals)
