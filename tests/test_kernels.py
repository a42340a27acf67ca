import numpy as np
import pytest

from dispersive_lab import kernels
from dispersive_lab.weyl import dirichlet_curve_kernel


def test_curve_sum_matches_scalar_kernel():
    x = np.array([0.21, 0.9])
    t = np.array([0.47, 0.05])
    vals = kernels.curve_sum(np.ones(2 * 7 + 1, dtype=complex), 3, x, t)
    for i in range(2):
        want = dirichlet_curve_kernel(7, 3, float(x[i]), float(t[i]))
        assert vals[i] == pytest.approx(want, abs=1e-10)


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
    lam = rng.integers(-4, 5, 400).astype(float)
    lam[rng.random(400) < 0.5] *= -1.0  # the zero frequency appears as both -0.0 and 0.0
    assert np.any(np.signbit(lam) & (lam == 0.0))
    vals = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    for cols in ((n,), (n, j, lam)):
        keys, sums = kernels.sum_by_key(cols, vals)
        rows = list(zip(*(c.tolist() for c in keys)))
        want = _dict_sums(zip(*(c.tolist() for c in cols)), vals.tolist())
        assert rows == sorted(want)  # unique, in lexicographic order
        assert not np.any(np.signbit(keys[-1]) & (keys[-1] == 0.0))
        for row, s in zip(rows, sums):
            assert abs(s - want[row]) <= 1e-12


def test_sum_by_key_exact_integers_and_empty():
    keys = np.array([7, -2, 7, 7, -2, 0], dtype=np.int64)
    (uniq,), sums = kernels.sum_by_key((keys,), np.array([1, 2, 3, 4, 5, 6], dtype=np.int64))
    assert uniq.tolist() == [-2, 0, 7] and sums.tolist() == [7, 6, 8]
    (uniq, lam), sums = kernels.sum_by_key((np.zeros(0, np.int64), np.zeros(0)),
                                           np.zeros(0, complex))
    assert len(uniq) == len(lam) == len(sums) == 0
