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
