"""The curve-sum kernel, the hot loop of Monte Carlo level-set scans."""

from __future__ import annotations

import numpy as np

HAVE_COMPILED = False  # numpy is the only backend; kept for run records


def curve_sum(coeff, d: int, x, t, scale: float = 2.0 * np.pi) -> np.ndarray:
    """Evaluate F(x_i, t_i) = sum_n a_n e^{i scale (n x_i + n^d t_i)}.

    ``coeff`` covers n in [-N, N]; mode frequencies n^d are float64, exact
    for |n|^d below 2^53.
    """
    coeff = np.ascontiguousarray(coeff, dtype=np.complex128)
    if len(coeff) % 2 != 1:
        raise ValueError("coeff must cover n in [-N, N]")
    N = len(coeff) // 2
    modes = np.arange(-N, N + 1, dtype=np.int64)
    powers = (modes.astype(object) ** d).astype(np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    t = np.ascontiguousarray(t, dtype=np.float64)
    if x.shape != t.shape:
        raise ValueError("x and t must have matching shapes")
    scale = float(scale)
    out_re = np.zeros(len(x))
    out_im = np.zeros(len(x))
    for n, p, c in zip(modes, powers, coeff):
        if c == 0:
            continue
        phase = scale * (n * x + p * t)
        cr, ci = c.real, c.imag
        cos_p = np.cos(phase)
        sin_p = np.sin(phase)
        out_re += cr * cos_p - ci * sin_p
        out_im += cr * sin_p + ci * cos_p
    return out_re + 1j * out_im
