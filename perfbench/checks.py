"""Correctness checks shared by the workloads.

Exact integers are compared bit for bit with references stored from a
known-good commit (see make_references.py). Floats are compared at the
tolerances the acceptance criteria and module tests state. A Monte Carlo
estimate must lie within four combined standard errors of a reference run
with at least ten times the samples; seed-varied inputs are checked by
invariants instead.
"""

from __future__ import annotations

import math

MC_Z = 4.0


class Mismatch(Exception):
    """A result disagrees with its reference or breaks an invariant."""


def require(condition, what: str):
    if not condition:
        raise Mismatch(what)


def exact(got, want, what: str):
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, reference {want!r}")


def close(got, want, what: str, rtol: float = 0.0, atol: float = 0.0):
    if not abs(got - want) <= atol + rtol * abs(want):
        raise Mismatch(f"{what}: got {got!r}, reference {want!r} (rtol {rtol}, atol {atol})")


def h1_distance(a, b) -> float:
    """sum (1+|n|)^2 |a_n - b_n|^2, square-rooted, for zero-centred coefficient lists."""
    band = (len(a) - 1) // 2
    return math.sqrt(sum((1 + abs(i - band)) ** 2 * abs(x - y) ** 2
                         for i, (x, y) in enumerate(zip(a, b))))


def mc_standard_error(p_ref: float, n: int, ref_n: int, estimate: float | None = None) -> float:
    """Combined standard error of an n-sample estimate against an ref_n-sample reference.

    Each side uses a binomial variance; the estimate side takes the larger of
    the two proportions (and at least one hit), so a run with few or no hits
    is not judged by a vanishing variance.
    """
    p_est = max(p_ref, 1.0 / n, estimate if estimate is not None else 0.0)
    p_r = max(p_ref, 1.0 / ref_n)
    return math.sqrt(p_est * (1 - p_est) / n + p_r * (1 - p_r) / ref_n)


def mc_agrees(estimate: float, n: int, ref_hits: int, ref_n: int, what: str):
    if ref_n < 10 * n:
        raise Mismatch(f"{what}: reference has {ref_n} samples, fewer than 10 x {n}")
    p_ref = ref_hits / ref_n
    se = mc_standard_error(p_ref, n, ref_n, estimate)
    if abs(estimate - p_ref) > MC_Z * se:
        raise Mismatch(f"{what}: estimate {estimate:.6g} vs reference {p_ref:.6g}, "
                       f"{abs(estimate - p_ref) / se:.1f} combined SE > {MC_Z}")
