"""Weyl sums, continued-fraction rational approximation, and the Farey bump kernel split.

The circle-method side of the lab: a smooth bump is planted on the Farey
arcs [a/q + 1/(200 q^2), a/q + 1/(100 q^2)] for q in [Q, 5Q], and its
Fourier coefficients Phi_hat(k) come from one batched evaluator,
``PhiData.phi_hat_many``, with two paths chosen for each k by its own
xi = |k|/Q^2, so a coefficient does not depend on the rest of its call.
Up to ``XI_MOMENTS`` (the kernel regime Q = N^(d-1), k <= 2 N^d has
xi <= 2 N^(2-d): inside it for d >= 3, while d = 2 takes the table path
past k = Q^2) the bump transform is its own short Taylor series, and with
c_q(k) = sum_{delta | (q, k)} delta mu(q/delta) the sum over q collapses
onto the divisors delta <= 5Q of k: O(tau(k)) work per coefficient against
tail sums of mu(j) j^(-2-2m) tabulated once per Q. Past it, every (k, q)
cell gets an exact Ramanujan sum and a read of the tabulated transform,
O(Q) work per coefficient. The Dirichlet curve kernel K_N splits into a
bounded major-arc part and a part with uniformly small Fourier coefficients
vanishing on the curve. The bump's real-line
transform is ``kernels.TabulatedTransform`` of a 256-interval trapezoid
rule, the evaluator that also serves the windows of ``norms``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .counting import DEFAULT_SIEVE_LIMIT, _divisors, mobius_phi_sieve, ramanujan_sum
from .kernels import CurvePlan, TabulatedTransform, curve_sum

TWO_PI = 2.0 * math.pi
# phi_hat_many takes the moment path for each k whose xi = |k|/q^2 is at
# most XI_MOMENTS, with the bump transform's Taylor series cut after MOMENTS
# terms: the least M with x^M / M! <= 2^-53 at x = 2 pi XI_MOMENTS / 100, the
# remainder bound relative to F phi(0) (the bump lives on t <= 1/100)
XI_MOMENTS = 1.0
MOMENTS = next(m for m in range(1, 64)
               if (TWO_PI * XI_MOMENTS / 100) ** m / math.factorial(m) <= 2.0**-53)


@dataclass(frozen=True)
class RationalApprox:
    """Reduced fraction a/q with |t - a/q| <= 1/q^2."""

    a: int
    q: int
    t: float

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("q must be positive")
        if math.gcd(self.a, self.q) != 1:
            raise ValueError("a/q must be reduced")


def rational_approx(t, q_max: int) -> RationalApprox:
    """Largest-denominator continued-fraction convergent of t with q <= q_max.

    Convergents satisfy |t - a/q| <= 1/q^2 automatically; the expansion is
    carried out in exact rational arithmetic on the binary value of t.
    """
    if q_max < 1:
        raise ValueError("q_max must be >= 1")
    x = Fraction(t)
    h_prev, h = 1, int(math.floor(x))
    k_prev, k = 0, 1
    frac = x - h
    best = (h, k)
    while frac != 0 and k <= q_max:
        x = 1 / frac
        a_i = int(math.floor(x))
        frac = x - a_i
        h_prev, h = h, a_i * h + h_prev
        k_prev, k = k, a_i * k + k_prev
        if k <= q_max:
            best = (h, k)
    return RationalApprox(best[0], best[1], float(t))


def weyl_sum(N: int, d: int, t, pcoeffs=()) -> complex:
    """sum_{n=1}^{N} e(t n^d + P(n)) with deg P <= d-1, e(y) = e^{2 pi i y}.

    ``pcoeffs`` lists P's coefficients from the constant term up. The sum is
    ``curve_sum`` at x = 0 with a_n = e(P(n)) on 1 <= n <= N and a_n = 0
    elsewhere, at ``Fraction(t)``: a float is a dyadic rational, which this
    holds exactly, so t n^d is reduced mod 1 exactly for every N and t.
    """
    if len(pcoeffs) > d:
        raise ValueError("P must have degree <= d-1")
    p = np.polyval(pcoeffs[::-1], np.arange(1, N + 1, dtype=np.float64))
    coeff = np.zeros(2 * N + 1, dtype=np.complex128)
    coeff[N + 1:] = np.exp(1j * TWO_PI * (p - np.rint(p)))
    return complex(curve_sum(coeff, d, np.zeros(1), Fraction(t))[0])


# ---------------------------------------------------------------------------
# bump profile and its real-line Fourier transform


def _bump_prototype(u: np.ndarray) -> np.ndarray:
    """exp(-1/(u(1-u))) on (0, 1), zero outside; all derivatives vanish at 0, 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = (u > 0.0) & (u < 1.0)
    ui = u[inside]
    out[inside] = np.exp(-1.0 / (ui * (1.0 - ui)))
    return out


class BumpSpec:
    """Smooth bump supported on [1/200, 1/100] with tabulated Fourier transform."""

    SUPPORT = (1.0 / 200.0, 1.0 / 100.0)
    WIDTH = SUPPORT[1] - SUPPORT[0]
    # trapezoid intervals on the support; the rule's first alias sits at
    # NODES / WIDTH = 51200, far past XI_DEAD
    NODES = 256
    # beyond this argument the transform is below ~1e-12 of its peak and is
    # treated as identically zero by the tabulated path
    XI_DEAD = 17500.0

    def __init__(self):
        # the bump is even about its midpoint and zero at both ends. fourier_transform's
        # 4-point cells are within 7.6e-13 of the peak F phi(0) at every cell midpoint
        h = self.WIDTH / self.NODES
        mid = self.SUPPORT[0] + self.NODES // 2 * h
        offsets = h * np.arange(self.NODES // 2)
        vals = 2.0 * h * self.profile(mid + offsets)
        vals[0] *= 0.5  # the midpoint node is not paired
        self.fourier_transform = TabulatedTransform(TWO_PI * offsets, vals, TWO_PI * mid,
                                                    odd=False, points=4, step=0.05,
                                                    dead=self.XI_DEAD)

    def profile(self, v) -> np.ndarray:
        """Bump value at v (supported on [1/200, 1/100])."""
        return _bump_prototype((np.asarray(v, dtype=float) - self.SUPPORT[0]) / self.WIDTH)

    def fourier_transform_quad(self, xi) -> np.ndarray:
        """F phi(xi) = int phi(t) e^{-2 pi i xi t} dt by the rule, near 1e-15 of the peak."""
        return self.fourier_transform.direct(xi)

    @cached_property
    def taylor(self) -> np.ndarray:
        """a_m with F phi(xi) = sum_{m < MOMENTS} a_m xi^m, the rule's own Taylor series."""
        return self.fourier_transform.taylor(MOMENTS)

    @property
    def transform_at_zero(self) -> float:
        return float(self.fourier_transform_quad(0.0).real)


DEFAULT_BUMP = BumpSpec()


# ---------------------------------------------------------------------------
# the Farey bump Phi and its Fourier coefficients


_BLOCK_CELLS = 1 << 15  # (k, q) cells per phi_hat_many block; 32k-64k measured fastest


@dataclass
class PhiData:
    """The arc bump Phi(t) = sum_{q in [Q, 5Q]} sum_{a coprime} phi((t - a/q) q^2)."""

    Q: int
    bump: BumpSpec

    def __post_init__(self):
        if self.Q < 2:
            raise ValueError("Q must be >= 2")
        self.q_lo = self.Q
        self.q_hi = 5 * self.Q
        if self.q_hi > DEFAULT_SIEVE_LIMIT:
            raise ValueError(f"moduli up to 5Q = {self.q_hi} exceed the sieve limit "
                             f"{DEFAULT_SIEVE_LIMIT}")
        self._mu, self._phi, _ = mobius_phi_sieve()
        self._q = np.arange(self.q_lo, self.q_hi + 1, dtype=np.int64)
        self._inv_q2 = 1.0 / (self._q.astype(np.float64) ** 2)
        self._tails = None  # the moment path's tail sums, built on its first nonzero k
        self._hat0 = float(np.sum(self._phi[self._q] * self._inv_q2)) * self.bump.transform_at_zero

    def phi_hat0(self) -> float:
        """Phi_hat(0) = sum_q phi_Euler(q)/q^2 * F phi(0) > 0."""
        return self._hat0

    def phi_hat_many(self, ks) -> np.ndarray:
        """Phi_hat(k) = sum_{q ~ Q} (c_q(k)/q^2) * F phi(k/q^2) for every k in ks.

        k = 0 reads ``phi_hat0()``. Every other k takes one of two paths, by
        its own xi = |k|/Q^2, so its value is the same in any call. Up to
        ``XI_MOMENTS`` (the kernel regime at d >= 3), the moment path:
        O(tau(k)) work per coefficient, within about 5e-16 of
        sum_q |c_q(k)/q^2 F phi(k/q^2)| of the sum through the trapezoid rule
        itself. Past it, the table path: an exact Ramanujan sum per (k, q)
        cell, the tabulated bump transform (4e-13 of the peak from the rule),
        and a pairwise sum over q per k. The moment path takes its ks in one
        call (``_divisors`` blocks its own grid; the pairs are O(sum tau(k))),
        the table path in blocks of about _BLOCK_CELLS (k, q) cells, after one
        growth of the table to the largest xi among them.
        """
        ks = np.atleast_1d(np.asarray(ks, dtype=np.int64))
        out = np.full(len(ks), self._hat0, dtype=np.complex128)
        live = np.flatnonzero(ks)
        if len(live) == 0:
            return out
        ks = ks[live]
        xi = np.abs(ks) * self._inv_q2[0]
        moments = xi <= XI_MOMENTS
        if moments.any():
            out[live[moments]] = self._by_moments(ks[moments])
        if moments.all():
            return out
        live, ks = live[~moments], ks[~moments]
        # one table growth up front; growing it block by block costs more
        # than the coefficients themselves
        self.bump.fourier_transform.grow(xi.max())
        rows = max(1, _BLOCK_CELLS // len(self._q))
        for i in range(0, len(ks), rows):
            out[live[i:i + rows]] = self._by_ramanujan_sums(ks[i:i + rows])
        return out

    def _by_ramanujan_sums(self, ks) -> np.ndarray:
        """sum over q of c_q(k)/q^2 times the tabulated F phi(k/q^2), one row of q per k."""
        kb = ks[:, None]
        f = self.bump.fourier_transform(kb * self._inv_q2)
        return np.sum(ramanujan_sum(self._q, kb) * self._inv_q2 * f, axis=1)

    def _by_moments(self, ks) -> np.ndarray:
        """sum over divisors delta <= 5Q of k of delta^-1 sum_m a_m (k/delta^2)^m G_m(delta).

        With F phi(xi) = sum_m a_m xi^m (``BumpSpec.taylor``) and q = j delta,
        G_m(delta) = sum of mu(j) j^(-2-2m) over Q <= j delta <= 5Q, a
        difference of two tail sums. Each (k, delta) pair is one Horner
        polynomial in s = k/delta^2, and the pairs are summed per k.
        """
        tails = self._moment_tails()
        row, delta = _divisors(np.abs(ks), self.q_hi)
        s = ks[row] / delta.astype(np.float64) ** 2
        lo, hi = -(-self.q_lo // delta), self.q_hi // delta + 1  # j in [lo, hi)
        a = self.bump.taylor
        v = a[-1] * (tails[-1, lo] - tails[-1, hi])
        for m in range(MOMENTS - 2, -1, -1):
            v *= s
            v += a[m] * (tails[m, lo] - tails[m, hi])
        v /= delta
        return np.bincount(row, v.real, len(ks)) + 1j * np.bincount(row, v.imag, len(ks))

    def _moment_tails(self) -> np.ndarray:
        """T[m, j] = sum_{j'=j}^{5Q} mu(j') j'^(-2-2m) for m < MOMENTS, j <= 5Q + 1 (T = 0 there).

        Accumulated from the top, so the small tails keep their own precision.
        """
        if self._tails is None:
            inv_j2 = 1.0 / np.arange(1, self.q_hi + 1, dtype=np.float64) ** 2
            term = self._mu[1:self.q_hi + 1] * inv_j2
            self._tails = np.zeros((MOMENTS, self.q_hi + 2))
            for m in range(MOMENTS):
                self._tails[m, 1:-1] = np.cumsum(term[::-1])[::-1]
                term *= inv_j2
        return self._tails

    def phi_hat(self, k: int) -> complex:
        """Phi_hat(k) for one k."""
        return complex(self.phi_hat_many(k)[0])

    def phi_hat_dense(self, k_max: int) -> np.ndarray:
        """Phi_hat on k = 0..k_max."""
        return self.phi_hat_many(np.arange(k_max + 1))

    def arcs(self):
        """All (a, q) with q in [Q, 5Q], 1 <= a <= q, gcd(a, q) = 1."""
        for q in range(self.q_lo, self.q_hi + 1):
            for a in range(1, q + 1):
                if math.gcd(a, q) == 1:
                    yield a, q

    def arc_interval(self, a: int, q: int) -> tuple:
        lo = Fraction(a, q) + Fraction(1, 200 * q * q)
        hi = Fraction(a, q) + Fraction(1, 100 * q * q)
        return lo, hi


def build_phi(Q: int) -> PhiData:
    """Farey bump on arcs with q in [Q, 5Q]; 'q ~ Q' is read as this range.

    Every Phi shares one bump instance, so its transform table is built
    once per process.
    """
    return PhiData(int(Q), DEFAULT_BUMP)


_SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)
SMOOTH_KEEP = 500  # phi_hat_max_scan keeps this many top-ranked smooth candidates


def _smooth_numbers(lo: int, hi: int) -> np.ndarray:
    """All {2,...,19}-smooth integers in [lo, hi], ascending."""
    vals = [1]
    for p in _SMOOTH_PRIMES:
        grown = []
        for v in vals:
            while v <= hi:
                grown.append(v)
                v *= p
        vals = grown
    return np.array(sorted(v for v in vals if v >= lo), dtype=np.int64)


def phi_hat_max_scan(phi: PhiData, k_limit: int | None = None,
                     dense_limit: int | None = None) -> dict:
    """max |Phi_hat(k)| over 0 < k <= k_limit via a structured candidate set.

    The kernel split only reads Phi_hat at k = n2 - n1^d with |n1| <= N and
    |n2| <= N^d (the rectangular range of the level-set pairing), so the
    default limit is 2 Q^{3/2} ~ 2 N^d at Q = N^2. Without a limit the sup
    is attained on huge smooth k whose divisor count in [Q, 5Q] grows at
    the divisor-function rate, a contribution the asymptotic statements
    absorb into N^epsilon.

    The modulus is maximized at divisor-rich k: every divisor q of k inside
    [Q, 5Q] contributes ~ phi_Euler(q)/q^2 while k/q^2 stays within the
    flat part of the bump transform. Candidates are single moduli and small
    multiples m*q, near-diagonal prime products, and the ``SMOOTH_KEEP``
    smooth numbers with the largest window divisor mass sum 1/q; k below Q
    is dominated by the single-divisor family. ``dense_limit`` adds a
    brute-force window for validation at small Q.
    """
    Q = phi.Q
    if k_limit is None:
        k_limit = int(2 * Q ** 1.5)
    _, _, spf = mobius_phi_sieve()
    candidates = set()
    for q in range(Q, min(Q + 256, 5 * Q) + 1):
        for m in (1, 2, 3, 4, 5):
            if m * q <= k_limit:
                candidates.add(m * q)
    prime_window = [p for p in range(Q, min(Q + 1024, 5 * Q) + 1) if spf[p] == p]
    for i, p1 in enumerate(prime_window[:48]):
        for p2 in prime_window[i:48]:
            if p1 * p2 <= k_limit:
                candidates.add(p1 * p2)
    # window divisor mass sum 1/q over divisors q of val in [Q, 5Q]; the
    # top SMOOTH_KEEP by score, ties to the larger val
    smooth = _smooth_numbers(Q, min(500 * Q * Q, k_limit))
    i, q = _divisors(smooth, phi.q_hi)
    window = q >= phi.q_lo
    score = np.bincount(i[window], 1.0 / q[window], len(smooth))
    top = np.lexsort((smooth, score))[::-1][:SMOOTH_KEEP]
    candidates.update(smooth[top[score[top] > 0]].tolist())
    dense_k = dense_limit if dense_limit is not None else (4 * Q if Q <= 1024 else 0)
    dense_k = min(dense_k, k_limit)
    # ascending k, so argmax's first maximum keeps ties on the first k found
    ks = np.concatenate((np.arange(1, dense_k + 1, dtype=np.int64),
                         np.array(sorted(k for k in candidates if dense_k < k <= k_limit),
                                  dtype=np.int64)))
    best_abs, best_k = 0.0, 0
    if len(ks):
        coeffs = phi.phi_hat_many(ks)
        vals = np.hypot(coeffs.real, coeffs.imag)  # bit for bit Python's abs(complex)
        idx = int(np.argmax(vals))
        best_abs, best_k = float(vals[idx]), int(ks[idx])
    return {"max_abs": best_abs, "k": best_k, "Q": Q, "k_limit": k_limit}


# ---------------------------------------------------------------------------
# kernel decomposition


@dataclass
class KernelDecomposition:
    """K_N = K_{1,Q} + K_{2,Q} with K_1 = K_N Phi / Phi_hat(0)."""

    N: int
    d: int
    Q: int
    phi: PhiData

    def __post_init__(self):
        # phi_hat(0) returns this same float, so the on-curve coefficient
        # cancels exactly (x/x = 1 in IEEE)
        self._phi_hat0 = self.phi.phi_hat0()
        self._k_n = CurvePlan(np.ones(2 * self.N + 1), self.d)  # K_N, built once

    @property
    def phi_hat0(self) -> float:
        return self._phi_hat0

    def k1_at_arc(self, a, q, u, x):
        """K_1 at t = a/q + u/q^2 for u in the bump support (Phi known by construction).

        a, q, u and x are scalars, giving one complex, or arrays of one shape,
        evaluated in one plan call. t is rounded once to float64, so mode n
        carries up to |n^d t| 2^-53 cycles of phase error, besides the rounding
        of n x (see ``kernels``).
        """
        a, q, u, x = (np.asarray(v, dtype=np.float64) for v in (a, q, u, x))
        t = a / q + u / (q * q)
        k_n = self._k_n(x.ravel(), t.ravel()).reshape(x.shape)
        vals = k_n * (self.phi.bump.profile(u) / self._phi_hat0)
        return complex(vals) if vals.ndim == 0 else vals

    def k2_hat(self, n1: int, n2: int) -> complex:
        """Coefficient rule: delta(n2 = n1^d) - Phi_hat(n2 - n1^d)/Phi_hat(0).

        Exactly zero on the curve n2 = n1^d because the two unit terms cancel.
        """
        if abs(n1) > self.N:
            return 0j
        k = n2 - n1**self.d
        base = 1.0 if k == 0 else 0.0
        return base - self.phi.phi_hat(k) / self._phi_hat0


def decompose_kernel(N: int, d: int, Q) -> KernelDecomposition:
    """Split K_N against the arc bump for Q in the major/minor regime [N^{d-1}, N^d].

    Non-integer Q is floored; outside the regime a warning is attached and
    the decomposition is still returned.
    """
    Qi = int(math.floor(Q))
    if not N ** (d - 1) <= Qi <= N**d:
        warnings.warn(
            f"Q={Qi} outside the regime [N^(d-1), N^d] = [{N**(d-1)}, {N**d}]",
            stacklevel=2,
        )
    return KernelDecomposition(N, d, Qi, build_phi(Qi))


# ---------------------------------------------------------------------------
# minor-arc sampling


def primes_in(lo: int, hi: int):
    """Primes in [lo, hi], read off the shared sieve (its default limit covers hi <= 10^6)."""
    lo = max(2, lo)
    _, _, spf = mobius_phi_sieve(max(DEFAULT_SIEVE_LIMIT, hi))
    return (lo + np.flatnonzero(spf[lo:hi + 1] == np.arange(lo, hi + 1))).tolist()


def minor_arc_moduli(N: int, d: int) -> list:
    """The primes q in [N^{d-1}, min(2 N^{d-1} + 1000, 10^6)]: the moduli of
    ``minor_arc_points``, empty once N^{d-1} passes the sieve's last prime."""
    q_lo = N ** (d - 1)
    return primes_in(q_lo, min(2 * q_lo + 1000, 10**6))


def minor_arc_points(N: int, d: int, count: int, seed: int = 0):
    """Points t = a/q + 1/(3q^2) with q prime in [N^{d-1}, ...], a coprime.

    The construction guarantees the rational-approximation hypothesis
    |t - a/q| <= 1/q^2 with q >= N^{d-1} by design.
    """
    ps = minor_arc_moduli(N, d)
    if not ps:
        raise ValueError(f"no primes available above N^(d-1) = {N ** (d - 1)} within the sieve")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = int(rng.choice(ps))
        a = int(rng.integers(1, q))
        t = Fraction(a, q) + Fraction(1, 3 * q * q)
        out.append((t, a, q))
    return out
