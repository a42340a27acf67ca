"""Weyl sums, continued-fraction rational approximation, and the Farey bump kernel split.

The circle-method side of the lab: a smooth bump is planted on the Farey
arcs [a/q + 1/(200 q^2), a/q + 1/(100 q^2)] for q in [Q, 5Q], its Fourier
coefficients are evaluated through Ramanujan sums (O(Q) work per
coefficient instead of an O(Q^2) Farey sum) by one batched evaluator,
``PhiData.phi_hat_many``, and the Dirichlet curve kernel
K_N splits into a bounded major-arc part and a part with uniformly small
Fourier coefficients vanishing on the curve. The bump's real-line
transform is read from a table that a 256-interval trapezoid rule builds
on demand, out to the largest argument asked for.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .counting import DEFAULT_SIEVE_LIMIT, mobius_phi_sieve, ramanujan_sum

TWO_PI = 2.0 * math.pi


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


def _phase_fraction(t, nd: int) -> float:
    """Fractional part of t * nd, exactly reduced when t is rational."""
    if isinstance(t, Fraction):
        return ((t.numerator * nd) % t.denominator) / t.denominator
    return math.fmod(float(t) * nd, 1.0)


def weyl_sum(N: int, d: int, t, pcoeffs=()) -> complex:
    """sum_{n=1}^{N} e^{2 pi i (t n^d + P(n))} with deg P <= d-1.

    ``t`` may be a Fraction, in which case the phase t*n^d is reduced mod 1
    in exact integer arithmetic before any rounding; accumulation is
    compensated via fsum.
    """
    if len(pcoeffs) > d:
        raise ValueError("P must have degree <= d-1")
    res, ims = [], []
    for n in range(1, N + 1):
        p = 0.0
        for c in reversed(pcoeffs):
            p = p * n + c
        phase = TWO_PI * (_phase_fraction(t, n**d) + math.fmod(p, 1.0))
        res.append(math.cos(phase))
        ims.append(math.sin(phase))
    return complex(math.fsum(res), math.fsum(ims))


def dirichlet_curve_kernel(N: int, d: int, x: float, t) -> complex:
    """K_N(x, t) = sum_{n=-N}^{N} e^{2 pi i (t n^d + x n)}."""
    res, ims = [], []
    for n in range(-N, N + 1):
        phase = TWO_PI * (_phase_fraction(t, n**d) + math.fmod(x * n, 1.0))
        res.append(math.cos(phase))
        ims.append(math.sin(phase))
    return complex(math.fsum(res), math.fsum(ims))


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


@dataclass
class BumpSpec:
    """Smooth bump supported on [1/200, 1/100] with tabulated Fourier transform."""

    SUPPORT = (1.0 / 200.0, 1.0 / 100.0)
    WIDTH = SUPPORT[1] - SUPPORT[0]
    # trapezoid intervals on the support: the integrand is C^infinity with
    # every derivative zero at both ends, so the rule converges geometrically
    # (Trefethen & Weideman, SIAM Review 56, 2014); its first alias sits at
    # NODES / WIDTH = 51200, far past XI_DEAD
    NODES = 256
    # beyond this argument the transform is below ~1e-12 of its peak and is
    # treated as identically zero by the tabulated path
    XI_DEAD = 17500.0
    _STEP = 0.05  # table spacing; table entry i holds the transform at (i - 1) * _STEP

    _table_val: np.ndarray = field(default=None, repr=False)

    def profile(self, v) -> np.ndarray:
        """Bump value at v (supported on [1/200, 1/100])."""
        return _bump_prototype((np.asarray(v, dtype=float) - self.SUPPORT[0]) / self.WIDTH)

    def fourier_transform_quad(self, xi) -> np.ndarray:
        """F phi(xi) = int phi(t) e^{-2 pi i xi t} dt by the trapezoid rule.

        The bump is even about its midpoint m, so the nodes m +- j h pair
        up: F phi(xi) = e^{-2 pi i xi m} sum_j v_j cos(2 pi xi j h), one cos
        matmul over the NODES/2 offsets (the end values are zero) in chunks
        of about 2^16 cells. The cos phases stay below pi xi WIDTH, which
        keeps their rounding, and the rule's error, near 1e-15 of the peak.
        """
        xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
        h = self.WIDTH / self.NODES
        half = self.NODES // 2
        mid = self.SUPPORT[0] + half * h
        offsets = h * np.arange(half)
        vals = 2.0 * h * self.profile(mid + offsets)
        vals[0] *= 0.5  # the midpoint node is not paired
        cos_sum = np.empty(len(xi_arr))
        chunk = (1 << 16) // half
        for i in range(0, len(xi_arr), chunk):
            cos_sum[i:i + chunk] = np.cos(TWO_PI * np.outer(xi_arr[i:i + chunk], offsets)) @ vals
        out = cos_sum * np.exp(-1j * TWO_PI * mid * xi_arr)
        return out if np.ndim(xi) else out[0]

    def _ensure_table(self, xi_max: float):
        xi_max = min(max(xi_max, 64.0), self.XI_DEAD)
        table = self._table_val
        if table is not None and (len(table) - 2) * self._STEP >= xi_max + 2 * self._STEP:
            return
        # 25% headroom against regrowth, but none past XI_DEAD, where the
        # table is never read
        top = min(xi_max * 1.25, self.XI_DEAD) + 8 * self._STEP
        self._table_val = self.fourier_transform_quad(np.arange(-1.0, top / self._STEP) * self._STEP)

    def fourier_transform(self, xi) -> np.ndarray:
        """Tabulated transform, 4-point Lagrange on a uniform grid.

        Within 7.6e-13 of the peak F phi(0) against the trapezoid rule,
        measured at every cell midpoint; the first cell, |xi| < 0.05,
        reads the entry at -0.05, the conjugate of the one at 0.05, so its
        stencil is centred like every other cell's. Negative xi uses
        conjugate symmetry of the real profile; arguments beyond XI_DEAD
        return exactly zero (the true value is below 1e-12 of the peak
        there).
        """
        xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
        mag = np.abs(xi_arr)
        alive = mag < self.XI_DEAD
        every = bool(alive.all())  # skips the masked copies in the common case
        m = mag if every else mag[alive]
        self._ensure_table(float(m.max()) if len(m) else 1.0)
        tv = self._table_val
        pos = m / self._STEP
        i0 = np.clip(pos.astype(np.int64) - 1, -1, len(tv) - 5)  # stencil: entries i0+1..i0+4
        s = pos - i0  # in [1, 2)
        s1, s2, s3 = s - 1, s - 2, s - 3
        w0 = -s1 * s2 * s3 / 6.0
        w1 = s * s2 * s3 / 2.0
        w2 = -s * s1 * s3 / 2.0
        w3 = s * s1 * s2 / 6.0
        val = w0 * tv[i0 + 1] + w1 * tv[i0 + 2] + w2 * tv[i0 + 3] + w3 * tv[i0 + 4]
        val.imag[(xi_arr if every else xi_arr[alive]) < 0] *= -1  # conjugate
        if every:
            out = val
        else:
            out = np.zeros(len(xi_arr), dtype=np.complex128)
            out[alive] = val
        return out if np.ndim(xi) else out[0]

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
        self._phi = mobius_phi_sieve()[1]
        self._q = np.arange(self.q_lo, self.q_hi + 1, dtype=np.int64)
        self._inv_q2 = 1.0 / (self._q.astype(np.float64) ** 2)

    def phi_hat0(self) -> float:
        """Phi_hat(0) = sum_q phi_Euler(q)/q^2 * F phi(0) > 0."""
        tot = float(np.sum(self._phi[self._q] * self._inv_q2))
        return tot * self.bump.transform_at_zero

    def phi_hat_many(self, ks) -> np.ndarray:
        """Phi_hat(k) = sum_{q ~ Q} (c_q(k)/q^2) * F phi(k/q^2) for every k in ks.

        Exact Ramanujan sums per (k, q) cell, the tabulated bump transform,
        and a pairwise sum over q per k, on blocks of _BLOCK_CELLS cells.
        """
        ks = np.atleast_1d(np.asarray(ks, dtype=np.int64))
        out = np.empty(len(ks), dtype=np.complex128)
        if len(ks) == 0:
            return out
        # one table growth up front; growing it block by block costs more
        # than the coefficients themselves
        self.bump._ensure_table(float(np.abs(ks).max()) * self._inv_q2[0])
        rows = max(1, _BLOCK_CELLS // len(self._q))
        for i in range(0, len(ks), rows):
            kb = ks[i:i + rows, None]
            c = ramanujan_sum(self._q, kb)
            xi = kb * self._inv_q2
            f = self.bump.fourier_transform(xi.ravel()).reshape(xi.shape)
            out[i:i + rows] = np.sum(c * self._inv_q2 * f, axis=1)
        return out

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

    def phi_eval(self, t: float) -> float:
        """Direct evaluation of the defining arc sum at t (periodic in t)."""
        t = t % 1.0
        total = 0.0
        lo, hi = self.bump.SUPPORT
        for q in range(self.q_lo, self.q_hi + 1):
            a = round(t * q)
            if a < 1 or a > q or math.gcd(a, q) != 1:
                continue
            u = (t - a / q) * q * q
            if lo <= u <= hi:
                total += float(self.bump.profile(u))
        return total


def build_phi(Q: int) -> PhiData:
    """Farey bump on arcs with q in [Q, 5Q]; 'q ~ Q' is read as this range.

    Every Phi shares one bump instance, so its transform table is built
    once per process.
    """
    return PhiData(int(Q), DEFAULT_BUMP)


_SMOOTH_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _smooth_numbers(lo: int, hi: int):
    """All {2,...,19}-smooth integers in [lo, hi] with their factorizations."""
    out = []

    def rec(idx: int, val: int, fac: tuple):
        if idx == len(_SMOOTH_PRIMES):
            if val >= lo:
                out.append((val, fac))
            return
        p = _SMOOTH_PRIMES[idx]
        v = val
        e = 0
        while v <= hi:
            rec(idx + 1, v, fac + ((p, e),) if e else fac + ())
            e += 1
            v *= p

    rec(0, 1, ())
    return out


def _window_divisor_score(fac, q_lo: int, q_hi: int) -> float:
    """sum of 1/q over divisors q in [q_lo, q_hi], from the factorization."""
    divisors = [1]
    for p, e in fac:
        divisors = [d * p**i for d in divisors for i in range(e + 1) if d * p**i <= q_hi]
    return sum(1.0 / q for q in divisors if q >= q_lo)


def phi_hat_max_scan(phi: PhiData, k_limit: int | None = None,
                     dense_limit: int | None = None,
                     smooth_keep: int = 500) -> dict:
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
    multiples m*q, near-diagonal prime products, and smooth numbers ranked
    by their window divisor mass sum 1/q; k below Q is dominated by the
    single-divisor family. ``dense_limit`` adds a brute-force window for
    validation at small Q.
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
    scored = []
    for val, fac in _smooth_numbers(Q, min(500 * Q * Q, k_limit)):
        score = _window_divisor_score(fac, phi.q_lo, phi.q_hi)
        if score > 0:
            scored.append((score, val))
    scored.sort(reverse=True)
    candidates.update(val for _, val in scored[:smooth_keep])
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
    regime_ok: bool

    def __post_init__(self):
        # normalize by the same evaluator used for every k, so the on-curve
        # coefficient cancels exactly (x/x = 1 in IEEE); agrees with the
        # closed-form phi_hat0() to rounding
        self._phi_hat0 = float(self.phi.phi_hat(0).real)

    @property
    def phi_hat0(self) -> float:
        return self._phi_hat0

    def k1_at_arc(self, a: int, q: int, u: float, x: float) -> complex:
        """K_1 at t = a/q + u/q^2 for u in the bump support (Phi known by construction)."""
        t = a / q + u / (q * q)
        val = dirichlet_curve_kernel(self.N, self.d, x, t)
        return val * float(self.bump_value(u)) / self._phi_hat0

    def bump_value(self, u: float) -> float:
        return float(self.phi.bump.profile(u))

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
    regime_ok = N ** (d - 1) <= Qi <= N**d
    if not regime_ok:
        warnings.warn(
            f"Q={Qi} outside the regime [N^(d-1), N^d] = [{N**(d-1)}, {N**d}]",
            stacklevel=2,
        )
    return KernelDecomposition(N, d, Qi, build_phi(Qi), regime_ok)


# ---------------------------------------------------------------------------
# minor-arc sampling


def primes_in(lo: int, hi: int):
    _, _, spf = mobius_phi_sieve(max(1_000_000, hi + 1))
    return [int(p) for p in range(max(2, lo), hi + 1) if spf[p] == p]


def minor_arc_points(N: int, d: int, count: int, seed: int = 0):
    """Points t = a/q + 1/(3q^2) with q prime in [N^{d-1}, ...], a coprime.

    The construction guarantees the rational-approximation hypothesis
    |t - a/q| <= 1/q^2 with q >= N^{d-1} by design.
    """
    q_lo = N ** (d - 1)
    ps = primes_in(q_lo, min(2 * q_lo + 1000, 10**6))
    if not ps:
        raise ValueError(f"no primes available above N^(d-1) = {q_lo} within the sieve")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        q = int(rng.choice(ps))
        a = int(rng.integers(1, q))
        t = Fraction(a, q) + Fraction(1, 3 * q * q)
        out.append((t, a, q))
    return out
