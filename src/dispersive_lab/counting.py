"""Exact counting for power-sum Diophantine systems, divisor checks, Ramanujan sums.

The central object is the distribution of the signature (A, B) =
(sum n_i, sum n_i^d) over b-tuples with entries in [-N, N]. Summing the
squared counts evaluates the number of solutions of the 2b-variable system

    n_1 + ... + n_b = m_1 + ... + m_b,   n_1^d + ... = m_1^d + ...

by meeting the two b-variable halves in the middle; that number also equals
the 2b-th power of the space-time L^{2b} norm of the all-ones curve sum.

Tables are built by iterated convolution against the one-variable signature
measure, in the layout ``_plan`` picks for the memory budget: dense 2-D
arrays, a sum of squares streamed one A-row at a time, or sorted sparse
keys. Counts are int64 end to end, ``_plan`` refuses keys that would wrap,
and sums of squares are Python ints, so every reported count is exact.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from .kernels import sum_by_key

DEFAULT_MEM_BUDGET = 1_600_000_000  # bytes of table memory per operation
DEFAULT_SIEVE_LIMIT = 1_000_000
INT64_MAX = int(np.iinfo(np.int64).max)


class BudgetExceededError(MemoryError):
    """Signature table would not fit the configured memory budget."""

    def __init__(self, message, suggested_n=None):
        super().__init__(message)
        self.suggested_n = suggested_n


class Int64OverflowError(OverflowError):
    """An exact integer quantity would wrap in int64 arithmetic."""


@dataclass(frozen=True)
class SystemSpec:
    """Power d >= 2, tuple length b >= 1, variable range {-N, ..., N}."""

    d: int
    b: int
    N: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("power d must be >= 2")
        if self.b < 1:
            raise ValueError("tuple length b must be >= 1")
        if self.N < 1:
            raise ValueError("range bound N must be >= 1")

    @property
    def a_extent(self) -> int:
        return self.b * self.N

    @property
    def b_extent(self) -> int:
        return self.b * self.N**self.d

    @property
    def cells(self) -> int:
        """(2bN+1)(2bN^d+1): cells of the dense signature grid, and the packed key range."""
        return (2 * self.a_extent + 1) * (2 * self.b_extent + 1)


def _deltas(d: int, N: int):
    return [(n, n**d) for n in range(-N, N + 1)]


@dataclass
class CountTable:
    """Sparse or dense associative table (A, B) -> count / complex amplitude."""

    spec: SystemSpec
    weighted: bool
    dense: np.ndarray | None = None  # shape (2bN+1, 2bN^d+1)
    keys: np.ndarray | None = None   # packed sorted int64 keys
    values: np.ndarray | None = None

    @property
    def _stride(self) -> int:
        return 2 * self.spec.b_extent + 1

    def _pack(self, A: int, B: int) -> int:
        return (A + self.spec.a_extent) * self._stride + (B + self.spec.b_extent)

    def entry(self, A: int, B: int):
        if abs(A) > self.spec.a_extent or abs(B) > self.spec.b_extent:
            return 0
        if self.dense is not None:
            v = self.dense[A + self.spec.a_extent, B + self.spec.b_extent]
            return complex(v) if self.weighted else int(v)
        idx = np.searchsorted(self.keys, self._pack(A, B))
        if idx < len(self.keys) and self.keys[idx] == self._pack(A, B):
            v = self.values[idx]
            return complex(v) if self.weighted else int(v)
        return 0j if self.weighted else 0

    def columns(self):
        """(A, B, value) arrays of the nonzero dense cells or all sparse keys, in (A, B) order."""
        if self.dense is not None:
            ii, jj = np.nonzero(self.dense)
            return ii - self.spec.a_extent, jj - self.spec.b_extent, self.dense[ii, jj]
        return (self.keys // self._stride - self.spec.a_extent,
                self.keys % self._stride - self.spec.b_extent, self.values)

    def items(self):
        return zip(*(column.tolist() for column in self.columns()))

    def total_mass(self):
        arr = self.dense if self.dense is not None else self.values
        total = arr.sum(dtype=object if not self.weighted else None)
        return complex(total) if self.weighted else int(total)

    def sum_of_squared_moduli(self):
        """sum |entry|^2; exact Python int for unweighted tables."""
        if self.weighted:
            arr = self.dense if self.dense is not None else self.values
            return float(np.sum(np.abs(arr) ** 2))
        return _square_sum(self.dense if self.dense is not None else [self.values])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("A,B,count\n")
            for A, B, v in sorted(self.items()):
                if self.weighted:
                    fh.write(f"{A},{B},{v.real:.17g}{v.imag:+.17g}j\n")
                else:
                    fh.write(f"{A},{B},{v}\n")


def _square_sum(rows) -> int:
    """Exact sum of squares of nonnegative int64 rows; a row's squares add to at most max * sum."""
    return sum(int(np.dot(row, row)) if int(row.max()) * int(row.sum()) <= INT64_MAX
               else sum(v * v for v in row.tolist()) for row in rows)


def _plan(spec: SystemSpec, budget: int, weighted: bool = False, want: str = "table") -> str:
    """How to build the signature table of ``spec``: "dense", "streamed" or "sparse".

    ``want`` is "table", "squares" (only the sum of squared counts, so the
    top level may stream by A-row) or "dense" (else BudgetExceededError).
    A dense build holds its top two levels, a streamed one level b-1 and a
    row; a sparse build may still refuse once its key counts are known.
    Raises Int64OverflowError when packed keys or counts (up to the tuple
    mass (2N+1)^b) would not fit in int64.
    """
    mass = (2 * spec.N + 1) ** spec.b
    if spec.cells > INT64_MAX or (mass > INT64_MAX and not weighted):
        raise Int64OverflowError(
            f"{spec}: packed (A, B) keys reach {spec.cells:.3e} and counts {mass:.3e}, "
            f"beyond int64 ({INT64_MAX:.3e})")
    itemsize = 16 if weighted else 8

    def cells(level):
        return SystemSpec(spec.d, level, spec.N).cells if level else 0

    dense_bytes = (cells(spec.b - 1) + cells(spec.b)) * itemsize
    if want == "dense":
        if dense_bytes > budget:
            raise BudgetExceededError(
                f"dense signature tables for {spec} need {dense_bytes:.3g} bytes, "
                f"above the memory budget of {budget:.3g}")
        return "dense"
    if mass <= 4_000_000:  # few tuples: sparse keys beat any grid
        return "sparse"
    if want == "squares":
        lower_bytes = (cells(spec.b - 2) + cells(spec.b - 1)) * itemsize
        stream_bytes = (cells(spec.b - 1) + 2 * spec.b_extent + 1) * itemsize
        return "streamed" if max(lower_bytes, stream_bytes) <= budget else "sparse"
    return "dense" if dense_bytes <= budget else "sparse"


def _convolved_rows(lower, spec: SystemSpec, weights):
    """The A-rows of the table one level above the dense ``lower``, in one reused buffer."""
    N, Nd = spec.N, spec.N**spec.d
    deltas = _deltas(spec.d, N)
    rows, cols = lower.shape
    row = np.empty(cols + 2 * Nd, dtype=lower.dtype)
    for i in range(rows + 2 * N):
        row[:] = 0
        for n, nd in deltas:
            j = i - (n + N)
            if 0 <= j < rows:
                if weights is None:
                    row[nd + Nd:nd + Nd + cols] += lower[j]
                elif weights[n + N] != 0:
                    row[nd + Nd:nd + Nd + cols] += weights[n + N] * lower[j]
        yield row


def _dense_levels(spec: SystemSpec, weights=None):
    """Dense tables of 1-, 2-, ..., b-tuples in turn; stopping early skips the later levels."""
    table = np.ones((1, 1), dtype=np.int64 if weights is None else np.complex128)
    for _ in range(spec.b):
        rows, cols = table.shape
        upper = np.empty((rows + 2 * spec.N, cols + 2 * spec.N**spec.d), dtype=table.dtype)
        for i, row in enumerate(_convolved_rows(table, spec, weights)):
            upper[i] = row
        table = upper
        yield table


def _build_sparse(spec: SystemSpec, weights, budget: int):
    d, N = spec.d, spec.N
    stride = 2 * spec.b_extent + 1
    delta_keys = np.array([n * stride + nd for n, nd in _deltas(d, N)], dtype=np.int64)
    base = (np.int64(spec.a_extent) * stride + spec.b_extent)
    if weights is None:
        weights = np.ones(len(delta_keys), dtype=np.int64)
    (keys,), vals = sum_by_key((delta_keys + base,), weights)
    itemsize = 8 + vals.itemsize
    for _ in range(spec.b - 1):
        if len(keys) * len(delta_keys) * itemsize > budget:
            suggestion = max(1, spec.N // 2)
            raise BudgetExceededError(
                f"sparse signature expansion for {spec} exceeds memory budget; "
                f"try N <= {suggestion}",
                suggested_n=suggestion,
            )
        (keys,), vals = sum_by_key(((keys[:, None] + delta_keys[None, :]).ravel(),),
                                   (vals[:, None] * weights[None, :]).ravel())
    return keys, vals


def power_sum_distribution(spec: SystemSpec, weights=None,
                           mem_budget: int = DEFAULT_MEM_BUDGET) -> CountTable:
    """Distribution of (sum n_i, sum n_i^d) over b-tuples, optionally amplitude-weighted.

    ``weights`` is a coefficient vector indexed by n in [-N, N]; unit weights
    count tuples. The layout (dense grid or sorted sparse keys) is the one
    ``_plan`` picks for the budget.
    """
    weighted = weights is not None
    if weighted:
        weights = np.asarray(weights, dtype=np.complex128)
        if len(weights) != 2 * spec.N + 1:
            raise ValueError("weights must cover n in [-N, N]")
    if _plan(spec, mem_budget, weighted) == "dense":
        dense = deque(_dense_levels(spec, weights), maxlen=1)[0]
        return CountTable(spec, weighted, dense=dense)
    keys, vals = _build_sparse(spec, weights, mem_budget)
    return CountTable(spec, weighted, keys=keys, values=vals)


def dense_top_levels(spec: SystemSpec, weights, mem_budget: int = DEFAULT_MEM_BUDGET):
    """Dense weighted tables of (b-1)- and b-tuples, b >= 2, as (lower, top) arrays.

    Raises BudgetExceededError when the two levels do not fit ``mem_budget``.
    """
    _plan(spec, mem_budget, weighted=True, want="dense")
    levels = _dense_levels(spec, np.asarray(weights, dtype=np.complex128))
    lower = deque(islice(levels, spec.b - 1), maxlen=1)[0]
    return lower, next(levels)  # built while only ``lower`` is held, as planned


def count_S(spec: SystemSpec, mem_budget: int = DEFAULT_MEM_BUDGET) -> int:
    """Number of solutions of the 2b-variable equal-power-sum system, exactly.

    Evaluated as the sum of squared signature counts over b-tuples (the
    meet-in-the-middle split of the 2b-variable system).
    """
    if spec.b == 1:
        return 2 * spec.N + 1
    if _plan(spec, mem_budget, want="squares") == "streamed":
        lower = deque(islice(_dense_levels(spec), spec.b - 1), maxlen=1)[0]
        return _square_sum(_convolved_rows(lower, spec, None))
    keys, vals = _build_sparse(spec, None, mem_budget)
    return CountTable(spec, False, keys=keys, values=vals).sum_of_squared_moduli()


def enumerate_triples(d: int, N: int, A: int, B: int):
    """All (n1, n2, n3) in [-N, N]^3 with n1+n2+n3 = A and n1^d+n2^d+n3^d = B.

    Joins the (n1, n2) pair grid with the forced third variable, so the cost
    is O(N^2) rather than O(N^3).
    """
    if d % 2 == 0:
        raise ValueError("triple enumeration is defined for odd d")
    rng = np.arange(-N, N + 1, dtype=np.int64)
    n1, n2 = np.meshgrid(rng, rng, indexing="ij")
    n3 = A - n1 - n2
    ok = np.abs(n3) <= N
    ok &= n1**d + n2**d + n3**d == B
    return [
        (int(a), int(b_), int(c))
        for a, b_, c in zip(n1[ok].tolist(), n2[ok].tolist(), n3[ok].tolist())
    ]


def check_divisor_property(triple, d: int, A: int | None = None, B: int | None = None) -> bool:
    """Each nonzero pair sum divides B - A^d; a zero pair sum forces B = A^d.

    The zero branch is the analytically forced one for odd d (substitute
    n2 = -n1), not a '0 divides everything' convention.
    """
    n1, n2, n3 = (int(v) for v in triple)
    if A is None:
        A = n1 + n2 + n3
    if B is None:
        B = n1**d + n2**d + n3**d
    M = B - A**d
    for sigma in (n1 + n2, n2 + n3, n1 + n3):
        if sigma == 0:
            if M != 0:
                return False
        elif M % sigma != 0:
            return False
    return True


def max_offcurve_solution_count(d: int, N: int) -> int:
    """Max solution count of the triple system over signatures with B != A^d.

    Signatures with B = A^d contain the one-parameter families (k, -k, A)
    and grow linearly in N; the divisor-bound phenomenon concerns the
    remaining signatures. Read off the b=3 signature table.

    Raises Int64OverflowError, before any table is built, when A^d (up to
    (3N)^d) or the packed (A, B) key would not fit in int64.
    """
    if (3 * N) ** d > INT64_MAX:
        raise Int64OverflowError(
            f"max_offcurve_solution_count(d={d}, N={N}) needs integers up to "
            f"{(3 * N) ** d:.3e}, beyond int64 ({INT64_MAX:.3e})")
    A, B, counts = power_sum_distribution(SystemSpec(d, 3, N)).columns()
    off = counts[B != A**d]
    return int(off.max()) if len(off) else 0


_SIEVE_BLOCK = 1 << 14  # entries per numpy step of the mu/phi recurrence


def mobius_phi_sieve(limit: int = DEFAULT_SIEVE_LIMIT):
    """(mu, phi, spf) int64 arrays on [0, limit] by a smallest-prime-factor sieve.

    Tables are cached per limit, so every caller of the same limit shares
    one read-only set.
    """
    return _sieve(int(limit))


@lru_cache(maxsize=4)
def _sieve(limit: int):
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            # multiples below p^2 already carry a smaller prime factor
            multiples = spf[p * p::p]
            multiples[multiples == 0] = p
    mu = np.ones(limit + 1, dtype=np.int64)
    phi = np.arange(limit + 1, dtype=np.int64)
    mu[0] = 0
    # m = p * rest with p = spf(m) and rest <= m / 2, so on a block
    # [lo, hi) with hi <= 2 lo every rest lies below lo and is already filled
    lo = 2
    while lo <= limit:
        hi = min(2 * lo, lo + _SIEVE_BLOCK, limit + 1)
        m = np.arange(lo, hi, dtype=np.int64)
        p = spf[lo:hi]
        prime = p == 0
        p[prime] = m[prime]
        rest = m // p
        square = rest % p == 0
        mu[lo:hi] = np.where(square, 0, -mu[rest])
        phi[lo:hi] = phi[rest] * np.where(square, p, p - 1)
        lo = hi
    for table in (mu, phi, spf):
        table.setflags(write=False)
    return mu, phi, spf


def _divisors(n: int):
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    mu, _, _ = mobius_phi_sieve()
    if not 1 <= n < len(mu):
        raise ValueError(f"mobius needs 1 <= n <= {len(mu) - 1}")
    return int(mu[n])


def ramanujan_sum(q, n):
    """c_q(n) = mu(q/g) phi(q) / phi(q/g) with g = gcd(q, n), and gcd(q, 0) = q.

    The Moebius quotient form of sum over delta | g of delta * mu(q/delta),
    read off the shared sieve. Broadcasts over array q and n (int64
    result); scalar inputs give an int.
    """
    q = np.asarray(q, dtype=np.int64)
    if np.any(q < 1):
        raise ValueError("q must be positive")
    mu, phi, _ = mobius_phi_sieve()
    if np.any(q >= len(mu)):
        raise ValueError(f"q beyond sieve limit {len(mu) - 1}")
    qg = q // np.gcd(q, np.asarray(n, dtype=np.int64))
    c = mu[qg] * (phi[q] // phi[qg])
    return int(c) if c.ndim == 0 else c


def ramanujan_sum_direct(q: int, n: int) -> complex:
    """Direct exponential sum over residues coprime to q (cross-check oracle)."""
    total = 0j
    for a in range(1, q + 1):
        if math.gcd(a, q) == 1:
            total += np.exp(2j * np.pi * a * n / q)
    return total


def divisor_count(n: int, Q: int) -> int:
    """#{q : q | n, q < Q} for n != 0."""
    if n == 0:
        raise ValueError("divisor_count undefined for n = 0")
    return sum(1 for q in _divisors(n) if q < Q)


def ramanujan_block_ratio(Q: int, n: int, eps: float = 0.05) -> float:
    """sum_{Q <= q < 2Q} |c_q(n)| divided by d(n, Q) * Q^{1+eps}."""
    block = int(np.abs(ramanujan_sum(np.arange(Q, 2 * Q), n)).sum())
    return block / (divisor_count(n, Q) * Q ** (1.0 + eps))
