"""Exact counting for power-sum Diophantine systems, divisor checks, Ramanujan sums.

The central object is the distribution of the signature (A, B) =
(sum n_i, sum n_i^d) over b-tuples with entries in [-N, N]. Summing the
squared counts evaluates the number of solutions of the 2b-variable system

    n_1 + ... + n_b = m_1 + ... + m_b,   n_1^d + ... = m_1^d + ...

by meeting the two b-variable halves in the middle; that number also equals
the 2b-th power of the space-time L^{2b} norm of the all-ones curve sum.

Tables are built by iterated convolution against the one-variable signature
measure: dense 2-D arrays (one block add per delta and level) when the
signature grid fits the memory budget, sorted sparse key arrays otherwise.
Counts are kept in int64 end to end; sums of squares are accumulated as
Python ints, so every reported count is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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


def _deltas(d: int, N: int):
    n = np.arange(-N, N + 1, dtype=np.int64)
    return n, n.astype(object) ** d  # object: exact for large N^d


def _dense_cells(d: int, N: int, k: int) -> int:
    return (2 * k * N + 1) * (2 * k * N**d + 1)


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

    def _unpack(self, key):
        A = key // self._stride - self.spec.a_extent
        B = key % self._stride - self.spec.b_extent
        return int(A), int(B)

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

    def items(self):
        if self.dense is not None:
            ii, jj = np.nonzero(self.dense)
            for i, j in zip(ii.tolist(), jj.tolist()):
                v = self.dense[i, j]
                yield (i - self.spec.a_extent, j - self.spec.b_extent,
                       complex(v) if self.weighted else int(v))
        else:
            for key, v in zip(self.keys.tolist(), self.values.tolist()):
                A, B = self._unpack(key)
                yield (A, B, complex(v) if self.weighted else int(v))

    def total_mass(self):
        if self.dense is not None:
            total = self.dense.sum(dtype=object if not self.weighted else None)
        else:
            total = self.values.sum(dtype=object if not self.weighted else None)
        return complex(total) if self.weighted else int(total)

    def sum_of_squared_moduli(self):
        """sum |entry|^2; exact Python int for unweighted tables."""
        if self.weighted:
            arr = self.dense if self.dense is not None else self.values
            return float(np.sum(np.abs(arr) ** 2))
        if self.dense is not None:
            return sum(int(np.dot(row, row)) for row in self.dense)
        return sum(int(v) * int(v) for v in self.values.tolist())

    def max_count(self):
        arr = self.dense if self.dense is not None else self.values
        if self.weighted:
            return float(np.abs(arr).max())
        return int(arr.max())

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            fh.write("A,B,count\n")
            for A, B, v in sorted(self.items()):
                if self.weighted:
                    fh.write(f"{A},{B},{v.real:.17g}{v.imag:+.17g}j\n")
                else:
                    fh.write(f"{A},{B},{v}\n")


def _dense_levels_fit(spec: SystemSpec, itemsize: int, budget: int, final_level: int) -> bool:
    worst = 0
    for k in range(2, final_level + 1):
        worst = max(worst, (_dense_cells(spec.d, spec.N, k - 1)
                            + _dense_cells(spec.d, spec.N, k)) * itemsize)
    if final_level == 1:
        worst = _dense_cells(spec.d, spec.N, 1) * itemsize
    return worst <= budget


def _build_dense(spec: SystemSpec, weights, final_level: int):
    d, N = spec.d, spec.N
    dtype = np.complex128 if weights is not None else np.int64
    ns, nds = _deltas(d, N)
    cur = np.zeros((2 * N + 1, 2 * N**d + 1), dtype=dtype)
    for n, nd in zip(ns.tolist(), nds.tolist()):
        cur[n + N, nd + N**d] = 1 if weights is None else weights[n + N]
    for k in range(2, final_level + 1):
        nxt = np.zeros((2 * k * N + 1, 2 * k * N**d + 1), dtype=dtype)
        rows, cols = cur.shape
        for n, nd in zip(ns.tolist(), nds.tolist()):
            i0 = n + k * N - (k - 1) * N
            j0 = nd + k * N**d - (k - 1) * N**d
            if weights is None:
                nxt[i0:i0 + rows, j0:j0 + cols] += cur
            else:
                w = weights[n + N]
                if w != 0:
                    nxt[i0:i0 + rows, j0:j0 + cols] += w * cur
        cur = nxt
    return cur


def _sparse_reduce(keys, vals):
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    starts = np.concatenate(([0], boundaries))
    uniq = keys[starts]
    summed = np.add.reduceat(vals, starts)
    return uniq, summed


def _build_sparse(spec: SystemSpec, weights, final_level: int, budget: int):
    d, N = spec.d, spec.N
    stride = 2 * spec.b_extent + 1
    ns, nds = _deltas(d, N)
    delta_keys = np.array(
        [int(n) * stride + int(nd) for n, nd in zip(ns.tolist(), nds.tolist())],
        dtype=np.int64,
    )
    base = (np.int64(spec.a_extent) * stride + spec.b_extent)
    keys = delta_keys + base
    if weights is None:
        vals = np.ones(len(keys), dtype=np.int64)
    else:
        vals = np.asarray(weights, dtype=np.complex128).copy()
    keys, vals = _sparse_reduce(keys, vals)
    itemsize = 8 + vals.itemsize
    for _ in range(final_level - 1):
        if len(keys) * len(delta_keys) * itemsize > budget:
            suggestion = max(1, spec.N // 2)
            raise BudgetExceededError(
                f"sparse signature expansion for {spec} exceeds memory budget; "
                f"try N <= {suggestion}",
                suggested_n=suggestion,
            )
        new_keys = (keys[:, None] + delta_keys[None, :]).ravel()
        if weights is None:
            new_vals = np.repeat(vals, len(delta_keys))
        else:
            new_vals = (vals[:, None] * np.asarray(weights)[None, :]).ravel()
        keys, vals = _sparse_reduce(new_keys, new_vals)
    return keys, vals


def power_sum_distribution(spec: SystemSpec, weights=None,
                           mem_budget: int = DEFAULT_MEM_BUDGET) -> CountTable:
    """Distribution of (sum n_i, sum n_i^d) over b-tuples, optionally amplitude-weighted.

    ``weights`` is a coefficient vector indexed by n in [-N, N]; unit weights
    count tuples. Chooses the dense layout when every convolution level fits
    the budget, otherwise falls back to sorted sparse key arrays.
    """
    if weights is not None:
        weights = np.asarray(weights, dtype=np.complex128)
        if len(weights) != 2 * spec.N + 1:
            raise ValueError("weights must cover n in [-N, N]")
    itemsize = 16 if weights is not None else 8
    small_mass = (2 * spec.N + 1) ** spec.b <= 4_000_000
    if not small_mass and _dense_levels_fit(spec, itemsize, mem_budget, spec.b):
        dense = _build_dense(spec, weights, spec.b)
        return CountTable(spec, weights is not None, dense=dense)
    keys, vals = _build_sparse(spec, weights, spec.b, mem_budget)
    return CountTable(spec, weights is not None, keys=keys, values=vals)


def _count_s_streamed(spec: SystemSpec) -> int:
    """Sum of squared counts, streaming the final level one A-row at a time."""
    d, N, b = spec.d, spec.N, spec.b
    prev = _build_dense(spec, None, b - 1)
    ns, nds = _deltas(d, N)
    prev_rows, prev_cols = prev.shape
    cols = 2 * b * N**d + 1
    total = 0
    row = np.empty(cols, dtype=np.int64)
    for i_new in range(2 * b * N + 1):
        row[:] = 0
        for n, nd in zip(ns.tolist(), nds.tolist()):
            i_prev = i_new - (n + N)
            if 0 <= i_prev < prev_rows:
                j0 = nd + b * N**d - (b - 1) * N**d
                row[j0:j0 + prev_cols] += prev[i_prev]
        total += int(np.dot(row, row))
    return total


def count_S(spec: SystemSpec, mem_budget: int = DEFAULT_MEM_BUDGET) -> int:
    """Number of solutions of the 2b-variable equal-power-sum system, exactly.

    Evaluated as the sum of squared signature counts over b-tuples (the
    meet-in-the-middle split of the 2b-variable system).
    """
    if spec.b == 1:
        return 2 * spec.N + 1
    itemsize = 8
    small_mass = (2 * spec.N + 1) ** spec.b <= 4_000_000
    stream_bytes = (_dense_cells(spec.d, spec.N, spec.b - 1)
                    + (2 * spec.b * spec.N**spec.d + 1)) * itemsize
    if not small_mass and _dense_levels_fit(spec, itemsize, mem_budget, spec.b - 1) \
            and stream_bytes <= mem_budget:
        return _count_s_streamed(spec)
    keys, vals = _build_sparse(spec, None, spec.b, mem_budget)
    return sum(int(v) * int(v) for v in vals.tolist())


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
    remaining signatures.

    Raises Int64OverflowError, before any array is built, when A^d (up to
    (3N)^d) or the packed (A, B) key would not fit in int64.
    """
    stride = 6 * N**d + 1
    largest = max((3 * N) ** d, 6 * N * stride + 6 * N**d)
    if largest > INT64_MAX:
        raise Int64OverflowError(
            f"max_offcurve_solution_count(d={d}, N={N}) needs integers up to "
            f"{largest:.3e}, beyond int64 ({INT64_MAX:.3e})")
    rng = np.arange(-N, N + 1, dtype=np.int64)
    n1, n2, n3 = np.meshgrid(rng, rng, rng, indexing="ij")
    A = (n1 + n2 + n3).ravel()
    B = (n1**d + n2**d + n3**d).ravel()
    off = B != A**d
    A, B = A[off], B[off]
    key = (A + 3 * N) * stride + (B + 3 * N**d)
    _, counts = np.unique(key, return_counts=True)
    return int(counts.max()) if len(counts) else 0


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
    if n <= len(mu) - 1:
        return int(mu[n])
    raise ValueError(f"mobius beyond sieve limit {len(mu) - 1}")


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
