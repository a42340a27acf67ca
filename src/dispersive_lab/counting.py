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
keys. A signature depends only on the multiset of entries, so a level has
at most one key per multiset; sparse keys are taken whenever that bound
keeps the largest sparse level within both the top grid and the budget,
which also rules out a sparse refusal. For d >= 3 the tables fill well
under 1% of their grid, so this covers most inputs; the grid rule decides
the rest. Sparse keys come from one of two builders with the same keys
(``_build_sparse``): a table whose multiset bound fits the budget, so that
it cannot refuse, holds one row per multiset of entries (its count, and for
a weighted table its weight product) and sorts once, at the top; tables
that may refuse expand and sum every level. Counts are int64 end to end,
``_plan`` refuses keys that would wrap, and sums of squares are Python
ints, so every reported count is exact.
Whatever the layout, a table leaves this module as its (A, B, value)
columns (``power_sum_distribution``) or as one sum (``count_S``,
``weighted_square_sum``) taken on the layout in place.

Unweighted tables are symmetric under n -> -n, which sends (A, B) to
(-A, (-1)^d B), so half of each is built and the rest copied: dense levels
(and the streamed top level) are convolved up to the centre row A = 0, and
for odd d the sparse top level is built up to the centre key (A, B) = (0, 0).
A solution count then takes twice the squares before the centre plus the
centre's own. Weighted tables, and sparse tables with even d, are built whole.
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


def _square_sum(rows) -> int:
    """Exact sum of squares of nonnegative int64 rows; a row's squares add to at most max * sum."""
    return sum(int(np.dot(row, row)) if int(row.max()) * int(row.sum()) <= INT64_MAX
               else sum(v * v for v in row.tolist()) for row in rows)


def _plan(spec: SystemSpec, budget: int, weighted: bool = False, want: str = "table") -> str:
    """How to build the signature table of ``spec``: "dense", "streamed" or "sparse".

    ``want`` is "table", "squares" (only the sum of squared counts, so the
    top level may stream by A-row) or "dense" (else BudgetExceededError).
    A dense build holds its top two levels, a streamed one level b-1 and a
    row; a sparse build may still refuse once its key counts are known, or
    once a lower bound on them is (see ``_build_sparse``).

    Sparse keys are chosen first when their largest level is bounded in
    advance: a signature depends only on the multiset of entries, so level
    b-1 has at most keys = min(C(2N+b-1, b-1), cells(b-1)) keys, and level b
    expands them into pairs = keys * (2N+1) key-value pairs. When pairs are
    no more than the level-b grid has cells (else a grid is the smaller
    layout, as for d = 2) and fit the budget, ``_build_sparse`` cannot
    refuse: its check at level L counts the keys of level L-1, and keys
    never shrink from one level to the next, since delta 0 keeps every key.
    Otherwise the grid rule decides: dense or streamed when a grid fits the
    budget, else sparse. An input thus gets a layout that cannot refuse or
    the same sparse build that the earlier tuple-count rule gave it (sparse
    up to (2N+1)^b = 4,000,000 tuples, the grid rule past that), so no
    input that rule computed is refused.

    Which sparse builder runs is ``_build_sparse``'s choice, from the spec,
    the weighting and the budget alone: a build whose unclipped bound,
    C(2N+b-1, b-1) * (2N+1) pairs of 16 bytes (24 weighted), fits the
    budget has nothing to refuse and is built from multisets, with one sort
    at the top level (``_multisets_fit``); any other expands and sums every
    level.
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
    keys = min(math.comb(2 * spec.N + spec.b - 1, spec.b - 1), cells(spec.b - 1))
    pairs = keys * (2 * spec.N + 1)
    if pairs <= cells(spec.b) and pairs * (8 + itemsize) <= budget:
        return "sparse"
    if want == "squares":
        lower_bytes = (cells(spec.b - 2) + cells(spec.b - 1)) * itemsize
        stream_bytes = (cells(spec.b - 1) + 2 * spec.b_extent + 1) * itemsize
        return "streamed" if max(lower_bytes, stream_bytes) <= budget else "sparse"
    return "dense" if dense_bytes <= budget else "sparse"


def _convolved_rows(lower, spec: SystemSpec, weights, stop=None):
    """A-rows 0 .. stop-1 (default all) of the table one level above the dense ``lower``.

    Every row is yielded in one reused buffer.
    """
    N, Nd = spec.N, spec.N**spec.d
    deltas = _deltas(spec.d, N)
    rows, cols = lower.shape
    row = np.empty(cols + 2 * Nd, dtype=lower.dtype)
    for i in range(rows + 2 * N if stop is None else stop):
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
    """Dense tables of 1-, 2-, ..., b-tuples in turn; stopping early skips the later levels.

    An unweighted table is symmetric under n -> -n, which sends (A, B) to
    (-A, (-1)^d B): only the rows up to the centre row A = 0 are convolved,
    and the rows past it are copies of the rows before it in reverse order,
    with reversed columns when d is odd. Weighted tables convolve every row.
    """
    table = np.ones((1, 1), dtype=np.int64 if weights is None else np.complex128)
    for _ in range(spec.b):
        rows, cols = table.shape
        upper = np.empty((rows + 2 * spec.N, cols + 2 * spec.N**spec.d), dtype=table.dtype)
        half = len(upper) if weights is not None else (len(upper) + 1) // 2
        for i, row in enumerate(_convolved_rows(table, spec, weights, half)):
            upper[i] = row
        mirror = upper[:len(upper) - half][::-1]
        upper[half:] = mirror[:, ::-1] if spec.d % 2 else mirror
        table = upper
        yield table


def _runs(column, stops, operands, ufunc=np.add):
    """ufunc(column[:stop], x) for each (stop, x), end to end in one buffer."""
    out = np.empty(int(stops.sum()), dtype=column.dtype)
    at = 0
    for stop, x in zip(stops.tolist(), operands.tolist()):
        ufunc(column[:stop], x, out=out[at:at + stop])
        at += stop
    return out


def _refuse_sparse(spec: SystemSpec):
    suggestion = max(1, spec.N // 2)
    raise BudgetExceededError(
        f"sparse signature expansion for {spec} exceeds memory budget; "
        f"try N <= {suggestion}",
        suggested_n=suggestion,
    )


def _multisets_fit(spec: SystemSpec, budget: int, weighted: bool = False) -> bool:
    """Whether a sparse build of ``spec`` takes ``_multiset_top``.

    It does when the multiset bound of ``_plan``, C(2N+b-1, b-1) keys of
    level b-1 expanded by 2N+1 deltas at 8 bytes a key and 8 (counts) or 16
    (weighted values) a value, fits the budget: then no level check of
    ``_iterated_top`` can refuse, so the two builders compute the same
    inputs. Its top level has C(2N+b, b) rows, a share (2N+b) / (b (2N+1))
    of those pairs. Each count update forms cnt * L, which is at most L!
    (cnt is at most (L-1)!) and at most b (2N+1)^b (the new count times the
    new multiplicity), so the smaller of the two must fit in int64. A
    weighted row's value is its count times a float weight product, so
    there the largest count, at most b!, must also stay below 2^53, where
    its conversion to float64 is exact.
    """
    K, b = 2 * spec.N + 1, spec.b
    return (math.comb(K + b - 2, b - 1) * K * (24 if weighted else 16) <= budget
            and (math.factorial(b) < 2**53 if weighted
                 else min(math.factorial(b), b * K**b) <= INT64_MAX))


def _multiset_top(spec: SystemSpec, keys, weights, halved: bool):
    """Summed (keys, values) of the b-tuple table, from one row per multiset of entries.

    ``keys`` are level 1's keys, one per entry, increasing. A level's rows
    are its non-decreasing tuples, grouped by their largest entry j: group j
    is the rows of level L-1 whose largest entry is at most j, a prefix, plus
    delta key j, one contiguous add per group and no sort. A row counts the
    ordered tuples of its multiset, L! / prod(multiplicity!); adding j
    multiplies that by L over j's new multiplicity, exactly in int64
    (``_multisets_fit``). Only the largest entry can repeat, and it repeats
    just in the rows of group j of level L-1 itself, which lie at the end of
    each new group j, so a small run counter per row is enough. Every
    ordering of a multiset has the same weight product, so with ``weights``
    a row also carries the product of its entries' weights, group j's being
    the prefix's times weights[j], and its value is count times product.
    The top level alone is summed; with ``halved`` its rows past the centre
    ``keys[N]`` (the key of entry 0) are dropped first. Integer counts add
    exactly, in any order, so an unweighted result has the bytes of
    ``_iterated_top``; a weighted one adds its terms in another order.
    """
    base = keys[spec.N]
    deltas = keys - base
    cnt = np.ones(len(keys), dtype=np.int64)
    prod = None if weights is None else weights.copy()  # scaled in place at the top
    run = np.ones(len(keys), dtype=np.int8)  # multiplicity of each row's largest entry
    ends = np.arange(1, len(keys) + 1)  # group j is rows ends[j-1] .. ends[j]-1
    for level in range(2, spec.b + 1):
        offsets = np.cumsum(ends)
        # the rows of last level's group j, at the end of new group j
        tail = np.repeat(offsets - ends, np.diff(ends, prepend=0)) + np.arange(len(cnt))
        keys = _runs(keys, ends, deltas)
        cnt *= level
        cnt = _runs(cnt, ends, np.zeros_like(deltas))
        if weights is not None:
            prod = _runs(prod, ends, weights, np.multiply)
        run += 1
        cnt[tail] //= run
        if level < spec.b:
            last, run = run, np.ones(len(cnt), dtype=np.int8)
            run[tail] = last
        ends = offsets
    if weights is not None:
        prod *= cnt  # counts below 2^53 convert exactly
        cnt = prod
    if halved:
        keep = keys <= base
        keys, cnt = keys[keep], cnt[keep]
        del keep
    (keys,), cnt = sum_by_key((keys,), cnt)
    return keys, cnt


def _iterated_top(spec: SystemSpec, keys, weights, budget: int, halved: bool):
    """Summed (keys, values) of the b-tuple table by expanding every level in full.

    ``keys`` are level 1's keys, one per entry, increasing. Each level adds
    every delta key to every key of the level below. The pairs are laid
    out delta-major, delta keys increasing: one sorted run per delta.
    ``sum_by_key`` sums equal keys in input order, so this layout fixes the
    order in which every weighted value is added up. With ``halved`` the
    top level is built to the centre only.

    Level L refuses when level L-1 has more keys than a full expansion fits
    in the budget. Below the top, level L's keys are exactly those of level
    L-1 plus every delta key, so the distinct keys of level L-1 plus the 8
    delta keys nearest n = 0 bound them from below. When that bound already
    passes the limit, the build refuses before level L is summed, with the
    error that level L+1 would raise: the same inputs are refused, sooner.
    """
    N = spec.N
    base = keys[N]
    delta_keys = keys - base
    (keys,), vals = sum_by_key((keys,), weights)
    limit = budget // (len(delta_keys) * (8 + vals.itemsize))  # keys a level may expand
    near = delta_keys[max(0, N - 4):N + 4]  # the (at most) 8 delta keys nearest n = 0
    for level in range(2, spec.b + 1):
        if len(keys) > limit:
            _refuse_sparse(spec)
        # the early bound of the docstring: distinct keys of keys + near
        if level < spec.b and len(keys) * len(near) > limit:
            union = (keys[None, :] + near[:, None]).ravel()
            union.sort()  # np.unique was 60x slower on 12.8M keys
            if np.count_nonzero(union[1:] != union[:-1]) + 1 > limit:
                _refuse_sparse(spec)
            del union  # before this level's larger pair array is built
        # lower levels expand in full: halved as well they were faster, but their
        # smaller sorts no longer made glibc trim the heap that earlier tables
        # left, which then stayed resident under the next large dense table
        if level < spec.b or not halved:
            (keys,), vals = sum_by_key(((keys[None, :] + delta_keys[:, None]).ravel(),),
                                       (vals[None, :] * weights[:, None]).ravel())
            continue
        # keys[:stop] + delta are the pairs at or below base; the buffers pass as
        # temporaries, so sum_by_key frees them once sorted
        stops = np.searchsorted(keys, base - delta_keys, side="right")
        (keys,), vals = sum_by_key((_runs(keys, stops, delta_keys),),
                                   _runs(vals, stops, np.zeros_like(delta_keys)))
    return keys, vals


def _build_sparse(spec: SystemSpec, weights, budget: int, mirror_top: bool = True):
    """Sorted packed keys key = base + A * stride + B of the b-tuple table, and their values.

    Two builders give the same keys. Tables whose multiset bound fits the
    budget (``_multisets_fit``) are built by ``_multiset_top``: one row per
    non-decreasing tuple and one sort, at the top level. Those inputs cannot
    refuse. Tables that may refuse, whose refusals depend on the exact key
    count of every level, are built by ``_iterated_top``, which expands and
    sums every level and refuses when a level would not fit the budget. The
    choice depends on the spec, the weighting and the budget only. Counts
    have the same bytes either way; a weighted value is the same sum of
    terms, added in another order, so it may differ in its last bits.

    For odd d an unweighted table is symmetric under (A, B) -> (-A, -B),
    i.e. key -> 2 base - key, so for b >= 2 its top level is built to the
    centre ``base`` only (the zero tuple always lands there, as the last
    key) and mirrored; ``mirror_top=False`` returns that half. The budget
    check counts the full expansion, so refusals do not depend on the
    halving.
    """
    stride = 2 * spec.b_extent + 1
    keys = np.array([n * stride + nd for n, nd in _deltas(spec.d, spec.N)], dtype=np.int64)
    base = np.int64(spec.a_extent) * stride + spec.b_extent
    keys += base
    halved = weights is None and spec.d % 2 == 1 and spec.b > 1
    if _multisets_fit(spec, budget, weights is not None):
        keys, vals = _multiset_top(spec, keys, weights, halved)
    else:
        if weights is None:
            weights = np.ones(len(keys), dtype=np.int64)
        keys, vals = _iterated_top(spec, keys, weights, budget, halved)
    if halved and mirror_top:
        keys = np.concatenate((keys, 2 * base - keys[-2::-1]))
        vals = np.concatenate((vals, vals[-2::-1]))
    return keys, vals


def _top_level(spec: SystemSpec, weights, mem_budget: int):
    """The b-tuple table in the layout ``_plan`` picks: (grid, None) or (keys, values)."""
    if weights is not None:
        weights = np.asarray(weights, dtype=np.complex128)
        if len(weights) != 2 * spec.N + 1:
            raise ValueError("weights must cover n in [-N, N]")
    if _plan(spec, mem_budget, weights is not None) == "dense":
        return deque(_dense_levels(spec, weights), maxlen=1)[0], None
    return _build_sparse(spec, weights, mem_budget)


def power_sum_distribution(spec: SystemSpec, weights=None,
                           mem_budget: int = DEFAULT_MEM_BUDGET):
    """Distribution of (sum n_i, sum n_i^d) over b-tuples, optionally amplitude-weighted.

    ``weights`` is a coefficient vector indexed by n in [-N, N]; unit weights
    count tuples (int64) and others sum amplitudes (complex128). Returns the
    arrays (A, B, value) in (A, B) order, one row per nonzero value, in
    whichever layout ``_plan`` picks for the budget: a weighted sum that
    cancels to zero is dropped from the sparse keys as from the dense grid.
    """
    top, vals = _top_level(spec, weights, mem_budget)
    if vals is None:
        ii, jj = np.nonzero(top)
        return ii - spec.a_extent, jj - spec.b_extent, top[ii, jj]
    if weights is not None:
        live = np.flatnonzero(vals)
        top, vals = top[live], vals[live]
    stride = 2 * spec.b_extent + 1
    return top // stride - spec.a_extent, top % stride - spec.b_extent, vals


def weighted_square_sum(spec: SystemSpec, weights,
                        mem_budget: int = DEFAULT_MEM_BUDGET) -> float:
    """sum over (A, B) of |value|^2 of the weighted table, read in place from its layout."""
    top, vals = _top_level(spec, weights, mem_budget)
    return float(np.sum(np.abs(top if vals is None else vals) ** 2))


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
        # rows A > 0 mirror rows A < 0: twice the squares before the centre row, plus it
        lower = deque(islice(_dense_levels(spec), spec.b - 1), maxlen=1)[0]
        rows = _convolved_rows(lower, spec, None, spec.a_extent + 1)
        head = _square_sum(islice(rows, spec.a_extent))
        return 2 * head + _square_sum(rows)
    if spec.d % 2 == 0:
        return _square_sum([_build_sparse(spec, None, mem_budget)[1]])
    # counts at keys up to the centre, which comes last; the keys past it mirror them
    vals = _build_sparse(spec, None, mem_budget, mirror_top=False)[1]
    return 2 * _square_sum([vals[:-1]]) + int(vals[-1]) ** 2


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
    A, B, counts = power_sum_distribution(SystemSpec(d, 3, N))
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


_DIVISOR_CELLS = 1 << 16  # trial-division grid cells per numpy step of _divisors


def _divisors(ks, top: int):
    """(i, d) for every divisor 1 <= d <= ``top`` of every ks[i] >= 0, by trial division.

    One grid of ks against 1..min(isqrt(max ks), top), so it has
    len(ks) * min(isqrt(max ks), top) cells, walked in row blocks of about
    _DIVISOR_CELLS cells: each d dividing k with d^2 <= k gives d and, when
    it is at most ``top``, its co-divisor k / d (past top^2 no co-divisor is
    at most ``top``). 0 gets no pairs; the pairs come block by block, and
    unordered within a block. The masks are taken on the grid, not on the
    pairs: boolean arrays a few hundred entries long, of a new length at
    every call, stay in numpy's small-buffer cache and fragment the heap
    (0.4 MB more peak RSS over two passes of the circle scans).
    """
    ks = np.asarray(ks, dtype=np.int64)
    bound = min(math.isqrt(int(ks.max())), top) if ks.size else 0
    width = max(bound, 1)
    d = np.arange(1, bound + 1)
    rows = max(1, _DIVISOR_CELLS // width)
    out_i, out_d = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for r in range(0, ks.size, rows):
        kb = ks[r:r + rows, None]
        co = kb // d
        hit = co * d == kb
        small = np.flatnonzero(hit & (d <= co))
        large = np.flatnonzero(hit & (d < co) & (co <= top))
        i, j = np.divmod(small, width)
        out_i += [i + r, large // width + r]
        out_d += [j + 1, co.reshape(-1)[large]]
    return np.concatenate(out_i), np.concatenate(out_d)


def ramanujan_sum(q, n):
    """c_q(n) = sum over delta | gcd(q, n) of delta * mu(q/delta) (Hardy & Wright 16.6).

    Broadcasts over array q and n (int64 result); scalar inputs give an int.
    Each entry of n gets one row of c_m(|n|) over the covering modulus range
    [q_min, q_max]: the row starts at mu(m), the delta = 1 term, and every
    divisor 2 <= delta <= q_max of |n| (from ``_divisors``) adds
    delta * mu(j) at each multiple m = j delta in range, all of them in one
    scatter with no gcd per cell; n = 0 reads phi(m). The (q, n) cells are
    then gathered from the rows. Cost, with width = q_max - q_min + 1:
    n.size * width row cells whatever the broadcast shape, the divisor
    grid's n.size * min(isqrt(max |n|), q_max) cells, and width / delta
    scatter entries per divisor delta of each entry.
    """
    q = np.asarray(q, dtype=np.int64)
    n = np.asarray(n, dtype=np.int64)
    np.broadcast_shapes(q.shape, n.shape)  # a shape mismatch raises before any work
    lo, hi = (int(q.min()), int(q.max())) if q.size else (1, 0)
    if lo < 1:
        raise ValueError("q must be positive")
    mu, phi, _ = mobius_phi_sieve()
    if hi >= len(mu):
        raise ValueError(f"q beyond sieve limit {len(mu) - 1}")
    ks = np.abs(n).ravel()
    width = hi - lo + 1
    rows = np.empty((ks.size, width), dtype=np.int64)
    rows[:] = mu[lo:hi + 1]  # delta = 1
    rows[ks == 0] = phi[lo:hi + 1]
    i, delta = _divisors(ks, hi)
    i, delta = i[delta > 1], delta[delta > 1]
    # one entry per multiple j * delta in [lo, hi] of each (row, divisor)
    # pair, updated in place: fewer live temporaries leave less heap behind
    first = -(-lo // delta)  # least j with j * delta >= lo
    count = hi // delta - first + 1
    j = np.repeat(np.cumsum(count) - count - first, count)
    np.subtract(np.arange(j.size), j, out=j)
    step = np.repeat(delta, count)
    val = mu[j]
    val *= step
    j *= step  # the entry's cell: its row's offset plus m - lo
    j += np.repeat(i * width - lo, count)
    np.add.at(rows.reshape(-1), j, val)
    c = rows.reshape(-1).take(np.arange(ks.size).reshape(n.shape) * width + (q - lo))
    return int(c) if c.ndim == 0 else c


def divisor_count(n: int, Q: int) -> int:
    """#{q : q | n, q < Q} for n != 0."""
    if n == 0:
        raise ValueError("divisor_count undefined for n = 0")
    return len(_divisors([abs(n)], Q - 1)[0])


BLOCK_RATIO_EPS = 0.05  # the epsilon of ramanujan_block_ratio's Q^{1+eps}


def ramanujan_block_ratio(Q: int, n: int) -> float:
    """sum_{Q <= q < 2Q} |c_q(n)| divided by d(n, Q) * Q^{1+eps}, eps = BLOCK_RATIO_EPS.

    Needs Q >= 2, where q = 1 makes d(n, Q) at least 1.
    """
    if Q < 2:
        raise ValueError(f"ramanujan_block_ratio needs Q >= 2, got Q = {Q}")
    block = int(np.abs(ramanujan_sum(np.arange(Q, 2 * Q), n)).sum())
    return block / (divisor_count(n, Q) * Q ** (1.0 + BLOCK_RATIO_EPS))
