"""Numeric kernels: the curve sum, the tabulated transform of a flat bump, and
the sort-and-sum reducer behind signature tables and harmonic trajectories.

``CurvePlan`` is the one evaluator of F(x, t) = sum_n a_n e(n x + n^d t),
e(y) = e^{2 pi i y}: Weyl sums, the Dirichlet curve kernel and the level-set
scans all call it, and ``curve_sum`` is a plan called once. One phase rule
serves them: each rounded product n x and n^d t is reduced mod 1 by
p - rint(p), which is exact, and so is their rounded sum before it is scaled
by 2 pi, so no cos or sin argument exceeds pi in modulus. The rule is odd,
so for odd d the phase of -n is exactly the negated phase of n, and a plan
folds each pair into one cos and one sin term on n >= 0; a block of cos or
sin terms whose weights all vanish (the sin block of any a_n = a_{-n}, such
as the all-ones kernel) is never evaluated.
A float t needs n^d exact in float64, so a band with N^d >= 2^53 raises
``BandCapExceeded``; below it, rounding n^d t still costs up to |n^d t| 2^-53
cycles per mode. A ``Fraction`` t = a/q is reduced exactly, as
(a n^d mod q)/q in Python integers, at any n.

``sum_by_key`` sums the values of equal keys in input order. Its key
columns are signed integers (a float column raises ``TypeError``): signature
keys, trajectory modes, powers and frequencies. Columns whose spans,
multiplied, fit beside the row index in 62 bits are sorted as unique packed
(key digits, row) int64 words by ``ndarray.sort``, which gives the stable
order: one column from ``_PACK_ROWS`` rows, several from ``_PACK_ROWS_MULTI``.
Any other input falls back to a stable ``np.lexsort``. Both give the same
bytes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

HAVE_COMPILED = False  # numpy is the only backend; kept for run records
EXACT_LIMIT = 2**53  # float64 holds every integer below it exactly
_BLOCK_CELLS = 1 << 15  # (point, mode) cells per curve_sum block
_READ_CHUNK = 1 << 13  # arguments per table read; bounds the gathered temporaries
_PACK_ROWS = 1 << 12  # fewer rows of one key column sort faster by np.lexsort than packed
_PACK_ROWS_MULTI = 1 << 10  # and fewer rows of several columns


class BandCapExceeded(ValueError):
    """Raised when a spectral product would exceed the hard band cap, or a
    frequency leaves the range float64 holds exactly."""


class CurvePlan:
    """F(x_i, t_i) = sum_n a_n e(n x_i + n^d t_i) for one ``coeff`` a_n on n in [-N, N].

    Built once per (coeff, d), called on any number of points. For odd d,
    (-n)^d = -n^d and the phase rule is odd, so mode -n carries exactly the
    negated phase of n: the plan folds a_n e(p) + a_{-n} e(-p) into
    (a_n + a_{-n}) cos 2 pi p + i (a_n - a_{-n}) sin 2 pi p over n >= 0
    (a_0 alone at n = 0). Even d keeps every mode, with weights a_n and i a_n.
    A cos or sin block whose weights are all zero is never evaluated, and a
    mode with zero weight in every live block is dropped.
    """

    def __init__(self, coeff, d: int):
        coeff = np.asarray(coeff, dtype=np.complex128)
        if len(coeff) % 2 != 1:
            raise ValueError("coeff must cover n in [-N, N]")
        N = self.N = len(coeff) // 2
        self.d = d
        if d % 2:  # weights on n = 0, ..., N: a_n + a_{-n} (a_0 at n = 0) and i (a_n - a_{-n})
            pos, neg = coeff[N:], coeff[N::-1]
            w = np.empty((2, N + 1), dtype=np.complex128)
            np.add(pos, neg, out=w[0])
            np.subtract(pos, neg, out=w[1])
            w[0, 0] = pos[0]
        else:  # weights on n = -N, ..., N: a_n and i a_n
            w = np.empty((2, 2 * N + 1), dtype=np.complex128)
            w[:] = coeff
        w[1] *= 1j
        nz = w != 0  # [cos|sin, mode]
        keep = (nz[0] | nz[1]).nonzero()[0]
        self._modes = keep - N if d % 2 == 0 else keep
        cos_on, sin_on = nz.any(axis=1).tolist()
        live = slice(1 - cos_on, 1 + sin_on)  # the blocks to evaluate: cos, sin, both or none
        self._funcs = (np.cos, np.sin)[live]
        # rows: each live block's modes in turn, as (re, im) pairs
        self._weights = w[live].take(keep, axis=1).view(np.float64).reshape(-1, 2)
        self._powers = None  # float n^d, made on the first float-t call

    def __call__(self, x, t) -> np.ndarray:
        """F at every point; ``t`` is a float array shaped like ``x``, or one
        ``Fraction`` for every point. Blocks of _BLOCK_CELLS (point, mode) cells
        go through one matmul against the weights."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if isinstance(t, Fraction):  # exact residues (a n^d mod q)/q stand in for n^d, at t = 1
            a, q, d = t.numerator, t.denominator, self.d
            powers = np.array([a * n**d % q / q for n in self._modes.tolist()])
            t = np.ones(len(x))
        else:
            if self.N**self.d >= EXACT_LIMIT:
                raise BandCapExceeded(
                    f"mode |n| = {self.N}: n^{self.d} is not below 2^53, where float64 stops "
                    "holding integers exactly; pass t as a Fraction for exact phases")
            t = np.ascontiguousarray(t, dtype=np.float64)
            if x.shape != t.shape:
                raise ValueError("x and t must have matching shapes")
            if self._powers is None:
                self._powers = (self._modes**self.d).astype(np.float64)
            powers = self._powers
        m = len(self._modes)
        if not m:
            return np.zeros(len(x), dtype=np.complex128)
        out = np.empty(len(x), dtype=np.complex128)
        pairs = out.view(np.float64).reshape(-1, 2)  # (re, im) rows: the matmul's output
        rows = max(1, _BLOCK_CELLS // m)
        r = min(rows, len(x))
        # buffers reused by every block: fresh block-sized temporaries cost page faults
        ph, t_part = np.empty((r, m)), np.empty((r, m))
        trig = np.empty((r, len(self._funcs), m))  # per point: the live blocks in turn
        x, t = x[:, None], t[:, None]
        for i in range(0, len(x), rows):
            if i + r > len(x):  # the last block is shorter
                r = len(x) - i
                ph, t_part, trig = ph[:r], t_part[:r], trig[:r]
            scratch = trig[:, 0]
            np.multiply(x[i:i + r], self._modes, out=ph)
            np.multiply(t[i:i + r], powers, out=t_part)
            ph -= np.rint(ph, out=scratch)  # each product mod 1, into [-1/2, 1/2], exactly
            t_part -= np.rint(t_part, out=scratch)
            ph += t_part
            ph -= np.rint(ph, out=scratch)  # and their sum: cos and sin run fastest on [-pi, pi]
            ph *= 2.0 * np.pi
            for j, func in enumerate(self._funcs):
                func(ph, out=trig[:, j])
            np.matmul(trig.reshape(r, -1), self._weights, out=pairs[i:i + r])
        return out


def curve_sum(coeff, d: int, x, t) -> np.ndarray:
    """F(x_i, t_i) = sum_n a_n e(n x_i + n^d t_i): ``CurvePlan(coeff, d)`` called once."""
    return CurvePlan(coeff, d)(x, t)


class TabulatedTransform:
    """F(w) = int f(u) e^{-i w u} du of a real f, even or odd about ``centre``, flat at both ends.

    ``direct`` is the trapezoid rule, geometrically convergent on such an f
    (Trefethen & Weideman, SIAM Review 56, 2014): e^{-i w centre} sum_k v_k
    cos(w o_k), or -i times the sin sum for odd f, over nodes ``offsets``
    o_k >= 0 whose ``weights`` v_k pair each node with its mirror image. A call
    reads a table grown on demand: cell i, [i step, (i + 1) step), holds the
    monomial coefficients of the ``points``-point Lagrange interpolant through
    ``direct`` at (i + r) step, r = 1 - points/2, ..., points/2, for Horner's
    rule. F(-w) = conj F(w), and a read is exactly 0 where |w| >= ``dead``.
    """

    def __init__(self, offsets, weights, centre, odd, points, step, dead):
        self.offsets, self.weights, self.centre, self.odd = offsets, weights, centre, odd
        self.step, self.dead = step, dead
        # column r: node r's Lagrange basis polynomial by np.poly on the integer
        # nodes, so row 0 is exactly a unit vector and a read at a node is exact
        nodes = self._nodes = np.arange(1 - points // 2, points // 2 + 1)
        basis = [np.poly(np.delete(nodes, r)) for r in range(points)]
        self._lagrange = np.array([b[::-1] / np.polyval(b, x) for b, x in zip(basis, nodes)]).T
        self._coef = np.zeros((points, 0), dtype=np.complex128)  # [power, cell]

    def direct(self, w) -> np.ndarray:
        """The trapezoid rule at every w."""
        w = np.asarray(w, dtype=float)
        flat = w.ravel()
        sums = np.empty(len(flat))
        rows = (1 << 16) // len(self.offsets)  # about 2^16 cos or sin cells per matmul
        for i in range(0, len(flat), rows):
            phases = np.outer(flat[i:i + rows], self.offsets)
            sums[i:i + rows] = (np.sin if self.odd else np.cos)(phases) @ self.weights
        out = (-1j * sums if self.odd else sums) * np.exp(-1j * self.centre * flat)
        return out.reshape(w.shape)[()]

    def taylor(self, terms: int) -> np.ndarray:
        """a_0, ..., a_{terms-1} of direct(w) = sum_m a_m w^m: the rule's own Taylor series.

        For an even f: a node pair centre +- o_k of weight v_k / 2 each gives
        a_m = (-i)^m / m! times the node moments
        sum_k v_k ((centre + o_k)^m + (centre - o_k)^m) / 2.
        """
        assert not self.odd, "the Taylor series of an odd table is not implemented"
        hi, lo = self.centre + self.offsets, self.centre - self.offsets
        return np.array([self.weights @ (hi**m + lo**m) / 2
                         * (1, -1j, -1, 1j)[m % 4] / math.factorial(m) for m in range(terms)])

    def grow(self, w_max: float):
        """Tabulate every cell that a read up to min(w_max, dead) touches, with 25% headroom."""
        need = int(min(w_max, self.dead) / self.step) + 1
        if need > self._coef.shape[1]:
            cells = min(int(1.25 * need) + 1, int(self.dead / self.step) + 1)
            vals = self.direct(self.step * np.arange(self._nodes[0], cells + self._nodes[-1]))
            self._coef = np.array([sum(m * vals[r:r + cells] for r, m in enumerate(row))
                                   for row in self._lagrange])

    def __call__(self, w) -> np.ndarray:
        """The tabulated transform at every w, read in chunks of _READ_CHUNK arguments."""
        w = np.asarray(w, dtype=float)
        flat = w.ravel()
        live = np.flatnonzero(np.abs(flat) < self.dead)
        mag = np.abs(flat[live])
        self.grow(float(mag.max(initial=0.0)))
        out = np.zeros(len(flat), dtype=np.complex128)
        for i in range(0, len(live), _READ_CHUNK):
            s = mag[i:i + _READ_CHUNK] / self.step
            cell = s.astype(np.intp)
            s -= cell
            v = self._coef[-1][cell]
            for c in self._coef[-2::-1]:
                v *= s
                v += c[cell]
            out[live[i:i + _READ_CHUNK]] = v
        out.imag[flat < 0] *= -1  # F(-w) = conj F(w)
        return out.reshape(w.shape)[()]


def sum_by_key(key_columns, vals):
    """Merge rows with equal keys: (sorted unique key columns, summed values).

    Rows are sorted lexicographically, first column first, and equal keys are
    summed in input order. Every key column must hold signed integers; any
    other dtype raises ``TypeError``.

    Key columns whose spans fit (``_packing``) are sorted as
    packed int64 words: the columns' digits in mixed radix, first column most
    significant, shifted above the row index and sorted in place by
    ``ndarray.sort``. The words are unique, so their order is the stable
    order, at a fraction of the cost of an indirect sort; equal keys are
    equal words above the row bits, and each column is read back from the
    words at the run starts only. The span test runs in Python integers and
    every digit is a nonnegative int64 below its span, so no word wraps.
    Other inputs take a stable ``np.lexsort``; both give the same bytes.
    """
    if any(col.dtype.kind != "i" for col in key_columns):
        raise TypeError("sum_by_key takes signed integer key columns, got "
                        f"{[col.dtype.name for col in key_columns]}")
    pack = _packing(key_columns)
    if pack:
        (digits, bits), dtypes = pack, [col.dtype for col in key_columns]
        del pack, key_columns  # a caller's temporary inputs are freed here, not on return
        (key, lo, _), *rest = digits
        if lo or rest:
            word = np.subtract(key, lo, dtype=np.int64)
            for key, lo, span in rest:
                word *= span
                word += np.subtract(key, lo, dtype=np.int64)
            word <<= bits
        else:  # one pass
            word = np.left_shift(key, bits, dtype=np.int64)
        radix = [(lo, span) for _, lo, span in digits]
        del digits, rest, key
        rows = np.arange(len(word))
        word |= rows
        word.sort()
        vals = vals[np.bitwise_and(word, (1 << bits) - 1, out=rows)]  # the order, into rows
        del rows
        word >>= bits
        starts = np.concatenate(([True], word[1:] != word[:-1])).nonzero()[0]
        word = word[starts]
        keys = []
        for (lo, span), dtype in zip(radix[::-1], dtypes[::-1]):  # last column first
            col = word
            if span:
                word, col = np.divmod(word, span)
            keys.append((col + lo if lo else col).astype(dtype, copy=False))
        return keys[::-1], np.add.reduceat(vals, starts)
    order = np.lexsort(key_columns[::-1])
    vals = vals[order]
    keys = [col[order] for col in key_columns]
    del order, key_columns  # a caller's temporary inputs are freed here, not on return
    new = np.zeros(len(vals), dtype=bool)
    new[:1] = True
    for col in keys:
        new[1:] |= col[1:] != col[:-1]
    starts = new.nonzero()[0]
    return [col[starts] for col in keys], np.add.reduceat(vals, starts)


def _packing(key_columns):
    """(digits, bits) that pack the integer key columns with the row index
    into int64 words, or None; bits = bit_length(rows - 1).

    ``digits`` holds (values, lo, span) per column: the product of the spans
    hi - lo + 1 must fit below 2^(62 - bits). One column needs at least
    ``_PACK_ROWS`` rows, several ``_PACK_ROWS_MULTI``. The first column is
    the most significant digit, so its span is None (never divided out); a
    lone column's lo is 0 when its keys are nonnegative and fit as they are.
    """
    rows = len(key_columns[0])
    if rows < (_PACK_ROWS if len(key_columns) == 1 else _PACK_ROWS_MULTI):
        return None
    bits = (rows - 1).bit_length()
    room = 62 - bits  # key bits a word holds above the row bits
    digits, total = [], 1
    for col in key_columns:
        lo, hi = int(col.min()), int(col.max())
        total *= hi - lo + 1
        if (total - 1) >> room:
            return None
        digits.append((col, lo, hi - lo + 1 if digits else None))
    if len(digits) == 1 and lo >= 0 and hi >> room == 0:
        digits = [(col, 0, None)]
    return digits, bits
