"""Fourier representations of periodic functions on the 2 pi torus.

Every function here lives on the torus of period 2 pi with basis e^{i n x},
so mode n has wavenumber n: the torus on which the paper poses fifth-order
KdV. Counting, Weyl sums and level sets work on plain coefficient arrays,
not on these classes. ``TorusConvention`` names that one torus. It stays as
the constructors' leading argument and as the ``"convention": "two_pi"``
field of ``HarmonicTrajectory.to_json``, so existing callers and saved
trajectories keep their form; any other value raises ``ValueError``.

``FourierSeries`` is a band-limited spatial slice; ``HarmonicTrajectory``
is a finite sum of terms c * e^{inx} * t^j * e^{i lambda t}, which is
closed under products, x-derivatives and exact Duhamel integration. A
trajectory holds its terms as four columns (n, j, lambda, c) sorted by the
key (n, j, lambda). Every operation builds its output rows as columns and
hands them to the one sort-and-sum reducer, ``kernels.sum_by_key``, which
merges equal keys in a fixed order: a result does not depend on the order
in which its inputs were built. The key columns are int64, so from
``kernels._PACK_ROWS_MULTI`` rows up they usually sort as one packed int64
word per row. ``coefficients`` evaluates a
trajectory on a time grid with one exp(i lambda t) row per distinct lambda
and one t^j row per power, gathered for each block of terms.

Real data stays exactly real by one rule. When every input is exactly
conjugate-symmetric (``is_real_symmetric()``: tested once per trajectory;
results of this rule, real constants, and sums, truncations and finite real
multiples of trajectories known to be real, record it without the test), an
operation computes only the canonical output keys, those with (n, lambda) >=
(0, 0); each mirror key (-n, j, -lambda) receives the conjugate, and a
self-mirrored key (n = 0, lambda = 0) keeps only its real part. Inputs that
are not exactly real-symmetric are summed in full. On the circle every
frequency is an integer, so lambda is int64, like n and j. A key value given
as a float such as 13.0 is taken as its integer; a non-integer, or a power
j < 0, raises ``ValueError``. A kept frequency must stay below 2^53 in
modulus, where float64 holds it, or ``BandCapExceeded`` (defined in
``kernels``, and importable from here) is raised; two such frequencies add
without wrapping int64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .kernels import EXACT_LIMIT, BandCapExceeded, sum_by_key

DEFAULT_BAND_CAP = 4096
_BLOCK_CELLS = 1 << 15  # (term, time) cells per block of ``coefficients``


class TorusConvention(Enum):
    TWO_PI = "two_pi"  # period 2 pi, basis e^{i n x}


def bracket(x: float) -> float:
    """Japanese bracket <x> = 1 + |x|."""
    return 1.0 + abs(x)


@dataclass(frozen=True)
class FourierSeries:
    """Band-limited periodic function given by complex coefficients on [-band, band]."""

    convention: TorusConvention
    coeff: dict = field(default_factory=dict)
    band: int = field(init=False)  # the largest |n| with a nonzero coefficient

    def __post_init__(self):
        TorusConvention(self.convention)  # any other torus raises ValueError
        clean = {int(n): complex(c) for n, c in self.coeff.items() if c != 0}
        object.__setattr__(self, "coeff", clean)
        object.__setattr__(self, "band", max((abs(n) for n in clean), default=0))

    def __getitem__(self, n: int) -> complex:
        return self.coeff.get(n, 0j)

    def product(self, other: "FourierSeries", band_cap: int = DEFAULT_BAND_CAP) -> "FourierSeries":
        """Exact spectral product (band(f)+band(g), no aliasing): the trajectory product at t = 0."""
        return HarmonicTrajectory.from_series(self).product(
            HarmonicTrajectory.from_series(other), band_cap).at_time(0.0)


def _integers(col, name: str) -> np.ndarray:
    """A key column as int64: any other dtype is checked and converted."""
    col = np.asarray(col)
    if col.dtype == np.int64:
        return col
    col = col.astype(np.float64)
    integer = np.isfinite(col) & (col == np.trunc(col))
    if not integer.all():
        raise ValueError(f"{name} {col[~integer][0]:.17g} is not an integer")
    if (np.abs(col) >= EXACT_LIMIT).any():
        raise BandCapExceeded(f"{name} {np.abs(col).max():.17g} in modulus is not below "
                              "2^53, where float64 stops holding integers exactly")
    return col.astype(np.int64)


class HarmonicTrajectory:
    """Finite sum of terms c * e^{i n x} * t^j * e^{i lambda t}.

    Terms are four columns ``n``, ``j``, ``lam`` (int64) and ``c``
    (complex128), sorted by the key (n, j, lambda), with equal keys merged by
    ``sum_by_key`` and zero amplitudes dropped; j > 0 only arises from
    resonant Duhamel integration. Keys are checked as the module
    docstring says; n^5 stays below 2^53 for |n| <= 1552.
    """

    convention = TorusConvention.TWO_PI

    def __init__(self, convention: TorusConvention, terms: dict | None = None):
        """Sum of ``terms``, a map (n, j, lambda) -> complex amplitude."""
        TorusConvention(convention)  # any other torus raises ValueError
        terms = terms or {}
        n, j, lam = zip(*terms) if terms else ((), (), ())
        self._assign(n, j, lam, list(terms.values()))

    @classmethod
    def from_columns(cls, n, j, lam, c, real: bool = False) -> "HarmonicTrajectory":
        """Sum of the rows (n, j, lam, c); ``real`` applies the canonical-key
        rule of the module docstring, and the result records that it is
        real-symmetric."""
        out = cls.__new__(cls)
        out._assign(n, j, lam, c, real)
        return out

    def _assign(self, n, j, lam, c, real=False):
        n, j, lam = _integers(n, "mode"), _integers(j, "power"), _integers(lam, "frequency")
        if (j < 0).any():
            raise ValueError(f"power {j.min()} is negative: a term is t^j with j >= 0")
        c = np.asarray(c, dtype=complex)
        if real:
            canonical = (n > 0) | ((n == 0) & (lam >= 0))
            (n, j, lam), c = sum_by_key((n[canonical], j[canonical], lam[canonical]),
                                        c[canonical])
            mirrored = (n != 0) | (lam != 0)  # a self-mirrored key keeps its real part
            c = np.where(mirrored, c, c.real)
            n, j, lam, c = (np.concatenate((col, other[mirrored])) for col, other in
                            ((n, -n), (j, j), (lam, -lam), (c, np.conj(c))))
        (n, j, lam), c = sum_by_key((n, j, lam), c)
        kept = c != 0
        big = np.abs(lam) >= EXACT_LIMIT
        if big.any():  # of a kept term
            big = (big & kept).nonzero()[0]
            if len(big):
                raise BandCapExceeded(
                    f"frequency {lam[big[0]]} of mode {n[big[0]]} is not below 2^53, "
                    "where float64 stops holding integers exactly")
        if not kept.all():
            n, j, lam, c = n[kept], j[kept], lam[kept], c[kept]
        self.n, self.j, self.lam, self.c = n, j, lam, c
        self._real = True if real else None  # is_real_symmetric, once known

    @staticmethod
    def from_series(f: FourierSeries) -> "HarmonicTrajectory":
        return HarmonicTrajectory(f.convention, {(n, 0, 0): c for n, c in f.coeff.items()})

    @property
    def columns(self) -> tuple:
        return self.n, self.j, self.lam, self.c

    def rows(self):
        """The terms as (n, j, lambda, c) tuples of Python numbers, in key order."""
        return zip(*(col.tolist() for col in self.columns))

    @cached_property
    def terms(self) -> MappingProxyType:
        """Read-only map (n, j, lambda) -> amplitude, in key order."""
        return MappingProxyType({(n, j, lam): c for n, j, lam, c in self.rows()})

    @property
    def band(self) -> int:
        return int(np.abs(self.n).max(initial=0))

    def term_count(self) -> int:
        return len(self.c)

    def constant(self, c: complex) -> "HarmonicTrajectory":
        """The constant function c (no terms when c == 0); its one key is its
        own mirror, so it records that it is real-symmetric iff c == conj(c)."""
        c = complex(c)
        out = HarmonicTrajectory(self.convention, {(0, 0, 0): c})
        out._real = c == c.conjugate()
        return out

    def __add__(self, other: "HarmonicTrajectory") -> "HarmonicTrajectory":
        out = HarmonicTrajectory.from_columns(
            *(np.concatenate(pair) for pair in zip(self.columns, other.columns)))
        if self._real and other._real:  # conj(a + b) = conj(a) + conj(b), key by key
            out._real = True
        return out

    def __sub__(self, other: "HarmonicTrajectory") -> "HarmonicTrajectory":
        return self + other.scaled(-1.0)

    def scaled(self, alpha: complex) -> "HarmonicTrajectory":
        """alpha times every amplitude. A finite real alpha keeps finite
        real-symmetric amplitudes real-symmetric: alpha * conj(c) and
        conj(alpha * c) are equal values, so the result records it."""
        out = HarmonicTrajectory.from_columns(self.n, self.j, self.lam, alpha * self.c)
        alpha = complex(alpha)
        if (self._real and alpha.imag == 0 and math.isfinite(alpha.real)
                and np.isfinite(self.c).all()):
            out._real = True
        return out

    def product(self, other: "HarmonicTrajectory", band_cap: int = DEFAULT_BAND_CAP) -> "HarmonicTrajectory":
        """Exact product: every pair of terms, summed by key. Real-symmetric
        factors give an exactly real-symmetric product (the canonical-key
        rule of the module docstring)."""
        if self.band + other.band > band_cap:
            raise BandCapExceeded(
                f"product band {self.band + other.band} exceeds cap {band_cap}"
            )
        real = self.is_real_symmetric() and other.is_real_symmetric()
        return HarmonicTrajectory.from_columns(
            np.add.outer(self.n, other.n).ravel(), np.add.outer(self.j, other.j).ravel(),
            np.add.outer(self.lam, other.lam).ravel(),
            np.multiply.outer(self.c, other.c).ravel(), real)

    def x_derivative(self) -> "HarmonicTrajectory":
        return self.x_derivative_power(1)

    def x_derivative_power(self, order: int) -> "HarmonicTrajectory":
        return HarmonicTrajectory.from_columns(self.n, self.j, self.lam,
                                               (1j * self.n) ** order * self.c)

    def coefficients(self, times, band: int) -> np.ndarray:
        """Mode coefficients at each time: array[n + band, m] at times[m], |n| <= band.

        Terms with |n| > band are left out. Terms are summed in (n, j, lambda)
        order, in blocks of at most ``_BLOCK_CELLS`` (term, time) cells; the n
        column is sorted, so a block sums its runs of equal n in place. A cell
        is c * t^j * e^{i lambda t}, its factors read from one row per power
        and per distinct frequency. For a real-symmetric trajectory only the
        rows n >= 0 are summed: row -n is the conjugate of row n and row 0
        keeps its real part.
        """
        times = np.asarray(times, dtype=float)
        out = np.zeros((2 * band + 1, len(times)), dtype=np.complex128)
        real = self.is_real_symmetric()
        sel = ((0 if real else -band) <= self.n) & (self.n <= band)
        n, j, lam, c = (col[sel] for col in self.columns)
        # one row of t^j per j = 0, ..., max j, one of e^{i lam t} per distinct lam
        powers = times ** np.arange(j.max(initial=0) + 1)[:, None]
        waves, lam = np.unique(lam, return_inverse=True)
        waves = np.multiply.outer(1j * waves, times)
        np.exp(waves, out=waves)
        step = max(1, _BLOCK_CELLS // max(len(times), 1))
        for lo in range(0, len(c), step):
            blk = slice(lo, lo + step)
            vals = c[blk, None] * powers[j[blk]] * waves[lam[blk]]
            rows = n[blk]  # sorted: sum each run of equal n in order
            starts = np.concatenate(([True], rows[1:] != rows[:-1])).nonzero()[0]
            out[rows[starts] + band] += np.add.reduceat(vals, starts)
        if real:
            out[:band] = np.conj(out[:band:-1])
            out[band] = out[band].real
        return out

    def at_time(self, t: float) -> FourierSeries:
        """Spatial slice at time t: one column of ``coefficients``."""
        band = self.band
        column = self.coefficients([t], band)[:, 0].tolist()
        return FourierSeries(self.convention, dict(zip(range(-band, band + 1), column)))

    def zero_mode_terms(self) -> "HarmonicTrajectory":
        return self.truncated(0)[0]

    def truncated(self, band: int) -> tuple["HarmonicTrajectory", float]:
        kept = np.abs(self.n) <= band
        dropped = float(np.sqrt(np.sum(np.abs(self.c[~kept]) ** 2)))
        out = HarmonicTrajectory.from_columns(*(col[kept] for col in self.columns))
        if self._real:  # a key and its mirror are kept or dropped together
            out._real = True
        return out, dropped

    def is_real_symmetric(self) -> bool:
        """True iff every key (n, j, lambda) has its mirror (-n, j, -lambda)
        with exactly the conjugate amplitude. Tested once and remembered; a
        trajectory built by the canonical-key rule is symmetric by
        construction and skips the test."""
        if self._real is None:
            mirror = np.lexsort((-self.lam, self.j, -self.n))
            self._real = (np.array_equal(self.n, -self.n[mirror])
                          and np.array_equal(self.j, self.j[mirror])
                          and np.array_equal(self.lam, -self.lam[mirror])
                          and np.array_equal(self.c, np.conj(self.c[mirror])))
        return self._real

    def to_json(self) -> str:
        records = [
            {"n": n, "j": j, "lam": float(lam), "re": c.real, "im": c.imag}
            for n, j, lam, c in self.rows()
        ]
        return json.dumps({"convention": self.convention.value, "terms": records})

    @staticmethod
    def from_json(text: str) -> "HarmonicTrajectory":
        data = json.loads(text)
        return HarmonicTrajectory(data["convention"], {
            (r["n"], r["j"], r["lam"]): complex(r["re"], r["im"]) for r in data["terms"]})
