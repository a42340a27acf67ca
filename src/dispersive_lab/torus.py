"""Fourier representations of periodic functions on the two torus conventions.

Two normalizations coexist in the lab and are never mixed implicitly:

* ``UNIT``  -- period 1, basis e^{2 pi i n x}; used by the counting,
  Weyl-sum and level-set machinery.
* ``TWO_PI`` -- period 2 pi, basis e^{i n x}; used by the PDE side.

``FourierSeries`` is a band-limited spatial slice; ``HarmonicTrajectory``
is a finite sum of terms c * e^{inx} * t^j * e^{i lambda t}, which is
closed under products, x-derivatives and exact Duhamel integration. A
trajectory holds its terms as four columns (n, j, lambda, c) sorted by the
key (n, j, lambda). Every operation builds its output rows as columns and
hands them to the one sort-and-sum reducer, ``kernels.sum_by_key``, which
merges equal keys in a fixed order: a result does not depend on the order
in which its inputs were built.

Real data stays exactly real by one rule. When every input is exactly
conjugate-symmetric (``is_real_symmetric()``), an operation computes only
the canonical output keys, those with (n, lambda) >= (0, 0); each mirror key
(-n, j, -lambda) receives the conjugate, and a self-mirrored key (n = 0,
lambda = 0) keeps only its real part. Inputs that are not exactly
real-symmetric are summed in full. Frequencies are float64 and must stay
below 2^53 in modulus, where every integer is exact; a larger one raises
``BandCapExceeded``.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .kernels import sum_by_key

DEFAULT_BAND_CAP = 4096
_LAMBDA_LIMIT = 2.0 ** 53  # float64 holds every integer below it exactly
_BLOCK_CELLS = 1 << 15  # (term, time) cells per block of ``coefficients``


class BandCapExceeded(ValueError):
    """Raised when a spectral product would exceed the hard band cap, or a
    trajectory frequency leaves the range float64 holds exactly."""


class ConventionMismatch(ValueError):
    """Raised on arithmetic between objects with different torus conventions."""


class TorusConvention(Enum):
    UNIT = "unit"      # period 1, basis e^{2 pi i n x}
    TWO_PI = "two_pi"  # period 2 pi, basis e^{i n x}

    @property
    def wavenumber_factor(self) -> float:
        """Multiplier w such that mode n has spatial frequency w*n."""
        return 2.0 * math.pi if self is TorusConvention.UNIT else 1.0

    @property
    def period(self) -> float:
        return 1.0 if self is TorusConvention.UNIT else 2.0 * math.pi


def bracket(x: float) -> float:
    """Japanese bracket <x> = 1 + |x|."""
    return 1.0 + abs(x)


def _check_same_convention(a, b):
    if a.convention is not b.convention:
        raise ConventionMismatch(
            f"mixed torus conventions: {a.convention.value} vs {b.convention.value}"
        )


@dataclass(frozen=True)
class FourierSeries:
    """Band-limited periodic function given by complex coefficients on [-band, band]."""

    convention: TorusConvention
    coeff: dict = field(default_factory=dict)
    band: int = None  # type: ignore[assignment]

    def __post_init__(self):
        clean = {int(n): complex(c) for n, c in self.coeff.items() if c != 0}
        object.__setattr__(self, "coeff", clean)
        b = max((abs(n) for n in clean), default=0)
        if self.band is None:
            object.__setattr__(self, "band", b)
        elif self.band < b:
            raise ValueError(f"coefficients outside declared band {self.band}")

    def __getitem__(self, n: int) -> complex:
        return self.coeff.get(n, 0j)

    def __add__(self, other: "FourierSeries") -> "FourierSeries":
        """The trajectory sum at t = 0."""
        return (HarmonicTrajectory.from_series(self) + HarmonicTrajectory.from_series(other)
                ).at_time(0.0)

    def __sub__(self, other: "FourierSeries") -> "FourierSeries":
        return self + other.scaled(-1.0)

    def scaled(self, alpha: complex) -> "FourierSeries":
        return FourierSeries(self.convention, {n: alpha * c for n, c in self.coeff.items()})

    def product(self, other: "FourierSeries", band_cap: int = DEFAULT_BAND_CAP) -> "FourierSeries":
        """Exact spectral product (band(f)+band(g), no aliasing): the trajectory product at t = 0."""
        return HarmonicTrajectory.from_series(self).product(
            HarmonicTrajectory.from_series(other), band_cap).at_time(0.0)

    def derivative(self) -> "FourierSeries":
        """Spatial derivative: coeff(n) -> i*w*n*coeff(n) with w the wavenumber factor."""
        w = self.convention.wavenumber_factor
        return FourierSeries(self.convention, {n: 1j * w * n * c for n, c in self.coeff.items()})

    def truncated(self, band: int) -> tuple["FourierSeries", float]:
        """Drop modes with |n| > band; returns (truncated series, dropped l2 mass)."""
        kept = {n: c for n, c in self.coeff.items() if abs(n) <= band}
        dropped = math.sqrt(sum(abs(c) ** 2 for n, c in self.coeff.items() if abs(n) > band))
        return FourierSeries(self.convention, kept, band=band), dropped

    def evaluate(self, x) -> complex:
        w = self.convention.wavenumber_factor
        return sum(c * cmath.exp(1j * w * n * x) for n, c in self.coeff.items())

    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeff.values()))

    def is_real_symmetric(self) -> bool:
        """True iff coeff(-n) == conj(coeff(n)) exactly."""
        return HarmonicTrajectory.from_series(self).is_real_symmetric()

    def to_json(self) -> str:
        records = [
            {"n": n, "re": c.real, "im": c.imag}
            for n, c in sorted(self.coeff.items())
        ]
        return json.dumps({"convention": self.convention.value, "coeff": records})

    @staticmethod
    def from_json(text: str) -> "FourierSeries":
        data = json.loads(text)
        conv = TorusConvention(data["convention"])
        coeff = {int(r["n"]): complex(r["re"], r["im"]) for r in data["coeff"]}
        return FourierSeries(conv, coeff)


class HarmonicTrajectory:
    """Finite sum of terms c * e^{i w n x} * t^j * e^{i lambda t}.

    Terms are four columns ``n``, ``j`` (int64), ``lam`` (float64) and ``c``
    (complex128), sorted by the key (n, j, lambda), with equal keys merged by
    ``sum_by_key`` and zero amplitudes dropped; j > 0 only arises from
    resonant Duhamel integration. A term with |lambda| >= 2^53 raises
    ``BandCapExceeded``: below that bound every integer is a float64, and
    since rounding is monotone an integer combination of exact frequencies
    (a flow, product or Duhamel key) that passes it cannot round back below
    it. Dispersion frequencies n^5 are exact for |n| <= 1552.
    """

    def __init__(self, convention: TorusConvention, terms: dict | None = None):
        """Sum of ``terms``, a map (n, j, lambda) -> complex amplitude."""
        terms = terms or {}
        n, j, lam = zip(*terms) if terms else ((), (), ())
        self._assign(convention, n, j, lam, list(terms.values()))

    @classmethod
    def from_columns(cls, convention, n, j, lam, c, real: bool = False) -> "HarmonicTrajectory":
        """Sum of the rows (n, j, lam, c); ``real`` applies the canonical-key
        rule of the module docstring."""
        out = cls.__new__(cls)
        out._assign(convention, n, j, lam, c, real)
        return out

    def _assign(self, convention, n, j, lam, c, real=False):
        n, j = np.asarray(n, dtype=np.int64), np.asarray(j, dtype=np.int64)
        lam, c = np.asarray(lam, dtype=float), np.asarray(c, dtype=complex)
        if real:
            canonical = (n > 0) | ((n == 0) & (lam >= 0.0))
            (n, j, lam), c = sum_by_key((n[canonical], j[canonical], lam[canonical]),
                                        c[canonical])
            own = (n == 0) & (lam == 0.0)
            c = np.where(own, c.real, c)
            n, j, lam, c = (np.concatenate((col, other[~own])) for col, other in
                            ((n, -n), (j, j), (lam, -lam), (c, np.conj(c))))
        (n, j, lam), c = sum_by_key((n, j, lam), c)
        kept = c != 0
        big = np.flatnonzero(kept & (np.abs(lam) >= _LAMBDA_LIMIT))
        if len(big):
            raise BandCapExceeded(
                f"frequency {lam[big[0]]:.17g} of mode {n[big[0]]} is not below 2^53, "
                "where float64 stops holding integers exactly")
        self.convention = convention
        self.n, self.j, self.lam, self.c = n[kept], j[kept], lam[kept], c[kept]

    @staticmethod
    def from_series(f: FourierSeries) -> "HarmonicTrajectory":
        return HarmonicTrajectory(f.convention, {(n, 0, 0.0): c for n, c in f.coeff.items()})

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

    def __add__(self, other: "HarmonicTrajectory") -> "HarmonicTrajectory":
        _check_same_convention(self, other)
        return HarmonicTrajectory.from_columns(
            self.convention, *(np.concatenate(pair) for pair in zip(self.columns, other.columns)))

    def __sub__(self, other: "HarmonicTrajectory") -> "HarmonicTrajectory":
        return self + other.scaled(-1.0)

    def scaled(self, alpha: complex) -> "HarmonicTrajectory":
        return HarmonicTrajectory.from_columns(self.convention, self.n, self.j, self.lam,
                                               alpha * self.c)

    def product(self, other: "HarmonicTrajectory", band_cap: int = DEFAULT_BAND_CAP) -> "HarmonicTrajectory":
        """Exact product: every pair of terms, summed by key. Real-symmetric
        factors give an exactly real-symmetric product (the canonical-key
        rule of the module docstring)."""
        _check_same_convention(self, other)
        if self.band + other.band > band_cap:
            raise BandCapExceeded(
                f"product band {self.band + other.band} exceeds cap {band_cap}"
            )
        real = self.is_real_symmetric() and other.is_real_symmetric()
        return HarmonicTrajectory.from_columns(
            self.convention, np.add.outer(self.n, other.n).ravel(),
            np.add.outer(self.j, other.j).ravel(), np.add.outer(self.lam, other.lam).ravel(),
            np.multiply.outer(self.c, other.c).ravel(), real)

    def x_derivative(self) -> "HarmonicTrajectory":
        return self.x_derivative_power(1)

    def x_derivative_power(self, order: int) -> "HarmonicTrajectory":
        w = self.convention.wavenumber_factor
        return HarmonicTrajectory.from_columns(self.convention, self.n, self.j, self.lam,
                                               (1j * w * self.n) ** order * self.c)

    def t_derivative(self) -> "HarmonicTrajectory":
        """Exact d/dt: t^j e^{i lam t} -> j t^{j-1} e^{i lam t} + i lam t^j e^{i lam t}."""
        s = self.j > 0
        return HarmonicTrajectory.from_columns(
            self.convention, np.concatenate((self.n, self.n[s])),
            np.concatenate((self.j, self.j[s] - 1)), np.concatenate((self.lam, self.lam[s])),
            np.concatenate((1j * self.lam * self.c, self.j[s] * self.c[s])))

    def coefficients(self, times, band: int) -> np.ndarray:
        """Mode coefficients at each time: array[n + band, m] at times[m], |n| <= band.

        Terms with |n| > band are left out. Terms are summed in (n, j, lambda)
        order, in blocks of at most ``_BLOCK_CELLS`` (term, time) cells. For a
        real-symmetric trajectory only the rows n >= 0 are summed: row -n is
        the conjugate of row n and row 0 keeps its real part.
        """
        times = np.asarray(times, dtype=float)
        out = np.zeros((2 * band + 1, len(times)), dtype=np.complex128)
        real = self.is_real_symmetric()
        sel = ((0 if real else -band) <= self.n) & (self.n <= band)
        n, j, lam, c = (col[sel] for col in self.columns)
        step = max(1, _BLOCK_CELLS // max(len(times), 1))
        for lo in range(0, len(c), step):
            blk = slice(lo, lo + step)
            vals = (c[blk, None] * times ** j[blk, None]
                    * np.exp(1j * lam[blk, None] * times))
            (rows,), sums = sum_by_key((n[blk],), vals)
            out[rows + band] += sums
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
        return HarmonicTrajectory.from_columns(
            self.convention, *(col[kept] for col in self.columns)), dropped

    def is_real_symmetric(self) -> bool:
        """True iff every key (n, j, lambda) has its mirror (-n, j, -lambda)
        with exactly the conjugate amplitude."""
        mirror = np.lexsort((-self.lam, self.j, -self.n))
        return (np.array_equal(self.n, -self.n[mirror])
                and np.array_equal(self.j, self.j[mirror])
                and np.array_equal(self.lam, -self.lam[mirror])
                and np.array_equal(self.c, np.conj(self.c[mirror])))

    def to_json(self) -> str:
        records = [
            {"n": n, "j": j, "lam": lam, "re": c.real, "im": c.imag}
            for n, j, lam, c in self.rows()
        ]
        return json.dumps({"convention": self.convention.value, "terms": records})

    @staticmethod
    def from_json(text: str) -> "HarmonicTrajectory":
        data = json.loads(text)
        conv = TorusConvention(data["convention"])
        return HarmonicTrajectory(conv, {(r["n"], r["j"], r["lam"]): complex(r["re"], r["im"])
                                         for r in data["terms"]})
