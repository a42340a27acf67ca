"""Fourier representations of periodic functions on the two torus conventions.

Two normalizations coexist in the lab and are never mixed implicitly:

* ``UNIT``  -- period 1, basis e^{2 pi i n x}; used by the counting,
  Weyl-sum and level-set machinery.
* ``TWO_PI`` -- period 2 pi, basis e^{i n x}; used by the PDE side.

``FourierSeries`` is a band-limited spatial slice; ``HarmonicTrajectory``
is a finite sum of terms c * e^{inx} * t^j * e^{i lambda t}, which is
closed under products, x-derivatives and exact Duhamel integration.

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

import numpy as np

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


def mirror_completed(half: dict) -> dict:
    """Full result of a real-symmetric operation from its canonical keys.

    ``half`` holds only keys (n, j, lambda) with (n, lambda) >= (0, 0); each
    mirror key gets the conjugate and a self-mirrored key its real part, so
    the result is exactly conjugate-symmetric.
    """
    out = {}
    for (n, j, lam), c in half.items():
        if n == 0 and lam == 0.0:
            out[(n, j, lam)] = complex(c.real)
        else:
            out[(n, j, lam)] = c
            out[(-n, j, -lam)] = c.conjugate()
    return out


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
        _check_same_convention(self, other)
        out = dict(self.coeff)
        for n, c in other.coeff.items():
            out[n] = out.get(n, 0j) + c
        return FourierSeries(self.convention, out)

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

    def is_real_symmetric(self, tol: float = 0.0) -> bool:
        """True iff coeff(-n) == conj(coeff(n)) within tol (0 means exact)."""
        for n, c in self.coeff.items():
            if abs(self.coeff.get(-n, 0j) - c.conjugate()) > tol:
                return False
        return True

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


@dataclass(frozen=True)
class HarmonicTrajectory:
    """Finite sum of terms c * e^{i w n x} * t^j * e^{i lambda t}.

    Terms are stored merged on the key (n, j, lambda); j > 0 only arises from
    resonant Duhamel integration. A term with |lambda| >= 2^53 raises
    ``BandCapExceeded``: below that bound every integer is a float64, and
    since rounding is monotone an integer combination of exact frequencies
    (a flow, product or Duhamel key) that passes it cannot round back below
    it. Dispersion frequencies n^5 are exact for |n| <= 1552.
    """

    convention: TorusConvention
    terms: dict = field(default_factory=dict)  # (n, j, lam) -> complex amplitude

    def __post_init__(self):
        clean = {}
        for (n, j, lam), c in self.terms.items():
            c = complex(c)
            if c != 0:
                lam = float(lam)
                if abs(lam) >= _LAMBDA_LIMIT:
                    raise BandCapExceeded(
                        f"frequency {lam:.17g} of mode {n} is not below 2^53, "
                        "where float64 stops holding integers exactly")
                clean[(int(n), int(j), lam)] = c
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def from_series(f: FourierSeries) -> "HarmonicTrajectory":
        return HarmonicTrajectory(f.convention, {(n, 0, 0.0): c for n, c in f.coeff.items()})

    @property
    def band(self) -> int:
        return max((abs(n) for (n, _, _) in self.terms), default=0)

    def term_count(self) -> int:
        return len(self.terms)

    def __add__(self, other: "HarmonicTrajectory") -> "HarmonicTrajectory":
        _check_same_convention(self, other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0j) + c
        return HarmonicTrajectory(self.convention, out)

    def __sub__(self, other: "HarmonicTrajectory") -> "HarmonicTrajectory":
        return self + other.scaled(-1.0)

    def scaled(self, alpha: complex) -> "HarmonicTrajectory":
        return HarmonicTrajectory(self.convention, {k: alpha * c for k, c in self.terms.items()})

    def product(self, other: "HarmonicTrajectory", band_cap: int = DEFAULT_BAND_CAP) -> "HarmonicTrajectory":
        """Exact product; real-symmetric factors give an exactly real-symmetric
        product (the canonical-key rule of the module docstring)."""
        _check_same_convention(self, other)
        if self.band + other.band > band_cap:
            raise BandCapExceeded(
                f"product band {self.band + other.band} exceeds cap {band_cap}"
            )
        real = self.is_real_symmetric() and other.is_real_symmetric()
        out: dict = {}
        for (n1, j1, l1), c1 in self.terms.items():
            for (n2, j2, l2), c2 in other.terms.items():
                n, lam = n1 + n2, l1 + l2
                if real and (n < 0 or (n == 0 and lam < 0.0)):
                    continue
                key = (n, j1 + j2, lam)
                out[key] = out.get(key, 0j) + c1 * c2
        return HarmonicTrajectory(self.convention, mirror_completed(out) if real else out)

    def x_derivative(self) -> "HarmonicTrajectory":
        w = self.convention.wavenumber_factor
        return HarmonicTrajectory(
            self.convention,
            {(n, j, lam): 1j * w * n * c for (n, j, lam), c in self.terms.items()},
        )

    def x_derivative_power(self, order: int) -> "HarmonicTrajectory":
        w = self.convention.wavenumber_factor
        return HarmonicTrajectory(
            self.convention,
            {(n, j, lam): (1j * w * n) ** order * c for (n, j, lam), c in self.terms.items()},
        )

    def t_derivative(self) -> "HarmonicTrajectory":
        """Exact d/dt: t^j e^{i lam t} -> j t^{j-1} e^{i lam t} + i lam t^j e^{i lam t}."""
        out: dict = {}
        for (n, j, lam), c in self.terms.items():
            if j > 0:
                key = (n, j - 1, lam)
                out[key] = out.get(key, 0j) + j * c
            key = (n, j, lam)
            out[key] = out.get(key, 0j) + 1j * lam * c
        return HarmonicTrajectory(self.convention, out)

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
        keys = sorted(k for k in self.terms if (0 if real else -band) <= k[0] <= band)
        if keys:
            n, j, lam = (np.array(col) for col in zip(*keys))
            c = np.array([self.terms[k] for k in keys])
            step = max(1, _BLOCK_CELLS // max(len(times), 1))
            for lo in range(0, len(keys), step):
                blk = slice(lo, lo + step)
                vals = (c[blk, None] * times ** j[blk, None]
                        * np.exp(1j * lam[blk, None] * times))
                rows, starts = np.unique(n[blk], return_index=True)
                out[rows + band] += np.add.reduceat(vals, starts, axis=0)
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
        return HarmonicTrajectory(
            self.convention, {k: c for k, c in self.terms.items() if k[0] == 0}
        )

    def truncated(self, band: int) -> tuple["HarmonicTrajectory", float]:
        kept = {k: c for k, c in self.terms.items() if abs(k[0]) <= band}
        dropped = math.sqrt(sum(abs(c) ** 2 for k, c in self.terms.items() if abs(k[0]) > band))
        return HarmonicTrajectory(self.convention, kept), dropped

    def is_real_symmetric(self, tol: float = 0.0) -> bool:
        for (n, j, lam), c in self.terms.items():
            mirror = self.terms.get((-n, j, -lam), 0j)
            if abs(mirror - c.conjugate()) > tol:
                return False
        return True

    def to_json(self) -> str:
        records = [
            {"n": n, "j": j, "lam": lam, "re": c.real, "im": c.imag}
            for (n, j, lam), c in sorted(self.terms.items())
        ]
        return json.dumps({"convention": self.convention.value, "terms": records})

    @staticmethod
    def from_json(text: str) -> "HarmonicTrajectory":
        data = json.loads(text)
        conv = TorusConvention(data["convention"])
        terms = {
            (int(r["n"]), int(r["j"]), float(r["lam"])): complex(r["re"], r["im"])
            for r in data["terms"]
        }
        return HarmonicTrajectory(conv, terms)
