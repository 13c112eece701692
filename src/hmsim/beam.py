"""Spot-beam channel model: per-receiver SNR in a geostationary beam.

A receiver's SNR is the boresight value SNR_max minus two attenuations:

* location: receivers are uniform over the coverage disk of a nadir-pointing
  beam; the disk edge is where the parabolic-antenna pattern has dropped
  edge_level_db below boresight. The pattern is the standard circular
  aperture model  G(theta)/Gmax = (2 J1(x)/x)^2  with
  x = sin(theta) * pi * D / lambda.
* weather: drawn from an empirical attenuation distribution supplied as a
  tabulated CDF, sampled by inverse transform with linear interpolation.

Sampling functions take a numpy Generator (or anything accepted by
``numpy.random.default_rng``) and consume a fixed number of uniforms per
receiver in a fixed order, so a population is a pure function of the seed.
Callers that parallelize derive one child seed per work unit, e.g.
``SeedSequence(master, spawn_key=(unit,))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Sequence, Union

import numpy as np

__all__ = [
    "GEO_ALTITUDE_M",
    "AntennaConfig",
    "WeatherCdf",
    "bessel_j1",
    "antenna_gain_rel",
    "beam_edge_angle",
    "sample_location_attenuation",
    "sample_weather_attenuation",
    "draw_population",
]

SPEED_OF_LIGHT = 299_792_458.0
GEO_ALTITUDE_M = 35_786_000.0

# First positive zero of J1: the pattern's first null.
_J1_FIRST_ZERO = 3.8317059702075123

# J1(x) = (x/2) * sum_k (-1)^k (x^2/4)^k / (k! (k+1)!). 52 terms keep the
# alternating tail far below 1e-20 for x <= 16, where the series hands over
# to the large-argument expansion. The series suffers cancellation as x
# grows (the largest term at x = 16 is ~2e4), so it is summed in extended
# precision to hold the branch-agreement error at the cutoff near 1e-13.
_SERIES_CUTOFF = 16.0
_J1_SERIES_COEFFS = [
    np.longdouble((-1) ** k) / (np.longdouble(math.factorial(k)) * np.longdouble(math.factorial(k + 1)))
    for k in range(52)
]


def _j1_series_factor(x2_over_4):
    """sum_k (-1)^k u^k / (k!(k+1)!) by Horner; J1(x) = (x/2) * this."""
    u = np.asarray(x2_over_4, dtype=np.longdouble)
    acc = np.full_like(u, _J1_SERIES_COEFFS[-1])
    for c in reversed(_J1_SERIES_COEFFS[:-1]):
        acc = acc * u + c
    return acc.astype(float)


def _hankel_pq_coeffs(n_terms: int) -> tuple[list[float], list[float]]:
    # P = sum_k p_k z^k and Q = (1/8x) sum_k q_k z^k with z = 1/(8x)^2 and
    # p_k, q_k built from the products (mu - 1)(mu - 9)... with mu = 4.
    mu = 4
    p_coeffs, q_coeffs = [], []
    prod = Fraction(1)
    factor = 0
    for k in range(n_terms):
        p_coeffs.append(float(prod / math.factorial(2 * k)) * (-1) ** k)
        prod *= mu - (2 * factor + 1) ** 2
        factor += 1
        q_coeffs.append(float(prod / math.factorial(2 * k + 1)) * (-1) ** k)
        prod *= mu - (2 * factor + 1) ** 2
        factor += 1
    return p_coeffs, q_coeffs


_J1_P_COEFFS, _J1_Q_COEFFS = _hankel_pq_coeffs(11)


def _j1_asymptotic(x):
    """Hankel expansion of J1, truncated near its smallest term for the
    cutoff region; error ~1e-13 at x = 16 and falling rapidly beyond."""
    inv = 1.0 / (8.0 * x)
    z = inv * inv
    p = np.full_like(z, _J1_P_COEFFS[-1])
    for c in reversed(_J1_P_COEFFS[:-1]):
        p = p * z + c
    q = np.full_like(z, _J1_Q_COEFFS[-1])
    for c in reversed(_J1_Q_COEFFS[:-1]):
        q = q * z + c
    q *= inv
    chi = x - 0.75 * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def bessel_j1(x):
    """First-order Bessel function of the first kind, elementwise.

    Power series up to x = 16, Hankel asymptotics above; absolute error
    under 1e-10 everywhere and ~1e-13 on the pattern's domain of use.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    sign = np.sign(x)
    ax = np.abs(x)
    out = np.empty_like(ax)
    small = ax <= _SERIES_CUTOFF
    if small.any():
        xs = ax[small]
        out[small] = (xs / 2.0) * _j1_series_factor(xs * xs / 4.0)
    if (~small).any():
        out[~small] = _j1_asymptotic(ax[~small])
    out *= sign  # J1 is odd
    return out[0] if scalar else out


@dataclass(frozen=True)
class AntennaConfig:
    """Transmit antenna and beam-edge definition.

    edge_level_db is the (positive) depth of the beam edge below boresight;
    it must lie strictly inside the main lobe, i.e. be reached before the
    pattern's first null.
    """

    diameter_m: float = 1.5
    frequency_hz: float = 20e9
    edge_level_db: float = 4.0

    def __post_init__(self):
        for name in ("diameter_m", "frequency_hz", "edge_level_db"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be a positive finite number, got {value}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def aperture_factor(self) -> float:
        """pi * D / lambda, the scale between sin(theta) and the J1 argument."""
        return math.pi * self.diameter_m / self.wavelength_m


def antenna_gain_rel(theta_off, cfg: AntennaConfig):
    """Relative pattern gain G(theta)/Gmax = (2 J1(x)/x)^2, elementwise.

    Continuous at boresight: the series form of 2 J1(x)/x has no removable
    singularity to special-case, and evaluates to exactly 1 at x = 0.
    """
    theta_off = np.asarray(theta_off, dtype=float)
    scalar = theta_off.ndim == 0
    theta_off = np.atleast_1d(theta_off)
    if ((theta_off < 0) | (theta_off >= math.pi / 2)).any():
        raise ValueError("off-axis angle must be in [0, pi/2)")
    x = np.sin(theta_off) * cfg.aperture_factor
    small = x <= _SERIES_CUTOFF
    bracket = np.empty_like(x)
    if small.any():
        xs = x[small]
        bracket[small] = _j1_series_factor(xs * xs / 4.0)
    if (~small).any():
        xl = x[~small]
        bracket[~small] = 2.0 * _j1_asymptotic(xl) / xl
    out = bracket * bracket
    return out[0] if scalar else out


@lru_cache(maxsize=None)
def beam_edge_angle(cfg: AntennaConfig) -> float:
    """Off-axis angle (radians) at which the pattern is edge_level_db below
    boresight, found by bisection over the main lobe where the gain falls
    monotonically from 1 to 0."""
    target = 10.0 ** (-cfg.edge_level_db / 10.0)
    sin_null = _J1_FIRST_ZERO / cfg.aperture_factor
    hi = math.asin(sin_null) if sin_null < 1.0 else math.pi / 2 * (1 - 1e-12)
    if antenna_gain_rel(hi, cfg) >= target:
        raise ValueError(f"main lobe never drops {cfg.edge_level_db} dB below boresight")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if antenna_gain_rel(mid, cfg) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sample_location_attenuation(rng, cfg: AntennaConfig, size=None):
    """Location attenuation (dB) of receivers placed uniformly over the
    coverage disk.

    The disk radius is the ground radius under the beam edge for a
    geostationary satellite pointing at nadir. radius = R_edge * sqrt(u)
    is area-uniform; the off-axis angle is the exact arctan(r / altitude).
    Returns a scalar for size=None, else an ndarray of that shape.
    """
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    u = rng.random(size if size is not None else 1)
    edge_radius = GEO_ALTITUDE_M * math.tan(beam_edge_angle(cfg))
    theta = np.arctan(edge_radius * np.sqrt(u) / GEO_ALTITUDE_M)
    att = -10.0 * np.log10(antenna_gain_rel(theta, cfg))
    att = np.maximum(att, 0.0)
    return att[0] if size is None else att


class WeatherCdf:
    """Tabulated weather-attenuation CDF with inverse-transform sampling.

    Points are (attenuation_db, cumulative_probability) with both columns
    nondecreasing, probabilities ending at 1 and attenuations nonnegative.
    Sampling interpolates linearly between tabulated points; a repeated
    attenuation with increasing probability encodes a point mass.
    """

    def __init__(self, points: Sequence[tuple[float, float]]):
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        att = np.asarray([p[0] for p in points], dtype=float)
        prob = np.asarray([p[1] for p in points], dtype=float)
        if att[0] < 0:
            raise ValueError("attenuations must be nonnegative")
        if (np.diff(att) < 0).any():
            raise ValueError("attenuations must be nondecreasing")
        if (np.diff(prob) < 0).any():
            raise ValueError("probabilities must be nondecreasing")
        if prob[0] < 0 or abs(prob[-1] - 1.0) > 1e-12:
            raise ValueError("probabilities must run from >= 0 up to exactly 1")
        self.attenuation_db = att
        self.cum_prob = prob

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "WeatherCdf":
        """Load from a CSV with header ``attenuation_db,cum_prob``."""
        import csv as _csv

        path = Path(path)
        with open(path, newline="") as fh:
            reader = _csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ValueError(f"{path}: empty file") from None
            if [h.strip() for h in header] != ["attenuation_db", "cum_prob"]:
                raise ValueError(f"{path}: unexpected header {header!r}")
            points = []
            for line_no, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != 2:
                    raise ValueError(f"{path}: line {line_no}: expected 2 fields")
                try:
                    points.append((float(row[0]), float(row[1])))
                except ValueError:
                    raise ValueError(f"{path}: line {line_no}: bad number") from None
        try:
            return cls(points)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def quantile(self, u):
        """Inverse CDF with linear interpolation."""
        return np.interp(u, self.cum_prob, self.attenuation_db)

    def cdf(self, a):
        """Forward CDF value at attenuation a (piecewise linear, clamped)."""
        return np.interp(a, self.attenuation_db, self.cum_prob, left=0.0, right=1.0)


def sample_weather_attenuation(rng, cdf: WeatherCdf, size=None):
    """Weather attenuation (dB) drawn by inverse-transform sampling."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    u = rng.random(size if size is not None else 1)
    att = cdf.quantile(u)
    return att[0] if size is None else att


def draw_population(
    n: int,
    snr_max_db: float,
    cfg: AntennaConfig,
    cdf: WeatherCdf,
    rng,
) -> np.ndarray:
    """Draw n receiver SNRs (dB): SNR_max - location - weather attenuation.

    Consumes exactly n location uniforms then n weather uniforms from the
    generator, so the population is bit-reproducible from the seed
    regardless of how callers schedule the surrounding work.
    """
    if n < 1:
        raise ValueError("need at least one receiver")
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    loc = sample_location_attenuation(rng, cfg, size=n)
    wx = sample_weather_attenuation(rng, cdf, size=n)
    return snr_max_db - loc - wx
