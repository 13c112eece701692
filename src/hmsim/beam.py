"""Spot-beam channel model: per-receiver SNR in a geostationary beam.

A receiver's SNR is the boresight value SNR_max minus two attenuations:

* location: receivers are uniform over the coverage disk of a nadir-pointing
  beam; the disk edge is where the parabolic-antenna pattern has dropped
  edge_level_db below boresight. The pattern is the standard circular
  aperture model  G(theta)/Gmax = (2 J1(x)/x)^2  with
  x = sin(theta) * pi * D / lambda. The edge must come before the first
  null x = j1,1 = 3.8317, so the pattern is only ever evaluated on its
  main lobe, by a short power series; an angle past the null (beyond a
  1e-12 relative rounding margin) raises ValueError.
* weather: drawn from an empirical attenuation distribution supplied as a
  tabulated CDF, sampled by inverse transform with linear interpolation.

Sampling functions take a numpy Generator (or anything accepted by
``numpy.random.default_rng``) and consume a fixed number of uniforms per
receiver in a fixed order, so a population is a pure function of the seed.
Callers that parallelize derive one child seed per work unit, e.g.
``SeedSequence(master, spawn_key=(unit,))``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence, Union

import numpy as np

__all__ = [
    "GEO_ALTITUDE_M",
    "AntennaConfig",
    "WeatherCdf",
    "antenna_gain_rel",
    "beam_edge_angle",
    "sample_location_attenuation",
    "sample_weather_attenuation",
    "draw_population",
]

SPEED_OF_LIGHT = 299_792_458.0
GEO_ALTITUDE_M = 35_786_000.0

# First positive zero of J1: the pattern's first null. beam_edge_angle
# evaluates the gain at asin(j1,1 / aperture_factor), where sin(...) times
# the aperture factor can round 1 ulp above j1,1, so the reject bound
# admits a relative margin of 1e-12.
_J1_FIRST_ZERO = 3.8317059702075123
_X_MAX = _J1_FIRST_ZERO * (1 + 1e-12)

# 2 J1(x)/x = sum_k (-1)^k u^k / (k! (k+1)!) with u = x^2/4 <= 3.68 on the
# main lobe. From k = 1 on the terms alternate and shrink, so the error of
# the first 22 terms is below the first omitted one, u^22 / (22! 23!) <
# 1e-30 at the bound. That is far below the rounding (~1e-19) of the sum
# itself, summed by Horner in extended precision, so more terms change no
# float64 output bit.
_J1_SERIES_TERMS = 22
_J1_SERIES_COEFFS = [
    np.longdouble((-1) ** k) / (np.longdouble(math.factorial(k)) * np.longdouble(math.factorial(k + 1)))
    for k in range(_J1_SERIES_TERMS)
]


def _j1_series_factor(x2_over_4):
    """sum_k (-1)^k u^k / (k!(k+1)!) by Horner; J1(x) = (x/2) * this."""
    u = np.asarray(x2_over_4, dtype=np.longdouble)
    acc = np.full_like(u, _J1_SERIES_COEFFS[-1])
    # In place: one array for the whole series, so large batches do not
    # churn the heap.
    for c in reversed(_J1_SERIES_COEFFS[:-1]):
        acc *= u
        acc += c
    return acc.astype(float)


@dataclass(frozen=True)
class AntennaConfig:
    """Transmit antenna and beam-edge definition.

    edge_level_db is the (positive) depth of the beam edge below boresight;
    it must be reached on the main lobe (see ``beam_edge_angle``).
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
    """Relative pattern gain G(theta)/Gmax = (2 J1(x)/x)^2 on the main lobe,
    elementwise, with x = sin(theta) * pi * D / lambda.

    The domain is the main lobe: x may not pass the first null j1,1 =
    3.8317 by more than a relative 1e-12, and an angle beyond it raises a
    ValueError naming the angle and its x. Continuous at boresight: the
    series form of 2 J1(x)/x has no removable singularity to special-case,
    and evaluates to exactly 1 at x = 0.
    """
    theta_off = np.asarray(theta_off, dtype=float)
    if ((theta_off < 0) | (theta_off >= math.pi / 2)).any():
        raise ValueError("off-axis angle must be in [0, pi/2)")
    x = np.sin(theta_off) * cfg.aperture_factor
    past = x > _X_MAX
    if past.any():
        theta, xp = float(theta_off[past][0]), float(x[past][0])
        raise ValueError(
            f"off-axis angle {theta} rad is past the main lobe: x = sin(theta) * pi * D / lambda = "
            f"{xp} exceeds the first null {_J1_FIRST_ZERO}"
        )
    bracket = _j1_series_factor(x * x / 4.0)
    return bracket * bracket


@lru_cache(maxsize=None)
def beam_edge_angle(cfg: AntennaConfig) -> float:
    """Off-axis angle (radians) at which the pattern is edge_level_db below
    boresight, found by bisection over the main lobe where the gain falls
    monotonically from 1 to 0.

    Raises ValueError only for an antenna whose main lobe reaches 90
    degrees off axis above the edge level. When the first null comes
    before 90 degrees every level is reachable; a level deeper than the
    series resolves near the null (about 325 dB) gives the angle where the
    computed gain bottoms out, next to the null."""
    target = 10.0 ** (-cfg.edge_level_db / 10.0)
    sin_null = _J1_FIRST_ZERO / cfg.aperture_factor
    if sin_null < 1.0:
        hi = math.asin(sin_null)
    else:
        hi = math.pi / 2 * (1 - 1e-12)
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


def sample_location_attenuation(rng, cfg: AntennaConfig, size):
    """Location attenuation (dB), an ndarray of shape size, of receivers
    placed uniformly over the coverage disk.

    The disk radius is the ground radius under the beam edge for a
    geostationary satellite pointing at nadir. radius = R_edge * sqrt(u)
    is area-uniform; the off-axis angle is the exact arctan(r / altitude).
    """
    return _location_attenuation(np.random.default_rng(rng).random(size), cfg)


def _location_attenuation(u, cfg: AntennaConfig):
    """Location attenuation (dB) of receivers at radius R_edge * sqrt(u)."""
    edge_radius = GEO_ALTITUDE_M * math.tan(beam_edge_angle(cfg))
    theta = np.arctan(edge_radius * np.sqrt(u) / GEO_ALTITUDE_M)
    att = -10.0 * np.log10(antenna_gain_rel(theta, cfg))
    return np.maximum(att, 0.0)


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
        path = Path(path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
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


def sample_weather_attenuation(rng, cdf: WeatherCdf, size):
    """Weather attenuation (dB), an ndarray of shape size, drawn by
    inverse-transform sampling."""
    return cdf.quantile(np.random.default_rng(rng).random(size))


def draw_population(
    n: int,
    snr_max_db,
    cfg: AntennaConfig,
    cdf: WeatherCdf,
    rng,
) -> np.ndarray:
    """Draw n receiver SNRs (dB): SNR_max - location - weather attenuation.

    Consumes exactly n location uniforms then n weather uniforms from the
    generator, so the population is bit-reproducible from the seed
    regardless of how callers schedule the surrounding work.

    Many populations at once: with snr_max_db a 1-D array of R boresight
    SNRs and rng a sequence of R generators (or seeds), row i of the
    (R, n) result is the population of snr_max_db[i] drawn from rng[i],
    bit for bit the one-row call. Each row's generator still draws its own
    uniforms; the pattern and the weather quantile are then evaluated once
    for all rows.
    """
    if n < 1:
        raise ValueError("need at least one receiver")
    snr_max = np.asarray(snr_max_db, dtype=float)
    generators = [rng] if snr_max.ndim == 0 else rng
    # Per row: its n location uniforms, then its n weather uniforms.
    u = np.empty((len(generators), 2, n))
    for generator, row in zip(generators, u):
        np.random.default_rng(generator).random(out=row)
    snrs = snr_max[..., None] - _location_attenuation(u[:, 0], cfg) - cdf.quantile(u[:, 1])
    return snrs[0] if snr_max.ndim == 0 else snrs
