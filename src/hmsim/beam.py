"""Spot-beam channel model: per-receiver SNR in a geostationary beam.

A receiver's SNR is the boresight value SNR_max minus two attenuations:

* location: receivers are uniform over the coverage disk of a nadir-pointing
  beam; the disk edge is where the parabolic-antenna pattern has dropped
  edge_level_db below boresight. The pattern is the standard circular
  aperture model  G(theta)/Gmax = (2 J1(x)/x)^2  with
  x = sin(theta) * pi * D / lambda. The edge must come before the first
  null x = j1,1 = 3.8317, so the pattern is only ever evaluated on its
  main lobe, by a short power series; an angle past the null (beyond a
  1e-12 relative rounding margin) raises ValueError. The series is summed
  once, in float64, by ``antenna_gain_rel``, which population draws and
  ``beam_edge_angle`` both call, so they share one pattern and one domain
  check. It is within 2^-50 of the exact series on the whole main lobe
  (see ``_location_attenuation``) and resolves the pattern down to about
  300 dB next to the null.
* weather: drawn from an empirical attenuation distribution supplied as a
  tabulated CDF, sampled by inverse transform with linear interpolation.

``draw_population`` draws many populations at once, one per boresight
SNR, each from its own numpy Generator (or anything accepted by
``numpy.random.default_rng``). Each consumes a fixed number of uniforms
per receiver in a fixed order, so a population is a pure function of its
seed. Callers that parallelize derive one child seed per work unit, e.g.
``SeedSequence(master, spawn_key=(unit,))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .modcod import _BucketSearch, read_csv_rows

__all__ = [
    "GEO_ALTITUDE_M",
    "AntennaConfig",
    "WeatherCdf",
    "antenna_gain_rel",
    "beam_edge_angle",
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
# 1e-30 at the bound, far below the float64 rounding of the sum itself, so
# more terms change no output bit. Each coefficient is the correctly
# rounded quotient of two exact integers.
_J1_SERIES_TERMS = 22
_J1_SERIES_COEFFS = [(-1) ** k / (math.factorial(k) * math.factorial(k + 1)) for k in range(_J1_SERIES_TERMS)]


def _j1_series_factor(x2_over_4):
    """sum_k (-1)^k u^k / (k!(k+1)!) by Horner in float64; J1(x) = (x/2) *
    this."""
    u = np.asarray(x2_over_4, dtype=float)
    acc = np.full_like(u, _J1_SERIES_COEFFS[-1])
    # In place: one array for the whole series, so large batches do not
    # churn the heap.
    for c in reversed(_J1_SERIES_COEFFS[:-1]):
        acc *= u
        acc += c
    return acc


@dataclass(frozen=True)
class AntennaConfig:
    """Transmit antenna and beam-edge definition.

    edge_level_db is the (positive) depth of the beam edge below boresight;
    it must be reached on the main lobe (see ``beam_edge_angle``).
    """

    diameter_m: float
    frequency_hz: float
    edge_level_db: float

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


def _main_lobe_x(theta_off, cfg: AntennaConfig):
    """x = sin(theta) * pi * D / lambda of off-axis angles on the main lobe.

    ValueError for an angle outside [0, pi/2), or past the first null by
    more than the rounding margin of ``_X_MAX``, naming the angle and its x.
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
    return x


def antenna_gain_rel(theta_off, cfg: AntennaConfig):
    """Relative pattern gain G(theta)/Gmax = (2 J1(x)/x)^2 on the main lobe,
    elementwise, with x = sin(theta) * pi * D / lambda.

    The domain is the main lobe: x may not pass the first null j1,1 =
    3.8317 by more than a relative 1e-12, and an angle beyond it raises a
    ValueError naming the angle and its x. Continuous at boresight: the
    series form of 2 J1(x)/x has no removable singularity to special-case,
    and evaluates to exactly 1 at x = 0.
    """
    x = _main_lobe_x(theta_off, cfg)
    bracket = _j1_series_factor(x * x / 4.0)
    return bracket * bracket


@lru_cache(maxsize=None)
def beam_edge_angle(cfg: AntennaConfig) -> float:
    """Off-axis angle (radians) at which the pattern is edge_level_db below
    boresight, found by bisection over the main lobe where the gain falls
    monotonically from 1 to 0.

    Raises ValueError only for an antenna whose main lobe reaches 90
    degrees off axis above the edge level. When the first null comes
    before 90 degrees every level is reachable. Next to the null the
    float64 gain falls to rounding noise (about 300-313 dB) and then to 0,
    so any level deeper than about 310 dB gives one floor angle, where the
    computed gain is 0: 3 ulps below the null for the default antenna."""
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


def _location_attenuation(u, cfg: AntennaConfig):
    """Location attenuation (dB) of receivers at radius R_edge * sqrt(u).

    R_edge is the ground radius under the beam edge for a geostationary
    satellite pointing at nadir, so uniform u places receivers uniformly
    over the coverage disk; the off-axis angle is the exact
    arctan(r / altitude).

    The pattern is ``antenna_gain_rel``'s, looked up as a module global
    so that a wrapper installed on it sees the draw.

    Error bound: on the whole main lobe the float64 bracket 2 J1(x)/x is
    within 2^-50 (4 ulp of 1) of the exact series. The tests check this on
    a dense grid against a 52-term long-double reference, where the worst
    case is 3.5e-16; Horner's a priori bound, gamma_43 * 2 I1(x)/x <=
    2.1e-14, is looser. On [0, x_edge] the bracket is at least
    10^(-edge_level_db/20), so there its relative error is at most 2^-50 *
    10^(edge_level_db/20): 1.4e-15 at the default 4 dB, or 1.2e-14 dB of
    attenuation. Near the null the bracket falls to 0 and the relative
    error grows without bound (see ``beam_edge_angle``).
    """
    edge_radius = GEO_ALTITUDE_M * math.tan(beam_edge_angle(cfg))
    theta = np.arctan(edge_radius * np.sqrt(u) / GEO_ALTITUDE_M)
    return np.maximum(-10.0 * np.log10(antenna_gain_rel(theta, cfg)), 0.0)


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
        # + 0.0 turns an attenuation of -0.0 into 0.0, which ``quantile`` adds exactly.
        att = np.asarray([p[0] for p in points], dtype=float) + 0.0
        prob = np.asarray([p[1] for p in points], dtype=float)
        # NaN compares False, so the order checks below would pass it.
        if not (np.isfinite(att).all() and np.isfinite(prob).all()):
            raise ValueError("CDF points must be finite")
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
        """Load from a CSV with header ``attenuation_db,cum_prob``, read by
        ``modcod.read_csv_rows``: UTF-8, that header, two fields on every
        row but the blank ones. ValueError names the file and the line."""
        path = Path(path)
        points = []
        for line_no, fields in read_csv_rows(path, ("attenuation_db", "cum_prob")):
            try:
                point = (float(fields[0]), float(fields[1]))
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: bad number") from None
            if not all(map(math.isfinite, point)):
                raise ValueError(f"{path}: line {line_no}: non-finite value")
            points.append(point)
        try:
            return cls(points)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @cached_property
    def _segments(self):
        """The index of the segment that holds u, ``searchsorted(cum_prob, u,
        side="right")``, and per segment its (slope, start, value at start).
        Segment k > 0 starts at the k-th breakpoint and runs to the next;
        segments 0 and ``len(cum_prob)``, below the first breakpoint and from
        the last on, are flat. A segment between repeated probabilities holds
        no u, so its slope may read inf or NaN."""
        xp, fp = self.cum_prob, self.attenuation_db
        with np.errstate(divide="ignore", invalid="ignore"):
            # Division, as numpy's interp loop computes its slopes.
            slope = np.concatenate(([0.0], np.diff(fp) / np.diff(xp), [0.0]))
        return _BucketSearch(xp), slope, np.concatenate((xp[:1], xp)), np.concatenate((fp[:1], fp))

    def quantile(self, u):
        """Inverse CDF with linear interpolation, of a float array u.

        Bit for bit ``np.interp(u, cum_prob, attenuation_db)`` for every
        u: below 0 and above 1 too, where it reads the first and the last
        attenuation, and NaN for a NaN u, as long as no slope between two
        distinct probabilities overflows. It computes what numpy's loop
        does, slope * (u - start) + value at start on u's segment, but
        finds the segment in O(1) (see ``modcod._BucketSearch``), not by a
        binary search."""
        search, slope, start, value = self._segments
        k = search(u)
        # Probabilities lie in [0, 1], so the clip moves only a u on a flat
        # end segment, and keeps it there: an infinite u reads 0 * a finite
        # difference.
        out = np.clip(u, -1.0, 2.0)
        out -= start.take(k)
        out *= slope.take(k)
        out += value.take(k)
        return out


def draw_population(
    n: int,
    snr_max_db: Sequence[float],
    cfg: AntennaConfig,
    cdf: WeatherCdf,
    rng: Sequence,
) -> np.ndarray:
    """Draw R populations of n receiver SNRs (dB), SNR_max - location -
    weather attenuation, as the rows of an (R, n) array: row i has the
    boresight SNR snr_max_db[i] and is drawn from rng[i], a generator or
    anything accepted by ``numpy.random.default_rng``. Both must hold R
    entries; otherwise ValueError names both.

    Each row's generator draws exactly n location uniforms then n weather
    uniforms, so a row is bit-reproducible from its seed whatever rows it
    is drawn with; the pattern and the weather quantile are then evaluated
    once for all rows.
    """
    if n < 1:
        raise ValueError("need at least one receiver")
    snr_max_db = np.asarray(snr_max_db, dtype=float)
    if snr_max_db.shape != (len(rng),):
        raise ValueError(f"need one boresight SNR per generator: snr_max_db has shape {snr_max_db.shape}, "
                         f"rng has {len(rng)} generators")
    # Per row: its n location uniforms, then its n weather uniforms.
    u = np.empty((len(rng), 2, n))
    for generator, row in zip(rng, u):
        np.random.default_rng(generator).random(out=row)
    return snr_max_db[:, None] - _location_attenuation(u[:, 0], cfg) - cdf.quantile(u[:, 1])
