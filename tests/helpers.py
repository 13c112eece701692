"""Shared test oracles, fixtures and reference data.

The threshold-table reference values here are typed row-by-row, matching
the layout of the source tables, while the shipped CSV files were generated
column-by-column; agreement between the two transcriptions is part of what
the tests check.
"""

from __future__ import annotations

import bisect
import cmath
import csv
import functools
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from hmsim import modcod
from hmsim.constellations import Apsk32Params, Psk8Params, QpskParams
from hmsim.modcod import DVBS2_CODE_RATES, Family, ModcodChoice, Stream, ThresholdTable
from hmsim.rateopt import system_summaries

RATES = list(DVBS2_CODE_RATES)


def table_from_entries(entries, warnings=()) -> ThresholdTable:
    """The table of ``entries``, {(scheme, stream, code rate): threshold}:
    each entry goes to its rate's slot, ``modcod._rate_index``, of its
    (scheme, stream) column. ValueError for a rate outside DVB-S2."""
    columns = {}
    for (scheme, stream, rate), thr in entries.items():
        columns.setdefault((scheme, stream), [None] * len(DVBS2_CODE_RATES))[modcod._rate_index(rate)] = thr
    return ThresholdTable(columns, warnings)


def table_entries(table: ThresholdTable) -> dict:
    """{(scheme, stream, code rate): threshold} of every entry of a table,
    read from its columns: the inverse of ``table_from_entries``."""
    return {
        (scheme, stream, rate): thr
        for (scheme, stream), column in table._columns.items()
        for rate, thr in zip(DVBS2_CODE_RATES, column)
        if thr is not None
    }


# Hierarchical QPSK thresholds, row-major. Per rate: shared rho=0.5 value,
# then (HE, LE) for rho = 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9.
HQPSK_ROWS = {
    Fraction(1, 4): [-2.6, -3.1, -2.2, -3.5, -1.7, -3.8, -1, -4.2, -0.4, -4.4, 0.4, -4.7, 1.2, -4.9, 2.1, -5.2, 4.5],
    Fraction(1, 3): [-1.4, -1.8, -0.9, -2.2, -0.4, -2.6, 0.2, -2.9, 0.9, -3.2, 1.6, -3.4, 2.5, -3.6, 3.4, -4, 5.8],
    Fraction(2, 5): [-0.5, -1, 0, -1.3, 0.5, -1.7, 1.1, -2, 1.8, -2.3, 2.5, -2.5, 3.3, -2.8, 4.3, -3.1, 6.7],
    Fraction(1, 2): [0.9, 0.5, 1.4, 0.1, 1.2, -0.3, 2.5, -0.6, 3.2, -0.9, 3.9, -1.1, 4.8, -1.3, 5.7, -1.7, 8.1],
    Fraction(3, 5): [2.1, 1.7, 2.6, 1.3, 3.1, 1, 3.7, 0.7, 4.4, 0.4, 5.1, 0.1, 6, -0.1, 6.9, -0.4, 9.3],
    Fraction(2, 3): [3, 2.6, 3.5, 2.2, 4, 1.8, 4.6, 1.5, 5.3, 1.3, 6, 1, 6.9, 0.8, 7.8, 0.4, 10.2],
    Fraction(3, 4): [4, 3.5, 4.5, 3.1, 5, 2.8, 5.6, 2.5, 6.3, 2.2, 7, 2, 7.8, 1.8, 8.8, 1.4, 11.2],
    Fraction(4, 5): [4.6, 4.2, 5.1, 3.8, 5.6, 3.4, 6.2, 3.1, 6.9, 2.8, 7.6, 2.6, 8.5, 2.4, 9.4, 2, 11.8],
    Fraction(5, 6): [5.1, 4.7, 5.6, 4.3, 6.1, 3.9, 6.7, 3.6, 7.4, 3.3, 8.1, 3.1, 9, 2.9, 9.9, 2.5, 12.3],
    Fraction(8, 9): [6.1, 5.7, 6.6, 5.3, 7.1, 5, 7.7, 4.7, 8.4, 4.4, 9.1, 4.1, 10, 3.9, 10.9, 3.6, 13.3],
    Fraction(9, 10): [6.3, 5.9, 6.8, 5.5, 7.4, 5.2, 7.9, 4.9, 8.6, 4.6, 9.4, 4.3, 10.2, 4.1, 11.1, 3.8, 13.5],
}
HQPSK_RHOS = [0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9]

# Hierarchical 32-APSK thresholds, row-major: (HE, LE) for
# rho = 0.7, 0.75, 0.8, 0.85, 0.9.
H32APSK_ROWS = {
    Fraction(1, 4): [0, 6, -0.6, 6.6, -1.1, 7.6, -1.6, 9, -1.9, 10.5],
    Fraction(1, 3): [1.7, 7.3, 0.9, 8, 0.4, 9, -0.1, 10.6, -0.6, 12],
    Fraction(2, 5): [3, 8.5, 2.2, 9.2, 1.5, 10.2, 0.9, 11.7, 0.4, 13],
    Fraction(1, 2): [5.2, 10.1, 4.2, 10.8, 3.4, 11.8, 2.7, 13.3, 2, 14.7],
    Fraction(3, 5): [7.5, 11.5, 6.2, 12.3, 5.1, 13.2, 4.3, 14.6, 3.4, 16.2],
    Fraction(2, 3): [9, 12.5, 7.5, 13.3, 6.4, 14.2, 5.4, 15.6, 4.5, 17.2],
    Fraction(3, 4): [11, 13.6, 9.3, 14.4, 8, 15.2, 6.8, 16.6, 5.8, 18.2],
    Fraction(4, 5): [12.3, 14.4, 10.4, 15.2, 9, 15.9, 7.8, 17.2, 6.6, 18.9],
    Fraction(5, 6): [13.3, 15.1, 11.3, 15.9, 9.9, 16.5, 8.5, 17.7, 7.2, 19.5],
    Fraction(8, 9): [15.4, 16.4, 13.2, 17.2, 11.6, 17.6, 10.2, 18.7, 8.7, 20.6],
    Fraction(9, 10): [15.9, 16.6, 13.6, 17.4, 12, 17.9, 10.5, 18.9, 9, 20.8],
}
H32APSK_RHOS = [0.7, 0.75, 0.8, 0.85, 0.9]


def hqpsk_reference_cells() -> dict[tuple[float, str, Fraction], float]:
    """Flatten the row-major hierarchical-QPSK table to cell lookups."""
    cells: dict[tuple[float, str, Fraction], float] = {}
    for rate, row in HQPSK_ROWS.items():
        cells[(0.5, "HE", rate)] = row[0]
        cells[(0.5, "LE", rate)] = row[0]
        for k, rho in enumerate(HQPSK_RHOS):
            cells[(rho, "HE", rate)] = row[1 + 2 * k]
            cells[(rho, "LE", rate)] = row[2 + 2 * k]
    return cells


def h32apsk_reference_cells() -> dict[tuple[float, str, Fraction], float]:
    cells: dict[tuple[float, str, Fraction], float] = {}
    for rate, row in H32APSK_ROWS.items():
        for k, rho in enumerate(H32APSK_RHOS):
            cells[(rho, "HE", rate)] = row[2 * k]
            cells[(rho, "LE", rate)] = row[1 + 2 * k]
    return cells


def serialize_threshold_csv(table: ThresholdTable) -> str:
    """Canonical CSV text for a table (sorted rows, %g thresholds).

    Hierarchical rho_he = 0.5 schemes whose HE and LE thresholds coincide at
    a rate are written back as merged HE/LE rows, matching the shipped file
    layout.
    """
    entries = table_entries(table)
    merged = {
        (scheme, rate)
        for (scheme, stream, rate), thr in entries.items()
        if stream is Stream.HE and scheme.rho_he == 0.5 and entries.get((scheme, Stream.LE, rate)) == thr
    }
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["family", "rho_he", "stream", "code_rate", "threshold_db"])
    stream_order = {Stream.HE: 0, Stream.LE: 1, Stream.SINGLE: 2}
    rows = []
    for (scheme, stream, rate), thr in entries.items():
        if (scheme, rate) in merged:
            if stream is Stream.LE:
                continue
            stream_tok = "HE/LE"
            skey = -1
        else:
            stream_tok = stream.value
            skey = stream_order[stream]
        rows.append((scheme.sort_key(), skey, rate, scheme, stream_tok, thr))
    rows.sort(key=lambda r: r[:3])
    for _, _, rate, scheme, stream_tok, thr in rows:
        rho_tok = "" if scheme.rho_he is None else f"{scheme.rho_he:g}"
        writer.writerow([scheme.family.token, rho_tok, stream_tok, str(rate), f"{thr:g}"])
    return out.getvalue()


@functools.lru_cache(maxsize=None)
def _singles_by_rank(table: ThresholdTable) -> list[tuple[float, ModcodChoice]]:
    """A table's SINGLE entries as (threshold, choice), sorted by descending
    exact efficiency, then by (threshold, scheme token, code rate)."""
    rows = [
        ((-scheme.bits(stream) * rate, thr, scheme.token, rate), thr, ModcodChoice(scheme, stream, rate))
        for (scheme, stream, rate), thr in table_entries(table).items()
        if stream is Stream.SINGLE
    ]
    return [(thr, choice) for _, thr, choice in sorted(rows, key=lambda row: row[0])]


def best_single_reference(table: ThresholdTable, snr: float) -> Optional[ModcodChoice]:
    """The best single modcod decodable at snr, from a scan of the entries:
    the SINGLE entry at or below snr with the largest exact efficiency, an
    exact tie going to the earlier (threshold, scheme token, code rate).
    A NaN snr decodes every entry, as ``ThresholdTable.cells`` puts it above
    all thresholds."""
    return next((choice for thr, choice in _singles_by_rank(table) if not snr < thr), None)


def equal_rate_oracle(points: list[tuple[float, float]]) -> float:
    """Independent free-disposal equal-rate solver: brute force over every
    segment between two points (and every single point), no hull.

    Free disposal makes the region the downward closure of the hull of the
    points. A point that another one dominates, no larger in either
    coordinate, lies in that one's closure, so only the undominated points
    are kept. The region is then the hull of those points, their axis
    projections (x, 0) and (0, y), and the origin. Any point of that hull
    lies on a segment between two of those points, so the diagonal's exit
    point does too.
    """
    xy = np.array([(0.0, 0.0), *points], dtype=float)
    # By x descending, then y descending: a point is undominated iff its y
    # exceeds that of every point before it.
    xy = xy[np.lexsort((-xy[:, 1], -xy[:, 0]))]
    undominated = np.ones(len(xy), dtype=bool)
    undominated[1:] = xy[1:, 1] > np.maximum.accumulate(xy[:-1, 1])
    xy = xy[undominated]
    xy = np.concatenate([[(0.0, 0.0)], xy, xy * (1.0, 0.0), xy * (0.0, 1.0)])
    x, d = xy[:, 0], xy[:, 0] - xy[:, 1]
    best = x[d == 0.0].max()
    d1, d2 = d[:, None], d[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = d2 / (d2 - d1)
        rate = tau * x[:, None] + (1.0 - tau) * x[None, :]
    crossing = (d1 != d2) & (tau >= 0.0) & (tau <= 1.0)
    if crossing.any():
        best = max(best, rate[crossing].max())
    return float(best)


@functools.lru_cache(maxsize=None)
def _decodable_by_prefix(table: ThresholdTable) -> tuple[list[float], list[dict]]:
    """The table's thresholds, ascending, and for each prefix length k the
    efficiencies of the first k entries in that order, listed per (scheme,
    stream): what a receiver decodes is the prefix its SNR bisects."""
    rows = sorted(table_entries(table).items(), key=lambda kv: kv[1])
    prefixes: list[dict] = [{}]
    for (scheme, stream, rate), _ in rows:
        decodable = dict(prefixes[-1])
        decodable[scheme, stream] = decodable.get((scheme, stream), []) + [float(scheme.bits(stream) * rate)]
        prefixes.append(decodable)
    return [thr for _, thr in rows], prefixes


def unpruned_points(snr_weak: float, snr_strong: float, table: ThresholdTable) -> list[tuple[float, float]]:
    """Every achievable (R1, R2) point of a receiver pair, with no pruning,
    built from the raw table entries: each decodable single modcod of
    either receiver on its own axis and, for every hierarchical scheme and
    both stream assignments, every decodable (HE rate, LE rate)
    combination. Sorted, without duplicates."""
    thresholds, prefixes = _decodable_by_prefix(table)
    weak, strong = (prefixes[bisect.bisect_right(thresholds, snr)] for snr in (snr_weak, snr_strong))
    points = {(0.0, 0.0)}
    for receiver, (own, other) in enumerate(((weak, strong), (strong, weak))):
        for (scheme, stream), effs in own.items():
            if stream is Stream.SINGLE:
                points.update((e, 0.0) if receiver == 0 else (0.0, e) for e in effs)
            elif stream is Stream.HE:
                for le in other.get((scheme, Stream.LE), ()):
                    points.update((e, le) if receiver == 0 else (le, e) for e in effs)
    return sorted(points)


class ExactPairOracle:
    """Exact free-disposal equal rates of receiver pairs, in Fractions,
    from ``table_entries(table)`` alone: no cell arrays, no float hull.

    A receiver decodes the entries at or below its SNR, a prefix of the
    entries sorted by threshold, so a pair's answer depends only on the two
    prefix lengths and is memoised on them. Its points are the best single
    modcod of each receiver on its own axis and, for every hierarchical
    scheme and both stream assignments, the best HE and LE rates when both
    decode. The oracle keeps the Pareto frontier of those points and the
    origin and takes the largest of min(x, y) over the frontier and of the
    diagonal crossing of every segment between a frontier point below the
    diagonal and one above it."""

    def __init__(self, table: ThresholdTable):
        rows = sorted(table_entries(table).items(), key=lambda kv: kv[1])
        self._thresholds = [thr for _, thr in rows]
        self._efficiencies = [(scheme, stream, scheme.bits(stream) * rate) for (scheme, stream, rate), _ in rows]
        self._schemes = sorted({s for s, stream, _ in self._efficiencies if stream is not Stream.SINGLE},
                               key=lambda s: s.sort_key())
        self._best: dict[int, dict] = {}
        self._pairs: dict[tuple[int, int], tuple[Fraction, Fraction]] = {}

    def _decodes(self, snr: float) -> tuple[int, dict]:
        k = bisect.bisect_right(self._thresholds, snr)
        if k not in self._best:
            best: dict = {}
            for scheme, stream, eff in self._efficiencies[:k]:
                key = None if stream is Stream.SINGLE else (scheme, stream)
                best[key] = max(best.get(key, Fraction(0)), eff)
            self._best[k] = best
        return k, self._best[k]

    def rates(self, snr_weak: float, snr_strong: float) -> tuple[Fraction, Fraction]:
        """(R*, R_ts) in bit/s/Hz: the hierarchical equal rate and the
        classical time-sharing rate s_w s_s / (s_w + s_s), 0 without both."""
        kw, weak = self._decodes(snr_weak)
        ks, strong = self._decodes(snr_strong)
        if (kw, ks) not in self._pairs:
            self._pairs[kw, ks] = self._solve(weak, strong)
        return self._pairs[kw, ks]

    def _solve(self, weak: dict, strong: dict) -> tuple[Fraction, Fraction]:
        zero = Fraction(0)
        sw, ss = weak.get(None, zero), strong.get(None, zero)
        points = {(zero, zero), (sw, zero), (zero, ss)}
        for scheme in self._schemes:
            for w, s in ((Stream.HE, Stream.LE), (Stream.LE, Stream.HE)):
                if (scheme, w) in weak and (scheme, s) in strong:
                    points.add((weak[scheme, w], strong[scheme, s]))
        frontier, top = [], None
        for x, y in sorted(points, reverse=True):
            if top is None or y > top:
                frontier.append((x, y))
                top = y
        best = max(min(x, y) for x, y in frontier)
        below = [(x, x - y) for x, y in frontier if x > y]
        above = [(x, x - y) for x, y in frontier if x < y]
        for xp, dp in below:
            for xq, dq in above:
                best = max(best, (dp * xq - dq * xp) / (dp - dq))
        return best, (sw * ss / (sw + ss) if sw + ss else zero)


class RowSummary(NamedTuple):
    r_hm: float
    r_ts: float
    gain: float
    outage: int


def hierarchical_families(table: ThresholdTable) -> tuple[Family, ...]:
    """Every hierarchical family of a table: the curve of all of them."""
    return tuple(fam for fam in table.families() if fam.hierarchical)


def snr_summaries(snrs, table: ThresholdTable) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """r_hm, r_ts, gain and outage of each row of an (R, n) SNR array:
    ``system_summaries`` on the rows' sorted cells, with one curve of all
    the table's hierarchical families."""
    r_hm, r_ts, gain, outage = system_summaries(table.cells(np.sort(snrs, axis=1)), table,
                                                [hierarchical_families(table)])
    return r_hm[0], r_ts, gain[0], outage


def row_summary(snrs, table: ThresholdTable) -> RowSummary:
    """``snr_summaries`` of one population, the one-row call."""
    r_hm, r_ts, gain, outage = snr_summaries(np.asarray(snrs, dtype=float)[None], table)
    return RowSummary(float(r_hm[0]), float(r_ts[0]), float(gain[0]), int(outage[0]))


def system_summary_reference(snrs, table: ThresholdTable, oracle: ExactPairOracle) -> RowSummary:
    """(r_hm, r_ts, gain, outage) of a population with no cell arrays:
    receivers without a single modcod (``best_single_reference``) left out
    and counted, the rest sorted by (SNR, index) and paired extremes first,
    reciprocals from ``best_single_reference``, each pair's hierarchical
    term 1 / R* from the table's exact oracle where R* > R_ts and its
    classical term 1/r_i + 1/r_j otherwise, and both harmonic sums
    accumulated sequentially in pair-traversal order, as
    ``system_summaries`` defines them. NaN rates and gain when every
    receiver is left out."""
    singles = [(float(s), best_single_reference(table, float(s))) for s in snrs]
    served = [(s, c) for s, c in singles if c is not None]
    outage = len(singles) - len(served)
    if not served:
        return RowSummary(math.nan, math.nan, math.nan, outage)
    n = len(served)
    order = sorted(range(n), key=lambda i: (served[i][0], i))
    pairs = [(order[k], order[-1 - k]) for k in range(n // 2)]
    unpaired = order[n // 2] if n % 2 else None
    inv = [1.0 / c.spectral_efficiency for _, c in served]
    ts_inv = hm_inv = 0.0
    for i, j in pairs:
        pair_inv = inv[i] + inv[j]
        r_star, r_ts = oracle.rates(served[i][0], served[j][0])
        ts_inv += pair_inv
        hm_inv += float(1 / r_star) if r_star > r_ts else pair_inv
    if unpaired is not None:
        ts_inv += inv[unpaired]
        hm_inv += inv[unpaired]
    r_ts = 1.0 / ts_inv
    r_hm = 1.0 / hm_inv
    return RowSummary(r_hm, r_ts, (r_hm - r_ts) / r_ts, outage)


def series_factor(u, coeffs) -> np.ndarray:
    """sum_k coeffs[k] u^k by Horner in the precision of the coefficients,
    as float64."""
    u = np.asarray(u, dtype=type(coeffs[0]))
    acc = np.full_like(u, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * u + c
    return acc.astype(float)


# 2 J1(x)/x = sum_k (-1)^k u^k / (k! (k+1)!) with u = x^2/4, to 52 terms,
# whose tail is negligible far beyond the main lobe, in long double: the
# reference for the beam pattern's 22-term float64 series.
REFERENCE_SERIES_COEFFS = [
    np.longdouble((-1) ** k) / (np.longdouble(math.factorial(k)) * np.longdouble(math.factorial(k + 1)))
    for k in range(52)
]


def reference_series_factor(u) -> np.ndarray:
    return series_factor(u, REFERENCE_SERIES_COEFFS)


# Constellation geometry: the symbol sets whose quadrant barycenters the
# closed-form rho_he formulas of hmsim.constellations are checked against.


@dataclass(frozen=True)
class ConstellationPoints:
    """A unit-average-energy symbol set with its per-stream bit widths."""

    points: tuple[complex, ...]
    he_bits: int
    le_bits: int

    def __post_init__(self):
        n = len(self.points)
        if n != 2 ** (self.he_bits + self.le_bits):
            raise ValueError(f"{n} points cannot carry {self.he_bits}+{self.le_bits} bits")
        es = sum(abs(p) ** 2 for p in self.points) / n
        if abs(es - 1.0) > 1e-12:
            raise ValueError(f"mean symbol energy is {es}, expected 1")

    @property
    def mean_energy(self) -> float:
        return sum(abs(p) ** 2 for p in self.points) / len(self.points)


def _rotations(quadrant: list[complex]) -> tuple[complex, ...]:
    """Replicate a first-quadrant point set by 90-degree rotations."""
    out: list[complex] = []
    for k in range(4):
        rot = 1j ** k
        out.extend(p * rot for p in quadrant)
    return tuple(out)


def _normalized(points: tuple[complex, ...]) -> tuple[complex, ...]:
    es = sum(abs(p) ** 2 for p in points) / len(points)
    scale = 1.0 / math.sqrt(es)
    return tuple(p * scale for p in points)


def build_qpsk_points(params: QpskParams) -> ConstellationPoints:
    """Generate the four hierarchical-QPSK symbols.

    Points at angles +theta, -theta, 180-theta, 180+theta on the unit
    circle; one HE bit (I-axis sign) and one LE bit.
    """
    th = math.radians(params.theta)
    pts = (
        cmath.rect(1.0, th),
        cmath.rect(1.0, -th),
        cmath.rect(1.0, math.pi - th),
        cmath.rect(1.0, math.pi + th),
    )
    return ConstellationPoints(points=pts, he_bits=1, le_bits=1)


def build_psk8_points(params: Psk8Params) -> ConstellationPoints:
    """Generate the eight hierarchical 8-PSK symbols: per quadrant, two
    unit-circle points at the diagonal +- theta. Two HE bits, one LE bit."""
    th = math.radians(params.theta)
    diag = math.pi / 4
    quadrant = [cmath.rect(1.0, diag + th), cmath.rect(1.0, diag - th)]
    return ConstellationPoints(points=_rotations(quadrant), he_bits=2, le_bits=1)


def build_apsk32_points(params: Apsk32Params) -> ConstellationPoints:
    """Generate the 32 hierarchical 32-APSK symbols, normalized to unit
    average energy.

    Per quadrant (shown for the upper-right one, diagonal at 45 degrees):
    one inner-ring point on the diagonal, three middle-ring points at the
    diagonal and diagonal +- theta, four outer-ring points at the diagonal
    +- theta/3 and +- theta. Rings hold 4, 12 and 16 points in total. Two
    HE bits select the quadrant; three LE bits select the point within it.
    """
    g1, g2 = params.gamma1, params.gamma2
    th = math.radians(params.theta)
    diag = math.pi / 4
    quadrant = [
        cmath.rect(1.0, diag),
        cmath.rect(g1, diag),
        cmath.rect(g1, diag + th),
        cmath.rect(g1, diag - th),
        cmath.rect(g2, diag + th / 3),
        cmath.rect(g2, diag - th / 3),
        cmath.rect(g2, diag + th),
        cmath.rect(g2, diag - th),
    ]
    return ConstellationPoints(points=_normalized(_rotations(quadrant)), he_bits=2, le_bits=3)
