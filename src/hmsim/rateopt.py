"""Rate-region optimization for receiver pairs and populations.

For two receivers, every transmission configuration yields a spectrum
efficiency pair (R1, R2): non-hierarchical modcods give (R1, 0) or (0, R2),
hierarchical ones serve both receivers at once. Time sharing achieves any
convex combination of available pairs, so the relevant object is the convex
hull of the achievable set. A receiver can always be served less than it
decodes (free disposal), so the region is the downward closure of that hull,
and the fairness objective used throughout is its equal-rate point: the
largest R that both receivers get, max min(R1, R2) over the hull.

Populations are served by grouping receivers into max-SNR-spread pairs and
equalizing across groups with time sharing, which composes rates
harmonically. A receiver that decodes nothing contributes rate 0 and pins
the harmonic aggregate at 0; callers that want to serve a degraded
population must filter such receivers out first (the campaign engine does,
and reports how many it dropped).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .modcod import ModcodChoice, ThresholdTable

__all__ = [
    "RatePair",
    "TimeShare",
    "EqualRateSolution",
    "PairSolution",
    "achievable_pairs",
    "rate_region_hull",
    "equal_rate_point",
    "pair_solution",
    "group_receivers",
    "aggregate_ts",
    "system_gain",
    "system_summary",
    "SystemSummary",
]


@dataclass(frozen=True)
class RatePair:
    """An achievable (R1, R2) spectrum-efficiency point, R1 for the first
    (weaker) receiver of the pair. ``provenance`` names the configuration
    that produced it: a ModcodChoice per receiver, or None for silence."""

    r1: float
    r2: float
    provenance: tuple[Optional[ModcodChoice], Optional[ModcodChoice]] = (None, None)

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("rates must be nonnegative")

    def describe(self) -> str:
        p1, p2 = self.provenance
        def side(p):
            return str(p) if p is not None else "-"
        return f"({self.r1:.4g}, {self.r2:.4g}) via [{side(p1)} | {side(p2)}]"


@dataclass(frozen=True)
class TimeShare:
    """Serve point_a for a fraction tau of the time and point_b for the
    rest. A degenerate schedule uses tau = 1 with point_a == point_b."""

    tau: float
    point_a: RatePair
    point_b: RatePair

    def __post_init__(self):
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must be in [0, 1], got {self.tau}")


@dataclass(frozen=True)
class EqualRateSolution:
    rate: float
    schedule: TimeShare


@dataclass(frozen=True)
class PairSolution:
    """Equal-rate value of a pair with and without hierarchical points."""

    r_hm: float
    r_ts: float
    schedule: TimeShare

    def __post_init__(self):
        if not self.r_hm >= self.r_ts >= 0.0:
            raise ValueError(f"require r_hm >= r_ts >= 0, got {self.r_hm} < {self.r_ts}")

    @property
    def gain(self) -> float:
        return _relative_gain(self.r_hm, self.r_ts)


def _relative_gain(r_hm: float, r_ts: float) -> float:
    """(r_hm - r_ts) / r_ts; 0 when both are 0, +inf over a zero baseline."""
    if r_ts == 0.0:
        return 0.0 if r_hm == 0.0 else math.inf
    return (r_hm - r_ts) / r_ts


_ORIGIN = RatePair(0.0, 0.0)


def achievable_pairs(snr_weak: float, snr_strong: float, table: ThresholdTable) -> list[RatePair]:
    """Achievable (R1, R2) points for a receiver pair.

    Always contains (0, 0) plus the best single-modcod points (R_weak, 0)
    and (0, R_strong) when decodable. For every hierarchical scheme both
    stream assignments are enumerated: weak receiver on HE with the strong
    one on LE, and vice versa. Only the dominant point of each assignment,
    its best decodable HE and LE rates, is kept: every other decodable rate
    combination lies below it in both coordinates, so under free disposal
    it adds nothing to the region.
    """
    if snr_weak > snr_strong:
        raise ValueError("snr_weak must not exceed snr_strong")
    points: list[RatePair] = [_ORIGIN]

    weak_single = table.best_single(snr_weak)
    strong_single = table.best_single(snr_strong)
    if weak_single is not None:
        points.append(RatePair(weak_single.spectral_efficiency, 0.0, (weak_single, None)))
    if strong_single is not None:
        points.append(RatePair(0.0, strong_single.spectral_efficiency, (None, strong_single)))

    for scheme, (he_thr, he_eff, he_choice), (le_thr, le_eff, le_choice) in table.hierarchical_stream_index():
        for snr_he, snr_le, he_first in (
            (snr_weak, snr_strong, True),
            (snr_strong, snr_weak, False),
        ):
            kh = bisect_right(he_thr, snr_he)
            if not kh:
                continue
            kl = bisect_right(le_thr, snr_le)
            if not kl:
                continue
            he, le = he_choice[kh - 1], le_choice[kl - 1]
            ehe, ele = he_eff[kh - 1], le_eff[kl - 1]
            if he_first:
                points.append(RatePair(ehe, ele, (he, le)))
            else:
                points.append(RatePair(ele, ehe, (le, he)))
    return points


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_vertices(coords: list[tuple[float, float, int]]) -> list[tuple[float, float, int]]:
    """Convex hull (monotone chain) of (x, y, tag) triples, counterclockwise."""
    pts = sorted(set(coords), key=lambda p: (p[0], p[1]))
    if len(pts) <= 2:
        return pts
    lower: list[tuple[float, float, int]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def rate_region_hull(pairs: Sequence[RatePair]) -> list[RatePair]:
    """Vertices of the convex hull of the achievable set, in boundary order
    (for plotting and inspection)."""
    coords = [(p.r1, p.r2, i) for i, p in enumerate(pairs)]
    return [_ORIGIN if tag < 0 else pairs[tag] for _, _, tag in _hull_vertices(coords)]


def equal_rate_point(pairs: Sequence[RatePair]) -> EqualRateSolution:
    """Largest R that time sharing of the given points can give both
    receivers under free disposal: max min(R1, R2) over their convex hull,
    equivalently the largest R with (R, R) in the hull's downward closure.

    min(R1, R2) is concave and piecewise linear, so its maximum over the
    hull is at a hull vertex or where the diagonal crosses a hull edge. The
    crossings are scored by their common rate; the schedule mixes the two
    endpoints of the crossed edge, or serves a vertex on the diagonal with
    tau = 1. A vertex off the diagonal is scored by min(R1, R2) and wins only
    when strictly above every crossing; it is served full time, and its
    stronger receiver discards the surplus.
    """
    if not pairs:
        raise ValueError("need at least one rate pair")
    coords = [(p.r1, p.r2, i) for i, p in enumerate(pairs)]
    if all(p.r1 != 0.0 or p.r2 != 0.0 for p in pairs):
        coords.append((0.0, 0.0, -1))
    hull = _hull_vertices(coords)

    def pair_at(tag: int) -> RatePair:
        return _ORIGIN if tag < 0 else pairs[tag]

    best_rate = 0.0
    best_schedule: Optional[TimeShare] = None
    vertex_rate, vertex_tag = 0.0, -1
    m = len(hull)
    for i in range(m):
        x1, y1, tag1 = hull[i]
        x2, y2, tag2 = hull[(i + 1) % m] if m > 1 else hull[i]
        d1, d2 = x1 - y1, x2 - y2
        score = x1 if x1 < y1 else y1
        if score > vertex_rate:
            vertex_rate, vertex_tag = score, tag1
        if d1 == 0.0 and x1 >= best_rate:
            best_rate = x1
            best_schedule = TimeShare(1.0, pair_at(tag1), pair_at(tag1))
        if m > 1 and (d1 < 0.0) != (d2 < 0.0):
            tau = d2 / (d2 - d1)
            rate = tau * x1 + (1.0 - tau) * x2
            if rate > best_rate:
                best_rate = rate
                best_schedule = TimeShare(tau, pair_at(tag1), pair_at(tag2))
    if vertex_rate > best_rate:
        best_rate = vertex_rate
        best_schedule = TimeShare(1.0, pair_at(vertex_tag), pair_at(vertex_tag))
    # Tie rule: when some achievable point sits exactly at the optimum,
    # serve it full time instead of mixing two others.
    for p in pairs:
        if p.r1 == p.r2 == best_rate:
            best_schedule = TimeShare(1.0, p, p)
            break
    if best_schedule is None:
        best_schedule = TimeShare(1.0, _ORIGIN, _ORIGIN)
    return EqualRateSolution(rate=best_rate, schedule=best_schedule)


def pair_solution(snr_weak: float, snr_strong: float, table: ThresholdTable) -> PairSolution:
    """Solve one receiver pair: hierarchical equal-rate value vs the
    classical time-sharing baseline."""
    weak = table.best_single(snr_weak)
    strong = table.best_single(snr_strong)
    r_ts = aggregate_ts((
        weak.spectral_efficiency if weak else 0.0,
        strong.spectral_efficiency if strong else 0.0,
    ))
    solution = equal_rate_point(achievable_pairs(snr_weak, snr_strong, table))
    # The classical mix of the two single points is in the hull, so
    # r_hm >= r_ts holds mathematically. Achievable rates are small-denominator
    # rationals, so a genuine hierarchical improvement is never below ~1e-6
    # relative; anything within 1e-9 of r_ts is roundoff between the
    # hull-crossing and harmonic-mean expressions and snaps to equality.
    r_hm = solution.rate
    if r_hm <= r_ts * (1.0 + 1e-9):
        r_hm = r_ts
    return PairSolution(r_hm=r_hm, r_ts=r_ts, schedule=solution.schedule)


def group_receivers(snrs: Sequence[float]) -> tuple[list[tuple[int, int]], Optional[int]]:
    """Pair receivers by repeatedly grouping the current extremes.

    Sorting by SNR and matching minimum against maximum realizes the
    pick-the-largest-SNR-difference rule. Returns the index pairs as
    (weaker, stronger) and the index left out of every pair: the median
    receiver for an odd count, else None. Ties sort by original index
    (a stable sort), keeping the result a pure function of the SNR multiset.
    """
    order = np.argsort(np.asarray(snrs, dtype=float), kind="stable").tolist()
    half = len(order) // 2
    pairs = list(zip(order[:half], order[::-1][:half]))
    return pairs, order[half] if len(order) % 2 else None


def aggregate_ts(rates: Sequence[float]) -> float:
    """Time-sharing rate over independently served units (receivers, or
    pairs at their equal rate), composed harmonically."""
    if not rates:
        raise ValueError("need at least one rate")
    total = 0.0
    for r in rates:
        if r < 0:
            raise ValueError("rates must be nonnegative")
        total += _reciprocal(r)
    return 1.0 / total


def _reciprocal(rate: float) -> float:
    """1 / rate, and inf for rate 0: a unit that gets nothing pins every
    harmonic sum it enters at rate 0."""
    return 1.0 / rate if rate else math.inf


@dataclass(frozen=True)
class SystemSummary:
    r_hm: float
    r_ts: float
    gain: float
    outage_count: int


def system_summary(snrs: Sequence[float], table: ThresholdTable) -> SystemSummary:
    """Hierarchical vs classical time sharing for a receiver population,
    each pair at its free-disposal equal rate (see ``equal_rate_point``).

    An outage receiver (no decodable single modcod) forces r_ts to 0. It
    forces r_hm to 0 too unless hierarchical points serve its pair: a
    receiver that decodes only an HE or LE stream still gets a positive
    pair rate, and then gain = inf. ``outage_count`` reports how many
    outage receivers there were so callers can filter and retry.

    ``pair_solution`` runs once per (weak cell, strong cell) of ``table``
    (see ``ThresholdTable.cells``); later pairs in the same cells read its
    answer from ``table.pair_memo``, which gives the same bits."""
    snrs = np.asarray(snrs, dtype=float)
    if not snrs.size:
        raise ValueError("need at least one receiver")
    pairs, unpaired = group_receivers(snrs)
    values = snrs.tolist()
    cells = table.cells(snrs).tolist()
    singles = [table.best_single(s) for s in values]
    inv = [_reciprocal(c.spectral_efficiency if c else 0.0) for c in singles]

    # Both harmonic sums are accumulated in pair-traversal order, and a pair
    # without hierarchical benefit contributes the very same reciprocal terms
    # to both, so "no gain anywhere" yields r_hm == r_ts bit for bit. A pair's
    # solution is a function of its two cells, so it is solved once per cell
    # pair and table; the memo keeps 1 / r_hm, or None when r_hm == r_ts.
    memo = table.pair_memo
    ts_inv = hm_inv = 0.0
    for i, j in pairs:
        pair_inv = inv[i] + inv[j]
        ts_inv += pair_inv
        key = (cells[i], cells[j])
        try:
            hm_term = memo[key]
        except KeyError:
            sol = pair_solution(values[i], values[j], table)
            hm_term = memo[key] = None if sol.r_hm == sol.r_ts else 1.0 / sol.r_hm
        hm_inv += pair_inv if hm_term is None else hm_term
    if unpaired is not None:
        ts_inv += inv[unpaired]
        hm_inv += inv[unpaired]
    r_ts = 1.0 / ts_inv
    r_hm = max(1.0 / hm_inv, r_ts)
    return SystemSummary(
        r_hm=r_hm,
        r_ts=r_ts,
        gain=_relative_gain(r_hm, r_ts),
        outage_count=sum(c is None for c in singles),
    )


def system_gain(snrs: Sequence[float], table: ThresholdTable) -> float:
    """Relative spectrum-efficiency gain (R_hm - R_ts) / R_ts of
    hierarchical-modulation time sharing over the classical baseline.

    Pair rates are free-disposal equal rates (see ``equal_rate_point``).
    Returns 0 when both aggregates are 0, and +inf when the baseline is 0
    but hierarchical points serve every outage receiver's pair. Finite-gain
    comparisons require an outage-free population; that is what the
    campaign engine feeds in.
    """
    return system_summary(snrs, table).gain
