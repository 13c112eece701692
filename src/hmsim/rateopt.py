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
harmonically: the aggregate is 1 / (sum of per-unit reciprocals). Every
reciprocal depends on the SNRs only through their table cells (see
``ThresholdTable.cells``), and cells never decrease as the SNR rises, so
populations are paired on their sorted cells, lowest with highest, and
aggregated on arrays indexed by cell: ``ThresholdTable.cell_inv`` for
single modcods and ``ThresholdTable.pair_memo`` for solved pairs. There
is one aggregation path, ``system_summaries``: it takes many populations
as the rows of one array, with a count of weakest receivers to leave out
of each, and ``system_summary`` is its one-row case that leaves out
none. A receiver that decodes nothing has reciprocal inf and pins the
harmonic aggregate at 0; callers that want to serve a degraded
population must leave such receivers out (the campaign engine does, and
reports how many it dropped).

There are two pair solvers, and both take a cell's best efficiencies from
one per-cell array, ``ThresholdTable.cell_units``: the best single, HE
and LE efficiencies in integer units of 1/180 bit/s/Hz
(``modcod.EFFICIENCY_UNITS``). ``solve_cell_pairs`` is the population
path: it solves a batch of cell pairs exactly in those units, without
building points or schedules; no coordinate exceeds 810 units and no
product 2.2e9, so int64 is exact. ``pair_solution`` is the float hull
that ``hmsim pair`` prints, with its schedule and the provenance of each
point (``achievable_pairs``, whose single-modcod points and their
provenance come from ``ThresholdTable.best_single``); on the shipped
tables it decides gain alike and its rate is within 2 ulps of the exact
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .modcod import EFFICIENCY_UNITS, ModcodChoice, Stream, ThresholdTable

__all__ = [
    "RatePair",
    "TimeShare",
    "EqualRateSolution",
    "PairSolution",
    "achievable_pairs",
    "rate_region_hull",
    "equal_rate_point",
    "pair_solution",
    "solve_cell_pairs",
    "system_summaries",
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
    it adds nothing to the region. Those rates are read from the two
    receivers' rows of ``table.cell_units``.
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

    weak, strong = (table.cell_units[table.cell(snr)].tolist() for snr in (snr_weak, snr_strong))
    schemes = table.hierarchical_schemes()
    for i, scheme in enumerate(schemes):
        # Weak receiver on HE, then on LE; each point lists the weak side first.
        for he_row, le_row, order in ((weak, strong, 1), (strong, weak, -1)):
            he, le = he_row[1 + i], le_row[1 + len(schemes) + i]
            if he and le:
                choices = ModcodChoice.from_units(scheme, Stream.HE, he), ModcodChoice.from_units(scheme, Stream.LE, le)
                rates = he / EFFICIENCY_UNITS, le / EFFICIENCY_UNITS
                points.append(RatePair(*rates[::order], choices[::order]))
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
    """Solve one receiver pair in floats, with the schedule and provenance
    that ``hmsim pair`` prints: hierarchical equal-rate value vs the
    classical time-sharing baseline. Populations use ``solve_cell_pairs``.

    The classical mix of the two single points is in the hull, so r_hm >=
    r_ts holds mathematically, but the hull crossing and the harmonic mean
    round differently. A hull rate within 1e-9 of r_ts (relative) is that
    roundoff and snaps to r_ts. Checked against the exact solution on every
    cell pair of the shipped tables, the roundoff on pairs without gain is
    at most 3.3e-16 and the smallest genuine gain is 8.1e-4, both relative
    to r_ts; the snap decides as the exact solver does, and r_hm is within 2
    ulps of the exact rate."""
    inv = table.cell_inv
    r_ts = float(1.0 / (inv[table.cell(snr_weak)] + inv[table.cell(snr_strong)]))
    solution = equal_rate_point(achievable_pairs(snr_weak, snr_strong, table))
    r_hm = solution.rate
    if r_hm <= r_ts * (1.0 + 1e-9):
        r_hm = r_ts
    return PairSolution(r_hm=r_hm, r_ts=r_ts, schedule=solution.schedule)


# Crossings per block of cell pairs in solve_cell_pairs: 64 KB per int64
# array, about 0.5 MB for the whole block, which the heap keeps between
# blocks (see campaign._CHUNK_RECEIVERS).
_BLOCK_CROSSINGS = 1 << 13


@lru_cache
def _point_layout(schemes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Columns of ``cell_units`` that give the weak and the strong
    coordinate of each point, and the (p, q) index pairs of the points.
    Points: (s_w, 0), (0, s_s), weak on HE of each scheme, weak on LE of
    each scheme; column 0 stands in for the zeros, which the caller sets."""
    he, le = list(range(1, schemes + 1)), list(range(schemes + 1, 2 * schemes + 1))
    layout = (np.array([0, 0] + he + le), np.array([0, 0] + le + he), *np.triu_indices(2 + 2 * schemes, 1))
    for index in layout:
        index.flags.writeable = False  # shared by every caller
    return layout


def solve_cell_pairs(table: ThresholdTable, weak_cells, strong_cells) -> np.ndarray:
    """Memo terms of many (weak cell, strong cell) pairs: 1 / r_hm where
    hierarchical points beat classical time sharing, else the classical term
    ``cell_inv[weak] + cell_inv[strong]``.

    Each pair is solved exactly in int64 on ``table.cell_units``, in units
    of 1/EFFICIENCY_UNITS bit/s/Hz. Its points are the origin, (s_w, 0),
    (0, s_s) and, for every hierarchical scheme, both stream assignments
    (weak on HE with strong on LE, and the reverse); an assignment whose HE
    or LE stream does not decode is the origin. With d = x - y, the
    free-disposal equal rate is

        R* = max(max_p min(x_p, y_p),
                 max over d_p > 0 > d_q of (d_p x_q - d_q x_p) / (d_p - d_q)),

    the best vertex or diagonal crossing. The pair gains iff R* > R_ts =
    s_w s_s / (s_w + s_s) (0 when both are 0), and then stores the
    correctly rounded EFFICIENCY_UNITS x den / num of R* = num / den.

    Exactness: coordinates are at most 810 units, so a crossing has a
    numerator below 1.32e6 and a denominator of at most 1620, and every
    product formed here stays below 2.2e9. The best crossing is picked by
    its float64 quotient: both operands are exact, correctly rounded
    division never reverses an order, and two different crossings differ by
    at least 1 / 1620**2 units, far above the 1e-13 units of rounding. The
    pick's own numerator and denominator then meet the vertex and R_ts by
    cross-multiplication.
    """
    weak_cells, strong_cells = np.asarray(weak_cells), np.asarray(strong_cells)
    units, inv = table.cell_units, table.cell_inv
    weak_cols, strong_cols, p, q = _point_layout((units.shape[1] - 1) // 2)
    terms = inv[weak_cells] + inv[strong_cells]
    step = max(1, _BLOCK_CROSSINGS // p.size)
    for lo in range(0, weak_cells.size, step):
        x = units[weak_cells[lo:lo + step, None], weak_cols]
        y = units[strong_cells[lo:lo + step, None], strong_cols]
        x[:, 1] = y[:, 0] = 0
        low = np.minimum(x, y)
        live = low > 0
        live[:, :2] = True
        x *= live
        y *= live
        d = x - y
        dp, dq = d[:, p], d[:, q]
        apart = dp * dq < 0
        num = np.where(apart, dp * x[:, q] - dq * x[:, p], 0)
        den = np.where(apart, dp - dq, 1)
        rows, best = np.arange(x.shape[0]), (num / den).argmax(axis=1)
        num, den = np.abs(num[rows, best]), np.abs(den[rows, best])
        vertex = low.max(axis=1)
        won = vertex * den > num
        num, den = np.where(won, vertex, num), np.where(won, 1, den)
        sw, ss = x[:, 0], y[:, 1]
        # R_ts as sw ss / max(sw + ss, 1): the same value, and 0 / 1 when
        # neither receiver decodes a single modcod.
        gain = num * np.maximum(sw + ss, 1) > den * sw * ss
        np.divide(EFFICIENCY_UNITS * den, num, out=terms[lo:lo + step], where=gain)
    return terms


@dataclass(frozen=True)
class SystemSummary:
    r_hm: float
    r_ts: float
    gain: float


def system_summaries(snrs, table: ThresholdTable, dropped) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hierarchical vs classical time sharing for each row of an (R, n)
    array of receiver SNRs, each pair at its free-disposal equal rate (see
    ``equal_rate_point``): the arrays r_hm, r_ts and gain, one entry per
    row. Row i leaves out its ``dropped[i]`` weakest receivers, and a row
    that leaves out all n reads NaN in all three.

    Each row pairs its receivers on their sorted cells (see
    ``table.cells``), which never decrease as the SNR rises. With k
    receivers left out, the served cells are ``cells[k:]``, and pair j is
    weak cell ``k + j`` with strong cell ``n - 1 - j`` while ``k + j < n - 1
    - j``; for an odd served count the median cell ``k + j == n - 1 - j``
    is left unpaired. This is the weakest-with-strongest rule on SNRs,
    since every term is a function of the cells. Both harmonic sums run
    over the pairs in that order, then the unpaired receiver: one
    ``np.add.accumulate`` along each row, whose columns past the row's
    last term hold +0.0, which changes no sum's bits. The classical term of
    a pair is the sum of its two cells' ``table.cell_inv`` entries. Its
    hierarchical term is read from ``table.pair_memo``. The (weak cell,
    strong cell) pairs of all rows not yet solved on this table go, each
    once, to one ``solve_cell_pairs`` call, which stores the correctly
    rounded 1 / r_hm of the exact equal rate, or the classical term itself
    where hierarchy gains nothing. So "no gain anywhere" yields r_hm ==
    r_ts bit for bit.

    A served receiver that decodes no single modcod (reciprocal inf)
    forces r_ts to 0. It forces r_hm to 0 too unless hierarchical points
    serve its pair: a receiver that decodes only an HE or LE stream still
    gets a positive pair rate, and then gain = inf.
    """
    # Sorted SNRs give sorted cells, and searchsorted runs faster on them.
    cells = table.cells(np.sort(snrs, axis=1))
    rows, n = cells.shape
    dropped = np.asarray(dropped)
    served = n - dropped
    # Term column j of each row: pair j, then the unpaired receiver, then
    # zero padding; at least one column, which a row that leaves out every
    # receiver sums to 0. Index arrays are (rows, columns).
    j = np.arange(max(1, int((served.max() + 1) // 2)))
    weak_at, strong_at = dropped[:, None] + j, n - 1 - j
    paired, unpaired = weak_at < strong_at, weak_at == strong_at
    weak = np.take_along_axis(cells, np.minimum(weak_at, n - 1), axis=1)
    strong = cells[:, strong_at]
    inv = table.cell_inv
    weak_inv = inv[weak]
    memo = table.pair_memo
    hm = memo[weak, strong]
    todo = paired & np.isnan(hm)
    if todo.any():
        a, b = np.divmod(np.unique(weak[todo] * len(memo) + strong[todo]), len(memo))
        memo[a, b] = solve_cell_pairs(table, a, b)
        hm = memo[weak, strong]
    alone = np.where(unpaired, weak_inv, 0.0)
    # add.accumulate adds in sequence, so the bits do not depend on numpy's
    # pairwise summation.
    ts_inv = np.add.accumulate(np.where(paired, weak_inv + inv[strong], alone), axis=1)[:, -1]
    hm_inv = np.add.accumulate(np.where(paired, hm, alone), axis=1)[:, -1]
    some = served > 0
    r_ts = np.divide(1.0, ts_inv, out=np.full(rows, np.nan), where=some)
    r_hm = np.maximum(np.divide(1.0, hm_inv, out=np.full(rows, np.nan), where=some), r_ts)
    # _relative_gain per row: r_hm > r_ts == 0 is +inf, r_hm == 0 is 0.
    with np.errstate(divide="ignore"):
        gain = np.divide(r_hm - r_ts, r_ts, out=np.where(some, 0.0, np.nan), where=r_hm > 0)
    return r_hm, r_ts, gain


def system_summary(snrs: Sequence[float], table: ThresholdTable) -> SystemSummary:
    """``system_summaries`` of one population with no receiver left out.

    Receivers that decode no single modcod stay in: the campaign drops
    them before it aggregates, a library caller may filter them first."""
    snrs = np.asarray(snrs, dtype=float)
    if not snrs.size:
        raise ValueError("need at least one receiver")
    r_hm, r_ts, gain = system_summaries(snrs[None], table, [0])
    return SystemSummary(r_hm=float(r_hm[0]), r_ts=float(r_ts[0]), gain=float(gain[0]))
