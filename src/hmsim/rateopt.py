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
single modcods and a grid of solved pair terms. The reported gain is
that of this max-spread pairing, a lower bound on the best pairing's.
There is one pairing and summing path, ``system_summaries``: it takes
many populations as the rows of one array of sorted cells of one table,
and curves, each a set of the table's hierarchical families evaluated
with its single modcods. It pairs each block of rows once for all
curves; a curve reads the single column and its families' HE and LE
columns of ``ThresholdTable.cell_units``, whose runs of equal rows are
the curve's cells, solves each distinct pair of them once in one
``solve_cell_pairs`` call and sums the rows from those terms. A receiver
that decodes no single modcod has reciprocal inf in ``cell_inv``; that
inf is the one outage rule. Such receivers sit first in each sorted row,
and ``system_summaries`` counts them, leaves them out and returns their
count. A pair (``pair_solution``) keeps them: its classical rate is then
0.

Both pair answers take a cell's best efficiencies from one per-cell
array, ``ThresholdTable.cell_units``: the best single, HE and LE
efficiencies in integer units of 1/180 bit/s/Hz
(``modcod.EFFICIENCY_UNITS``). ``solve_cell_pairs`` solves a batch of cell
pairs exactly in those units, in one pass per block of pairs and without
building schedules. It first tests each pair against its classical
time-sharing line, which decides in O(S) whether hierarchy gains at all,
and crosses the diagonal only for the pairs that gain, each pair only
between its own points below the diagonal and above it, all in one
ragged batch. No coordinate exceeds 810 units and no product 1.32e6 <
2**31, so int32 is exact. A term is the smallest of the correctly rounded
reciprocals of the pair's vertex and crossing rates, so no crossing is
picked and crossings that tie cannot change it. It is the one place that
decides whether a pair gains, for a population and for ``pair_solution``
alike. ``pair_solution`` adds what ``hmsim pair`` prints: the float
hull's rate where the pair gains, and the schedule and the provenance of
each point (``achievable_pairs``, whose single-modcod points and their
provenance come from ``ThresholdTable.best_single``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .modcod import EFFICIENCY_UNITS, Family, ModcodChoice, Stream, ThresholdTable, _inverse_efficiency

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
        if not (0.0 <= self.r1 < math.inf and 0.0 <= self.r2 < math.inf):
            raise ValueError(f"rates must be finite and nonnegative, got ({self.r1}, {self.r2})")

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

    @property
    def gain(self) -> float:
        """(r_hm - r_ts) / r_ts; 0 when both are 0, +inf over a zero baseline."""
        if self.r_ts == 0.0:
            return 0.0 if self.r_hm == 0.0 else math.inf
        return (self.r_hm - self.r_ts) / self.r_ts


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
    return [pairs[tag] for _, _, tag in _hull_vertices(coords)]


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

    # Rates are finite and >= 0: hull[0] is the origin, so step 0 sets a schedule.
    best_rate = 0.0
    best_schedule: Optional[TimeShare] = None
    vertex_rate, vertex_tag = 0.0, -1
    m = len(hull)
    for i in range(m):
        x1, y1, tag1 = hull[i]
        x2, y2, tag2 = hull[(i + 1) % m]
        d1, d2 = x1 - y1, x2 - y2
        score = x1 if x1 < y1 else y1
        if score > vertex_rate:
            vertex_rate, vertex_tag = score, tag1
        if d1 == 0.0 and x1 >= best_rate:
            best_rate = x1
            best_schedule = TimeShare(1.0, pair_at(tag1), pair_at(tag1))
        if (d1 < 0.0) != (d2 < 0.0):
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
    return EqualRateSolution(rate=best_rate, schedule=best_schedule)


def pair_solution(snr_weak: float, snr_strong: float, table: ThresholdTable) -> PairSolution:
    """Solve one receiver pair with the schedule and provenance that
    ``hmsim pair`` prints: hierarchical equal-rate value vs the classical
    time-sharing baseline. Populations use ``solve_cell_pairs``.

    The pair gains where ``solve_cell_pairs`` returns a term other than the
    classical ``cell_inv[weak] + cell_inv[strong]``, as in a population.
    There r_hm is the float hull's rate; on the shipped tables it is within
    2 ulps of the exact rate, above r_ts. Elsewhere r_hm is r_ts."""
    solution = equal_rate_point(achievable_pairs(snr_weak, snr_strong, table))
    weak, strong = table.cell(snr_weak), table.cell(snr_strong)
    classical = table.cell_inv[weak] + table.cell_inv[strong]
    r_ts = float(1.0 / classical)
    gains = solve_cell_pairs(table.cell_units, [weak], [strong])[0] != classical
    r_hm = solution.rate if gains else r_ts
    return PairSolution(r_hm=r_hm, r_ts=r_ts, schedule=solution.schedule)


# Entries per temporary of a system_summaries block: its rows x term
# columns, float64 and 32 KB each, half a campaign draw chunk's. A block's
# temporaries then total about 0.3 MB and stay within the heap that glibc
# keeps mapped between blocks (see campaign._CHUNK_RECEIVERS); only its
# pairing and one curve's mapping of it, each as large as its cells, are
# kept for the sums.
_BLOCK_ENTRIES = 1 << 12

# Point entries per block of solve_cell_pairs: pairs x (2 S + 2) int32
# coordinates, 32 KB per temporary, as in a system_summaries block. A
# block's crossings number at most pairs x (S + 1)**2, and at most 5,922
# (on the h_qpsk table) in any block of all the shipped tables' cell pairs.
# Blocks four times as large made the 1,143 h_qpsk pairs of a 31-point,
# 500-receiver campaign one block, but their temporaries passed the heap
# that glibc keeps mapped (see campaign._CHUNK_RECEIVERS): about 100 page
# faults per such campaign and 900 per default one, none at this size.
_SOLVE_ENTRIES = 1 << 13


def solve_cell_pairs(units: np.ndarray, weak_cells, strong_cells) -> np.ndarray:
    """The terms ``system_summaries`` sums, for many (weak cell, strong
    cell) pairs of a per-cell efficiency array ``units``, laid out as
    ``ThresholdTable.cell_units`` (the single, then S HE and S LE columns,
    in 1/EFFICIENCY_UNITS bit/s/Hz): 1 / r_hm where hierarchical points
    beat classical time sharing, else the classical term ``inv[weak] +
    inv[strong]``, ``inv`` the reciprocals of the single column by the
    formula of ``ThresholdTable.cell_inv``, so bit-equal to its entries.

    Each pair is solved exactly in int32 on its two rows of ``units``. Its
    2 S + 2 points are the singles
    (s_w, 0) and (0, s_s) and, for every hierarchical scheme, both stream
    assignments (weak on HE with strong on LE, and the reverse); an
    assignment whose HE or LE stream does not decode is the origin, and
    one with both coordinates > 0 is live. R* is the free-disposal equal
    rate and R_ts = s_w s_s / (s_w + s_s) (0 when either is 0) the
    classical one, where the time-sharing line x s_s + y s_w = s_w s_s
    meets the diagonal.

    Gain test, O(S) per pair: the pair gains (R* > R_ts) iff some live
    point lies strictly beyond that line, x max(s_s, 1) + y s_w > s_w s_s.
    For s_w, s_s > 0: if no point does, the hull lies in the
    downward-closed half-plane x s_s + y s_w <= s_w s_s, and so does the
    region, so R* = R_ts; if one does, (R_ts, R_ts) lies on the open
    segment between the singles, which separates that point from the
    origin, so it is interior to the hull and R* > R_ts. When s_w or s_s
    is 0, R_ts = 0 and the test holds for every live point, whose
    min(x, y) > 0 is a lower bound on R*. A pair without gain keeps its
    classical term and forms no crossing. The test runs on (points, pairs)
    arrays, pairs along the contiguous axis.

    Crossings, for the pairs that gain: the diagonal leaves the hull
    beyond the line, at a vertex or on an edge whose ends are singles or
    points beyond the line (a live point on or below it lies in the
    triangle of the origin and the singles, so it is no vertex). With
    d = x - y, let P be (s_w, 0) and the beyond points with d > 0, and Q
    be (0, s_s) and those with d < 0. Then

        R* = max(max over beyond points of min(x, y),
                 max over P x Q of (d_p x_q - d_q x_p) / max(d_p - d_q, 1)),

    the best vertex or diagonal crossing; each term is a rate of the
    region, so none exceeds R*. d_p - d_q is 0 only when both singles are
    the origin, and then the numerator is 0 too. Each pair crosses only
    its own P and Q points: the (pair, p, q) triples of a block form one
    ragged batch, grouped by pair, with |P| x |Q| triples per pair.

    Exactness: coordinates are at most 810 units, so every product formed
    here, gain test included, is at most 2 x 810**2 < 1.32e6 < 2**31, and
    a crossing's denominator at most 1620, EFFICIENCY_UNITS times it at
    most 291,600; int32 is exact. The term of a rate num / den is the
    correctly rounded EFFICIENCY_UNITS x den / num (inf for num = 0): both
    operands are exact in float64. Correctly
    rounded division never reverses an order, so of a pair's vertex and
    crossings the smallest term is the correctly rounded
    EFFICIENCY_UNITS / R*, which is what is stored: no crossing is
    picked, and crossings that tie at R*, such as 2/4 and 1/2, are the same
    rational and round to the same term, so a choice among them could not
    change it. These bounds also keep a term that gains strictly below its
    classical float term: R* and R_ts have denominators of at most 1620,
    so R* > R_ts gives R* - R_ts >= 1 / 1620**2 units, and with R* <= 810
    units 1 / R* lies a relative 1 / (1620**2 x 810), 4.7e-10, or more
    below 1 / R_ts (inf where s_w or s_s is 0), far above the few ulps of
    either term's rounding. Rounded addition keeps order, so the sums keep
    r_hm >= r_ts.
    """
    weak_cells, strong_cells = np.asarray(weak_cells), np.asarray(strong_cells)
    inv = _inverse_efficiency(units[:, 0])
    schemes, k = (units.shape[1] - 1) // 2, units.shape[1] + 1
    terms = inv[weak_cells] + inv[strong_cells]
    # Row r of cols, per cell: the single, each scheme's HE stream, each
    # scheme's LE stream in reverse scheme order, then 0. Point r of a pair
    # is row r of its weak cell and row k - 1 - r of its strong cell: (s_w,
    # 0), weak on HE with strong on LE, weak on LE with strong on HE, (0, s_s).
    cols = np.zeros((k, units.shape[0]), np.int32)
    cols[:schemes + 1] = units.T[:schemes + 1]
    cols[schemes + 1:-1] = units.T[:schemes:-1]
    step = max(1, _SOLVE_ENTRIES // k)
    for lo in range(0, weak_cells.size, step):
        x, y = cols.take(weak_cells[lo:lo + step], axis=1), cols[::-1].take(strong_cells[lo:lo + step], axis=1)
        sw, ss, n = x[0], y[-1], x.shape[1]
        m = np.minimum(x, y)
        beyond = x * np.maximum(ss, 1) + y * sw > sw * ss
        beyond &= m > 0
        gains = beyond.any(axis=0)
        if not gains.any():
            continue
        m *= beyond
        vertex = m.max(axis=0)[gains]
        d = x - y
        p, q = beyond & (d > 0), beyond & (d < 0)
        p[0] = q[-1] = gains
        # Flat index c * k + r of a transposed mask is point r of pair c, so
        # the entries come pair by pair, and P's single first in each pair.
        pp, pr = np.divmod(np.flatnonzero(p.T), k)
        qp, qr = np.divmod(np.flatnonzero(q.T), k)
        # The triples, pair by pair: P entry e meets the reps[e] Q entries of
        # its pair as triples run[e] onwards, and j is each triple's Q entry.
        nq = np.bincount(qp, minlength=n)
        reps = nq[pp]
        run = np.cumsum(reps)
        run -= reps
        j = np.arange(run[-1] + reps[-1]) - np.repeat(run - (np.cumsum(nq) - nq)[pp], reps)
        # Entry r * n + c of the flattened points is point r of pair c.
        i, j = np.repeat(pr * n + pp, reps), (qr * n + qp)[j]
        x, d = x.ravel(), d.ravel()
        num = d[i] * x[j]
        num -= d[j] * x[i]
        den = d[i] - d[j]
        np.maximum(den, 1, out=den)
        den *= EFFICIENCY_UNITS
        with np.errstate(divide="ignore"):
            crossed = np.minimum.reduceat(den / num, run[pr == 0])
        terms[lo + gains.nonzero()[0]] = np.minimum(crossed, EFFICIENCY_UNITS / vertex)
    return terms


def _pairing(cells, outage, none) -> tuple[np.ndarray, np.ndarray]:
    """The pairing rule of ``system_summaries`` on a block of rows: the weak
    and the strong cell of each row's term columns, as (rows, columns)
    arrays of the dtype of ``cells``, which must hold the sentinel cell
    ``none``. Term column j of a row is pair j, then the unpaired receiver
    (weak cell, ``none``), then padding (``none``, ``none``); there is at
    least one column, which a row that leaves out every receiver pads."""
    rows, n = cells.shape
    width = max(1, int(n - outage.min() + 1) // 2)
    j = np.arange(width)
    weak_at, strong_at = outage[:, None] + j, n - 1 - j
    # Cell c of row r is entry r * n + c of the flattened rows; the strong
    # cells of pairs 0, 1, ... are the row's cells from the last backwards.
    flat = np.minimum(weak_at, n - 1)
    flat += np.arange(0, rows * n, n)[:, None]
    weak = np.where(weak_at <= strong_at, cells.ravel()[flat], none)
    return weak, np.where(weak_at < strong_at, cells[:, ::-1][:, :width], none)


def system_summaries(cells, table: ThresholdTable,
                     curves: Sequence[Iterable[Family]]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Hierarchical vs classical time sharing for each row of an (R, n)
    array of sorted receiver cells of ``table`` (see
    ``ThresholdTable.cells``), n >= 1, for each of ``curves``, each pair at
    its free-disposal equal rate (see ``equal_rate_point``): r_hm and gain
    as (curves, R) arrays, r_ts and outage as (R,) arrays. A curve is a set
    of hierarchical families of ``table``, evaluated with its single
    modcods: what ``table.subset`` of those families and the singles would
    give on its own cells. A curve that names a family with no scheme
    among ``table.hierarchical_schemes()`` raises a ValueError naming it.

    A row's outage is its count of leading cells with an inf
    ``table.cell_inv`` (the inf cells are the lowest, as ``cell_units`` is
    a running maximum down the cells): those receivers decode no single
    modcod and are left out, and a row that leaves out all n reads NaN.
    Every served receiver has a finite reciprocal, so r_ts > 0.

    With k receivers left out, the served cells are ``cells[k:]``, and pair
    j is weak cell ``k + j`` with strong cell ``n - 1 - j`` while ``k + j <
    n - 1 - j``; for an odd served count the median cell ``k + j == n - 1 -
    j`` is left unpaired. Cells never decrease as the SNR rises and every
    term is a function of the cells, so this is the weakest-with-strongest
    rule on SNRs. The classical term of a pair is the sum of its two cells'
    ``cell_inv`` entries. Its hierarchical term for a curve is the one
    ``solve_cell_pairs`` returns: the correctly rounded 1 / r_hm of the
    exact equal rate, or the classical term itself where hierarchy gains
    nothing; so "no gain anywhere" yields r_hm == r_ts bit for bit, and
    r_hm >= r_ts always (see the exactness note of ``solve_cell_pairs``).

    Each block of at most ``_BLOCK_ENTRIES`` rows x term columns (at least
    one row) is paired once, by ``_pairing`` with the sentinel cell ``none
    = table.cell_inv.size``, and the classical sums run once. A curve reads
    the single column and its families' HE and LE columns of
    ``table.cell_units``; a term depends only on the two rows it reads, so
    the curve's cells are the runs of equal rows in those columns, and
    ``lut`` maps each cell of ``table`` to its curve cell and ``none`` to
    the curve's sentinel m, its count of cells. Per curve, the block
    pairings' cell pairs are marked on one (m + 1) x (m + 1) bool grid and
    go, each once, to one ``solve_cell_pairs`` call, whose terms fill a
    float grid of that shape with the curve cells' ``cell_inv``, then 0.0,
    in column m. A row's classical and hierarchical sums are
    ``np.add.accumulate`` of ``padded[weak] + padded[strong]`` (``padded``:
    ``cell_inv``, then 0.0) and of ``terms[weak, strong]`` along its term
    columns; padding adds +0.0, which changes no sum's bits, so a row's
    sums do not depend on the rows it is summed with.
    """
    rows, n = cells.shape
    if not n:
        raise ValueError("need at least one receiver")
    inv, units, schemes = table.cell_inv, table.cell_units, table.hierarchical_schemes()
    none = inv.size
    # Widen the cells so that they hold the sentinel: uint8 does not hold 256.
    cells = cells.astype(np.result_type(cells.dtype, np.min_scalar_type(none)), copy=False)
    outage = (cells < np.count_nonzero(np.isinf(inv))).sum(axis=1)
    served = n - outage
    step = max(1, _BLOCK_ENTRIES // max(1, int(served.max() + 1) // 2))
    blocks = [slice(lo, lo + step) for lo in range(0, rows, step)]
    pairings = [_pairing(cells[block], outage[block], none) for block in blocks]
    padded = np.append(inv, 0.0)
    ts_inv, hm_inv = np.empty(rows), np.empty((len(curves), rows))
    for block, (weak, strong) in zip(blocks, pairings):
        # add.accumulate adds in sequence, so the bits do not depend on
        # numpy's pairwise summation.
        ts_inv[block] = np.add.accumulate(padded[weak] + padded[strong], axis=1)[:, -1]
    for i, (families, hm) in enumerate(zip(curves, hm_inv)):
        lacking = sorted(fam.token for fam in set(families).difference(scheme.family for scheme in schemes))
        if lacking:
            raise ValueError(f"curves[{i}]: {', '.join(lacking)}: not a hierarchical family of the table")
        picked = [k for k, scheme in enumerate(schemes) if scheme.family in families]
        curve_units = units[:, [0, *(1 + k for k in picked), *(1 + len(schemes) + k for k in picked)]]
        opens = np.concatenate(([True], (curve_units[1:] != curve_units[:-1]).any(axis=1)))
        m = np.count_nonzero(opens)
        # Each lookup is as narrow as its sentinel: uint8 pairings map to uint8.
        lut = np.append(np.cumsum(opens) - 1, m).astype(np.min_scalar_type(m))
        mapped = [(lut[weak], lut[strong]) for weak, strong in pairings]
        marked = np.zeros((m + 1, m + 1), dtype=bool)
        for weak, strong in mapped:
            marked[weak, strong] = True
        # Each marked pair of cells once, in row-major (weak, strong) order.
        a, b = np.nonzero(marked[:m, :m])
        terms = np.zeros(marked.shape)
        terms[a, b] = solve_cell_pairs(curve_units[opens], a, b)
        terms[:, m] = np.append(inv[opens], 0.0)
        for block, (weak, strong) in zip(blocks, mapped):
            hm[block] = np.add.accumulate(terms[weak, strong], axis=1)[:, -1]
    some = served > 0
    r_ts = np.divide(1.0, ts_inv, out=np.full(rows, np.nan), where=some)
    r_hm = np.divide(1.0, hm_inv, out=np.full(hm_inv.shape, np.nan), where=some)
    return r_hm, r_ts, (r_hm - r_ts) / r_ts, outage
