"""Monte Carlo gain campaigns over a grid of boresight SNR values.

For each (SNR_max, repetition) a receiver population is drawn from the beam
and weather model, and the hierarchical-over-classical spectrum-efficiency
gain is evaluated once per requested hierarchical family (and optionally
once with all families combined). The same population is used for every
family at a given (grid point, repetition) - the curves are paired
comparisons on a common system draw.

Receivers that decode no single-stream modcod (an inf ``cell_inv``, see
``rateopt.system_summaries``) are not servable by the classical baseline at
all; they are left out of the run and counted, since the relative gain is
undefined against a zero baseline. Every curve is evaluated with all the
single-stream entries, so every curve leaves out the same receivers,
counted once. A run is excluded (gain recorded as missing) only when the
whole population is in outage, so every curve excludes the same runs: the
``excluded_runs`` column of gains.csv is the grid point's
``OutageStat.total_outage_runs``, stored once.

Each process evaluates its (grid point, repetition) units as one array
program, in spans of whole units of at most ``_SPAN_RECEIVERS``
receivers. First, each chunk of at most ``_CHUNK_RECEIVERS`` receivers
is drawn and its SNRs are mapped to cells of the union table, the one
table of the campaign, which holds the single modcods and every evaluated
family: in O(1) per receiver, by a bucket index on the union's edges
(``modcod._BucketSearch``), not by a binary search. Those cells are kept
in one uint8 buffer, and each unit's row of them is sorted once there, by
a radix sort. Then one
``rateopt.system_summaries`` call on the span counts each unit's outage,
pairs its receivers and sums its classical rate once, and per curve (a
family alone, or all of them for the combined curve) reads the curve's
columns of the union's ``cell_units``, solves each distinct pair of the
curve's cells once, in one ``solve_cell_pairs`` call, and sums each unit
from those terms. A unit's receivers are paired max-spread, lowest cell
with highest, the model's rule, so the reported gain is a lower bound on
the best pairing's.

With W workers, the most processes the campaign may use, the grid is
split into B = min(W, grid points, max(1, grid points × repetitions ×
receivers // ``_CHILD_RECEIVERS``)) interleaved blocks of grid points
(block b takes points b, b + B, ...; see ``_grid_blocks``),
which spreads the costlier high-SNR points, and the results are put back
in grid order. So a second process runs only for a campaign of at least
2 × ``_CHILD_RECEIVERS`` receivers, and each further one only for another
``_CHILD_RECEIVERS``, the size that pays for a process. The parent process
first builds everything a block reads (see ``_primed_context``): numpy's
lazily imported ``random`` submodule, the class of the units' seeds, the
beam edge angle and the union table's edges, per-cell arrays and bucket
index. It then starts one child process for each of blocks 1 to
B - 1, forked on Linux so that it inherits the primed context without
pickling, and runs block 0 itself while they run the others. Each child
sends back its block's result, or the exception it raised, over a one-way
pipe. With one block, at workers=1, on a one-point grid or for a campaign
of fewer than 2 × ``_CHILD_RECEIVERS`` receivers, no child is started and
``multiprocessing`` is not imported.

Determinism: the population for grid index g, repetition r is drawn from
its own generator, whose stream is that of
``default_rng(SeedSequence(master_seed, spawn_key=(g, r)))``. No
SeedSequence is built per unit: ``_unit_seeds`` computes the state words
SeedSequence would hand that unit's PCG64, for all of a block's units in
one pass of array operations, and each unit's PCG64 seeds itself from its
row as from a SeedSequence (see ``_unit_seed_class``). Every unit's sums
run in the same order whatever chunk or span it sits in, so results are
bit-identical for any worker count, chunk size and span size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache, reduce
from operator import add
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .beam import AntennaConfig, WeatherCdf, beam_edge_angle, draw_population
from .modcod import Family, ThresholdTable, _BucketSearch
from .rateopt import system_summaries

__all__ = [
    "CampaignConfig",
    "GainStat",
    "OutageStat",
    "SimulationReport",
    "run_campaign",
    "gain_curve",
    "gains_csv_text",
    "curve_csv_text",
    "COMBINED",
]

COMBINED = "combined"


@dataclass(frozen=True)
class CampaignConfig:
    """``repetitions`` draws of ``receivers`` receivers at each point of
    ``snr_max_grid`` (dB, finite, strictly increasing), each evaluated for
    every one of ``families`` (nonempty) and, if ``combined``, for all of
    them together, in at most ``workers`` processes: a campaign too small
    to pay for a child process runs in one (see ``run_campaign``). No
    defaults: a scenario's are in ``cli.DEFAULT_SCENARIO``."""

    snr_max_grid: tuple[float, ...]
    receivers: int
    repetitions: int
    families: tuple[Family, ...]
    combined: bool
    master_seed: int
    workers: int

    def __post_init__(self):
        grid = self.snr_max_grid
        if not grid:
            raise ValueError("snr_max_grid must be nonempty")
        if not all(math.isfinite(snr) for snr in grid):
            raise ValueError("snr_max_grid must be finite")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_max_grid must be strictly increasing")
        if not self.families:
            raise ValueError("families must be nonempty")
        if self.receivers < 2:
            raise ValueError("need at least two receivers")
        if self.repetitions < 1:
            raise ValueError("need at least one repetition")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")

    @property
    def family_tokens(self) -> tuple[str, ...]:
        """The report's curve tokens in order: each family's, then
        ``COMBINED`` if ``combined``."""
        return tuple(fam.token for fam in self.families) + ((COMBINED,) if self.combined else ())


@dataclass(frozen=True)
class GainStat:
    """Mean and population std of one curve's gains at a grid point over its runs
    not excluded; every curve excludes the ``OutageStat.total_outage_runs``."""

    mean: float
    std: float


@dataclass(frozen=True)
class OutageStat:
    """Outage receivers per run at one grid point."""

    mean_count: float
    max_count: int
    total_outage_runs: int


@dataclass(frozen=True)
class SimulationReport:
    """Per-cell statistics, keyed by (grid point, family token), and the
    per-run gains they reduce, in repetition order (None: run excluded, for
    every curve exactly the runs in total outage, counted once in ``outage``)."""

    config: CampaignConfig
    stats: dict[tuple[float, str], GainStat]
    outage: dict[float, OutageStat]
    raw_gains: dict[tuple[float, str], tuple[Optional[float], ...]]

    @property
    def family_tokens(self) -> tuple[str, ...]:
        """The curve tokens in report order, ``config.family_tokens``."""
        return self.config.family_tokens


# Receivers per chunk of units drawn and mapped to cells as one array
# program: (units x receivers) float64 and intp arrays of 64 KB, about
# 0.5 MB at the draw's peak. A chunk costs 73-79 µs of numpy calls
# whatever its size (one unit of 2 receivers, 2 vCPUs), so fewer chunks
# save time until their temporaries pass glibc's trim threshold: malloc
# hands the free top of its heap back to the kernel past a few hundred KB,
# and every chunk then faults it back in. Minor faults, counted with
# getrusage around each of 60 in-process perfbench operations after the
# first 5, each after a reference run as in perfbench's loop, on 2 vCPUs:
# the median per `sweep` and per `outage-edge` operation is 0 at 1 << 13,
# against 146 per `sweep` operation at 1 << 14. The default campaign, in a
# fresh process, faults about 1,160 pages at 1 << 13 (about 3,670 at
# workers=2, its child included). `outage-edge` draws 6 chunks per
# operation, against 12 at 1 << 12.
_CHUNK_RECEIVERS = 1 << 13

# Receivers a block must hold to pay for the child process that runs it:
# the fork, the copy-on-write faults it causes in both processes and the
# wait for the child. On 2 vCPUs the 31-point grid's 15,500 receivers (one
# repetition) took 8-12 ms in two processes against 5-6 ms in one; the two
# ran about even near 124,000 receivers (8 repetitions), and two processes
# were faster from about 140,000 on.
_CHILD_RECEIVERS = 1 << 16

# Receivers per span of units whose cells are kept for one
# ``system_summaries`` call: one (units x receivers) buffer of union cells,
# uint8 while the union has fewer than 256 cells (the shipped one has at
# most 193), so 256 KB, allocated once per block whatever the campaign's size.
_SPAN_RECEIVERS = 1 << 18


class _Context(NamedTuple):
    """What ``_run_grid_points`` reads, built by ``_primed_context``.

    ``union`` holds the single-stream entries and those of every evaluated
    family, and ``curves`` the hierarchical families of each curve in
    ``cfg.family_tokens`` order: each family alone (none for a
    non-hierarchical one, whose curve is the baseline's), then all of them
    if ``cfg.combined``; ``system_summaries`` evaluates every curve on the
    union cells. ``union_cells`` is ``union.cells`` on an array of SNRs,
    none NaN, in its ``dtype``, that of a span's cell buffer."""

    union: ThresholdTable
    curves: tuple[tuple[Family, ...], ...]
    union_cells: _BucketSearch
    cfg: CampaignConfig
    beam: AntennaConfig
    weather: WeatherCdf


# The constants of numpy's SeedSequence (``numpy.random.bit_generator``, a
# port of M. E. O'Neill's ``seed_seq_fe``): the hash that mixes entropy words
# into the pool (A), the hash that makes output words of the pool (B) and
# the mix of two words.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, count: int) -> list[int]:
    """The first ``count`` constants of a SeedSequence hash: init, then each
    times mult, mod 2^32. The hash's call k xors its word with constant k
    and multiplies it by constant k + 1."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _hashed(value, xor, mult):
    """A word hashed with the constants ``xor`` and ``mult``: Python ints or
    uint32 arrays, whose products wrap without a warning (numpy scalars'
    would warn)."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mixed(x, y):
    """Pool word x mixed with the hashed word y."""
    x = (x * _MIX_L - y * _MIX_R) & _MASK32
    return x ^ x >> 16


def _unit_seeds(master_seed: int, units: Sequence[tuple[int, int]]) -> np.ndarray:
    """The (units, 4) uint64 words ``SeedSequence(master_seed, spawn_key=(g,
    r)).generate_state(4, np.uint64)`` gives for each unit (g, r): the seeds
    of the units' PCG64s (see ``_unit_seed_class``), in one pass.

    SeedSequence splits each int into 32-bit words, low word first ([0] for
    0). Its entropy is the master seed's words, zero-padded to the pool size
    of 4, then g's and r's. The first four words are hashed into the pool and
    mixed with each other; they are the master seed's for every unit, so
    that runs once, in Python ints. Each further word (the master seed's
    past the fourth, then g's and r's) is hashed into each pool word in
    turn, as uint32 arrays of the units with as many words. The output hash
    makes 8 words of the pool, taken in turn, and SeedSequence pairs them
    low word first into 4 uint64s."""
    def words(n):
        return [n & _MASK32, *words(n >> 32)] if n >> 32 else [n]

    seed = words(master_seed)
    keys = [seed[4:] + words(g) + words(r) for g, r in units]
    lengths = np.array([len(key) for key in keys], np.intp)
    a = _hash_consts(_INIT_A, _MULT_A, 17 + 4 * max(lengths.tolist(), default=0))
    pool = [_hashed(word, a[i], a[i + 1]) for i, word in enumerate((seed + [0] * 3)[:4])]
    n = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mixed(pool[dst], _hashed(pool[src], a[n], a[n + 1]))
                n += 1
    a = np.array(a, np.uint32)[:, None]
    b = np.array(_hash_consts(_INIT_B, _MULT_B, 9), np.uint32)[:, None]
    seeds = np.empty((len(keys), 4), np.uint64)
    for length in set(lengths.tolist()):
        rows = np.flatnonzero(lengths == length)
        mixer = np.array(pool, np.uint32)[:, None]  # (4, units) once mixed
        for k, word in enumerate(np.array([keys[i] for i in rows], np.uint32).T):
            n = 16 + 4 * k  # after the 16 hash calls of the first four words
            mixer = _mixed(mixer, _hashed(word, a[n:n + 4], a[n + 1:n + 5]))
        out = _hashed(np.tile(mixer, (2, 1)), b[:8], b[1:])
        seeds[rows] = out[0::2].T | out[1::2].T.astype(np.uint64) << 32
    return seeds


@cache
def _unit_seed_class() -> type:
    """The class of a unit's seed, ``_UnitSeed(row)`` for its row of
    ``_unit_seeds``: ``np.random.Generator(np.random.PCG64(_UnitSeed(row)))``
    draws the stream of ``default_rng(SeedSequence(master_seed,
    spawn_key=(g, r)))``, since PCG64 seeds itself with the words
    ``generate_state(4, np.uint64)`` returns. Built on first use, as it
    subclasses a class of ``numpy.random``, which ``import hmsim.cli`` does
    not import."""
    from numpy.random.bit_generator import ISeedSequence

    class _UnitSeed(ISeedSequence):
        def __init__(self, row: np.ndarray):
            self.row = row

        def generate_state(self, n_words, dtype=np.uint32):
            # Anything else would draw another stream: a numpy whose PCG64
            # asked for other words, or another bit generator.
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"generate_state({n_words}, {np.dtype(dtype)}): "
                                 "a unit seed holds 4 uint64 words only")
            return self.row

    return _UnitSeed


def _run_grid_points(ctx: _Context, grid_indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The units of the given grid points: the receivers left out as
    unservable, as a (grid points, repetitions) array, and the gains (NaN:
    run excluded), as a (``ctx.curves``, grid points, repetitions) array.

    The units run in spans of at most ``_SPAN_RECEIVERS`` receivers, each
    drawn in chunks of at most ``_CHUNK_RECEIVERS`` (both at least one
    unit). Each chunk's SNRs are mapped by ``ctx.union_cells`` into the
    span's buffer of union cells, whose rows are then sorted in place, as
    integers: on 2 vCPUs, 49-52 µs per chunk of 16 units of 500 receivers,
    against 136-138 µs for a float sort of the SNRs and a ``searchsorted``
    of the sorted rows. One ``system_summaries`` call then sums the whole
    span for every curve: it counts the receivers left out and pairs them
    once, and makes one pair solve per curve."""
    cfg = ctx.cfg
    units = [(g, rep) for g in grid_indices for rep in range(cfg.repetitions)]
    seeds, unit_seed = _unit_seeds(cfg.master_seed, units), _unit_seed_class()
    dropped = np.empty(len(units), dtype=np.intp)
    gains = np.empty((len(ctx.curves), len(units)))
    span = max(1, _SPAN_RECEIVERS // cfg.receivers)
    chunk = min(span, max(1, _CHUNK_RECEIVERS // cfg.receivers))
    cells = np.empty((min(span, len(units)), cfg.receivers), ctx.union_cells.dtype)
    for lo in range(0, len(units), span):
        hi = min(lo + span, len(units))
        for first in range(lo, hi, chunk):
            part = units[first:min(first + chunk, hi)]
            rows = cells[first - lo:first - lo + len(part)]
            rows[:] = ctx.union_cells(draw_population(
                cfg.receivers,
                np.array([cfg.snr_max_grid[g] for g, _ in part]),
                ctx.beam,
                ctx.weather,
                rng=[np.random.Generator(np.random.PCG64(unit_seed(row)))
                     for row in seeds[first:first + len(part)]],
            ))
            # A cell is a nondecreasing function of the SNR, so the sorted
            # cells are the cells of the sorted SNRs; a stable sort of 8- or
            # 16-bit integers is a radix sort.
            rows.sort(axis=1, kind="stable")
        _, _, gains[:, lo:hi], dropped[lo:hi] = system_summaries(cells[:hi - lo], ctx.union, ctx.curves)
    shape = (len(grid_indices), cfg.repetitions)
    return dropped.reshape(shape), gains.reshape(len(ctx.curves), *shape)


def _primed_context(cfg: CampaignConfig, tables: ThresholdTable, beam: AntennaConfig, weather: WeatherCdf) -> _Context:
    """The context of ``_run_grid_points`` (see ``_Context``).

    Everything a block reads is built here, once, so that no block rebuilds
    it and the child processes forked afterwards inherit it: numpy's lazily
    imported ``random`` submodule and the class of the units' seeds
    (``_unit_seed_class``), the beam edge angle, the weather CDF's segments,
    the union table, the one table of every curve, with its edges and
    per-cell arrays, and the bucket index on its edges (2,601 buckets for
    the shipped tables' 192 edges, about 32 µs). A campaign builds no
    other table; ``subset`` runs once."""
    loaded = tables.families()
    single_families = {f for f in loaded if not f.hierarchical}
    if not single_families:
        raise ValueError("tables contain no single-stream baseline entries")
    for fam in cfg.families:
        if fam not in loaded:
            raise ValueError(f"family {fam.token} has no entries in the loaded tables")
    union = tables.subset(single_families | set(cfg.families))
    # A non-hierarchical family's curve is the baseline alone, which gains 0.
    hierarchical = tuple(fam for fam in cfg.families if fam.hierarchical)
    curves = tuple((fam,) if fam.hierarchical else () for fam in cfg.families) + ((hierarchical,) if cfg.combined else ())

    import numpy.random  # noqa: F401  numpy imports it on first use
    _unit_seed_class()
    beam_edge_angle(beam)
    weather.quantile(np.zeros(1))  # builds its segments
    union.cell_inv  # builds edges and cell_units, which system_summaries reads
    # The campaign's cells are union cells, in the dtype of a span's buffer.
    union_cells = _BucketSearch(union.edges, np.min_scalar_type(union.edges.size))
    return _Context(union, curves, union_cells, cfg, beam, weather)


def _grid_blocks(cfg: CampaignConfig) -> list[range]:
    """The campaign's B blocks of grid indices (see the module docstring),
    block b holding points b, b + B, ..."""
    grid = range(len(cfg.snr_max_grid))
    receivers = len(grid) * cfg.repetitions * cfg.receivers
    count = min(cfg.workers, len(grid), max(1, receivers // _CHILD_RECEIVERS))
    return [grid[b::count] for b in range(count)]


def _run_child_block(ctx, grid_indices: Sequence[int], sender) -> None:
    """The body of a child process: sends its block's ``_run_grid_points``
    result, or the exception it raised, to the parent."""
    try:
        reply = _run_grid_points(ctx, grid_indices)
    except Exception as exc:  # the parent raises it
        reply = exc
    with sender:
        sender.send(reply)


def _start_child(ctx, grid_indices: Sequence[int]):
    """A started child process running one block, and the read end of its
    pipe."""
    import multiprocessing  # only a campaign that starts a child pays for it

    # Fork, so that the child inherits the primed context; Python 3.14 made
    # forkserver the Linux default, which would pickle it and re-import numpy.
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_run_child_block, args=(ctx, grid_indices, sender))
    child.start()
    # The child holds the only write end now, so recv sees EOF once it exits.
    sender.close()
    return child, receiver


def _child_reply(block: int, child, receiver):
    """What a child sent: its block's result or the exception it raised, or
    a RuntimeError when it exited without sending. The reply is read before
    the child is joined: a reply larger than the pipe buffer holds the child
    in ``send`` until the parent reads it."""
    try:
        reply = receiver.recv()
    except EOFError:
        reply = None
    finally:
        receiver.close()
        child.join()
    if reply is None:
        reply = RuntimeError(f"campaign block {block} exited with code {child.exitcode} without sending a result")
    return reply


def run_campaign(
    cfg: CampaignConfig,
    tables: ThresholdTable,
    beam: AntennaConfig,
    weather: WeatherCdf,
) -> SimulationReport:
    """Run the campaign and reduce per-run gains to per-cell statistics.

    ``tables`` must hold the non-hierarchical baseline plus every requested
    family; each family is evaluated against the baseline alone, plus a
    combined evaluation over all requested families when configured. The
    campaign runs in one process per block of ``_grid_blocks``: at most
    ``cfg.workers``, and one for a campaign too small to pay for a second.
    """
    ctx = _primed_context(cfg, tables, beam, weather)
    tokens = cfg.family_tokens
    grid = range(len(cfg.snr_max_grid))
    blocks = _grid_blocks(cfg)
    children = []
    try:
        for block in blocks[1:]:
            children.append(_start_child(ctx, block))
        parts = [_run_grid_points(ctx, blocks[0])]
    finally:
        # Every child is read and joined, also when block 0 raised here.
        replies = [_child_reply(b, *child) for b, child in enumerate(children, 1)]
    for reply in replies:
        if isinstance(reply, Exception):
            raise reply
    parts += replies
    order = np.argsort(np.concatenate(blocks))
    dropped = np.concatenate([d for d, _ in parts])[order]
    gains = np.concatenate([g for _, g in parts], axis=1)[:, order]

    stats: dict[tuple[float, str], GainStat] = {}
    outage: dict[float, OutageStat] = {}
    raw: dict[tuple[float, str], tuple[Optional[float], ...]] = {}
    for g in grid:
        snr_max = cfg.snr_max_grid[g]
        outage_counts = dropped[g].tolist()
        outage[snr_max] = OutageStat(
            mean_count=sum(outage_counts) / len(outage_counts),
            max_count=max(outage_counts),
            total_outage_runs=outage_counts.count(cfg.receivers),
        )
        for token, family_gains in zip(tokens, gains):
            values = [None if math.isnan(v) else v for v in family_gains[g].tolist()]
            included = [v for v in values if v is not None]
            if included:
                # Left to right from 0.0: sum() of floats is compensated from Python 3.12 on.
                # Each square is a product: ** 2 goes through libm's pow, which
                # need not round it correctly.
                mean = reduce(add, included, 0.0) / len(included)
                std = math.sqrt(reduce(add, ((v - mean) * (v - mean) for v in included), 0.0) / len(included))
            else:
                mean = std = math.nan
            stats[(snr_max, token)] = GainStat(mean=mean, std=std)
            raw[(snr_max, token)] = tuple(values)
    return SimulationReport(config=cfg, stats=stats, outage=outage, raw_gains=raw)


def gain_curve(report: SimulationReport, family: str) -> list[tuple[float, float]]:
    """Grid-ordered (snr_max, mean gain) curve for one family token."""
    if family not in report.family_tokens:
        raise ValueError(f"family {family!r} not in report (have {', '.join(report.family_tokens)})")
    return [(s, report.stats[(s, family)].mean) for s in report.config.snr_max_grid]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def gains_csv_text(report: SimulationReport) -> str:
    """Canonical gains.csv body: one row per (grid point, family)."""
    lines = ["snr_max_db,family,mean_gain,std_gain,excluded_runs"]
    for snr_max in report.config.snr_max_grid:
        excluded = report.outage[snr_max].total_outage_runs
        for token in report.family_tokens:
            s = report.stats[(snr_max, token)]
            lines.append(f"{_fmt(snr_max)},{token},{_fmt(s.mean)},{_fmt(s.std)},{excluded}")
    return "\n".join(lines) + "\n"


def curve_csv_text(report: SimulationReport, family: str) -> str:
    """Plot-data CSV for one curve."""
    lines = ["snr_max_db,mean_gain"]
    for snr_max, mean in gain_curve(report, family):
        lines.append(f"{_fmt(snr_max)},{_fmt(mean)}")
    return "\n".join(lines) + "\n"
