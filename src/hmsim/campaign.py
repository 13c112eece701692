"""Monte Carlo gain campaigns over a grid of boresight SNR values.

For each (SNR_max, repetition) a receiver population is drawn from the beam
and weather model, and the hierarchical-over-classical spectrum-efficiency
gain is evaluated once per requested hierarchical family (and optionally
once with all families combined). The same population is used for every
family at a given (grid point, repetition) - the curves are paired
comparisons on a common system draw.

Receivers that cannot decode any single-stream modcod (SNR below the
baseline's lowest single threshold) are not servable by the classical
baseline at all; they are removed from the run and counted, since the
relative gain is undefined against a zero baseline. A run is excluded
(gain recorded as missing) only when the whole population is in outage.

Each process evaluates its (grid point, repetition) units as one array
program over (units x receivers) arrays, in chunks of whole units of at
most ``_CHUNK_RECEIVERS`` receivers: one population draw and one
``system_summaries`` call per family for each chunk. With W workers the
grid is split into B = min(W, grid points) interleaved blocks of grid
points (block b takes points b, b + W, ...), which spreads the costlier
high-SNR points, and the results are put back in grid order. The parent
process first builds everything a block reads (see ``_primed_context``):
numpy's lazily imported ``random`` submodule, the beam edge angle and each
family table's query structures. It then starts one child process for each
of blocks 1 to B - 1, forked on Linux so that it inherits the primed
context without pickling, and runs block 0 itself while they run the
others. Each child sends back its block's result, or the exception it
raised, over a one-way pipe. With one block, at workers=1 or on a
one-point grid, no child is started and ``multiprocessing`` is not
imported.

Determinism: the population for grid index g, repetition r is drawn from
its own generator, ``SeedSequence(master_seed, spawn_key=(g, r))``, and
every unit's sums run in the same order whatever chunk it sits in, so
results are bit-identical for any worker count and any chunk size.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .beam import AntennaConfig, WeatherCdf, beam_edge_angle, draw_population
from .modcod import Family, ThresholdTable
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
    snr_max_grid: tuple[float, ...]
    receivers: int = 500
    repetitions: int = 100
    families: tuple[Family, ...] = ()  # empty: every hierarchical family in the tables
    combined: bool = False
    master_seed: int = 1
    workers: int = 1

    def __post_init__(self):
        if not self.snr_max_grid:
            raise ValueError("snr_max_grid must be nonempty")
        if list(self.snr_max_grid) != sorted(self.snr_max_grid):
            raise ValueError("snr_max_grid must be sorted")
        if self.receivers < 2:
            raise ValueError("need at least two receivers")
        if self.repetitions < 1:
            raise ValueError("need at least one repetition")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be >= 0")


@dataclass(frozen=True)
class GainStat:
    mean: float
    std: float
    included_runs: int
    excluded_runs: int


@dataclass(frozen=True)
class OutageStat:
    """Outage receivers per run at one grid point."""

    mean_count: float
    max_count: int
    total_outage_runs: int


@dataclass(frozen=True)
class SimulationReport:
    """Per-cell statistics, keyed by (grid point, family token), and the
    per-run gains they reduce, in repetition order (None: run excluded)."""

    config: CampaignConfig
    family_tokens: tuple[str, ...]
    stats: dict[tuple[float, str], GainStat]
    outage: dict[float, OutageStat]
    raw_gains: dict[tuple[float, str], tuple[Optional[float], ...]]


# Receivers per chunk of units drawn and aggregated as one array program:
# (units x receivers) float64 arrays of 32 KB, a few hundred KB in all.
# Larger chunks are slower and less steady: glibc's malloc hands the free
# top of its heap back to the kernel once it passes a threshold of a few
# hundred KB, so temporaries past it are faulted back in on every chunk. At
# 1 << 14 receivers that was about 1,900 page faults (7.5 MB) per 31-unit
# campaign, whose cost moved with the host from one run to the next.
_CHUNK_RECEIVERS = 1 << 12


def _run_grid_points(ctx, grid_indices: Sequence[int]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The units of the given grid points, in chunks of whole units of at
    most ``_CHUNK_RECEIVERS`` receivers (at least one unit): the receivers
    dropped as unservable, and each family's gains (NaN: run excluded),
    as (grid points, repetitions) arrays. ``ctx`` is a
    ``_primed_context``."""
    family_tables, floor, cfg, beam, weather = ctx
    units = [(g, rep) for g in grid_indices for rep in range(cfg.repetitions)]
    dropped = np.empty(len(units), dtype=np.intp)
    gains = {token: np.empty(len(units)) for token in family_tables}
    step = max(1, _CHUNK_RECEIVERS // cfg.receivers)
    for lo in range(0, len(units), step):
        chunk = units[lo:lo + step]
        snrs = draw_population(
            cfg.receivers,
            np.array([cfg.snr_max_grid[g] for g, _ in chunk]),
            beam,
            weather,
            rng=[np.random.SeedSequence(cfg.master_seed, spawn_key=unit) for unit in chunk],
        )
        dropped[lo:lo + step] = (snrs < floor).sum(axis=1)
        for token, table in family_tables.items():
            gains[token][lo:lo + step] = system_summaries(snrs, table, dropped[lo:lo + step])[2]
    shape = (len(grid_indices), cfg.repetitions)
    return dropped.reshape(shape), {token: g.reshape(shape) for token, g in gains.items()}


def _primed_context(cfg: CampaignConfig, tables: ThresholdTable, beam: AntennaConfig, weather: WeatherCdf):
    """The context of ``_run_grid_points``: each evaluated family's table,
    keyed by token in report order, the single-stream floor below which
    receivers are dropped, then cfg, beam and weather.

    Everything a block reads is built here, once, so that no block rebuilds
    it and the child processes forked afterwards inherit it: numpy's lazily
    imported ``random`` submodule, the beam edge angle, and each table's
    cell edges, per-cell arrays and pair memo."""
    single_families = [f for f in tables.families() if not f.hierarchical]
    if not single_families:
        raise ValueError("tables contain no single-stream baseline entries")
    hierarchical = {s.family for s in tables.hierarchical_schemes()}
    if cfg.families:
        requested = tuple(cfg.families)
        for fam in requested:
            if fam not in set(tables.families()):
                raise ValueError(f"family {fam.token} has no entries in the loaded tables")
    else:
        requested = tuple(sorted(hierarchical, key=lambda f: f.token))
    if not requested:
        raise ValueError("no hierarchical family available to evaluate")

    family_tables: dict[str, ThresholdTable] = {
        fam.token: tables.subset(set(single_families) | {fam}) for fam in requested
    }
    if cfg.combined:
        family_tables[COMBINED] = tables.subset(set(single_families) | set(requested))

    import numpy.random  # noqa: F401  numpy imports it on first use
    beam_edge_angle(beam)
    for table in family_tables.values():
        table.cell_inv, table.pair_memo  # cell_inv builds cell_units and the cell edges
    floor = next(iter(family_tables.values())).lowest_single_threshold()
    return family_tables, floor, cfg, beam, weather


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
    combined evaluation over all requested families when configured.
    """
    ctx = _primed_context(cfg, tables, beam, weather)
    tokens = tuple(ctx[0])
    grid = range(len(cfg.snr_max_grid))
    blocks = [grid[w::cfg.workers] for w in range(min(cfg.workers, len(grid)))]
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
    gains = {token: np.concatenate([g[token] for _, g in parts])[order] for token in tokens}

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
        for token in tokens:
            values = [None if math.isnan(v) else v for v in gains[token][g].tolist()]
            included = [v for v in values if v is not None]
            if included:
                mean = sum(included) / len(included)
                std = math.sqrt(sum((v - mean) ** 2 for v in included) / len(included))
            else:
                mean = std = math.nan
            stats[(snr_max, token)] = GainStat(
                mean=mean,
                std=std,
                included_runs=len(included),
                excluded_runs=len(values) - len(included),
            )
            raw[(snr_max, token)] = tuple(values)
    return SimulationReport(
        config=cfg,
        family_tokens=tokens,
        stats=stats,
        outage=outage,
        raw_gains=raw,
    )


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
        for token in report.family_tokens:
            s = report.stats[(snr_max, token)]
            lines.append(
                f"{_fmt(snr_max)},{token},{_fmt(s.mean)},{_fmt(s.std)},{s.excluded_runs}"
            )
    return "\n".join(lines) + "\n"


def curve_csv_text(report: SimulationReport, family: str) -> str:
    """Plot-data CSV for one curve."""
    lines = ["snr_max_db,mean_gain"]
    for snr_max, mean in gain_curve(report, family):
        lines.append(f"{_fmt(snr_max)},{_fmt(mean)}")
    return "\n".join(lines) + "\n"
