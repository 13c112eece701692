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
``system_summaries`` call per family for each chunk. With more than one
worker, each worker gets one interleaved block of grid points (worker w
of W takes points w, w + W, ...), which spreads the costlier high-SNR
points, and the results are put back in grid order.

Determinism: the population for grid index g, repetition r is drawn from
its own generator, ``SeedSequence(master_seed, spawn_key=(g, r))``, and
every unit's sums run in the same order whatever chunk it sits in, so
results are bit-identical for any worker count and any chunk size.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .beam import AntennaConfig, WeatherCdf, draw_population
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
    as (grid points, repetitions) arrays."""
    family_tables, cfg, beam, weather = ctx
    units = [(g, rep) for g in grid_indices for rep in range(cfg.repetitions)]
    floor = next(iter(family_tables.values())).lowest_single_threshold()
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
    tokens = [fam.token for fam in requested]
    if cfg.combined:
        family_tables[COMBINED] = tables.subset(set(single_families) | set(requested))
        tokens.append(COMBINED)

    ctx = (family_tables, cfg, beam, weather)
    grid = range(len(cfg.snr_max_grid))
    if cfg.workers > 1:
        # One interleaved block of grid points per worker, which spreads the
        # costlier high-SNR points across the workers.
        blocks = [grid[w::cfg.workers] for w in range(min(cfg.workers, len(grid)))]
        with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
            parts = list(pool.map(_run_grid_points, [ctx] * len(blocks), blocks))
        order = np.argsort(np.concatenate(blocks))
        dropped = np.concatenate([d for d, _ in parts])[order]
        gains = {token: np.concatenate([g[token] for _, g in parts])[order] for token in tokens}
    else:
        dropped, gains = _run_grid_points(ctx, grid)

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
        family_tokens=tuple(tokens),
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
