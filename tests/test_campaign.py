"""Campaign engine: determinism, seeding stability, oracle agreement."""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import best_single_reference, reference_series_factor, row_summary, table_entries
import hmsim
from hmsim import campaign, rateopt
from hmsim.beam import GEO_ALTITUDE_M, WeatherCdf, beam_edge_angle, draw_population
from hmsim.campaign import (
    COMBINED,
    CampaignConfig,
    OutageStat,
    curve_csv_text,
    gain_curve,
    gains_csv_text,
    run_campaign,
)
from hmsim.cli import main
from hmsim.modcod import Family

TWO_ATOM_WEATHER = [(0.0, 0.0), (0.0, 0.5), (6.0, 0.5), (6.0, 1.0)]


def _grid(start, step, count):
    return tuple(round(start + k * step, 9) for k in range(count))


# The campaigns of the perfbench workloads at seed 1 (`sweep` and
# `outage-edge`, 500 receivers, h_qpsk and h_apsk32), with the sha256 of
# their gains.csv, as in perfbench/reference.json.
BENCHMARK_CAMPAIGNS = {
    "sweep": (_grid(1.0, 0.5, 31), 1, "6da06df765692392087f695323d043e84114ed42606b8e7713e9031ae04c72d0"),
    "outage-edge": (_grid(-2.4, 0.05, 19), 5, "844aa13e45698a54d3bcf79f7f538675e10441a3400d3091bcf32b8cb7875261"),
}


def benchmark_config(campaign_config, name):
    grid, reps, _ = BENCHMARK_CAMPAIGNS[name]
    return campaign_config(snr_max_grid=grid, receivers=500, repetitions=reps,
                           families=(Family.H_QPSK, Family.H_APSK32), master_seed=1)


@pytest.fixture()
def started(monkeypatch):
    """The child processes started while the test runs."""
    processes = []
    start = multiprocessing.process.BaseProcess.start

    def record(process):
        processes.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", record)
    return processes


@pytest.fixture()
def forking(monkeypatch):
    """Start a child for every block after the first, however few receivers
    it holds, so that a small campaign takes the fork path. The children
    forked from the test inherit the patch."""
    monkeypatch.setattr(campaign, "_CHILD_RECEIVERS", 1)


def _patch_blocks(monkeypatch, parent_block, child_block):
    """Make campaign._run_grid_points call parent_block in this process and
    child_block in the children forked from it, which inherit the patch."""
    parent = os.getpid()

    def run(ctx, grid_indices):
        return (parent_block if os.getpid() == parent else child_block)(ctx, grid_indices)

    monkeypatch.setattr(campaign, "_run_grid_points", run)


@pytest.fixture()
def small_cfg(campaign_config):
    return campaign_config(
        snr_max_grid=(2.0, 6.0, 10.0), receivers=40, repetitions=6, master_seed=42
    )


class TestConfigValidation:
    def test_rejects_bad_values(self, campaign_config):
        with pytest.raises(ValueError):
            campaign_config(snr_max_grid=())
        with pytest.raises(ValueError):
            campaign_config(snr_max_grid=(3.0, 1.0))
        with pytest.raises(ValueError):
            campaign_config(snr_max_grid=(1.0,), receivers=1)
        with pytest.raises(ValueError):
            campaign_config(snr_max_grid=(1.0,), repetitions=0)
        with pytest.raises(ValueError):
            campaign_config(snr_max_grid=(1.0,), workers=0)
        with pytest.raises(ValueError):
            campaign_config(snr_max_grid=(1.0,), master_seed=-1)
        # Unchecked, a repeated point runs twice and the report keeps only
        # its last run, and a NaN point reports a gain of 0 and no outage.
        for grid in ((5.0, 5.0), (1.0, 3.0, 3.0, 4.0)):
            with pytest.raises(ValueError, match="snr_max_grid must be strictly increasing"):
                campaign_config(snr_max_grid=grid)
        for grid in ((math.nan,), (1.0, math.inf), (-math.inf, 1.0)):
            with pytest.raises(ValueError, match="snr_max_grid must be finite"):
                campaign_config(snr_max_grid=grid)
        with pytest.raises(ValueError, match="families must be nonempty"):
            campaign_config(families=())
        with pytest.raises(TypeError):  # no defaults: they are in cli.DEFAULT_SCENARIO
            CampaignConfig(snr_max_grid=(1.0,))


class TestEngine:
    def test_two_receiver_oracle(self, single_table, hqpsk_table, default_antenna, campaign_config):
        # With a vanishing location spread and a two-atom weather CDF the
        # drawn pair is (1.2, 7.2) dB for master seed 0; the campaign gain
        # must equal the directly computed system gain, which for the
        # hierarchical-QPSK family works out to exactly 1/74.
        tables = single_table.merged_with(hqpsk_table)
        weather = WeatherCdf(TWO_ATOM_WEATHER)
        tiny_edge = dataclasses.replace(default_antenna, edge_level_db=1e-9)
        cfg = campaign_config(
            snr_max_grid=(7.2,), receivers=2, repetitions=1,
            families=(Family.H_QPSK,), master_seed=0,
        )
        pop = draw_population(2, [7.2], tiny_edge, weather, rng=[np.random.SeedSequence(0, spawn_key=(0, 0))])[0]
        snrs = sorted(pop.tolist())
        assert snrs[0] == pytest.approx(1.2, abs=1e-6)
        assert snrs[1] == pytest.approx(7.2, abs=1e-6)

        report = run_campaign(cfg, tables, tiny_edge, weather)
        gain = report.stats[(7.2, "h_qpsk")].mean
        assert gain == pytest.approx(1 / 74, abs=1e-12)
        assert gain == pytest.approx(row_summary(snrs, tables).gain, abs=1e-15)

    def test_baseline_only_family_gains_zero(self, full_table, sample_weather, default_antenna, campaign_config):
        cfg = campaign_config(
            snr_max_grid=(4.0, 10.0), receivers=30, repetitions=4,
            families=(Family.QPSK,), master_seed=7,
        )
        report = run_campaign(cfg, full_table, default_antenna, sample_weather)
        for values in report.raw_gains.values():
            assert all(v == 0.0 for v in values if v is not None)

    def test_outage_receivers_filtered_and_counted(self, full_table, sample_weather, default_antenna,
                                                   campaign_config):
        # from total outage to full service; each run's count is checked
        # against best_single_reference on the populations the campaign draws
        cfg = campaign_config(snr_max_grid=(-8.0, -2.0, 1.0, 12.0), receivers=60, repetitions=5, master_seed=3)
        report = run_campaign(cfg, full_table, default_antenna, sample_weather)
        for g, snr_max in enumerate(cfg.snr_max_grid):
            seeds = [np.random.SeedSequence(3, spawn_key=(g, rep)) for rep in range(5)]
            pops = draw_population(60, [snr_max] * 5, default_antenna, sample_weather, rng=seeds)
            counts = [sum(best_single_reference(full_table, s) is None for s in pop.tolist()) for pop in pops]
            assert report.outage[snr_max] == OutageStat(sum(counts) / 5, max(counts), counts.count(60))
        assert report.outage[-8.0].total_outage_runs == 5 and report.outage[12.0].max_count == 0
        assert report.outage[1.0].mean_count > 0  # at 1 dB some receivers always sit below -2.35 dB
        for token in report.family_tokens:
            assert all(v is not None and v >= 0.0 for v in report.raw_gains[(1.0, token)])

    def test_total_outage_runs_excluded(self, full_table, sample_weather, default_antenna, campaign_config):
        cfg = campaign_config(snr_max_grid=(-40.0,), receivers=5, repetitions=3, master_seed=1)
        report = run_campaign(cfg, full_table, default_antenna, sample_weather)
        stat = report.stats[(-40.0, "h_apsk32")]
        assert report.outage[-40.0].total_outage_runs == 3
        assert report.raw_gains[(-40.0, "h_apsk32")] == (None,) * 3
        assert math.isnan(stat.mean)
        assert gains_csv_text(report).splitlines()[1:] == [f"-40,{t},nan,nan,3" for t in report.family_tokens]

    def test_per_run_gains_match_filtered_system_gain(self, full_table, sample_weather, default_antenna,
                                                      campaign_config):
        cfg = campaign_config(
            snr_max_grid=(5.0,), receivers=25, repetitions=3,
            families=(Family.H_APSK32,), master_seed=11,
        )
        report = run_campaign(cfg, full_table, default_antenna, sample_weather)
        sub = full_table.subset({Family.QPSK, Family.PSK8, Family.APSK16, Family.APSK32, Family.H_APSK32})
        for rep in range(3):
            pop = draw_population(
                25, [5.0], default_antenna, sample_weather,
                rng=[np.random.SeedSequence(11, spawn_key=(0, rep))],
            )[0]
            served = [s for s in pop.tolist() if full_table.best_single(s)]
            expected = row_summary(served, sub).gain
            assert report.raw_gains[(5.0, "h_apsk32")][rep] == expected


class TestDeterminism:
    @pytest.mark.usefixtures("forking")
    def test_worker_count_does_not_change_bytes(self, full_table, sample_weather, default_antenna, small_cfg):
        serial = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        parallel_cfg = dataclasses.replace(small_cfg, workers=2)
        parallel = run_campaign(parallel_cfg, full_table, default_antenna, sample_weather)
        assert gains_csv_text(serial) == gains_csv_text(parallel)
        assert serial.stats == parallel.stats

    @pytest.mark.usefixtures("forking")
    def test_uneven_worker_blocks_do_not_change_bytes(self, full_table, sample_weather, default_antenna,
                                                      campaign_config):
        # workers=3 on 4 grid points: blocks (0, 3), (1,) and (2,)
        cfg = campaign_config(snr_max_grid=(-1.0, 4.0, 9.0, 14.0), receivers=30, repetitions=3, master_seed=8)
        serial = run_campaign(cfg, full_table, default_antenna, sample_weather)
        parallel = run_campaign(dataclasses.replace(cfg, workers=3), full_table, default_antenna, sample_weather)
        assert gains_csv_text(serial) == gains_csv_text(parallel)
        assert serial.raw_gains == parallel.raw_gains and serial.outage == parallel.outage

    @pytest.mark.usefixtures("forking")
    @pytest.mark.parametrize("workers, grid", [(2, (7.0,)), (4, (-1.0, 6.0, 13.0))],
                             ids=["one_block", "more_workers_than_points"])
    def test_more_workers_than_grid_points_do_not_change_bytes(self, full_table, sample_weather, default_antenna,
                                                               workers, grid, campaign_config):
        cfg = campaign_config(snr_max_grid=grid, receivers=30, repetitions=3, master_seed=8)
        serial = run_campaign(cfg, full_table, default_antenna, sample_weather)
        parallel = run_campaign(dataclasses.replace(cfg, workers=workers),
                                full_table, default_antenna, sample_weather)
        assert gains_csv_text(serial) == gains_csv_text(parallel)
        assert serial.raw_gains == parallel.raw_gains and serial.outage == parallel.outage

    @pytest.mark.usefixtures("forking")
    @pytest.mark.parametrize("workers, grid, children", [(2, (7.0,), 0), (3, (-1.0, 6.0, 13.0), 2)],
                             ids=["one_block", "three_blocks"])
    def test_each_block_after_the_first_starts_one_child(self, full_table, sample_weather, default_antenna,
                                                         started, workers, grid, children, campaign_config):
        cfg = campaign_config(snr_max_grid=grid, receivers=30, repetitions=2, master_seed=8, workers=workers)
        assert run_campaign(cfg, full_table, default_antenna, sample_weather).stats
        assert len(started) == children
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("chunk, span, entries", [(1, None, None), (160, None, None), (None, 1, 1), (160, 80, 1)],
                             ids=["one_unit", "split_grid_point", "one_unit_spans_one_entry_blocks",
                                  "spans_split_chunks"])
    def test_chunk_size_does_not_change_gains(self, full_table, sample_weather, default_antenna, small_cfg,
                                              monkeypatch, chunk, span, entries):
        # Units of 40 receivers: one unit per chunk, or four, so that chunks
        # split the 6 repetitions of a grid point and span two points; spans
        # of one unit summed one row at a time, or of two units, which split
        # the four-unit chunks. The defaults hold all 18 units in one chunk,
        # one span and a few sum blocks.
        default = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        for module, name, value in ((campaign, "_CHUNK_RECEIVERS", chunk), (campaign, "_SPAN_RECEIVERS", span),
                                    (rateopt, "_BLOCK_ENTRIES", entries)):
            if value is not None:
                monkeypatch.setattr(module, name, value)
        small = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        assert small.raw_gains == default.raw_gains and small.outage == default.outage

    @pytest.mark.parametrize("small_blocks, master_seed", [(False, 3), (True, 3), (False, 2**32 + 1),
                                                           (False, 2**128 + 3)],
                             ids=["default_blocks", "one_unit_spans", "two_word_seed", "five_word_seed"])
    def test_each_unit_equals_the_one_row_call(self, full_table, sample_weather, default_antenna, campaign_config,
                                               monkeypatch, small_blocks, master_seed):
        # From total outage through partial outage to full service (40 dB
        # clears the weather CDF's deepest fade, 30 dB), every family and the
        # combined table: each unit's gain and outage count, bit for bit, are
        # those of system_summaries on its row drawn from its own
        # SeedSequence, on a fresh table of the same entries. The master
        # seeds take one, two and five 32-bit words.
        if small_blocks:
            monkeypatch.setattr(campaign, "_SPAN_RECEIVERS", 1)
            monkeypatch.setattr(rateopt, "_BLOCK_ENTRIES", 1)
        cfg = campaign_config(snr_max_grid=(-8.0, -2.4, -1.8, 1.0, 40.0), receivers=60, repetitions=4,
                              families=(Family.H_QPSK, Family.H_APSK32), combined=True, master_seed=master_seed)
        ctx = campaign._primed_context(cfg, full_table, default_antenna, sample_weather)
        dropped, gains = campaign._run_grid_points(ctx, range(len(cfg.snr_max_grid)))
        singles = {f for f in full_table.families() if not f.hierarchical}
        fresh = {fam.token: full_table.subset(singles | {fam}) for fam in cfg.families}
        fresh[COMBINED] = full_table.subset(singles | set(cfg.families))
        assert ctx.curves == ((Family.H_QPSK,), (Family.H_APSK32,), cfg.families)
        assert list(fresh) == list(cfg.family_tokens) and len(gains) == len(fresh)
        for g, snr_max in enumerate(cfg.snr_max_grid):
            for rep in range(cfg.repetitions):
                row = draw_population(cfg.receivers, [snr_max], default_antenna, sample_weather,
                                      rng=[np.random.SeedSequence(cfg.master_seed, spawn_key=(g, rep))])[0]
                for family_gains, (token, table) in zip(gains, fresh.items()):
                    expected = row_summary(row, table)
                    got = family_gains[g, rep]
                    assert got == expected.gain or math.isnan(got) and math.isnan(expected.gain), (g, rep, token)
                    assert dropped[g, rep] == expected.outage
        assert dropped[0].tolist() == [cfg.receivers] * 4 and dropped[-1].tolist() == [0] * 4
        assert ((0 < dropped) & (dropped < cfg.receivers)).any()

    @pytest.mark.parametrize("master_seed", [0, 2**32 - 1, 2**32, 2**64 + 5, 2**160 + 9])
    def test_unit_generator_is_the_spawned_seed_sequence(self, master_seed):
        # The master seed's words are zero-padded to the pool size before
        # the spawn key's words when there are fewer than four of them. The
        # keys of two, three and four words share one call, interleaved.
        keys = [(0, 0), (2**32 - 1, 2**32), (0, 1), (2**32, 2**40), (1, 0), (30, 99)]
        seeds = campaign._unit_seeds(master_seed, keys)
        assert seeds.shape == (len(keys), 4) and seeds.dtype == np.uint64
        unit_seed = campaign._unit_seed_class()
        for (g, r), row in zip(keys, seeds):
            got = np.random.Generator(np.random.PCG64(unit_seed(row)))
            expected = np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(g, r)))
            assert got.bit_generator.state == expected.bit_generator.state, (g, r)
            assert got.random(5).tolist() == expected.random(5).tolist()

    @given(master_seed=st.integers(0, 2**256),
           keys=st.lists(st.tuples(st.integers(0, 2**70), st.integers(0, 2**70)), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_unit_seeds_are_the_seed_sequence_states(self, master_seed, keys):
        seeds = campaign._unit_seeds(master_seed, keys)
        expected = [np.random.SeedSequence(master_seed, spawn_key=key).generate_state(4, np.uint64).tolist()
                    for key in keys]
        assert seeds.shape == (len(keys), 4) and seeds.tolist() == expected

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)])
    def test_unit_seed_refuses_other_requests(self, n_words, dtype):
        # Another request would draw another stream, so it fails loudly:
        # MT19937, SFC64 and Philox ask for other words than PCG64 does.
        row = campaign._unit_seeds(1, [(0, 0)])[0]
        unit_seed = campaign._unit_seed_class()(row)
        with pytest.raises(ValueError, match=rf"^generate_state\({n_words}, {np.dtype(dtype)}\): "):
            unit_seed.generate_state(n_words, dtype)
        for bit_generator in (np.random.MT19937, np.random.SFC64, np.random.Philox):
            with pytest.raises(ValueError, match="a unit seed holds 4 uint64 words only"):
                bit_generator(unit_seed)
        assert unit_seed.generate_state(4, np.dtype("<u8")) is row

    def test_same_seed_same_report(self, full_table, sample_weather, default_antenna, small_cfg):
        a = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        b = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        assert gains_csv_text(a) == gains_csv_text(b)

    def test_extending_repetitions_preserves_earlier_runs(self, full_table, sample_weather, default_antenna,
                                                          campaign_config):
        base = campaign_config(
            snr_max_grid=(3.0, 8.0), receivers=20, repetitions=4, master_seed=5
        )
        extended = campaign_config(
            snr_max_grid=(3.0, 8.0), receivers=20, repetitions=8, master_seed=5
        )
        short = run_campaign(base, full_table, default_antenna, sample_weather)
        long = run_campaign(extended, full_table, default_antenna, sample_weather)
        for key, values in short.raw_gains.items():
            assert long.raw_gains[key][: len(values)] == values


class TestGridBlocks:
    """The block plan: at most one block per worker, per grid point and per
    ``_CHILD_RECEIVERS`` receivers of the campaign, and at least one."""

    @staticmethod
    def blocks(cfg):
        return [list(block) for block in campaign._grid_blocks(cfg)]

    def test_sweep_runs_in_one_block(self, campaign_config):
        cfg = dataclasses.replace(benchmark_config(campaign_config, "sweep"), workers=2)
        assert self.blocks(cfg) == [list(range(31))]

    def test_two_blocks_of_child_receivers_split_at_two_workers(self, campaign_config):
        cfg = campaign_config(snr_max_grid=_grid(1.0, 1.0, 5), receivers=2 ** 16 // 5 + 1, repetitions=2,
                              workers=2)
        assert self.blocks(cfg) == [[0, 2, 4], [1, 3]]
        assert self.blocks(dataclasses.replace(cfg, receivers=2 ** 16 // 5)) == [[0, 1, 2, 3, 4]]

    def test_interleaves_by_blocks_not_workers(self, campaign_config):
        # 6 x 30,000 receivers pay for two processes, not three.
        cfg = campaign_config(snr_max_grid=_grid(1.0, 1.0, 6), receivers=30_000, repetitions=1, workers=3)
        assert self.blocks(cfg) == [[0, 2, 4], [1, 3, 5]]

    def test_one_block_per_point_below_the_worker_count(self, campaign_config):
        cfg = campaign_config(snr_max_grid=(-1.0, 6.0, 13.0), receivers=2 ** 16, repetitions=1, workers=8)
        assert self.blocks(cfg) == [[0], [1], [2]]

    @pytest.mark.parametrize("receivers, children", [(2 ** 16, 1), (2 ** 16 - 1, 0)],
                             ids=["two_blocks", "one_receiver_short"])
    def test_a_child_starts_at_two_blocks_of_child_receivers(self, full_table, sample_weather, default_antenna,
                                                             started, receivers, children, campaign_config):
        cfg = campaign_config(snr_max_grid=(3.0, 9.0), receivers=receivers, repetitions=1, master_seed=8)
        serial = run_campaign(cfg, full_table, default_antenna, sample_weather)
        assert started == []
        parallel = run_campaign(dataclasses.replace(cfg, workers=2), full_table, default_antenna, sample_weather)
        assert len(started) == children
        assert gains_csv_text(serial) == gains_csv_text(parallel)
        assert serial.raw_gains == parallel.raw_gains and serial.outage == parallel.outage
        assert multiprocessing.active_children() == []


@pytest.fixture()
def deadline():
    """Fail a test that waits on child processes for more than 60 s, rather
    than let it hang: kill the children, which multiprocessing would join at
    exit, and raise pytest's failure, a BaseException that the OSError
    handlers around multiprocessing's waits do not swallow."""
    def expire(signum, frame):
        for child in multiprocessing.active_children():
            child.kill()
        pytest.fail("waited 60 s on the campaign's child processes")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(sys.platform != "linux", reason="children inherit a patched module only when forked, as on Linux")
@pytest.mark.usefixtures("deadline", "forking")
class TestChildProcesses:
    CLI_CAMPAIGN = ["campaign", "--grid", "4:6:1", "--reps", "2", "--receivers", "40", "--workers", "2"]

    @pytest.fixture()
    def cfg(self, campaign_config):
        return campaign_config(snr_max_grid=(-1.0, 6.0, 13.0), receivers=30, repetitions=2, master_seed=8, workers=3)

    def test_children_are_forked_on_linux(self, full_table, sample_weather, default_antenna, started, cfg):
        # Python 3.14 made forkserver the Linux default, under which every
        # child would pickle the primed context and import numpy again.
        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("forkserver", force=True)
        try:
            run_campaign(cfg, full_table, default_antenna, sample_weather)
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert [type(p) for p in started] == [multiprocessing.get_context("fork").Process] * 2

    def test_child_exception_keeps_its_type(self, full_table, sample_weather, default_antenna, monkeypatch,
                                            tmp_path, capsys, cfg):
        def fail(ctx, grid_indices):
            raise ValueError(f"bad block {list(grid_indices)}")

        _patch_blocks(monkeypatch, campaign._run_grid_points, fail)
        with pytest.raises(ValueError, match=r"bad block \[1\]"):
            run_campaign(cfg, full_table, default_antenna, sample_weather)
        assert multiprocessing.active_children() == []
        assert main([*self.CLI_CAMPAIGN, "--out", str(tmp_path)]) == 1
        assert "error: bad block [1]" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_child_that_sends_nothing(self, full_table, sample_weather, default_antenna, monkeypatch,
                                      tmp_path, capsys, cfg):
        _patch_blocks(monkeypatch, campaign._run_grid_points, lambda ctx, grid_indices: os._exit(3))
        with pytest.raises(RuntimeError, match="campaign block 1 exited with code 3"):
            run_campaign(cfg, full_table, default_antenna, sample_weather)
        assert multiprocessing.active_children() == []
        assert main([*self.CLI_CAMPAIGN, "--out", str(tmp_path)]) == 2
        assert "campaign block 1 exited with code 3" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_block_0_failure_joins_every_child(self, full_table, sample_weather, default_antenna, monkeypatch,
                                               started, cfg):
        # The children outlast block 0, so only a join reaps them in time.
        def fail(ctx, grid_indices):
            raise ValueError("block 0 failed")

        def slow(ctx, grid_indices, run=campaign._run_grid_points):
            time.sleep(0.5)
            return run(ctx, grid_indices)

        _patch_blocks(monkeypatch, fail, slow)
        with pytest.raises(ValueError, match="block 0 failed"):
            run_campaign(cfg, full_table, default_antenna, sample_weather)
        assert [p.exitcode for p in started] == [0, 0]
        assert multiprocessing.active_children() == []

    def test_reply_larger_than_the_pipe_buffer(self, full_table, sample_weather, default_antenna, campaign_config):
        # Block 1's reply holds three arrays of 4,000 runs, about 96 KB, more
        # than a 64 KB pipe buffer: a parent that joined the child before
        # reading its reply would wait for ever.
        cfg = campaign_config(snr_max_grid=(4.0, 9.0), receivers=2, repetitions=4000,
                              families=(Family.H_QPSK, Family.H_APSK32), master_seed=8)
        serial = run_campaign(cfg, full_table, default_antenna, sample_weather)
        parallel = run_campaign(dataclasses.replace(cfg, workers=2),
                                full_table, default_antenna, sample_weather)
        assert serial.raw_gains == parallel.raw_gains and serial.outage == parallel.outage


class TestBenchmarkCampaigns:
    @pytest.mark.parametrize("name", BENCHMARK_CAMPAIGNS)
    def test_gains_csv_digest(self, name, full_table, sample_weather, default_antenna, campaign_config):
        report = run_campaign(benchmark_config(campaign_config, name), full_table, default_antenna, sample_weather)
        assert hashlib.sha256(gains_csv_text(report).encode()).hexdigest() == BENCHMARK_CAMPAIGNS[name][2]

    @pytest.mark.parametrize("name", BENCHMARK_CAMPAIGNS)
    def test_float64_pattern_keeps_every_cell(self, name, full_table, sample_weather, default_antenna,
                                              campaign_config):
        # The draw evaluates the pattern in float64; the oracle runs the same
        # uniforms through the tests' long-double reference series. The SNRs
        # may differ by the draw's stated bound (beam._location_attenuation)
        # as dB, plus a rounding of log10 and of the two subtractions; every
        # receiver must stay further than that from every threshold.
        cfg = benchmark_config(campaign_config, name)
        units = [(g, rep) for g in range(len(cfg.snr_max_grid)) for rep in range(cfg.repetitions)]
        snr_max = np.array([cfg.snr_max_grid[g] for g, _ in units])
        seeds = [np.random.SeedSequence(cfg.master_seed, spawn_key=unit) for unit in units]
        snrs = draw_population(cfg.receivers, snr_max, default_antenna, sample_weather, rng=seeds)

        u = np.stack([np.random.default_rng(seed).random((2, cfg.receivers)) for seed in seeds])
        edge_radius = GEO_ALTITUDE_M * math.tan(beam_edge_angle(default_antenna))
        theta = np.arctan(edge_radius * np.sqrt(u[:, 0]) / GEO_ALTITUDE_M)
        x = np.sin(theta) * default_antenna.aperture_factor
        bracket = reference_series_factor(x * x / 4.0)
        location = np.maximum(-10.0 * np.log10(bracket * bracket), 0.0)
        oracle = snr_max[:, None] - location - sample_weather.quantile(u[:, 1])

        level = default_antenna.edge_level_db
        bound_db = (20.0 * math.log10(1.0 + 2.0**-50 * 10 ** (level / 20)) + np.spacing(level)
                    + 2.0 * np.spacing(np.abs(oracle).max()))
        assert np.abs(snrs - oracle).max() <= bound_db
        cells = full_table.cells(oracle)
        assert np.array_equal(full_table.cells(snrs), cells)
        # cell c lies between the c-th and (c+1)-th distinct thresholds
        edges = np.concatenate([[-np.inf], np.unique(list(table_entries(full_table).values())), [np.inf]])
        margin = np.minimum(oracle - edges[cells], edges[cells + 1] - oracle).min()
        assert margin > bound_db


class TestReportSurface:
    def test_gains_csv_shape(self, full_table, sample_weather, default_antenna, small_cfg):
        report = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        lines = gains_csv_text(report).strip().splitlines()
        assert lines[0] == "snr_max_db,family,mean_gain,std_gain,excluded_runs"
        assert len(lines) - 1 == 3 * 2  # grid points x families

    def test_excluded_runs_are_the_total_outage_runs(self, full_table, sample_weather, default_antenna,
                                                     campaign_config):
        """Every curve leaves out exactly the runs in total outage, so each
        gains.csv row's excluded_runs is its grid point's total_outage_runs."""
        cfg = campaign_config(snr_max_grid=(-4.0, -2.6, -2.2, 3.0), receivers=4, repetitions=8,
                              families=(Family.H_QPSK, Family.H_APSK32), combined=True, master_seed=5)
        report = run_campaign(cfg, full_table, default_antenna, sample_weather)
        counts = [report.outage[snr].total_outage_runs for snr in cfg.snr_max_grid]
        assert counts[0] == 8 and counts[-1] == 0 and any(0 < c < 8 for c in counts)
        rows = [line.split(",") for line in gains_csv_text(report).splitlines()[1:]]
        assert len(rows) == 4 * 3
        for (snr, token, *_, excluded), (snr_max, tok) in zip(
                rows, [(snr_max, tok) for snr_max in cfg.snr_max_grid for tok in report.family_tokens]):
            assert (float(snr), token) == (snr_max, tok)
            assert int(excluded) == report.raw_gains[(snr_max, tok)].count(None)
            assert int(excluded) == report.outage[snr_max].total_outage_runs

    def test_combined_curve_rows(self, full_table, sample_weather, default_antenna, campaign_config):
        # More schemes never hurt, exactly: on every run, from total outage
        # through partial outage to full service, the combined gain is at
        # least each family's, and every curve excludes the same runs.
        grid = (-8.0, -2.4, -1.8, 1.0, 6.0, 12.0, 40.0)
        cfg = campaign_config(
            snr_max_grid=grid, receivers=60, repetitions=4,
            families=(Family.H_QPSK, Family.H_APSK32), combined=True, master_seed=2,
        )
        report = run_campaign(cfg, full_table, default_antenna, sample_weather)
        assert report.family_tokens == ("h_qpsk", "h_apsk32", COMBINED)
        lines = gains_csv_text(report).strip().splitlines()
        assert len(lines) - 1 == 3 * len(grid)
        ahead = 0
        for snr_max in grid:
            combined = report.raw_gains[(snr_max, COMBINED)]
            for token in ("h_qpsk", "h_apsk32"):
                for both, one in zip(combined, report.raw_gains[(snr_max, token)], strict=True):
                    assert (both is None) == (one is None), (snr_max, token)
                    assert both is None or both >= one, (snr_max, token)
                    ahead += both is not None and both > one
        assert report.outage[-8.0].total_outage_runs == 4 and report.raw_gains[(-8.0, COMBINED)] == (None,) * 4
        assert report.outage[-1.8].total_outage_runs < 4 < report.outage[-1.8].max_count
        assert ahead > 0

    def test_gain_curve_order_and_unknown_family(self, full_table, sample_weather, default_antenna, small_cfg):
        report = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        curve = gain_curve(report, "h_qpsk")
        assert [s for s, _ in curve] == [2.0, 6.0, 10.0]
        with pytest.raises(ValueError):
            gain_curve(report, "h_psk8")
        text = curve_csv_text(report, "h_qpsk")
        assert text.startswith("snr_max_db,mean_gain\n")

    def test_mean_and_std_sum_left_to_right(self, full_table, sample_weather, default_antenna, monkeypatch,
                                            campaign_config):
        # sum() of floats is compensated from Python 3.12 on, where ten 0.1s
        # sum to 1.0; the report sums left to right from 0.0 on every Python,
        # so their mean is not 0.1. Each deviation is squared as a product,
        # which is correctly rounded: glibc's pow squares the deviation
        # -0.18749999999999997 of the two runs one ulp low, and the std then
        # reads 0.18749999999999997.
        for values, mean, std in (([0.1] * 10, 0.9999999999999999 / 10, 2.0**-56), ([0.475, 0.1], 0.2875, 0.1875)):
            cfg = campaign_config(snr_max_grid=(5.0,), receivers=2, repetitions=len(values),
                                  families=(Family.H_QPSK,))
            monkeypatch.setattr(campaign, "_run_grid_points", lambda ctx, grid_indices: (
                np.zeros((1, len(values)), dtype=np.intp), np.array(values).reshape(1, 1, -1)))
            stat = run_campaign(cfg, full_table, default_antenna, sample_weather).stats[(5.0, "h_qpsk")]
            squares = 0.0
            for v in values:
                squares += (v - mean) * (v - mean)
            assert std == math.sqrt(squares / len(values)) > 0.0
            assert (stat.mean, stat.std) == (mean, std)

    def test_missing_baseline_rejected(self, hqpsk_table, sample_weather, default_antenna, small_cfg):
        with pytest.raises(ValueError, match="baseline"):
            run_campaign(small_cfg, hqpsk_table, default_antenna, sample_weather)

    def test_absent_family_rejected(self, single_table, hqpsk_table, sample_weather, default_antenna,
                                    campaign_config):
        cfg = campaign_config(
            snr_max_grid=(5.0,), receivers=10, repetitions=1, families=(Family.H_PSK8,), master_seed=1
        )
        with pytest.raises(ValueError, match="h_psk8"):
            run_campaign(cfg, single_table.merged_with(hqpsk_table), default_antenna, sample_weather)


def _run_fresh_process(script: str) -> dict:
    """Run a Python script in a new interpreter that imports hmsim from this
    checkout, so that what the test session has imported or built masks
    nothing; the script prints one JSON object as its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in [str(Path(hmsim.__file__).parents[1]), env.get("PYTHONPATH")] if p)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


class TestPrimedContext:
    def test_a_block_builds_nothing_after_priming(self):
        # A pool process forked after _primed_context inherits all it built;
        # whatever a block still builds or imports, every worker of every
        # campaign would build again. Block 1 of 2 of the default grid.
        grown = _run_fresh_process("""
            import argparse, dataclasses, json, sys
            from hmsim import beam, campaign, cli

            scenario = cli.load_scenario(None, argparse.Namespace())
            cfg = dataclasses.replace(scenario.campaign_config(), repetitions=2)
            ctx = campaign._primed_context(cfg, scenario.tables, scenario.antenna, scenario.weather)

            def snapshot():
                return (set(sys.modules), {"union": set(vars(ctx.union))},
                        set(vars(ctx.weather)), beam.beam_edge_angle.cache_info().misses,
                        campaign._unit_seed_class.cache_info().misses)

            modules, attributes, weather, misses, seed_misses = snapshot()
            campaign._run_grid_points(ctx, range(1, len(cfg.snr_max_grid), 2))
            modules_after, attributes_after, weather_after, misses_after, seed_misses_after = snapshot()
            print(json.dumps({
                "modules": sorted(modules_after - modules),
                "attributes": {token: sorted(attributes_after[token] - attributes[token]) for token in attributes},
                "weather": sorted(weather_after - weather),
                "edge_angle_misses": misses_after - misses,
                "seed_class_misses": seed_misses_after - seed_misses,
            }))
        """)
        assert grown["modules"] == []
        assert set(grown["attributes"]) == {"union"}
        assert all(new == [] for new in grown["attributes"].values())
        assert grown["weather"] == []
        assert grown["edge_angle_misses"] == 0
        assert grown["seed_class_misses"] == 0

    def test_no_hmsim_command_imports_numpy_ma(self, tmp_path):
        # numpy imports numpy.ma lazily, in np.unique among others, which
        # costs a cold campaign about 16 ms. Commands that start no child
        # process import no process machinery either: concurrent.futures
        # costs 19-30 ms of a cold import. The 3 x 2 x 40 campaign is far
        # too small to pay for a child, so it starts none at --workers 2.
        # Commands that draw nothing import no numpy.random (13-15 ms cold),
        # whose classes the campaign's unit seeds subclass only on first use.
        imported = _run_fresh_process(f"""
            import json, sys
            from hmsim.cli import main

            def imported(*names):
                return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))

            out = {str(tmp_path)!r}
            assert main(["validate"]) == 0
            assert main(["pair", "-3", "10", "--dump-hull", out + "/hull.csv"]) == 0
            no_draw = imported("numpy.random")
            campaign = ["campaign", "--grid", "4:6:1", "--reps", "2", "--receivers", "40", "--out", out]
            assert main([*campaign, "--workers", "1"]) == 0
            serial = imported("numpy.ma", "multiprocessing", "concurrent")
            assert main([*campaign, "--workers", "2"]) == 0
            print(json.dumps({{"no_draw": no_draw, "serial": serial,
                               "two_workers": imported("numpy.ma", "multiprocessing", "concurrent")}}))
        """)
        assert imported == {"no_draw": [], "serial": [], "two_workers": []}
