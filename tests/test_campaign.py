"""Campaign engine: determinism, seeding stability, oracle agreement."""

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

import hmsim
from hmsim import campaign
from hmsim.beam import GEO_ALTITUDE_M, AntennaConfig, WeatherCdf, antenna_gain_rel, beam_edge_angle, draw_population
from hmsim.campaign import (
    COMBINED,
    CampaignConfig,
    curve_csv_text,
    gain_curve,
    gains_csv_text,
    run_campaign,
)
from hmsim.cli import main
from hmsim.modcod import Family
from hmsim.rateopt import system_summary

TINY_EDGE = AntennaConfig(edge_level_db=1e-9)
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


def benchmark_config(name):
    grid, reps, _ = BENCHMARK_CAMPAIGNS[name]
    return CampaignConfig(snr_max_grid=grid, receivers=500, repetitions=reps,
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


def _patch_blocks(monkeypatch, parent_block, child_block):
    """Make campaign._run_grid_points call parent_block in this process and
    child_block in the children forked from it, which inherit the patch."""
    parent = os.getpid()

    def run(ctx, grid_indices):
        return (parent_block if os.getpid() == parent else child_block)(ctx, grid_indices)

    monkeypatch.setattr(campaign, "_run_grid_points", run)


@pytest.fixture()
def small_cfg():
    return CampaignConfig(
        snr_max_grid=(2.0, 6.0, 10.0), receivers=40, repetitions=6, master_seed=42
    )


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            CampaignConfig(snr_max_grid=())
        with pytest.raises(ValueError):
            CampaignConfig(snr_max_grid=(3.0, 1.0))
        with pytest.raises(ValueError):
            CampaignConfig(snr_max_grid=(1.0,), receivers=1)
        with pytest.raises(ValueError):
            CampaignConfig(snr_max_grid=(1.0,), repetitions=0)
        with pytest.raises(ValueError):
            CampaignConfig(snr_max_grid=(1.0,), workers=0)
        with pytest.raises(ValueError):
            CampaignConfig(snr_max_grid=(1.0,), master_seed=-1)


class TestEngine:
    def test_two_receiver_oracle(self, single_table, hqpsk_table):
        # With a vanishing location spread and a two-atom weather CDF the
        # drawn pair is (1.2, 7.2) dB for master seed 0; the campaign gain
        # must equal the directly computed system gain, which for the
        # hierarchical-QPSK family works out to exactly 1/74.
        tables = single_table.merged_with(hqpsk_table)
        weather = WeatherCdf(TWO_ATOM_WEATHER)
        cfg = CampaignConfig(
            snr_max_grid=(7.2,), receivers=2, repetitions=1,
            families=(Family.H_QPSK,), master_seed=0,
        )
        pop = draw_population(2, 7.2, TINY_EDGE, weather, rng=np.random.SeedSequence(0, spawn_key=(0, 0)))
        snrs = sorted(pop.tolist())
        assert snrs[0] == pytest.approx(1.2, abs=1e-6)
        assert snrs[1] == pytest.approx(7.2, abs=1e-6)

        report = run_campaign(cfg, tables, TINY_EDGE, weather)
        gain = report.stats[(7.2, "h_qpsk")].mean
        assert gain == pytest.approx(1 / 74, abs=1e-12)
        assert gain == pytest.approx(system_summary(snrs, tables).gain, abs=1e-15)

    def test_baseline_only_family_gains_zero(self, full_table, sample_weather, default_antenna):
        cfg = CampaignConfig(
            snr_max_grid=(4.0, 10.0), receivers=30, repetitions=4,
            families=(Family.QPSK,), master_seed=7,
        )
        report = run_campaign(cfg, full_table, default_antenna, sample_weather)
        for values in report.raw_gains.values():
            assert all(v == 0.0 for v in values if v is not None)

    def test_outage_receivers_filtered_and_counted(self, full_table, sample_weather, default_antenna):
        cfg = CampaignConfig(snr_max_grid=(1.0,), receivers=60, repetitions=5, master_seed=3)
        report = run_campaign(cfg, full_table, default_antenna, sample_weather)
        stat = report.outage[1.0]
        assert stat.mean_count > 0  # at 1 dB some receivers always sit below -2.35 dB
        for values in report.raw_gains.values():
            assert all(v is not None and v >= 0.0 for v in values)

    def test_total_outage_runs_excluded(self, full_table, sample_weather, default_antenna):
        cfg = CampaignConfig(snr_max_grid=(-40.0,), receivers=5, repetitions=3, master_seed=1)
        report = run_campaign(cfg, full_table, default_antenna, sample_weather)
        stat = report.stats[(-40.0, "h_apsk32")]
        assert stat.excluded_runs == 3
        assert stat.included_runs == 0
        assert math.isnan(stat.mean)
        assert report.outage[-40.0].total_outage_runs == 3

    def test_per_run_gains_match_filtered_system_gain(self, full_table, sample_weather, default_antenna):
        cfg = CampaignConfig(
            snr_max_grid=(5.0,), receivers=25, repetitions=3,
            families=(Family.H_APSK32,), master_seed=11,
        )
        report = run_campaign(cfg, full_table, default_antenna, sample_weather)
        sub = full_table.subset({Family.QPSK, Family.PSK8, Family.APSK16, Family.APSK32, Family.H_APSK32})
        for rep in range(3):
            pop = draw_population(
                25, 5.0, default_antenna, sample_weather,
                rng=np.random.SeedSequence(11, spawn_key=(0, rep)),
            )
            served = [s for s in pop.tolist() if full_table.best_single(s)]
            expected = system_summary(served, sub).gain
            assert report.raw_gains[(5.0, "h_apsk32")][rep] == expected


class TestDeterminism:
    def test_worker_count_does_not_change_bytes(self, full_table, sample_weather, default_antenna, small_cfg):
        serial = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        parallel_cfg = CampaignConfig(**{**small_cfg.__dict__, "workers": 2})
        parallel = run_campaign(parallel_cfg, full_table, default_antenna, sample_weather)
        assert gains_csv_text(serial) == gains_csv_text(parallel)
        assert serial.stats == parallel.stats

    def test_uneven_worker_blocks_do_not_change_bytes(self, full_table, sample_weather, default_antenna):
        # workers=3 on 4 grid points: blocks (0, 3), (1,) and (2,)
        cfg = CampaignConfig(snr_max_grid=(-1.0, 4.0, 9.0, 14.0), receivers=30, repetitions=3, master_seed=8)
        serial = run_campaign(cfg, full_table, default_antenna, sample_weather)
        parallel = run_campaign(CampaignConfig(**{**cfg.__dict__, "workers": 3}), full_table, default_antenna, sample_weather)
        assert gains_csv_text(serial) == gains_csv_text(parallel)
        assert serial.raw_gains == parallel.raw_gains and serial.outage == parallel.outage

    @pytest.mark.parametrize("workers, grid", [(2, (7.0,)), (4, (-1.0, 6.0, 13.0))],
                             ids=["one_block", "more_workers_than_points"])
    def test_more_workers_than_grid_points_do_not_change_bytes(self, full_table, sample_weather, default_antenna,
                                                               workers, grid):
        cfg = CampaignConfig(snr_max_grid=grid, receivers=30, repetitions=3, master_seed=8)
        serial = run_campaign(cfg, full_table, default_antenna, sample_weather)
        parallel = run_campaign(CampaignConfig(**{**cfg.__dict__, "workers": workers}),
                                full_table, default_antenna, sample_weather)
        assert gains_csv_text(serial) == gains_csv_text(parallel)
        assert serial.raw_gains == parallel.raw_gains and serial.outage == parallel.outage

    @pytest.mark.parametrize("workers, grid, children", [(2, (7.0,), 0), (3, (-1.0, 6.0, 13.0), 2)],
                             ids=["one_block", "three_blocks"])
    def test_each_block_after_the_first_starts_one_child(self, full_table, sample_weather, default_antenna,
                                                         started, workers, grid, children):
        cfg = CampaignConfig(snr_max_grid=grid, receivers=30, repetitions=2, master_seed=8, workers=workers)
        assert run_campaign(cfg, full_table, default_antenna, sample_weather).stats
        assert len(started) == children
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("chunk", [1, 160], ids=["one_unit", "split_grid_point"])
    def test_chunk_size_does_not_change_gains(self, full_table, sample_weather, default_antenna, small_cfg,
                                              monkeypatch, chunk):
        # Units of 40 receivers: one unit per chunk, or four, so that chunks
        # split the 6 repetitions of a grid point and span two points. The
        # default chunk holds all 18 units.
        default = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        monkeypatch.setattr(campaign, "_CHUNK_RECEIVERS", chunk)
        assert run_campaign(small_cfg, full_table, default_antenna, sample_weather).raw_gains == default.raw_gains

    def test_same_seed_same_report(self, full_table, sample_weather, default_antenna, small_cfg):
        a = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        b = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        assert gains_csv_text(a) == gains_csv_text(b)

    def test_extending_repetitions_preserves_earlier_runs(self, full_table, sample_weather, default_antenna):
        base = CampaignConfig(
            snr_max_grid=(3.0, 8.0), receivers=20, repetitions=4, master_seed=5
        )
        extended = CampaignConfig(
            snr_max_grid=(3.0, 8.0), receivers=20, repetitions=8, master_seed=5
        )
        short = run_campaign(base, full_table, default_antenna, sample_weather)
        long = run_campaign(extended, full_table, default_antenna, sample_weather)
        for key, values in short.raw_gains.items():
            assert long.raw_gains[key][: len(values)] == values


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
@pytest.mark.usefixtures("deadline")
class TestChildProcesses:
    CFG = CampaignConfig(snr_max_grid=(-1.0, 6.0, 13.0), receivers=30, repetitions=2, master_seed=8, workers=3)
    CLI_CAMPAIGN = ["campaign", "--grid", "4:6:1", "--reps", "2", "--receivers", "40", "--workers", "2"]

    def test_children_are_forked_on_linux(self, full_table, sample_weather, default_antenna, started):
        # Python 3.14 made forkserver the Linux default, under which every
        # child would pickle the primed context and import numpy again.
        default = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("forkserver", force=True)
        try:
            run_campaign(self.CFG, full_table, default_antenna, sample_weather)
        finally:
            multiprocessing.set_start_method(default, force=True)
        assert [type(p) for p in started] == [multiprocessing.get_context("fork").Process] * 2

    def test_child_exception_keeps_its_type(self, full_table, sample_weather, default_antenna, monkeypatch,
                                            tmp_path, capsys):
        def fail(ctx, grid_indices):
            raise ValueError(f"bad block {list(grid_indices)}")

        _patch_blocks(monkeypatch, campaign._run_grid_points, fail)
        with pytest.raises(ValueError, match=r"bad block \[1\]"):
            run_campaign(self.CFG, full_table, default_antenna, sample_weather)
        assert multiprocessing.active_children() == []
        assert main([*self.CLI_CAMPAIGN, "--out", str(tmp_path)]) == 1
        assert "error: bad block [1]" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_child_that_sends_nothing(self, full_table, sample_weather, default_antenna, monkeypatch,
                                      tmp_path, capsys):
        _patch_blocks(monkeypatch, campaign._run_grid_points, lambda ctx, grid_indices: os._exit(3))
        with pytest.raises(RuntimeError, match="campaign block 1 exited with code 3"):
            run_campaign(self.CFG, full_table, default_antenna, sample_weather)
        assert multiprocessing.active_children() == []
        assert main([*self.CLI_CAMPAIGN, "--out", str(tmp_path)]) == 2
        assert "campaign block 1 exited with code 3" in capsys.readouterr().err
        assert multiprocessing.active_children() == []

    def test_block_0_failure_joins_every_child(self, full_table, sample_weather, default_antenna, monkeypatch,
                                               started):
        # The children outlast block 0, so only a join reaps them in time.
        def fail(ctx, grid_indices):
            raise ValueError("block 0 failed")

        def slow(ctx, grid_indices, run=campaign._run_grid_points):
            time.sleep(0.5)
            return run(ctx, grid_indices)

        _patch_blocks(monkeypatch, fail, slow)
        with pytest.raises(ValueError, match="block 0 failed"):
            run_campaign(self.CFG, full_table, default_antenna, sample_weather)
        assert [p.exitcode for p in started] == [0, 0]
        assert multiprocessing.active_children() == []

    def test_reply_larger_than_the_pipe_buffer(self, full_table, sample_weather, default_antenna):
        # Block 1's reply holds three arrays of 4,000 runs, about 96 KB, more
        # than a 64 KB pipe buffer: a parent that joined the child before
        # reading its reply would wait for ever.
        cfg = CampaignConfig(snr_max_grid=(4.0, 9.0), receivers=2, repetitions=4000,
                             families=(Family.H_QPSK, Family.H_APSK32), master_seed=8)
        serial = run_campaign(cfg, full_table, default_antenna, sample_weather)
        parallel = run_campaign(CampaignConfig(**{**cfg.__dict__, "workers": 2}),
                                full_table, default_antenna, sample_weather)
        assert serial.raw_gains == parallel.raw_gains and serial.outage == parallel.outage


class TestBenchmarkCampaigns:
    @pytest.mark.parametrize("name", BENCHMARK_CAMPAIGNS)
    def test_gains_csv_digest(self, name, full_table, sample_weather, default_antenna):
        report = run_campaign(benchmark_config(name), full_table, default_antenna, sample_weather)
        assert hashlib.sha256(gains_csv_text(report).encode()).hexdigest() == BENCHMARK_CAMPAIGNS[name][2]

    @pytest.mark.parametrize("name", BENCHMARK_CAMPAIGNS)
    def test_float64_pattern_keeps_every_cell(self, name, full_table, sample_weather, default_antenna):
        # The draw evaluates the pattern in float64; the oracle runs the same
        # uniforms through the long-double antenna_gain_rel. The SNRs may
        # differ by the draw's stated bound (beam._location_attenuation) as
        # dB, plus a rounding of log10 and of the two subtractions; every
        # receiver must stay further than that from every threshold.
        cfg = benchmark_config(name)
        units = [(g, rep) for g in range(len(cfg.snr_max_grid)) for rep in range(cfg.repetitions)]
        snr_max = np.array([cfg.snr_max_grid[g] for g, _ in units])
        seeds = [np.random.SeedSequence(cfg.master_seed, spawn_key=unit) for unit in units]
        snrs = draw_population(cfg.receivers, snr_max, default_antenna, sample_weather, rng=seeds)

        u = np.stack([np.random.default_rng(seed).random((2, cfg.receivers)) for seed in seeds])
        edge_radius = GEO_ALTITUDE_M * math.tan(beam_edge_angle(default_antenna))
        theta = np.arctan(edge_radius * np.sqrt(u[:, 0]) / GEO_ALTITUDE_M)
        location = np.maximum(-10.0 * np.log10(antenna_gain_rel(theta, default_antenna)), 0.0)
        oracle = snr_max[:, None] - location - sample_weather.quantile(u[:, 1])

        level = default_antenna.edge_level_db
        bound_db = (20.0 * math.log10(1.0 + 2.0**-50 * 10 ** (level / 20)) + np.spacing(level)
                    + 2.0 * np.spacing(np.abs(oracle).max()))
        assert np.abs(snrs - oracle).max() <= bound_db
        cells = full_table.cells(oracle)
        assert np.array_equal(full_table.cells(snrs), cells)
        # cell c lies between the c-th and (c+1)-th distinct thresholds
        edges = np.concatenate([[-np.inf], np.unique(list(full_table.entries().values())), [np.inf]])
        margin = np.minimum(oracle - edges[cells], edges[cells + 1] - oracle).min()
        assert margin > bound_db


class TestReportSurface:
    def test_gains_csv_shape(self, full_table, sample_weather, default_antenna, small_cfg):
        report = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        lines = gains_csv_text(report).strip().splitlines()
        assert lines[0] == "snr_max_db,family,mean_gain,std_gain,excluded_runs"
        assert len(lines) - 1 == 3 * 2  # grid points x families

    def test_combined_curve_rows(self, full_table, sample_weather, default_antenna):
        cfg = CampaignConfig(
            snr_max_grid=(6.0,), receivers=20, repetitions=2,
            families=(Family.H_QPSK, Family.H_APSK32), combined=True, master_seed=2,
        )
        report = run_campaign(cfg, full_table, default_antenna, sample_weather)
        assert report.family_tokens == ("h_qpsk", "h_apsk32", COMBINED)
        lines = gains_csv_text(report).strip().splitlines()
        assert len(lines) - 1 == 3
        combined = report.stats[(6.0, COMBINED)].mean
        each = [report.stats[(6.0, t)].mean for t in ("h_qpsk", "h_apsk32")]
        assert combined >= max(each) - 1e-12  # more schemes never hurt

    def test_gain_curve_order_and_unknown_family(self, full_table, sample_weather, default_antenna, small_cfg):
        report = run_campaign(small_cfg, full_table, default_antenna, sample_weather)
        curve = gain_curve(report, "h_qpsk")
        assert [s for s, _ in curve] == [2.0, 6.0, 10.0]
        with pytest.raises(ValueError):
            gain_curve(report, "h_psk8")
        text = curve_csv_text(report, "h_qpsk")
        assert text.startswith("snr_max_db,mean_gain\n")

    def test_missing_baseline_rejected(self, hqpsk_table, sample_weather, default_antenna, small_cfg):
        with pytest.raises(ValueError, match="baseline"):
            run_campaign(small_cfg, hqpsk_table, default_antenna, sample_weather)

    def test_absent_family_rejected(self, single_table, hqpsk_table, sample_weather, default_antenna):
        cfg = CampaignConfig(
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
                return (set(sys.modules), {token: set(vars(t)) for token, t in ctx[0].items()},
                        beam.beam_edge_angle.cache_info().misses)

            modules, attributes, misses = snapshot()
            campaign._run_grid_points(ctx, range(1, len(cfg.snr_max_grid), 2))
            modules_after, attributes_after, misses_after = snapshot()
            print(json.dumps({
                "modules": sorted(modules_after - modules),
                "attributes": {token: sorted(attributes_after[token] - attributes[token]) for token in attributes},
                "edge_angle_misses": misses_after - misses,
            }))
        """)
        assert grown["modules"] == []
        assert set(grown["attributes"]) == {"h_apsk32", "h_qpsk"}
        assert all(new == [] for new in grown["attributes"].values())
        assert grown["edge_angle_misses"] == 0

    def test_no_hmsim_command_imports_numpy_ma(self, tmp_path):
        # numpy imports numpy.ma lazily, in np.unique among others, which
        # costs a cold campaign about 16 ms. Commands that start no child
        # process import no process machinery either: concurrent.futures
        # costs 19-30 ms of a cold import.
        imported = _run_fresh_process(f"""
            import json, sys
            from hmsim.cli import main

            def imported(*names):
                return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))

            out = {str(tmp_path)!r}
            assert main(["validate"]) == 0
            assert main(["pair", "-3", "10", "--dump-hull", out + "/hull.csv"]) == 0
            campaign = ["campaign", "--grid", "4:6:1", "--reps", "2", "--receivers", "40", "--out", out]
            assert main([*campaign, "--workers", "1"]) == 0
            serial = imported("numpy.ma", "multiprocessing", "concurrent")
            assert main([*campaign, "--workers", "2"]) == 0
            print(json.dumps({{"serial": serial, "two_workers": imported("numpy.ma", "concurrent")}}))
        """)
        assert imported == {"serial": [], "two_workers": []}
