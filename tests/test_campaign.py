"""Campaign engine: determinism, seeding stability, oracle agreement."""

import math

import numpy as np
import pytest

from hmsim import campaign
from hmsim.beam import AntennaConfig, WeatherCdf, draw_population
from hmsim.campaign import (
    COMBINED,
    CampaignConfig,
    curve_csv_text,
    gain_curve,
    gains_csv_text,
    run_campaign,
)
from hmsim.modcod import Family
from hmsim.rateopt import system_summary

TINY_EDGE = AntennaConfig(edge_level_db=1e-9)
TWO_ATOM_WEATHER = [(0.0, 0.0), (0.0, 0.5), (6.0, 0.5), (6.0, 1.0)]


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
