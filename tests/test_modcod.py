"""Threshold tables: loading, validation, queries, serialization."""

import argparse
import math
import pickle
import random
import re
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from helpers import H32APSK_RHOS, HQPSK_RHOS, RATES, h32apsk_reference_cells, hqpsk_reference_cells
from hmsim import cli, modcod
from hmsim.campaign import CampaignConfig, run_campaign
from hmsim.modcod import (
    DVBS2_CODE_RATES,
    Family,
    ModcodChoice,
    SchemeId,
    Stream,
    TableParseError,
    TableValidationError,
    ThresholdTable,
    load_anomaly_manifest,
    load_threshold_csv,
    packaged_data_path,
    serialize_threshold_csv,
    signaling_bits,
)
from hmsim.rateopt import pair_solution

F = Fraction


def write_csv(tmp_path, name, rows, header="family,rho_he,stream,code_rate,threshold_db"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n")
    return path


class TestShippedFiles:
    def test_hqpsk_file_holds_187_values(self):
        lines = packaged_data_path("hqpsk_thresholds.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 11 * (1 + 8 * 2) == 187

    def test_h32apsk_file_holds_110_values(self):
        lines = packaged_data_path("h32apsk_thresholds.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 11 * 5 * 2 == 110

    def test_hqpsk_expands_to_full_entry_set(self, hqpsk_table):
        assert len(hqpsk_table) == 11 * 9 * 2

    def test_merged_column_expands_identically(self, hqpsk_table):
        scheme = SchemeId(Family.H_QPSK, 0.5)
        for rate in DVBS2_CODE_RATES:
            assert hqpsk_table.threshold(scheme, Stream.HE, rate) == hqpsk_table.threshold(
                scheme, Stream.LE, rate
            )

    def test_hqpsk_spot_checks(self, hqpsk_table):
        cells = hqpsk_reference_cells()
        rng = random.Random(20240817)
        sample = rng.sample(sorted(cells, key=str), 12)
        for rho, stream, rate in sample:
            expected = cells[(rho, stream, rate)]
            got = hqpsk_table.threshold(SchemeId(Family.H_QPSK, rho), Stream(stream), rate)
            assert got == expected, (rho, stream, rate)

    def test_h32apsk_spot_checks(self, h32apsk_table):
        cells = h32apsk_reference_cells()
        rng = random.Random(97)
        sample = rng.sample(sorted(cells, key=str), 12)
        for rho, stream, rate in sample:
            expected = cells[(rho, stream, rate)]
            got = h32apsk_table.threshold(SchemeId(Family.H_APSK32, rho), Stream(stream), rate)
            assert got == expected, (rho, stream, rate)

    def test_named_example_cells(self, hqpsk_table, h32apsk_table):
        assert hqpsk_table.threshold(SchemeId(Family.H_QPSK, 0.5), Stream.HE, F(1, 4)) == -2.6
        assert h32apsk_table.threshold(SchemeId(Family.H_APSK32, 0.9), Stream.LE, F(9, 10)) == 20.8

    def test_anomaly_cell_preserved_and_flagged(self, hqpsk_table):
        assert hqpsk_table.threshold(SchemeId(Family.H_QPSK, 0.6), Stream.LE, F(1, 2)) == 1.2
        assert len(hqpsk_table.warnings) == 1
        warning = hqpsk_table.warnings[0]
        assert warning.known_anomaly
        assert "1/2" in warning.message and "1.2" in warning.message

    def test_manifest_names_the_cell(self):
        manifest = load_anomaly_manifest()
        assert ("h_qpsk", 0.6, "LE", F(1, 2)) in manifest

    def test_other_shipped_tables_are_clean(self, h32apsk_table, single_table):
        assert h32apsk_table.warnings == ()
        assert single_table.warnings == ()

    @pytest.mark.parametrize(
        "name", ["hqpsk_thresholds.csv", "h32apsk_thresholds.csv", "dvbs2_single.csv"]
    )
    def test_round_trip(self, name):
        path = packaged_data_path(name)
        assert serialize_threshold_csv(load_threshold_csv(path)) == path.read_text()

    def test_rate_monotonicity_of_every_column(self, full_table):
        by_column = {}
        for (scheme, stream, rate), thr in full_table.entries().items():
            by_column.setdefault((scheme, stream), []).append((rate, thr))
        for cells in by_column.values():
            cells.sort()
            thresholds = [t for _, t in cells]
            assert thresholds == sorted(thresholds)
            assert len(set(thresholds)) == len(thresholds)


class TestLoaderErrors:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TableParseError):
            load_threshold_csv(path)

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path, "h.csv", [])
        with pytest.raises(TableParseError, match="no data rows"):
            load_threshold_csv(path)

    def test_bad_header(self, tmp_path):
        path = write_csv(tmp_path, "h.csv", ["qpsk,,SINGLE,1/2,1.0"], header="a,b,c")
        with pytest.raises(TableParseError, match="header"):
            load_threshold_csv(path)

    def test_unknown_family(self, tmp_path):
        path = write_csv(tmp_path, "h.csv", ["qam64,,SINGLE,1/2,1.0"])
        with pytest.raises(TableParseError, match="line 2"):
            load_threshold_csv(path)

    def test_non_dvbs2_rate(self, tmp_path):
        path = write_csv(tmp_path, "h.csv", ["qpsk,,SINGLE,7/8,1.0"])
        with pytest.raises(TableValidationError, match="7/8"):
            load_threshold_csv(path)

    @pytest.mark.parametrize("text", ["1/2", "2/4", "0.5", "+1/2", "01/02", "5e-1", "0.50"])
    def test_rate_spellings(self, tmp_path, text):
        table = load_threshold_csv(write_csv(tmp_path, "h.csv", [f"qpsk,,SINGLE,{text},1.0"]))
        ((_, _, rate),) = table.entries()
        assert rate == F(1, 2) and isinstance(rate, Fraction)
        assert table.threshold(SchemeId(Family.QPSK), Stream.SINGLE, F(1, 2)) == 1.0

    @pytest.mark.parametrize("text,error", [
        ("abc", TableParseError), ("1/0", TableParseError), ("1/5", TableValidationError), ("", TableParseError),
    ])
    def test_bad_rate_located(self, tmp_path, text, error):
        path = write_csv(tmp_path, "h.csv", ["qpsk,,SINGLE,1/4,-2.35", f"qpsk,,SINGLE,{text},1.0"])
        with pytest.raises(error, match=f"^{re.escape(str(path))}: line 3: "):
            load_threshold_csv(path)

    def test_duplicate_cell(self, tmp_path):
        rows = ["qpsk,,SINGLE,1/2,1.0", "qpsk,,SINGLE,1/2,2.0"]
        with pytest.raises(TableValidationError, match="duplicate"):
            load_threshold_csv(write_csv(tmp_path, "h.csv", rows))

    def test_rho_out_of_bounds(self, tmp_path):
        path = write_csv(tmp_path, "h.csv", ["h_qpsk,0.95,HE,1/2,1.0"])
        with pytest.raises(TableValidationError, match="rho_he"):
            load_threshold_csv(path)

    def test_stream_scheme_mismatch(self, tmp_path):
        path = write_csv(tmp_path, "h.csv", ["qpsk,,HE,1/2,1.0"])
        with pytest.raises(TableValidationError, match="inconsistent"):
            load_threshold_csv(path)

    def test_merged_stream_requires_half_rho(self, tmp_path):
        path = write_csv(tmp_path, "h.csv", ["h_qpsk,0.6,HE/LE,1/2,1.0"])
        with pytest.raises(TableValidationError, match="HE/LE"):
            load_threshold_csv(path)

    def test_rate_monotonicity_violation_is_hard_error(self, tmp_path):
        rows = ["qpsk,,SINGLE,1/4,2.0", "qpsk,,SINGLE,1/3,1.5"]
        with pytest.raises(TableValidationError, match="not increasing"):
            load_threshold_csv(write_csv(tmp_path, "h.csv", rows))

    def test_manifest_downgrades_named_cell_to_warning(self, tmp_path):
        rows = ["qpsk,,SINGLE,1/4,2.0", "qpsk,,SINGLE,1/3,1.5"]
        manifest = {("qpsk", None, "SINGLE", F(1, 3)): "test exemption"}
        table = load_threshold_csv(write_csv(tmp_path, "h.csv", rows), manifest)
        assert len(table.warnings) == 1
        assert table.warnings[0].known_anomaly

    def test_optional_family_slots_load(self, tmp_path):
        # no shipped data for these families, but the schema supports them
        rows = [
            "h_psk8,0.75,HE,1/2,1.0",
            "h_psk8,0.75,LE,1/2,4.0",
            "h_apsk16,0.65,HE,1/2,3.0",
            "h_apsk16,0.65,LE,1/2,8.0",
        ]
        table = load_threshold_csv(write_csv(tmp_path, "h.csv", rows))
        assert SchemeId(Family.H_PSK8, 0.75).bits(Stream.HE) == 2
        assert len(table.hierarchical_schemes()) == 2


class TestSchemeId:
    def test_default_bits(self):
        assert SchemeId(Family.APSK32).bits(Stream.SINGLE) == 5
        scheme = SchemeId(Family.H_APSK32, 0.7)
        assert (scheme.bits(Stream.HE), scheme.bits(Stream.LE)) == (2, 3)

    def test_hierarchy_consistency(self):
        with pytest.raises(ValueError):
            SchemeId(Family.QPSK, rho_he=0.7)
        with pytest.raises(ValueError):
            SchemeId(Family.H_QPSK)

    def test_stream_mismatch_raises(self):
        with pytest.raises(ValueError):
            SchemeId(Family.H_QPSK, 0.7).bits(Stream.SINGLE)
        with pytest.raises(ValueError):
            SchemeId(Family.QPSK).bits(Stream.LE)


class TestStreamEfficiency:
    def test_qpsk_one_third(self):
        assert ModcodChoice(SchemeId(Family.QPSK), Stream.SINGLE, F(1, 3)).spectral_efficiency == pytest.approx(2 / 3)

    def test_hqpsk_he(self):
        assert ModcodChoice(SchemeId(Family.H_QPSK, 0.8), Stream.HE, F(2, 3)).spectral_efficiency == pytest.approx(2 / 3)

    def test_h32apsk_le(self):
        assert ModcodChoice(SchemeId(Family.H_APSK32, 0.7), Stream.LE, F(1, 2)).spectral_efficiency == pytest.approx(1.5)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            ModcodChoice(SchemeId(Family.QPSK), Stream.HE, F(1, 2)).spectral_efficiency


class TestBestSingleModcod:
    def test_deep_outage(self, full_table):
        assert full_table.best_single(-10.0) is None

    def test_he_column_as_selector(self, hqpsk_table):
        # restrict to the rho=0.9 scheme and select over its HE stream: at
        # 3.7 dB rate 8/9 decodes (3.6 dB) but 9/10 (3.8 dB) does not
        entries = {
            k: v for k, v in hqpsk_table.entries().items() if k[0].rho_he == 0.9
        }
        ((_, (thresholds, _, choices), _),) = ThresholdTable(entries).hierarchical_stream_index()
        choice = choices[bisect_right(thresholds, 3.7) - 1]
        assert choice.code_rate == F(8, 9)
        assert choice.spectral_efficiency == pytest.approx(8 / 9)

    def test_monotone_in_snr(self, full_table):
        prev = 0.0
        for snr10 in range(-40, 200):
            choice = full_table.best_single(snr10 / 10)
            eff = choice.spectral_efficiency if choice else 0.0
            assert eff >= prev
            prev = eff

    def test_inclusive_threshold(self, single_table):
        choice = single_table.best_single(1.00)
        assert (choice.scheme.family, choice.code_rate) == (Family.QPSK, F(1, 2))

    def test_tie_breaks_to_lower_threshold(self):
        a = SchemeId(Family.QPSK)
        b = SchemeId(Family.PSK8)
        table = ThresholdTable({
            (a, Stream.SINGLE, F(9, 10)): 6.42,   # eff 1.8
            (b, Stream.SINGLE, F(3, 5)): 5.50,    # eff 1.8, lower threshold
        })
        assert table.best_single(7.0).scheme.family is Family.PSK8

    def test_known_values(self, single_table):
        assert single_table.best_single(16.0).spectral_efficiency == pytest.approx(40 / 9)
        assert single_table.best_single(-2.35).code_rate == F(1, 4)
        assert single_table.best_single(-2.36) is None


class TestCellInv:
    """cell_inv is the single-modcod reciprocal of every cell: one value
    per cell, inf where no single modcod decodes."""

    @pytest.mark.parametrize("name", ["full_table", "hqpsk_table", "single_table"])
    def test_matches_best_single(self, request, name):
        table = request.getfixturevalue(name)
        thresholds = np.array(sorted(set(table.entries().values())))
        snrs = np.concatenate([
            thresholds,
            np.nextafter(thresholds, -np.inf),
            np.nextafter(thresholds, np.inf),
            [-np.inf, np.inf],
        ]).tolist()
        expected = [
            1.0 / c.spectral_efficiency if c else math.inf for c in map(table.best_single, snrs)
        ]
        assert table.cell_inv[table.cells(snrs)].tolist() == expected
        assert [table.cell_inv[table.cell(s)] for s in snrs] == expected
        assert len(table.cell_inv) == thresholds.size + 1


class TestCellUnits:
    """cell_units holds, per cell, the best efficiency of the single column
    and of every hierarchical scheme's HE and LE column in 1/180 bit/s/Hz."""

    @pytest.mark.parametrize("name", ["full_table", "hqpsk_table", "single_table"])
    def test_matches_entries(self, request, name):
        table = request.getfixturevalue(name)
        schemes = table.hierarchical_schemes()
        columns = [None] + [(s, Stream.HE) for s in schemes] + [(s, Stream.LE) for s in schemes]
        edges = sorted(set(table.entries().values()))
        expected = np.zeros((len(edges) + 1, len(columns)), dtype=np.int64)
        for (scheme, stream, rate), thr in table.entries().items():
            col = columns.index(None if stream is Stream.SINGLE else (scheme, stream))
            units = scheme.bits(stream) * rate * 180
            assert units.denominator == 1 and units <= 810
            for cell, lower in enumerate(edges, start=1):
                if thr <= lower:
                    expected[cell, col] = max(expected[cell, col], int(units))
        assert modcod.EFFICIENCY_UNITS == 180
        assert table.cell_units.dtype == np.int64
        assert np.array_equal(table.cell_units, expected)


class TestTableAlgebra:
    def test_subset(self, full_table):
        sub = full_table.subset({Family.QPSK, Family.PSK8, Family.H_QPSK})
        assert {f.token for f in sub.families()} == {"qpsk", "psk8", "h_qpsk"}
        assert len(sub.hierarchical_schemes()) == 9

    def test_merge_conflict(self, single_table):
        clash = ThresholdTable({(SchemeId(Family.QPSK), Stream.SINGLE, F(1, 4)): -9.9})
        with pytest.raises(TableValidationError, match="conflict"):
            single_table.merged_with(clash)

    def test_merge_disjoint(self, single_table, hqpsk_table):
        merged = single_table.merged_with(hqpsk_table)
        assert len(merged) == len(single_table) + len(hqpsk_table)
        assert merged.lowest_single_threshold() == single_table.lowest_single_threshold() == -2.35
        assert hqpsk_table.lowest_single_threshold() is None

    def test_floor_filter_matches_best_single(self, full_table):
        # SNRs exactly at, and one ulp either side of, every threshold
        floor = full_table.lowest_single_threshold()
        thresholds = np.array(sorted(set(full_table.entries().values())))
        snrs = np.concatenate([
            thresholds,
            np.nextafter(thresholds, -np.inf),
            np.nextafter(thresholds, np.inf),
            np.random.default_rng(5).uniform(-8.0, 20.0, 2000),
        ])
        kept = snrs >= floor
        assert kept.any() and not kept.all()
        assert kept.tolist() == [full_table.best_single(s) is not None for s in snrs.tolist()]


class TestSignalingBits:
    @pytest.mark.parametrize("n_rates,n_mods,expected", [(11, 22, 12), (1, 1, 0), (11, 21, 12), (2, 2, 3)])
    def test_counts(self, n_rates, n_mods, expected):
        assert signaling_bits(n_rates, n_mods) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            signaling_bits(0, 5)


def _count_index_builds(monkeypatch) -> list[int]:
    """Count prefix-table builds; an indexed table has 1 + 2 x (its
    hierarchical schemes) of them: the single one plus HE and LE each."""
    calls = [0]
    build = modcod._prefix_best

    def counting(rows):
        calls[0] += 1
        return build(rows)

    monkeypatch.setattr(modcod, "_prefix_best", counting)
    return calls


def _index_size(table: ThresholdTable) -> int:
    return 1 + 2 * len(table.hierarchical_schemes())


def _default_scenario(**overrides):
    fields = dict(seed=None, receivers=None, reps=None, grid=None, families=None, out=None, workers=None)
    fields.update(overrides)
    return cli.load_scenario(None, argparse.Namespace(**fields))


class TestLazyIndex:
    def test_load_builds_nothing_and_a_query_builds_one_index(self, monkeypatch):
        calls = _count_index_builds(monkeypatch)
        scenario = _default_scenario()
        tables = scenario.tables
        tables.schemes(), tables.hierarchical_schemes(), tables.families()
        assert calls[0] == 0
        assert not {"cell_inv", "cell_units", "pair_memo"} & set(vars(tables))
        first = pair_solution(3.0, 12.0, tables)
        assert calls[0] == _index_size(tables) == 29
        assert pair_solution(3.0, 12.0, tables) == first
        pair_solution(-1.0, 17.5, tables)
        assert calls[0] == 29

    def test_campaign_indexes_only_its_subset_tables(self, monkeypatch):
        calls = _count_index_builds(monkeypatch)
        scenario = _default_scenario(grid="8", receivers=60, reps=2, families="h_qpsk,h_apsk32,combined")
        cfg = scenario.campaign_config()
        run_campaign(cfg, scenario.tables, scenario.antenna, scenario.weather)
        full = scenario.tables
        singles = {f for f in full.families() if not f.hierarchical}
        subsets = [full.subset(singles | {f}) for f in cfg.families] + [full.subset(full.families())]
        assert calls[0] == sum(_index_size(t) for t in subsets) == 19 + 11 + 29
        # the scenario's own table was never indexed: its first query builds it
        pair_solution(3.0, 12.0, full)
        assert calls[0] == 59 + 29


class TestPickledTable:
    """Pool workers receive pickled tables; one pickled before its first
    query travels without an index and builds its own."""

    @pytest.mark.parametrize("queried", [False, True])
    def test_answers_match_the_original(self, full_table, queried):
        table = full_table.subset(full_table.families())
        if queried:
            pair_solution(3.0, 12.0, table)
        copy = pickle.loads(pickle.dumps(table))
        thresholds = np.array(sorted(set(table.entries().values())))
        snrs = np.concatenate([thresholds, np.nextafter(thresholds, -np.inf), np.nextafter(thresholds, np.inf)])
        assert np.array_equal(copy.cells(snrs), table.cells(snrs))
        assert np.array_equal(copy.cell_inv, table.cell_inv)
        assert np.array_equal(copy.cell_units, table.cell_units)
        values = snrs.tolist()
        assert [copy.best_single(s) for s in values] == [table.best_single(s) for s in values]
        assert copy.hierarchical_stream_index() == table.hierarchical_stream_index()
        assert copy.entries() == table.entries() and copy.warnings == table.warnings
        rng = random.Random(11)
        for _ in range(1500):
            weak, strong = sorted(rng.sample(values, 2))
            assert pair_solution(weak, strong, copy) == pair_solution(weak, strong, table)
