"""Threshold tables: loading, validation, queries, serialization."""

import argparse
import functools
import math
import pickle
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    H32APSK_RHOS,
    HQPSK_RHOS,
    RATES,
    best_single_reference,
    h32apsk_reference_cells,
    hqpsk_reference_cells,
    serialize_threshold_csv,
    table_entries,
    table_from_entries,
)
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
    ValidationIssue,
    load_anomaly_manifest,
    load_threshold_csv,
    packaged_data_path,
    signaling_bits,
)
from hmsim.rateopt import achievable_pairs, pair_solution, solve_cell_pairs

F = Fraction


def write_csv(tmp_path, name, rows, header="family,rho_he,stream,code_rate,threshold_db"):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def probe_snrs(table: ThresholdTable) -> list[float]:
    """Every threshold of a table, one ulp either side of it, +-inf and NaN:
    an SNR in every cell and at both ends of each."""
    thresholds = np.array(sorted(set(table_entries(table).values())))
    return np.concatenate([
        thresholds,
        np.nextafter(thresholds, -np.inf),
        np.nextafter(thresholds, np.inf),
        [-np.inf, np.inf, np.nan],
    ]).tolist()


def jittered(table: ThresholdTable, seed: int, whole_db: bool) -> ThresholdTable:
    """A copy of a table with every threshold moved by up to 1.5 dB, then
    rounded to a whole dB if whole_db, so that thresholds tie."""
    rng = random.Random(seed)
    entries = {key: thr + rng.uniform(-1.5, 1.5) for key, thr in table_entries(table).items()}
    return table_from_entries({key: float(round(thr)) if whole_db else thr for key, thr in entries.items()})


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
        scheme, entries = SchemeId(Family.H_QPSK, 0.5), table_entries(hqpsk_table)
        for rate in DVBS2_CODE_RATES:
            assert entries[scheme, Stream.HE, rate] == entries[scheme, Stream.LE, rate]

    def test_hqpsk_spot_checks(self, hqpsk_table):
        cells = hqpsk_reference_cells()
        rng = random.Random(20240817)
        sample = rng.sample(sorted(cells, key=str), 12)
        for rho, stream, rate in sample:
            expected = cells[(rho, stream, rate)]
            got = table_entries(hqpsk_table)[SchemeId(Family.H_QPSK, rho), Stream(stream), rate]
            assert got == expected, (rho, stream, rate)

    def test_h32apsk_spot_checks(self, h32apsk_table):
        cells = h32apsk_reference_cells()
        rng = random.Random(97)
        sample = rng.sample(sorted(cells, key=str), 12)
        for rho, stream, rate in sample:
            expected = cells[(rho, stream, rate)]
            got = table_entries(h32apsk_table)[SchemeId(Family.H_APSK32, rho), Stream(stream), rate]
            assert got == expected, (rho, stream, rate)

    def test_named_example_cells(self, hqpsk_table, h32apsk_table):
        assert table_entries(hqpsk_table)[SchemeId(Family.H_QPSK, 0.5), Stream.HE, F(1, 4)] == -2.6
        assert table_entries(h32apsk_table)[SchemeId(Family.H_APSK32, 0.9), Stream.LE, F(9, 10)] == 20.8

    def test_anomaly_cell_preserved_and_flagged(self, hqpsk_table):
        assert table_entries(hqpsk_table)[SchemeId(Family.H_QPSK, 0.6), Stream.LE, F(1, 2)] == 1.2
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
        for (scheme, stream, rate), thr in table_entries(full_table).items():
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
        ((_, _, rate),) = table_entries(table)
        assert rate == F(1, 2) and isinstance(rate, Fraction)
        assert table_entries(table)[SchemeId(Family.QPSK), Stream.SINGLE, F(1, 2)] == 1.0

    @pytest.mark.parametrize("text,error", [
        ("abc", TableParseError), ("1/0", TableParseError), ("1/5", TableValidationError), ("", TableParseError),
    ])
    def test_bad_rate_located(self, tmp_path, text, error):
        path = write_csv(tmp_path, "h.csv", ["qpsk,,SINGLE,1/4,-2.35", f"qpsk,,SINGLE,{text},1.0"])
        with pytest.raises(error, match=f"^{re.escape(str(path))}: line 3: "):
            load_threshold_csv(path)

    @pytest.mark.parametrize("row,error,problem", [
        ("qpsk,,SINGLE,1/2", TableParseError, "expected 5 fields, got 4"),
        ("h_qpsk,high,HE,1/2,1.0", TableParseError, "bad rho_he 'high'"),
        ("qpsk,,SINGLE,1/2,1.0 dB", TableParseError, "bad threshold '1.0 dB'"),
        ("qpsk,,SINGLE,1/2,inf", TableValidationError, "non-finite threshold"),
        ("qpsk,,SINGLE,1/2,nan", TableValidationError, "non-finite threshold"),
        ("h_qpsk,0.7,MID,1/2,1.0", TableParseError, "unknown stream 'MID'"),
    ])
    def test_bad_row_located(self, tmp_path, row, error, problem, capsys):
        path = write_csv(tmp_path, "h.csv", ["qpsk,,SINGLE,1/4,-2.35", row])
        with pytest.raises(error) as excinfo:
            load_threshold_csv(path)
        assert str(excinfo.value) == f"{path}: line 3: {problem}"
        ini = tmp_path / "s.ini"
        ini.write_text("[tables]\nhierarchical = h.csv\n")
        assert cli.main(["validate", "--scenario", str(ini)]) == 1
        assert capsys.readouterr() == ("", f"FAIL: threshold tables: {path}: line 3: {problem}\n")

    def test_file_that_is_not_utf8_located(self, tmp_path):
        path = write_csv(tmp_path, "h.csv", ["qpsk,,SINGLE,1/4,-2.35"])
        path.write_bytes(path.read_bytes() + b"\xff\n")
        with pytest.raises(TableParseError) as excinfo:
            load_threshold_csv(path)
        assert str(excinfo.value) == (
            f"{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 67: invalid start byte"
        )

    def test_byte_order_mark_dropped(self, tmp_path):
        path = write_csv(tmp_path, "h.csv", ["qpsk,,SINGLE,1/4,-2.35"])
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert table_entries(load_threshold_csv(path)) == {(SchemeId(Family.QPSK), Stream.SINGLE, F(1, 4)): -2.35}

    def test_blank_rows_skipped(self, tmp_path):
        path = write_csv(tmp_path, "h.csv", ["qpsk,,SINGLE,1/4,-2.35", "", " , ,", "qpsk,,SINGLE,1/2,1.0"])
        table = load_threshold_csv(path)
        assert sorted(table_entries(table).values()) == [-2.35, 1.0]

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

    @pytest.mark.parametrize("rows,problem", [
        (["qpsk,,SINGLE,1/2,1.0", "qpsk,,SINGLE,1/2,2.0"], "duplicate entry qpsk/SINGLE 1/2"),
        (["qpsk,,SINGLE,1/2,1.0", "qpsk,,SINGLE,2/4,2.0"], "duplicate entry qpsk/SINGLE 1/2"),
        (["h_qpsk,0.5,HE,1/2,1.0", "h_qpsk,0.5,HE/LE,1/2,1.0"], "duplicate entry h_qpsk[rho=0.5]/HE 1/2"),
        (["h_qpsk,0.5,LE,1/2,1.0", "h_qpsk,0.5,HE/LE,1/2,1.0"], "duplicate entry h_qpsk[rho=0.5]/LE 1/2"),
        (["h_qpsk,0.5,HE/LE,1/2,1.0", "h_qpsk,0.50,LE,1/2,1.0"], "duplicate entry h_qpsk[rho=0.5]/LE 1/2"),
        (["qpsk,,SINGLE,1/4,-2.35", "h_qpsk,0.6,HE/LE,1/2,1.0"],
         "merged HE/LE rows are only legal for hierarchical rho_he=0.5"),
        (["qpsk,,SINGLE,1/4,-2.35", "qpsk,,HE/LE,1/2,1.0"], "merged HE/LE rows are only legal for hierarchical rho_he=0.5"),
        (["qpsk,,SINGLE,1/4,-2.35", "qpsk,,HE,1/2,1.0"], "stream HE inconsistent with family qpsk"),
        (["qpsk,,SINGLE,1/4,-2.35", "h_qpsk,0.7,SINGLE,1/2,1.0"], "stream SINGLE inconsistent with family h_qpsk"),
    ])
    def test_validation_error_texts(self, tmp_path, rows, problem):
        path = write_csv(tmp_path, "h.csv", rows)
        with pytest.raises(TableValidationError) as excinfo:
            load_threshold_csv(path)
        assert str(excinfo.value) == f"{path}: line 3: {problem}"

    @pytest.mark.parametrize("row,error,problem", [
        ("h_qpsk,0.7,MID,7/8,1.0", TableValidationError, "code rate 7/8 is not a DVB-S2 rate"),
        ("h_qpsk,0.7,MID,1/2,nan", TableValidationError, "non-finite threshold"),
        ("h_qpsk,0.7,MID,1/2,x", TableParseError, "bad threshold 'x'"),
        ("qpsk,,HE,1/0,1.0", TableParseError, "bad code_rate '1/0': Fraction(1, 0)"),
        ("qpsk,0.7,HE/LE,7/8,x", TableValidationError, "family qpsk requires rho_he=absent"),
        ("qam64,0.7,MID,7/8,x", TableParseError, "unknown modulation family 'qam64'"),
        ("h_qpsk,0.6,HE/LE,1/4,x", TableParseError, "bad threshold 'x'"),
        ("h_qpsk,0.6,HE/LE,1/4,1.0", TableValidationError,
         "merged HE/LE rows are only legal for hierarchical rho_he=0.5"),
    ])
    def test_first_fault_of_a_row_wins(self, tmp_path, row, error, problem):
        # Each row but the last has a spelling the last row shares in part,
        # so checks made once per spelling keep the order of a row's checks.
        rows = ["qpsk,,SINGLE,1/4,-2.35", "h_qpsk,0.7,HE,1/4,-2.0", row]
        path = write_csv(tmp_path, "h.csv", rows)
        with pytest.raises(error) as excinfo:
            load_threshold_csv(path)
        assert str(excinfo.value) == f"{path}: line 4: {problem}"

    def test_validation_issues_golden(self, tmp_path, monkeypatch):
        # Rows out of rate order across five columns; rho 0.7 lacks 2/5 and
        # rho 0.6 lacks LE 2/3, so those rates have no rho comparison.
        rows = [
            "h_qpsk,0.7,LE,2/3,4.0",
            "qpsk,,SINGLE,1/2,3.0",
            "h_qpsk,0.6,HE,1/2,1.0",
            "h_qpsk,0.7,HE,1/2,0.5",
            "qpsk,,SINGLE,1/4,2.0",
            "h_qpsk,0.6,LE,1/2,4.5",
            "h_qpsk,0.7,LE,1/4,2.0",
            "h_qpsk,0.6,HE,2/5,1.0",
            "qpsk,,SINGLE,1/3,1.5",
            "h_qpsk,0.6,HE,1/4,-1.0",
            "h_qpsk,0.7,HE,1/4,-0.5",
            "h_qpsk,0.6,LE,1/4,3.0",
            "h_qpsk,0.7,LE,1/2,5.0",
        ]
        manifest = {("h_qpsk", 0.6, "HE", F(1, 2)): "rate order", ("h_qpsk", 0.7, "LE", F(1, 4)): "rho order"}
        found = []

        def recording(*args):
            found.extend(validation_issues(*args))
            return found

        validation_issues = modcod._validation_issues
        monkeypatch.setattr(modcod, "_validation_issues", recording)
        path = write_csv(tmp_path, "h.csv", rows)
        with pytest.raises(TableValidationError) as excinfo:
            load_threshold_csv(path, manifest)
        errors = [
            "h_qpsk[rho=0.7]/LE: threshold not increasing in code rate at 2/3 (5.0 dB -> 4.0 dB)",
            "qpsk/SINGLE: threshold not increasing in code rate at 1/3 (2.0 dB -> 1.5 dB)",
        ]
        assert [(i.severity, i.message, i.known_anomaly) for i in found] == [
            ("warning", "h_qpsk[rho=0.6]/HE: threshold not increasing in code rate at 1/2 (1.0 dB -> 1.0 dB)", True),
            ("error", errors[0], False),
            ("error", errors[1], False),
            ("warning", "h_qpsk HE at rate 1/4: threshold should be decreasing in rho_he but goes "
                        "-1.0 dB (rho=0.6) -> -0.5 dB (rho=0.7)", False),
            ("warning", "h_qpsk LE at rate 1/4: threshold should be increasing in rho_he but goes "
                        "3.0 dB (rho=0.6) -> 2.0 dB (rho=0.7)", True),
        ]
        assert str(excinfo.value) == f"{path}: " + "; ".join(errors)

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

    def test_one_formula_is_the_exact_ratio_rounded_once(self):
        for bits in range(1, 6):
            for rate in DVBS2_CODE_RATES:
                units = modcod._efficiency_units(bits, rate)
                assert units / modcod.EFFICIENCY_UNITS == float(bits * Fraction(rate))
                assert units == bits * rate * modcod.EFFICIENCY_UNITS

    @pytest.mark.parametrize("rate", [F(7, 8), F(1, 5)], ids=["7_8", "1_5"])
    def test_non_dvbs2_rate_rejected_in_a_table_built_directly(self, rate):
        # 7/8 has no whole number of units; 1/5 has one, but no DVB-S2 modcod.
        # A table column has a slot for each DVB-S2 rate and no other.
        qpsk = SchemeId(Family.QPSK)
        queries = [lambda: table_from_entries({(qpsk, Stream.SINGLE, rate): 1.0}),
                   lambda: ModcodChoice(qpsk, Stream.SINGLE, rate).spectral_efficiency]
        for query in queries:
            with pytest.raises(ValueError, match=f"^code rate {rate} is not a DVB-S2 rate$"):
                query()

    @pytest.mark.parametrize("reverse", [False, True])
    def test_first_invalid_entry_of_a_table_built_directly_reported(self, reverse):
        qpsk = SchemeId(Family.QPSK)
        keys = [(qpsk, Stream.SINGLE, F(1, 2)), (qpsk, Stream.HE, F(1, 2))]
        table = table_from_entries(dict.fromkeys(keys[::-1] if reverse else keys, 1.0))
        problem = "qpsk is non-hierarchical; stream HE does not apply"
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            table.cell_units


SINGLES = {Family.QPSK, Family.PSK8, Family.APSK16, Family.APSK32}


class TestBestSingleModcod:
    def test_deep_outage(self, full_table):
        assert full_table.best_single(-10.0) is None

    def test_he_column_as_selector(self, hqpsk_table):
        # restrict to the rho=0.9 scheme and select over its HE stream
        # (column 1 of cell_units): at 3.7 dB rate 8/9 decodes (3.6 dB) but
        # 9/10 (3.8 dB) does not
        entries = {
            k: v for k, v in table_entries(hqpsk_table).items() if k[0].rho_he == 0.9
        }
        table = table_from_entries(entries)
        (scheme,) = table.hierarchical_schemes()
        units = int(table.cell_units[table.cell(3.7), 1])
        assert units == 160  # 1 bit x 8/9 in 1/180 bit/s/Hz
        assert ModcodChoice.from_units(scheme, Stream.HE, units) == ModcodChoice(scheme, Stream.HE, F(8, 9))

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
        table = table_from_entries({
            (a, Stream.SINGLE, F(9, 10)): 6.42,   # eff 1.8
            (b, Stream.SINGLE, F(3, 5)): 5.50,    # eff 1.8, lower threshold
        })
        assert table.best_single(7.0).scheme.family is Family.PSK8
        # and when the lower threshold is the later scheme token
        table = table_from_entries({(a, Stream.SINGLE, F(9, 10)): 5.0, (b, Stream.SINGLE, F(3, 5)): 5.5})
        assert table.best_single(7.0).scheme.family is Family.QPSK

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("loser,winner", [
        ((Family.QPSK, F(9, 10)), (Family.PSK8, F(3, 5))),  # 2 x 9/10 == 3 x 3/5
        ((Family.APSK32, F(2, 3)), (Family.APSK16, F(5, 6))),  # 5 x 2/3 == 4 x 5/6: the token, not the rate
    ])
    def test_tie_at_equal_threshold_breaks_to_scheme_token(self, loser, winner, reverse):
        # whichever entry the table holds first
        keys = [(SchemeId(family), Stream.SINGLE, rate) for family, rate in (loser, winner)]
        table = table_from_entries(dict.fromkeys(keys[::-1] if reverse else keys, 6.0))
        assert table.best_single(6.0) == ModcodChoice(*keys[1])
        assert table.best_single(6.0) == best_single_reference(table, 6.0)

    @pytest.mark.parametrize("families", [
        SINGLES | {Family.H_QPSK, Family.H_APSK32}, SINGLES | {Family.H_QPSK}, SINGLES | {Family.H_APSK32}, SINGLES,
        {Family.H_QPSK},
    ], ids=["full", "h_qpsk", "h_apsk32", "singles", "h_qpsk only"])
    def test_matches_reference_on_every_cell(self, full_table, families):
        table = full_table.subset(families)
        snrs = probe_snrs(table)
        assert [table.best_single(s) for s in snrs] == [best_single_reference(table, s) for s in snrs]

    def test_matches_reference_on_jittered_tables(self, single_table, full_table):
        for base in (single_table, full_table):
            ties = 0
            for seed in range(40):
                table = jittered(base, seed, whole_db=seed % 2 == 1)
                snrs = probe_snrs(table)
                assert [table.best_single(s) for s in snrs] == [best_single_reference(table, s) for s in snrs], seed
                efficiencies = [(thr, scheme.bits(stream) * rate)
                                for (scheme, stream, rate), thr in table_entries(table).items()]
                ties += len(efficiencies) - len(set(efficiencies))
            assert ties > 0  # some cells hold two equally efficient entries at one threshold

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
        snrs = probe_snrs(table)
        expected = [
            1.0 / c.spectral_efficiency if c else math.inf for c in (best_single_reference(table, s) for s in snrs)
        ]
        assert table.cell_inv[table.cells(snrs)].tolist() == expected
        assert [table.cell_inv[table.cell(s)] for s in snrs] == expected
        assert len(table.cell_inv) == len(set(table_entries(table).values())) + 1

    @pytest.mark.parametrize("empty", [lambda full: ThresholdTable({}), lambda full: full.subset([])],
                             ids=["no_columns", "subset_of_no_family"])
    def test_table_without_entries_is_one_outage_cell(self, full_table, empty):
        table = empty(full_table)
        assert len(table) == 0
        assert table.edges.dtype == np.float64 and table.edges.shape == (0,)
        assert table.cell_inv.tolist() == [math.inf]
        snrs = [-math.inf, -2.35, 0.0, 40.0, math.inf, math.nan]
        assert table.cells(snrs).tolist() == [0] * len(snrs)
        assert all(table.best_single(s) is None for s in snrs)
        TestCellUnits.assert_matches_entries(table)


class TestCellUnits:
    """cell_units holds, per cell, the best efficiency of the single column
    and of every hierarchical scheme's HE and LE column in 1/180 bit/s/Hz."""

    @staticmethod
    def assert_matches_entries(table):
        schemes = table.hierarchical_schemes()
        columns = [None] + [(s, Stream.HE) for s in schemes] + [(s, Stream.LE) for s in schemes]
        edges = sorted(set(table_entries(table).values()))
        expected = np.zeros((len(edges) + 1, len(columns)), dtype=np.int64)
        for (scheme, stream, rate), thr in table_entries(table).items():
            col = columns.index(None if stream is Stream.SINGLE else (scheme, stream))
            units = scheme.bits(stream) * rate * 180
            assert units.denominator == 1 and units <= 810
            for cell, lower in enumerate(edges, start=1):
                if thr <= lower:
                    expected[cell, col] = max(expected[cell, col], int(units))
        assert modcod.EFFICIENCY_UNITS == 180
        assert table.cell_units.dtype == np.int64
        assert np.array_equal(table.cell_units, expected)

    @pytest.mark.parametrize("name", ["full_table", "hqpsk_table", "single_table"])
    def test_matches_entries(self, request, name):
        self.assert_matches_entries(request.getfixturevalue(name))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_entries_of_tied_tables(self, full_table, seed):
        # Whole-dB thresholds tie across schemes, streams and rates.
        table = jittered(full_table, seed, whole_db=True)
        assert len(table.cell_inv) < len(full_table.cell_inv)
        self.assert_matches_entries(table)


class TestTableAlgebra:
    def test_subset(self, full_table):
        sub = full_table.subset({Family.QPSK, Family.PSK8, Family.H_QPSK})
        assert {f.token for f in sub.families()} == {"qpsk", "psk8", "h_qpsk"}
        assert len(sub.hierarchical_schemes()) == 9

    def test_merge_conflict(self, single_table):
        clash = table_from_entries({(SchemeId(Family.QPSK), Stream.SINGLE, F(1, 4)): -9.9})
        with pytest.raises(TableValidationError, match="^conflicting thresholds for qpsk/SINGLE 1/4$"):
            single_table.merged_with(clash)

    @pytest.mark.parametrize("entries,named", [
        ({(Family.QPSK, F(1, 2)): 9.0, (Family.QPSK, F(1, 4)): -9.9}, "qpsk/SINGLE 1/4"),
        ({(Family.PSK8, F(3, 5)): 9.0, (Family.QPSK, F(1, 4)): -9.9}, "psk8/SINGLE 3/5"),
        ({(Family.QPSK, F(1, 4)): -9.9, (Family.PSK8, F(3, 5)): 9.0}, "qpsk/SINGLE 1/4"),
    ], ids=["rate_order", "column_order", "column_order_reversed"])
    def test_merge_conflict_names_the_first_in_column_then_rate_order(self, single_table, entries, named):
        clash = table_from_entries({(SchemeId(family), Stream.SINGLE, rate): thr for (family, rate), thr in entries.items()})
        with pytest.raises(TableValidationError, match=f"^conflicting thresholds for {re.escape(named)}$"):
            single_table.merged_with(clash)

    def test_merge_of_split_rows_equals_the_whole_file(self, tmp_path, single_table):
        header, *rows = packaged_data_path("dvbs2_single.csv").read_text().splitlines()
        even = load_threshold_csv(write_csv(tmp_path, "even.csv", rows[0::2], header))
        odd = load_threshold_csv(write_csv(tmp_path, "odd.csv", rows[1::2], header))
        snrs = probe_snrs(single_table)
        for merged in (even.merged_with(odd), odd.merged_with(even)):
            assert table_entries(merged) == table_entries(single_table)
            assert len(merged) == len(single_table) == len(rows)
            assert np.array_equal(merged.edges, single_table.edges)
            assert np.array_equal(merged.cell_units, single_table.cell_units)
            assert [merged.best_single(s) for s in snrs] == [single_table.best_single(s) for s in snrs]

    def test_merge_checks_each_shared_column_as_a_load_does(self, tmp_path, single_table, hqpsk_table, monkeypatch):
        """A column that both tables hold is merged and then checked in
        code-rate order, as one file's column is: the same error, or a
        warning for a manifest entry. The manifest is read only for a
        merge that shares a column."""
        rows = {"a.csv": ["qpsk,,SINGLE,1/4,-2.35", "qpsk,,SINGLE,1/2,1.0"], "b.csv": ["qpsk,,SINGLE,1/3,5.0"]}
        a, b = (load_threshold_csv(write_csv(tmp_path, name, lines)) for name, lines in rows.items())
        message = "qpsk/SINGLE: threshold not increasing in code rate at 1/2 (5.0 dB -> 1.0 dB)"
        with pytest.raises(TableValidationError, match=f": {re.escape(message)}$"):
            load_threshold_csv(write_csv(tmp_path, "ab.csv", rows["a.csv"] + rows["b.csv"]))
        for first, second in ((a, b), (b, a)):
            with pytest.raises(TableValidationError, match=f"^{re.escape(message)}$"):
                first.merged_with(second)
        reads = []
        def manifest():
            reads.append(1)
            return {("qpsk", None, "SINGLE", F(1, 2)): "kept as printed"}
        monkeypatch.setattr(modcod, "load_anomaly_manifest", manifest)
        single_table.merged_with(hqpsk_table)
        assert reads == []
        merged = a.merged_with(b)
        assert reads == [1] and len(merged) == 3
        assert merged.warnings == (ValidationIssue("warning", message, known_anomaly=True),)

    def test_merge_disjoint(self, single_table, hqpsk_table):
        merged = single_table.merged_with(hqpsk_table)
        assert len(merged) == len(single_table) + len(hqpsk_table)
        for table in (merged, single_table):
            assert table.best_single(-2.35) is not None and table.best_single(np.nextafter(-2.35, -np.inf)) is None
        assert np.isinf(hqpsk_table.cell_inv).all()

    def test_merge_keeps_each_warning_once(self, hqpsk_table, full_table, single_table, h32apsk_table):
        assert len(hqpsk_table.warnings) == 1
        assert hqpsk_table.merged_with(hqpsk_table).warnings == hqpsk_table.warnings
        assert full_table.merged_with(hqpsk_table).warnings == full_table.warnings == (
            single_table.warnings + hqpsk_table.warnings + h32apsk_table.warnings
        )

    def test_inf_reciprocal_marks_outage(self, full_table):
        # SNRs exactly at, and one ulp either side of, every threshold
        thresholds = np.array(sorted(set(table_entries(full_table).values())))
        snrs = np.concatenate([
            thresholds,
            np.nextafter(thresholds, -np.inf),
            np.nextafter(thresholds, np.inf),
            np.random.default_rng(5).uniform(-8.0, 20.0, 2000),
        ])
        outage = np.isinf(full_table.cell_inv[full_table.cells(snrs)])
        assert outage.any() and not outage.all()
        assert outage.tolist() == [best_single_reference(full_table, s) is None for s in snrs.tolist()]


class TestSignalingBits:
    @pytest.mark.parametrize("n_rates,n_mods,expected", [(11, 22, 12), (1, 1, 0), (11, 21, 12), (2, 2, 3)])
    def test_counts(self, n_rates, n_mods, expected):
        assert signaling_bits(n_rates, n_mods) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            signaling_bits(0, 5)


def _count_index_builds(monkeypatch) -> dict[str, int]:
    """Count builds of ``cell_units``, the per-cell record every other
    per-cell structure is derived from, on every table in the process."""
    calls = {"cell_units": 0}
    build_units = ThresholdTable.cell_units.func

    def counting_units(table):
        calls["cell_units"] += 1
        return build_units(table)

    units = functools.cached_property(counting_units)
    units.__set_name__(ThresholdTable, "cell_units")
    monkeypatch.setattr(ThresholdTable, "cell_units", units)
    return calls


def _default_scenario(**overrides):
    fields = dict(seed=None, receivers=None, reps=None, grid=None, families=None, out=None, workers=None)
    fields.update(overrides)
    return cli.load_scenario(None, argparse.Namespace(**fields))


class TestLazyIndex:
    def test_load_builds_nothing_and_a_query_builds_one_index(self, monkeypatch):
        calls = _count_index_builds(monkeypatch)
        scenario = _default_scenario()
        tables = scenario.tables
        tables.hierarchical_schemes(), tables.families()
        assert calls == {"cell_units": 0}
        assert not {"_single_choices", "edges", "cell_inv", "cell_units"} & set(vars(tables))
        first = pair_solution(3.0, 12.0, tables)
        assert calls == {"cell_units": 1}
        assert pair_solution(3.0, 12.0, tables) == first
        pair_solution(-1.0, 17.5, tables)
        assert calls == {"cell_units": 1}

    def test_campaign_indexes_only_its_subset_tables(self, monkeypatch):
        calls = _count_index_builds(monkeypatch)
        scenario = _default_scenario(grid="8", receivers=60, reps=2, families="h_qpsk,h_apsk32,combined")
        cfg = scenario.campaign_config()
        run_campaign(cfg, scenario.tables, scenario.antenna, scenario.weather)
        # one cell_units, of the union table, for all three curves: h_qpsk,
        # h_apsk32 and combined
        assert len(cfg.family_tokens) == 3
        assert calls == {"cell_units": 1}
        # the scenario's own table was never indexed: its first query builds it
        full = scenario.tables
        assert not {"_single_choices", "edges", "cell_units"} & set(vars(full))
        pair_solution(3.0, 12.0, full)
        assert calls == {"cell_units": 2}


class TestPickledTable:
    """A campaign child started by a non-fork start method receives its
    tables pickled; one pickled before its first query travels without an
    index and builds its own."""

    @pytest.mark.parametrize("queried", [False, True])
    def test_answers_match_the_original(self, full_table, queried):
        """Every answer of a table is a function of its cell arrays and its
        schemes: compare those, each cell's best single and every cell
        pair's term, then the pair answers of one SNR pair per weak cell."""
        table = full_table.subset(full_table.families())
        if queried:
            pair_solution(3.0, 12.0, table)
        copy = pickle.loads(pickle.dumps(table))
        thresholds = np.array(sorted(set(table_entries(table).values())))
        snrs = np.concatenate([thresholds, np.nextafter(thresholds, -np.inf), np.nextafter(thresholds, np.inf)])
        assert np.array_equal(copy.cells(snrs), table.cells(snrs))
        assert np.array_equal(copy.cell_inv, table.cell_inv)
        assert np.array_equal(copy.cell_units, table.cell_units)
        assert copy.hierarchical_schemes() == table.hierarchical_schemes()
        values = snrs.tolist()
        expected = [best_single_reference(table, s) for s in values]
        assert [copy.best_single(s) for s in values] == [table.best_single(s) for s in values] == expected
        weak, strong = np.triu_indices(table.cell_inv.size)
        assert solve_cell_pairs(copy.cell_units, weak, strong).tolist() == solve_cell_pairs(table.cell_units, weak, strong).tolist()
        assert table_entries(copy) == table_entries(table) and copy.warnings == table.warnings
        # a cell's lower edge stands for it, and 1 dB below the lowest
        # threshold for cell 0
        cell_snrs = [thresholds[0] - 1.0] + thresholds.tolist()
        top = cell_snrs[-1]
        for weak_snr in cell_snrs:
            points = achievable_pairs(weak_snr, top, copy)
            assert points == achievable_pairs(weak_snr, top, table)
            assert [str(p) for point in points for p in point.provenance] == [
                str(p) for point in achievable_pairs(weak_snr, top, table) for p in point.provenance
            ]
            assert pair_solution(weak_snr, top, copy) == pair_solution(weak_snr, top, table)


def _probes(points):
    """Each point and its two neighbouring floats, far and infinite values
    on both sides, and the midpoints of the points."""
    points = np.asarray(points, dtype=float)
    mids = (points[1:] + points[:-1]) / 2
    return np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf), mids,
                           [-np.inf, -1e300, -1.0, 0.0, 1.0, 1e300, np.inf]])


def _assert_searches_alike(points, x, dtype=np.intp):
    got = modcod._BucketSearch(points, dtype)(x)
    assert got.dtype == dtype
    assert np.array_equal(got, np.searchsorted(points, x, side="right"))


# Sorted point sets: a start and gaps of 0 (a repeated point), of
# 1e-12-1e-9 (the narrowest buckets and the float rounding of q) or wide.
_gaps = st.one_of(st.just(0.0), st.floats(1e-12, 1e-9), st.floats(1e-3, 20.0))
_point_sets = st.builds(lambda start, gaps: start + np.cumsum([0.0] + gaps),
                        st.floats(-50.0, 50.0), st.lists(_gaps, max_size=40))


class TestBucketSearch:
    """``modcod._BucketSearch`` is ``np.searchsorted(points, x,
    side="right")``, exactly, for any x but NaN."""

    def test_every_shipped_edge_set(self, full_table, hqpsk_table, h32apsk_table, single_table):
        singles = set(single_table.families())
        tables = [full_table.subset(singles | set(extra)) for extra in
                  ((), (Family.H_QPSK,), (Family.H_APSK32,), (Family.H_QPSK, Family.H_APSK32))]
        for table in tables + [hqpsk_table, h32apsk_table]:
            edges = table.edges
            x = _probes(edges)
            _assert_searches_alike(edges, x)
            # as the campaign builds it, into its span buffer's dtype
            _assert_searches_alike(edges, x.reshape(1, -1), np.min_scalar_type(edges.size))
        union = modcod._BucketSearch(tables[-1].edges)
        assert tables[-1].edges.size == 192 and union._base.size == 2601 and len(union._next) == 1

    @given(points=_point_sets, extra=st.lists(st.floats(allow_nan=False), max_size=20))
    @settings(max_examples=300, deadline=None)
    def test_generated_point_sets(self, points, extra):
        _assert_searches_alike(points, np.concatenate([_probes(points), extra]))
        # a bounded number of buckets, however narrow the gaps
        assert modcod._BucketSearch(points)._base.size <= 2**12 + 1

    def test_narrow_gaps_share_buckets(self):
        # 1e-12 gaps over a 100 dB span: 2^12 buckets, so several points
        # in some of them
        points = np.concatenate([np.arange(5) * 1e-12, 100 + np.arange(5) * 1e-12, [37.5]])
        points.sort()
        search = modcod._BucketSearch(points)
        assert search._base.size == 2**12 + 1 and len(search._next) == 5
        _assert_searches_alike(points, _probes(points))

    def test_empty_and_one_point(self):
        x = _probes([0.0, 3.0])
        _assert_searches_alike(np.array([]), x)
        _assert_searches_alike(np.array([3.0]), x)
        _assert_searches_alike(np.array([3.0, 3.0]), x)

    def test_nan_counts_as_below_every_point(self):
        points = np.array([-2.0, 0.5, 4.0])
        assert modcod._BucketSearch(points)(np.array([np.nan, 1.0])).tolist() == [0, 2]
