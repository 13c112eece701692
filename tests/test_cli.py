"""CLI surface: subcommands, scenario handling, exit codes, determinism."""

import argparse
import dataclasses
import errno
import io
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from helpers import serialize_threshold_csv, table_entries, table_from_entries
import hmsim
from hmsim import cli
from hmsim.cli import main
from hmsim.modcod import Family, SchemeId, Stream, packaged_data_path
from hmsim.rateopt import pair_solution


@pytest.fixture()
def scenario_dir(tmp_path):
    """Scenario with a tiny campaign plus custom table set: the shipped
    baseline and only the rho=0.8 hierarchical-QPSK scheme."""
    from hmsim.modcod import load_threshold_csv

    hq = load_threshold_csv(packaged_data_path("hqpsk_thresholds.csv"))
    sub = table_from_entries({k: v for k, v in table_entries(hq).items() if k[0].rho_he == 0.8})
    (tmp_path / "hq08.csv").write_text(serialize_threshold_csv(sub))
    (tmp_path / "wx.csv").write_text("attenuation_db,cum_prob\n0,0\n0.4,0.9\n2,1\n")
    (tmp_path / "scenario.ini").write_text(
        f"""
[tables]
baseline = {packaged_data_path("dvbs2_single.csv")}
hierarchical = hq08.csv

[weather]
cdf = wx.csv

[campaign]
grid = 2:4:1
receivers = 12
repetitions = 3
seed = 9

[output]
dir = {tmp_path / "out"}
"""
    )
    return tmp_path


class TestRho:
    def test_hqpsk_value(self, capsys):
        assert main(["rho", "--hqpsk", "--theta", "30"]) == 0
        assert "0.7500" in capsys.readouterr().out

    def test_h32apsk_value(self, capsys):
        assert main(["rho", "--h32apsk", "--g1", "1.6", "--g2", "2.6", "--theta", "28.4"]) == 0
        out = capsys.readouterr().out
        assert float(re.search(r"rho_he = ([\d.]+)", out).group(1)) == pytest.approx(0.8, abs=0.005)

    def test_out_of_range_errors(self, capsys):
        assert main(["rho", "--hqpsk", "--theta", "90"]) == 1
        assert "error" in capsys.readouterr().err

    def test_table_regeneration(self, capsys):
        assert main(["rho", "--table", "h32apsk"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 6  # header + 5 splits
        assert "32.3" in out

    def test_requires_exactly_one_family(self, capsys):
        assert main(["rho", "--theta", "20"]) == 1

    def test_h8psk_value(self, capsys):
        assert main(["rho", "--h8psk", "--theta", "27"]) == 0
        assert capsys.readouterr() == ("rho_he = 0.7939\n", "")

    def test_hqpsk_table(self, capsys):
        assert main(["rho", "--table", "hqpsk"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "rho_he theta_deg cos2(theta)" and len(lines) == 10
        assert "0.75   30        0.7500" in lines

    @pytest.mark.parametrize("argv,message", [
        (["--hqpsk"], "--theta required"),
        (["--h8psk"], "--theta required"),
        (["--h32apsk", "--g1", "1.6", "--theta", "28.4"], "--g1, --g2 and --theta required"),
    ], ids=["hqpsk", "h8psk", "h32apsk"])
    def test_missing_parameter(self, argv, message, capsys):
        assert main(["rho", *argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestPair:
    def test_invariant_printed(self, capsys):
        assert main(["pair", "7", "10"]) == 0
        out = capsys.readouterr().out
        r_ts = float(re.search(r"r_ts\s+= ([\d.]+)", out).group(1))
        r_hm = float(re.search(r"r_hm\s+= ([\d.]+)", out).group(1))
        assert r_hm >= r_ts > 0

    def test_outage_pair_flagged(self, capsys):
        assert main(["pair", "-10", "-10"]) == 0
        out = capsys.readouterr().out
        assert "OUTAGE" in out
        assert "r_hm  = 0.000000" in out

    def test_non_finite_snr_rejected(self, capsys):
        assert main(["pair", "nan", "nan"]) == 1
        captured = capsys.readouterr()
        assert "nan" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv,plain", [
        (["-1e1", "5"], ["-10", "5"]), (["5", "-1E1"], ["-10", "5"]), (["5", "-.5e1"], ["-5", "5"]),
        (["-5e0", "5"], ["-5", "5"]),
    ], ids=["exponent_first", "exponent_second", "leading_point", "zero_exponent"])
    def test_negative_snr_with_an_exponent(self, argv, plain, capsys):
        # argparse reads '-1e1' as an option unless it is made a value
        assert main(["pair", *plain]) == 0
        expected = capsys.readouterr()
        assert main(["pair", *argv]) == 0
        assert capsys.readouterr() == expected

    def test_negative_infinity_reaches_the_finite_check(self, capsys):
        assert main(["pair", "5", "-inf"]) == 1
        assert capsys.readouterr() == ("", "error: SNR -inf dB is not a finite number\n")

    def test_option_values_read_as_written(self):
        args = cli.build_parser().parse_args(["campaign", "--out", "-1e1", "--gri", "-2.4:-1.5:0.3", "--scenario", "-Inf"])
        assert (args.out, args.grid, args.scenario) == ("-1e1", "-2.4:-1.5:0.3", "-Inf")

    def test_dash_word_is_still_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "-x", "5"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "the following arguments are required: snr2" in captured.err and captured.out == ""

    def test_matches_module_solution(self, scenario_dir, capsys):
        code = main(["pair", "1", "7", "--scenario", str(scenario_dir / "scenario.ini")])
        assert code == 0
        out = capsys.readouterr().out
        from hmsim.modcod import load_threshold_csv

        table = load_threshold_csv(packaged_data_path("dvbs2_single.csv")).merged_with(
            load_threshold_csv(scenario_dir / "hq08.csv")
        )
        expected = pair_solution(1.0, 7.0, table)
        assert float(re.search(r"r_hm\s+= ([\d.]+)", out).group(1)) == pytest.approx(expected.r_hm, abs=1e-6)
        assert float(re.search(r"r_ts\s+= ([\d.]+)", out).group(1)) == pytest.approx(expected.r_ts, abs=1e-6)

    def test_hull_dump(self, scenario_dir, tmp_path, capsys):
        dump = tmp_path / "hull.csv"
        assert main([
            "pair", "1", "7", "--scenario", str(scenario_dir / "scenario.ini"),
            "--dump-hull", str(dump),
        ]) == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "r1,r2,configuration"
        assert len(lines) >= 4  # origin, two singles, and the hull body

    def test_hull_dump_to_a_missing_directory(self, tmp_path, capsys):
        dump = tmp_path / "missing" / "hull.csv"
        assert main(["pair", "3", "12", "--dump-hull", str(dump)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: --dump-hull {dump}: No such file or directory\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag,value", [
        ("--families", "h_qpsk"), ("--seed", "3"), ("--receivers", "8"), ("--reps", "2"),
        ("--grid", "5"), ("--out", "o"), ("--workers", "2"),
    ])
    def test_campaign_flags_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "3", "12", flag, value])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag} {value}" in captured.err
        assert captured.out == ""

    # Output of the shipped tables, bit for bit: an outage-free pair, a
    # weak receiver in outage served only by hierarchy, a pair in total
    # outage, and a pair whose optimum (0.6, 0.6) is an achievable point on
    # the hull edge between two others that the schedule mixes.
    GOLDEN = {
        ("3", "12"): (
            "  weak receiver 3 dB: qpsk/SINGLE 3/5 (1.2 bit/s/Hz)\n"
            "strong receiver 12 dB: apsk16/SINGLE 5/6 (3.333 bit/s/Hz)\n"
            "r_ts  = 0.882353 bit/s/Hz (classical time sharing)\n"
            "r_hm  = 1.028571 bit/s/Hz (hierarchical time sharing)\n"
            "gain  = 0.16571428571428565\n"
            "schedule: 0.1429 of time on (1.2, 0) via [qpsk/SINGLE 3/5 (1.2 bit/s/Hz) | -], rest on (1, 1.2) via "
            "[h_apsk32[rho=0.85]/HE 1/2 (1 bit/s/Hz) | h_apsk32[rho=0.85]/LE 2/5 (1.2 bit/s/Hz)]\n",
            "r1,r2,configuration\n"
            '0,0,"[- | -]"\n'
            '1.2,0,"[qpsk/SINGLE 3/5 (1.2 bit/s/Hz) | -]"\n'
            '1,1.2,"[h_apsk32[rho=0.85]/HE 1/2 (1 bit/s/Hz) | h_apsk32[rho=0.85]/LE 2/5 (1.2 bit/s/Hz)]"\n'
            '0.8,1.8,"[h_apsk32[rho=0.7]/HE 2/5 (0.8 bit/s/Hz) | h_apsk32[rho=0.7]/LE 3/5 (1.8 bit/s/Hz)]"\n'
            '0,3.333333333,"[- | apsk16/SINGLE 5/6 (3.333 bit/s/Hz)]"\n',
        ),
        ("-3", "10"): (
            "  weak receiver -3 dB: OUTAGE (no decodable single modcod)\n"
            "strong receiver 10 dB: apsk16/SINGLE 2/3 (2.667 bit/s/Hz)\n"
            "r_ts  = 0.000000 bit/s/Hz (classical time sharing)\n"
            "r_hm  = 0.400000 bit/s/Hz (hierarchical time sharing)\n"
            "gain  = inf (zero baseline)\n"
            "schedule: serve (0.4, 0.6) via "
            "[h_qpsk[rho=0.9]/HE 2/5 (0.4 bit/s/Hz) | h_qpsk[rho=0.9]/LE 3/5 (0.6 bit/s/Hz)] full time\n",
            "r1,r2,configuration\n"
            '0,0,"[- | -]"\n'
            '0.4,0.6,"[h_qpsk[rho=0.9]/HE 2/5 (0.4 bit/s/Hz) | h_qpsk[rho=0.9]/LE 3/5 (0.6 bit/s/Hz)]"\n'
            '0,2.666666667,"[- | apsk16/SINGLE 2/3 (2.667 bit/s/Hz)]"\n',
        ),
        ("-10", "-9"): (
            "  weak receiver -10 dB: OUTAGE (no decodable single modcod)\n"
            "strong receiver -9 dB: OUTAGE (no decodable single modcod)\n"
            "r_ts  = 0.000000 bit/s/Hz (classical time sharing)\n"
            "r_hm  = 0.000000 bit/s/Hz (hierarchical time sharing)\n"
            "gain  = 0.0\n"
            "schedule: serve (0, 0) via [- | -] full time\n",
            "r1,r2,configuration\n"
            '0,0,"[- | -]"\n',
        ),
        ("1.8", "3.2"): (
            "  weak receiver 1.8 dB: qpsk/SINGLE 1/2 (1 bit/s/Hz)\n"
            "strong receiver 3.2 dB: qpsk/SINGLE 2/3 (1.333 bit/s/Hz)\n"
            "r_ts  = 0.571429 bit/s/Hz (classical time sharing)\n"
            "r_hm  = 0.600000 bit/s/Hz (hierarchical time sharing)\n"
            "gain  = 0.05000000000000021\n"
            "schedule: 0.2000 of time on (1, 0) via [qpsk/SINGLE 1/2 (1 bit/s/Hz) | -], rest on (0.5, 0.75) via "
            "[h_qpsk[rho=0.6]/LE 1/2 (0.5 bit/s/Hz) | h_qpsk[rho=0.6]/HE 3/4 (0.75 bit/s/Hz)]\n",
            "r1,r2,configuration\n"
            '0,0,"[- | -]"\n'
            '1,0,"[qpsk/SINGLE 1/2 (1 bit/s/Hz) | -]"\n'
            '0.5,0.75,"[h_qpsk[rho=0.6]/LE 1/2 (0.5 bit/s/Hz) | h_qpsk[rho=0.6]/HE 3/4 (0.75 bit/s/Hz)]"\n'
            '0,1.333333333,"[- | qpsk/SINGLE 2/3 (1.333 bit/s/Hz)]"\n',
        ),
    }

    @pytest.mark.parametrize("snrs", list(GOLDEN))
    def test_golden_output(self, snrs, tmp_path, capsys):
        stdout, hull = self.GOLDEN[snrs]
        assert main(["pair", *snrs]) == 0
        assert capsys.readouterr().out == stdout
        dump = tmp_path / "hull.csv"
        assert main(["pair", *snrs, "--dump-hull", str(dump)]) == 0
        assert capsys.readouterr().out == stdout + f"hull vertices written to {dump}\n"
        assert dump.read_text() == hull


class TestCampaign:
    def test_writes_reports(self, scenario_dir, capsys):
        assert main(["campaign", "--scenario", str(scenario_dir / "scenario.ini")]) == 0
        gains = (scenario_dir / "out" / "gains.csv").read_text().strip().splitlines()
        assert gains[0] == "snr_max_db,family,mean_gain,std_gain,excluded_runs"
        assert len(gains) - 1 == 3  # 3 grid points x 1 family
        assert (scenario_dir / "out" / "curve_h_qpsk.csv").exists()

    def test_seed_determinism(self, scenario_dir, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        base = ["campaign", "--scenario", str(scenario_dir / "scenario.ini"), "--seed", "42"]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--out", str(out_b), "--workers", "2"]) == 0
        assert (out_a / "gains.csv").read_bytes() == (out_b / "gains.csv").read_bytes()

    def test_flag_overrides(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "o"
        assert main([
            "campaign", "--scenario", str(scenario_dir / "scenario.ini"),
            "--grid", "3", "--reps", "2", "--receivers", "8", "--out", str(out),
        ]) == 0
        lines = (out / "gains.csv").read_text().strip().splitlines()
        assert len(lines) - 1 == 1

    def test_non_finite_grid_rejected(self, scenario_dir, tmp_path, capsys):
        base = ["campaign", "--scenario", str(scenario_dir / "scenario.ini"), "--out", str(tmp_path / "o")]
        assert main(base + ["--grid", "nan"]) == 1
        assert "nan" in capsys.readouterr().err
        ini = scenario_dir / "scenario.ini"
        ini.write_text(ini.read_text().replace("grid = 2:4:1", "grid = 2:inf:1"))
        assert main(base) == 1
        assert "inf" in capsys.readouterr().err
        assert not (tmp_path / "o" / "gains.csv").exists()

    @pytest.mark.parametrize("command", ["campaign", "validate"])
    def test_negative_grid_range_in_either_spelling(self, command, capsys):
        # a range that starts below zero, as its own argument or after '=',
        # after --grid or an abbreviation of it
        grids = {
            cli.load_scenario(None, cli.build_parser().parse_args([command, *grid])).campaign_config().snr_max_grid
            for grid in (["--grid", "-2.4:-1.5:0.3"], ["--grid=-2.4:-1.5:0.3"], ["--gri", "-2.4:-1.5:0.3"],
                         ["--g", "-2.4:-1.5:0.3"])
        }
        assert grids == {(-2.4, -2.1, -1.8, -1.5)}
        with pytest.raises(SystemExit) as exc:
            main([command, "--grid", "--reps", "3"])
        assert exc.value.code == 1
        assert "argument --grid: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_antenna_rejected(self, tmp_path, value, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text(f"[antenna]\ndiameter_m = {value}\n")
        out = tmp_path / "o"
        small = ["--grid", "5", "--reps", "2", "--receivers", "4", "--out", str(out)]
        for argv in (["campaign", *small], ["pair", "3", "5"]):
            assert main(argv + ["--scenario", str(ini)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {ini}: [antenna] diameter_m must be")
        assert not (out / "gains.csv").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("campaign", "receivers", "abc"),
        ("campaign", "seed", "1.5"),
        ("antenna", "frequency_hz", "20 GHz"),
    ])
    def test_bad_ini_number_named(self, tmp_path, section, key, value, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["pair", "3", "5", "--scenario", str(ini)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ini}: [{section}] {key} = '{value}' is not a valid")
        assert err.count(str(ini)) == 1

    @pytest.mark.parametrize("value,tokens", [
        ("combined", ["h_apsk32", "h_qpsk", "combined"]),
        ("", ["h_apsk32", "h_qpsk"]),
        ("all", ["h_apsk32", "h_qpsk"]),
        ("h_qpsk, combined", ["h_qpsk", "combined"]),
        ("combined, h_qpsk, all, h_qpsk", ["h_qpsk", "h_apsk32", "combined"]),
    ], ids=["combined_alone", "empty", "all", "one_and_combined", "repeats"])
    def test_families_tokens(self, tmp_path, value, tokens, capsys):
        # The combined token is the one switch for the combined curve; a list
        # that names no family means every hierarchical family.
        ini = tmp_path / "s.ini"
        ini.write_text(f"[campaign]\nfamilies = {value}\n")
        small = ["--grid", "5", "--reps", "2", "--receivers", "8"]
        for argv, out in ((["--scenario", str(ini)], tmp_path / "ini"), (["--families", value], tmp_path / "flag")):
            assert main(["campaign", *small, *argv, "--out", str(out)]) == 0
            rows = (out / "gains.csv").read_text().splitlines()[1:]
            assert [row.split(",")[1] for row in rows] == tokens

    @pytest.mark.parametrize("flag,key,value,problem", [
        ("--receivers", "receivers", "1", "is below the minimum of 2"),
        ("--reps", "repetitions", "0", "is below the minimum of 1"),
        ("--workers", "workers", "0", "is below the minimum of 1"),
        ("--seed", "seed", "-1", "is below the minimum of 0"),
        ("--grid", "grid", "1:x:2", "is not a valid grid: expected 'start:stop:step'"),
        ("--grid", "grid", "4:2:1", "is not a valid grid: expected 'start:stop:step'"),
        ("--grid", "grid", "1:2", "is not a valid grid: expected 'start:stop:step'"),
        ("--grid", "grid", "0:1e-9:2.5e-10", "is not a valid grid: two points round to 0 at 9 decimals"),
        ("--grid", "grid", "0:1e-8:6e-10", "is not a valid grid: two points round to 1e-09 at 9 decimals"),
        ("--grid", "grid", "0:100:1e-6", "is not a valid grid: more than 10,000 points"),
    ])
    def test_range_and_grid_errors_located(self, tmp_path, flag, key, value, problem, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text(f"[campaign]\n{key} = {value}\n")
        out = ["--out", str(tmp_path / "o")]
        assert main(["campaign", "--scenario", str(ini), *out]) == 1
        assert capsys.readouterr().err.startswith(f"error: {ini}: [campaign] {key} = '{value}' {problem}")
        assert main(["campaign", flag, value, *out]) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} {value} {problem}")
        assert not (tmp_path / "o").exists()

    def test_out_naming_a_file_is_rejected_before_the_run(self, tmp_path, monkeypatch, capsys):
        def no_run(*args):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(cli, "run_campaign", no_run)
        taken = tmp_path / "taken"
        taken.write_text("")
        small = ["--grid", "5", "--reps", "2", "--receivers", "4"]
        assert main(["campaign", *small, "--out", str(taken)]) == 1
        assert capsys.readouterr().err == f"error: --out {taken}: File exists\n"
        ini = tmp_path / "s.ini"
        ini.write_text(f"[output]\ndir = {taken}\n")
        assert main(["campaign", *small, "--scenario", str(ini)]) == 1
        assert capsys.readouterr().err == f"error: {ini}: [output] dir = '{taken}': File exists\n"

    @pytest.mark.parametrize("name, earlier", [("gains.csv", "curve_h_qpsk.csv"), ("curve_h_qpsk.csv", "gains.csv")],
                             ids=["gains.csv", "curve_h_qpsk.csv"])
    def test_unwritable_report_located(self, scenario_dir, tmp_path, monkeypatch, name, earlier, capsys):
        # found before the run, and the other report file from an earlier
        # run keeps its bytes
        def no_run(*args):
            raise AssertionError("the campaign ran")

        monkeypatch.setattr(cli, "run_campaign", no_run)
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        (out / earlier).write_text("old\n")
        assert main(["campaign", "--scenario", str(scenario_dir / "scenario.ini"), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {out / name}: Is a directory\n")
        assert (out / earlier).read_bytes() == b"old\n"

    def test_unknown_family_is_validation_error(self, scenario_dir, capsys):
        code = main([
            "campaign", "--scenario", str(scenario_dir / "scenario.ini"), "--families", "h_psk8",
        ])
        assert code == 1

    @pytest.mark.parametrize("value,problem", [
        ("h_xyz", "names an unknown modulation family 'h_xyz'"),
        ("h_qpsk,h_xyz", "names an unknown modulation family 'h_xyz'"),
        ("h_psk8", "names family h_psk8, which has no entries in the loaded tables"),
        ("qpsk", "names family qpsk, which is not hierarchical"),
    ])
    def test_family_errors_located(self, tmp_path, value, problem, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text(f"[campaign]\nfamilies = {value}\n")
        out = ["--out", str(tmp_path / "o")]
        assert main(["campaign", "--scenario", str(ini), *out]) == 1
        assert capsys.readouterr().err == f"error: {ini}: [campaign] families = '{value}' {problem}\n"
        assert main(["campaign", "--families", value, *out]) == 1
        assert capsys.readouterr().err == f"error: --families {value} {problem}\n"
        assert not (tmp_path / "o").exists()
        assert main(["pair", "3", "12", "--scenario", str(ini)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {ini}: [campaign] families = '{value}' {problem}\n"
        assert captured.out == ""


class TestValidate:
    def test_shipped_data_passes_with_one_warning(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("WARNING") == 1
        assert "known anomaly" in out
        assert "OK" in out

    def test_table_named_twice_warns_once(self, tmp_path, capsys):
        ini = tmp_path / "twice.ini"
        ini.write_text("[tables]\nhierarchical = <packaged hqpsk_thresholds.csv>, <packaged hqpsk_thresholds.csv>\n")
        assert main(["validate", "--scenario", str(ini)]) == 0
        out = capsys.readouterr().out
        assert out.count("WARNING") == 1
        assert "tables: 226 entries, 1 warnings (1 known-anomaly, 1 manifest rows)\n" in out

    def test_decreasing_cdf_fails(self, scenario_dir, capsys):
        (scenario_dir / "wx.csv").write_text("attenuation_db,cum_prob\n0,0.9\n1,0.2\n2,1\n")
        assert main(["validate", "--scenario", str(scenario_dir / "scenario.ini")]) == 1

    def test_non_finite_cdf_fails(self, scenario_dir, capsys):
        # a NaN quantile would count as above every threshold
        wx = scenario_dir / "wx.csv"
        wx.write_text("attenuation_db,cum_prob\n0,0\nnan,0.5\n2,1\n")
        message = f"weather CDF: {wx}: line 3: non-finite value\n"
        assert main(["validate", "--scenario", str(scenario_dir / "scenario.ini")]) == 1
        assert capsys.readouterr().err == f"FAIL: {message}"
        assert main(["campaign", "--scenario", str(scenario_dir / "scenario.ini")]) == 1
        assert capsys.readouterr().err.endswith(message)
        assert not (scenario_dir / "out").exists()

    def test_missing_baseline_fails(self, scenario_dir, capsys):
        ini = (scenario_dir / "scenario.ini").read_text().replace(
            str(packaged_data_path("dvbs2_single.csv")), "does_not_exist.csv"
        )
        (scenario_dir / "scenario.ini").write_text(ini)
        assert main(["validate", "--scenario", str(scenario_dir / "scenario.ini")]) == 1

    @pytest.mark.parametrize("value,problem", [
        ("h_xyz", "names an unknown modulation family 'h_xyz'"),
        ("h_psk8", "names family h_psk8, which has no entries in the loaded tables"),
        ("qpsk", "names family qpsk, which is not hierarchical"),
    ])
    def test_family_errors_fail(self, tmp_path, value, problem, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text(f"[campaign]\nfamilies = {value}\n")
        assert main(["validate", "--scenario", str(ini)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"FAIL: {ini}: [campaign] families = '{value}' {problem}\n"
        assert main(["validate", "--families", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"FAIL: --families {value} {problem}\n"

    def test_tables_without_a_hierarchical_family_fail(self, tmp_path, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text("[tables]\nhierarchical = <packaged dvbs2_single.csv>\n")
        problem = "selects no family: the loaded tables have no hierarchical family"
        assert main(["validate", "--scenario", str(ini)]) == 1
        assert capsys.readouterr() == ("", f"FAIL: {ini}: [campaign] families = 'all' {problem}\n")
        assert main(["validate", "--scenario", str(ini), "--families", "combined"]) == 1
        assert capsys.readouterr() == ("", f"FAIL: --families combined {problem}\n")

    @pytest.mark.parametrize("kind,prefix", [
        ("scenario", ""), ("baseline", "threshold tables: "), ("hierarchical", "threshold tables: "),
        ("weather", "weather CDF: "),
    ], ids=["scenario", "baseline", "hierarchical", "weather"])
    def test_file_that_is_not_utf8_located(self, scenario_dir, kind, prefix, capsys):
        ini = scenario_dir / "scenario.ini"
        baseline = scenario_dir / "single.csv"
        baseline.write_bytes(packaged_data_path("dvbs2_single.csv").read_bytes())
        ini.write_text(ini.read_text().replace(str(packaged_data_path("dvbs2_single.csv")), baseline.name))
        path = {"scenario": ini, "baseline": baseline, "hierarchical": scenario_dir / "hq08.csv",
                "weather": scenario_dir / "wx.csv"}[kind]
        path.write_bytes(path.read_bytes() + b"\xff\n")
        message = f"{prefix}{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position "
        assert main(["validate", "--scenario", str(ini)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"FAIL: {message}")
        assert main(["campaign", "--scenario", str(ini)]) == 1
        assert capsys.readouterr() == ("", captured.err.replace("FAIL:", "error:", 1))
        assert not (scenario_dir / "out").exists()

    def test_files_with_a_byte_order_mark_load(self, scenario_dir, capsys):
        """Every file a scenario reads may start with a UTF-8 byte-order mark,
        as editors on Windows write it; validate reads the same scenario."""
        ini = scenario_dir / "scenario.ini"
        baseline = scenario_dir / "single.csv"
        baseline.write_bytes(packaged_data_path("dvbs2_single.csv").read_bytes())
        ini.write_text(ini.read_text().replace(str(packaged_data_path("dvbs2_single.csv")), baseline.name))
        assert main(["validate", "--scenario", str(ini)]) == 0
        expected = capsys.readouterr()
        for path in (ini, baseline, scenario_dir / "hq08.csv", scenario_dir / "wx.csv"):
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(["validate", "--scenario", str(ini)]) == 0
        assert capsys.readouterr() == expected

    def test_missing_scenario_file(self, capsys):
        assert main(["validate", "--scenario", "/nonexistent/s.ini"]) == 1

    # Tables that load but fail validate: no single-stream entries, and a
    # rho_he pattern warning (HE should fall as rho_he rises) that the
    # known-anomalies manifest does not name.
    @pytest.mark.parametrize("tables,rows,problem", [
        ("baseline = <packaged hqpsk_thresholds.csv>", None,
         "no single-stream baseline entries; campaigns cannot run"),
        ("hierarchical = hq.csv", ["h_qpsk,0.6,HE,1/2,1.0", "h_qpsk,0.6,LE,1/2,5.0",
                                   "h_qpsk,0.7,HE,1/2,2.0", "h_qpsk,0.7,LE,1/2,6.0"],
         "1 warnings outside the known-anomalies manifest"),
    ], ids=["no_single_stream", "unknown_warning"])
    def test_tables_that_fail_validation(self, tmp_path, tables, rows, problem, capsys):
        if rows:
            (tmp_path / "hq.csv").write_text("\n".join(["family,rho_he,stream,code_rate,threshold_db", *rows]) + "\n")
        ini = tmp_path / "s.ini"
        ini.write_text(f"[tables]\n{tables}\n")
        assert main(["validate", "--scenario", str(ini)]) == 1
        captured = capsys.readouterr()
        assert "tables: " in captured.out and "OK" not in captured.out.splitlines()
        assert captured.err == f"FAIL: {problem}\n"


class TestScenario:
    NO_FLAGS = argparse.Namespace()

    def test_default_text_as_a_file_loads_the_default_scenario(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text(cli.DEFAULT_SCENARIO)
        from_file = cli.load_scenario(str(ini), self.NO_FLAGS)
        default = cli.load_scenario(None, self.NO_FLAGS)
        for f in dataclasses.fields(cli.Scenario):
            ours, theirs = getattr(from_file, f.name), getattr(default, f.name)
            if f.name == "tables":
                assert (table_entries(ours), ours.warnings) == (table_entries(theirs), theirs.warnings)
            elif f.name == "weather":
                assert np.array_equal(ours.attenuation_db, theirs.attenuation_db)
                assert np.array_equal(ours.cum_prob, theirs.cum_prob)
            elif f.name != "out_where":
                assert ours == theirs, f.name
        assert from_file.out_where == f"{ini}: [output] dir = 'out'"
        assert default.out_where == "default scenario: [output] dir = 'out'"
        assert default.baseline_path == packaged_data_path("dvbs2_single.csv")
        assert default.campaign.families == (Family.H_APSK32, Family.H_QPSK)
        assert not default.campaign.combined

    @pytest.mark.parametrize("text,problem", [
        ("[campaign]\nrecievers = 10\n",
         "[campaign] recievers is not a scenario key; "
         "[campaign] takes grid, receivers, repetitions, families, seed, workers"),
        ("[campaign]\ncombined = on\n",
         "[campaign] combined is not a scenario key; "
         "[campaign] takes grid, receivers, repetitions, families, seed, workers"),
        ("[antenna]\ndiameter_m = 2\nedge_level = 3\n",
         "[antenna] edge_level is not a scenario key; [antenna] takes diameter_m, frequency_hz, edge_level_db"),
        ("[antena]\n",
         "[antena] is not a scenario section; the sections are tables, antenna, weather, campaign, output"),
        ("[DEFAULT]\nseed = 3\n", "[DEFAULT] seed is not a scenario key; [DEFAULT] takes none"),
    ], ids=["misspelled_key", "combined_key", "second_key", "misspelled_section", "default_section"])
    def test_unknown_section_or_key_located(self, tmp_path, text, problem, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text(text)
        with pytest.raises(cli.ScenarioError) as exc:
            cli.load_scenario(str(ini), self.NO_FLAGS)
        assert str(exc.value) == f"{ini}: {problem}"
        assert main(["validate", "--scenario", str(ini)]) == 1
        assert capsys.readouterr() == ("", f"FAIL: {ini}: {problem}\n")
        out = tmp_path / "o"
        campaign = ["campaign", "--grid", "5", "--reps", "2", "--receivers", "8", "--out", str(out)]
        for argv in (["pair", "3", "12"], campaign):
            assert main([*argv, "--scenario", str(ini)]) == 1
            assert capsys.readouterr() == ("", f"error: {ini}: {problem}\n")
        assert not out.exists()

    @pytest.mark.parametrize("text,points", [
        ("1:16:0.5", [round(1 + 0.5 * k, 9) for k in range(31)]),
        ("-2.4:-1.5:0.05", [round(-2.4 + 0.05 * k, 9) for k in range(19)]),
        ("1:16:5", [1.0, 6.0, 11.0, 16.0]),
        ("-2.4:-1.5:0.3", [-2.4, -2.1, -1.8, -1.5]),
        ("0:1e-9:1e-9", [0.0, 1e-9]),
        ("0:0.3:0.1", [0.0, 0.1, 0.2, 0.3]),
        ("7.25", [7.25]),
    ])
    def test_grid_points(self, text, points):
        assert cli._parse_grid(text, "--grid") == tuple(points)

    def test_grid_point_bound(self):
        assert cli._MAX_GRID_POINTS == 10_000
        assert cli._parse_grid("0:9999:1", "--grid") == tuple(float(k) for k in range(10_000))
        for text in ("0:10000:1", "-5:5:0.001", "0:100:1e-6", "0:1e300:1"):
            with pytest.raises(cli.ScenarioError, match=r"^\[campaign\] grid is not a valid grid: more than 10,000 points$"):
                cli._parse_grid(text, "[campaign] grid")

    @pytest.mark.parametrize("section,key,value,problem", [
        ("tables", "baseline", "a.csv, b.csv", "names 2 paths, expected exactly one"),
        ("tables", "baseline", "", "names 0 paths, expected exactly one"),
        ("weather", "cdf", ",", "names 0 paths, expected exactly one"),
        ("tables", "hierarchical", ",", "names 0 paths, expected at least one"),
    ])
    def test_path_count_errors_located(self, tmp_path, section, key, value, problem, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        assert main(["pair", "3", "12", "--scenario", str(ini)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {ini}: [{section}] {key} = {value!r} {problem}\n"
        assert captured.out == ""

    def test_packaged_and_relative_paths(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text(
            "[tables]\nhierarchical = <packaged hqpsk_thresholds.csv>, hq.csv\n"
            f"[weather]\ncdf = {packaged_data_path('weather_cdf_sample.csv')}\n"
        )
        (tmp_path / "hq.csv").write_text(packaged_data_path("h32apsk_thresholds.csv").read_text())
        scenario = cli.load_scenario(str(ini), self.NO_FLAGS)
        expected = (packaged_data_path("hqpsk_thresholds.csv"), (tmp_path / "hq.csv").resolve())
        assert scenario.hierarchical_paths == expected

    @pytest.mark.parametrize("text,problem", [
        ("grid = 3\n", "File contains no section headers. file: '{ini}', line: 1 'grid = 3\\n'"),
        ("[campaign]\ngrid = 3\ngrid = 4\n",
         "While reading from '{ini}' [line 3]: option 'grid' in section 'campaign' already exists"),
    ], ids=["no_section_header", "duplicate_key"])
    def test_malformed_file_located(self, tmp_path, text, problem, capsys):
        ini = tmp_path / "s.ini"
        ini.write_text(text)
        assert main(["validate", "--scenario", str(ini)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"FAIL: {problem.format(ini=ini)}\n"
        assert main(["pair", "3", "12", "--scenario", str(ini)]) == 1
        assert capsys.readouterr().err == f"error: {problem.format(ini=ini)}\n"

    def test_percent_in_a_path_is_literal(self, tmp_path):
        (tmp_path / "wx%1.csv").write_text("attenuation_db,cum_prob\n0,0\n2,1\n")
        ini = tmp_path / "s.ini"
        ini.write_text("[weather]\ncdf = wx%1.csv\n")
        scenario = cli.load_scenario(str(ini), self.NO_FLAGS)
        assert scenario.weather_path == (tmp_path / "wx%1.csv").resolve()
        assert list(scenario.weather.attenuation_db) == [0.0, 2.0]


class TestClosedStdout:
    """A reader that closes standard output early (``hmsim ... | head``)
    ends the command quietly with exit code 0."""

    def test_broken_pipe_exits_zero_and_silences_stdout(self, scenario_dir, tmp_path, monkeypatch, capsys):
        sink = tmp_path / "stdout"

        class ClosedPipe(io.TextIOBase):
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def fileno(self):
                return self.fd

        fd = os.open(sink, os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
            argv = ["campaign", "--scenario", str(scenario_dir / "scenario.ini"), "--out", str(tmp_path / "o")]
            assert main(argv) == 0
            os.write(fd, b"flushed at exit")  # now lands in devnull
        finally:
            os.close(fd)
        assert capsys.readouterr().err == ""
        assert sink.read_bytes() == b""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_pipe_in_a_process(self, scenario_dir, tmp_path, unbuffered):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails with EPIPE
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(p for p in [str(Path(hmsim.__file__).parents[1]), env.get("PYTHONPATH")] if p)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        try:
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from hmsim.cli import main; sys.exit(main())", "campaign",
                 "--scenario", str(scenario_dir / "scenario.ini"), "--out", str(tmp_path / "o")],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")
