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

import pytest

import hmsim
from hmsim import cli
from hmsim.cli import main
from hmsim.modcod import Family, SchemeId, Stream, ThresholdTable, packaged_data_path, serialize_threshold_csv
from hmsim.rateopt import pair_solution


@pytest.fixture()
def scenario_dir(tmp_path):
    """Scenario with a tiny campaign plus custom table set: the shipped
    baseline and only the rho=0.8 hierarchical-QPSK scheme."""
    from hmsim.modcod import load_threshold_csv

    hq = load_threshold_csv(packaged_data_path("hqpsk_thresholds.csv"))
    sub = ThresholdTable({k: v for k, v in hq.entries().items() if k[0].rho_he == 0.8})
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

    @pytest.mark.parametrize("value,combined", [("ture", None), ("On", True), ("no", False), ("1", True)])
    def test_combined_takes_configparser_booleans(self, scenario_dir, tmp_path, value, combined, capsys):
        ini = scenario_dir / "scenario.ini"
        ini.write_text(ini.read_text().replace("seed = 9", f"seed = 9\nfamilies = h_qpsk\ncombined = {value}"))
        out = tmp_path / "o"
        code = main(["campaign", "--scenario", str(ini), "--grid", "3", "--out", str(out)])
        if combined is None:
            assert code == 1
            assert capsys.readouterr().err == f"error: {ini}: [campaign] combined = '{value}' is not a valid bool\n"
            assert not (out / "gains.csv").exists()
        else:
            assert code == 0
            assert (",combined," in (out / "gains.csv").read_text()) == combined

    @pytest.mark.parametrize("flag,key,value,problem", [
        ("--receivers", "receivers", "1", "is below the minimum of 2"),
        ("--reps", "repetitions", "0", "is below the minimum of 1"),
        ("--workers", "workers", "0", "is below the minimum of 1"),
        ("--seed", "seed", "-1", "is below the minimum of 0"),
        ("--grid", "grid", "1:x:2", "is not a valid grid: expected 'start:stop:step'"),
        ("--grid", "grid", "4:2:1", "is not a valid grid: expected 'start:stop:step'"),
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


class TestValidate:
    def test_shipped_data_passes_with_one_warning(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert out.count("WARNING") == 1
        assert "known anomaly" in out
        assert "OK" in out

    def test_decreasing_cdf_fails(self, scenario_dir, capsys):
        (scenario_dir / "wx.csv").write_text("attenuation_db,cum_prob\n0,0.9\n1,0.2\n2,1\n")
        assert main(["validate", "--scenario", str(scenario_dir / "scenario.ini")]) == 1

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
        assert "OK" not in captured.out
        assert captured.err == f"FAIL: {ini}: [campaign] families = '{value}' {problem}\n"
        assert main(["validate", "--families", value]) == 1
        captured = capsys.readouterr()
        assert "OK" not in captured.out
        assert captured.err == f"FAIL: --families {value} {problem}\n"

    def test_missing_scenario_file(self, capsys):
        assert main(["validate", "--scenario", "/nonexistent/s.ini"]) == 1


class TestScenario:
    NO_FLAGS = argparse.Namespace()

    def test_default_text_as_a_file_loads_the_default_scenario(self, tmp_path):
        ini = tmp_path / "s.ini"
        ini.write_text(cli.DEFAULT_SCENARIO)
        from_file = cli.load_scenario(str(ini), self.NO_FLAGS)
        default = cli.load_scenario(None, self.NO_FLAGS)
        located = {"families_where", "out_where"}
        for f in dataclasses.fields(cli.Scenario):
            if f.init and f.name not in located:
                assert getattr(from_file, f.name) == getattr(default, f.name), f.name
        assert from_file.families_where == f"{ini}: [campaign] families = 'all'"
        assert default.families_where == "default scenario: [campaign] families = 'all'"
        assert default.baseline_path == packaged_data_path("dvbs2_single.csv")

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
