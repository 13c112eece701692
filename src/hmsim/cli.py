"""Command-line front end.

Subcommands:

* ``rho``       - print HE energy fractions for constellation parameters
* ``pair``      - solve one receiver pair (rates, gain, schedule, hull dump)
* ``campaign``  - run a Monte Carlo gain campaign and write CSV reports
* ``validate``  - check scenario, tables and weather CDF; report anomalies

Configuration comes in three layers, each read over the one before:
``DEFAULT_SCENARIO`` below, the only place that states a default; the INI
file given by ``--scenario``, in which every section and key is optional;
and the campaign flags, each of which overrides one ``[campaign]`` or
``[output]`` key. A path in ``[tables]`` or ``[weather]`` is relative to
the scenario file, or ``<packaged NAME>`` for the data file NAME shipped
with the package. ``hierarchical`` takes a comma list of paths,
``baseline`` and ``cdf`` exactly one.

Exit codes: 0 success; 1 bad input, which includes a usage error (an
unknown flag, a missing argument), an invalid scenario, table or value,
and a failed ``validate``; 2 an unexpected runtime error. ``--help``
exits 0. A reader that closes standard output early (``hmsim campaign |
head``) is not an error: the command stops writing and exits 0 with
nothing on standard error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from . import constellations as geom
from .beam import AntennaConfig, WeatherCdf
from .campaign import COMBINED, CampaignConfig, curve_csv_text, gains_csv_text, run_campaign
from .modcod import (
    Family,
    TableParseError,
    TableValidationError,
    ThresholdTable,
    load_anomaly_manifest,
    load_threshold_csv,
    packaged_data_path,
)
from .rateopt import achievable_pairs, pair_solution, rate_region_hull

DEFAULT_SCENARIO = """\
[tables]
baseline = <packaged dvbs2_single.csv>
hierarchical = <packaged hqpsk_thresholds.csv>, <packaged h32apsk_thresholds.csv>

[antenna]
diameter_m = 1.5
frequency_hz = 20e9
edge_level_db = 4

[weather]
cdf = <packaged weather_cdf_sample.csv>

[campaign]
grid = 1:16:0.5
receivers = 500
repetitions = 100
families = all
combined = false
seed = 1
workers = 1

[output]
dir = out
"""


class ScenarioError(ValueError):
    pass


@dataclass
class Scenario:
    baseline_path: Path
    hierarchical_paths: tuple[Path, ...]
    antenna: AntennaConfig
    weather_path: Path
    grid: tuple[float, ...]
    receivers: int
    repetitions: int
    families_spec: str
    families_where: str  # the INI key or flag families_spec came from, for messages
    combined: bool
    seed: int
    workers: int
    out_dir: Path
    out_where: str  # the INI key or flag out_dir came from, for messages
    tables: ThresholdTable = field(init=False, repr=False)
    weather: WeatherCdf = field(init=False, repr=False)

    def load_data(self):
        """Load and validate every referenced file; ScenarioError on failure."""
        try:
            anomalies = load_anomaly_manifest()
            table = load_threshold_csv(self.baseline_path, anomalies)
            for path in self.hierarchical_paths:
                table = table.merged_with(load_threshold_csv(path, anomalies))
        except (OSError, TableParseError, TableValidationError) as exc:
            raise ScenarioError(f"threshold tables: {exc}") from exc
        try:
            self.weather = WeatherCdf.from_csv(self.weather_path)
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"weather CDF: {exc}") from exc
        self.tables = table

    def campaign_families(self) -> tuple[tuple[Family, ...], bool]:
        """The requested families and the combined flag; ScenarioError,
        naming the INI key or flag, for a family that is unknown, is not
        hierarchical or has no entries in the loaded tables."""
        tokens = [t.strip() for t in self.families_spec.split(",") if t.strip()]
        combined = self.combined
        loaded = self.tables.families()
        families: list[Family] = []
        for token in tokens:
            if token == "all":
                families.extend(s.family for s in self.tables.hierarchical_schemes())
            elif token == COMBINED:
                combined = True
            else:
                try:
                    family = Family.from_token(token)
                except ValueError:
                    raise ScenarioError(f"{self.families_where} names an unknown modulation family {token!r}") from None
                if not family.hierarchical:
                    raise ScenarioError(f"{self.families_where} names family {token}, which is not hierarchical")
                if family not in loaded:
                    raise ScenarioError(
                        f"{self.families_where} names family {token}, which has no entries in the loaded tables"
                    )
                families.append(family)
        seen = []
        for fam in families:
            if fam not in seen:
                seen.append(fam)
        return tuple(seen), combined

    def campaign_config(self) -> CampaignConfig:
        families, combined = self.campaign_families()
        return CampaignConfig(
            snr_max_grid=self.grid,
            receivers=self.receivers,
            repetitions=self.repetitions,
            families=families,
            combined=combined,
            master_seed=self.seed,
            workers=self.workers,
        )


def _parse_grid(text: str, where: str) -> tuple[float, ...]:
    """Grid points of 'start:stop:step' or a single value; ``where`` names
    the INI key or flag the text came from, for the error message."""
    bad_spec = ScenarioError(f"{where} is not a valid grid: expected 'start:stop:step' or a single value")
    try:
        numbers = [float(part) for part in text.strip().split(":")]
    except ValueError:
        raise bad_spec from None
    for value in numbers:
        if not math.isfinite(value):
            raise ScenarioError(f"{where} is not a valid grid: {value} is not a finite number")
    if len(numbers) == 1:
        return (numbers[0],)
    if len(numbers) != 3:
        raise bad_spec
    start, stop, step = numbers
    if step <= 0 or stop < start:
        raise bad_spec
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9:
            break
        values.append(round(v, 9))
        k += 1
    return tuple(values)


def _parse_bool(text: str) -> bool:
    """configparser's boolean words: 1/yes/true/on and 0/no/false/off."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(text) from None


_PARSERS = {"int": int, "float": float, "bool": _parse_bool}


# The campaign flag, without its dashes, that overrides each INI key.
_FLAGS = {"grid": "grid", "receivers": "receivers", "repetitions": "reps", "families": "families",
          "seed": "seed", "workers": "workers", "dir": "out"}


def load_scenario(path: Optional[str], overrides: argparse.Namespace) -> Scenario:
    """Load ``DEFAULT_SCENARIO``, then the scenario file over it, then the
    flags in ``overrides`` over both, and load the data files."""
    # No interpolation: a % in a value (a path, say) is a literal character.
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(DEFAULT_SCENARIO)
    base = Path(".")
    source = "default scenario"
    if path is not None:
        file = Path(path)
        if not file.is_file():
            raise ScenarioError(f"scenario file not found: {file}")
        try:
            parser.read(str(file))
        except configparser.Error as exc:
            # A missing section header or a duplicate key; configparser's
            # message names the file and the line, over several lines.
            raise ScenarioError(" ".join(str(exc).split())) from None
        base = file.parent
        source = str(file)
    # A subcommand without the campaign flags (``pair``) has no such fields.
    flag_value = vars(overrides).get

    def text(section, option) -> tuple[str, str]:
        """A key's text and where it came from: its flag or its INI key."""
        flag = _FLAGS.get(option)
        if flag and flag_value(flag) is not None:
            value = str(flag_value(flag))
            return value, f"--{flag} {value}"
        value = parser.get(section, option)
        return value, f"{source}: [{section}] {option} = {value!r}"

    def setting(section, option, kind="float", minimum=None):
        raw, where = text(section, option)
        try:
            value = _PARSERS[kind](raw)
        except ValueError:
            raise ScenarioError(f"{where} is not a valid {kind}") from None
        if minimum is not None and value < minimum:
            raise ScenarioError(f"{where} is below the minimum of {minimum}")
        return value

    def paths(section, option, single=False) -> tuple[Path, ...]:
        """The comma list of paths a key names, each relative to the
        scenario file or ``<packaged NAME>``; exactly one if ``single``."""
        value, where = text(section, option)
        items = [item.strip() for item in value.split(",") if item.strip()]
        if len(items) != 1 and (single or not items):
            raise ScenarioError(
                f"{where} names {len(items)} paths, expected {'exactly' if single else 'at least'} one"
            )
        packaged = [re.fullmatch(r"<packaged (.+)>", item) for item in items]
        return tuple(packaged_data_path(m[1]) if m else (base / item).resolve() for item, m in zip(items, packaged))

    antenna_fields = {key: setting("antenna", key) for key in ("diameter_m", "frequency_hz", "edge_level_db")}
    try:
        antenna = AntennaConfig(**antenna_fields)
    except ValueError as exc:
        raise ScenarioError(f"{source}: [antenna] {exc}") from None
    families_spec, families_where = text("campaign", "families")
    out_text, out_where = text("output", "dir")
    scenario = Scenario(
        baseline_path=paths("tables", "baseline", single=True)[0],
        hierarchical_paths=paths("tables", "hierarchical"),
        antenna=antenna,
        weather_path=paths("weather", "cdf", single=True)[0],
        grid=_parse_grid(*text("campaign", "grid")),
        receivers=setting("campaign", "receivers", "int", 2),
        repetitions=setting("campaign", "repetitions", "int", 1),
        families_spec=families_spec,
        families_where=families_where,
        combined=setting("campaign", "combined", "bool"),
        seed=setting("campaign", "seed", "int", 0),
        workers=setting("campaign", "workers", "int", 1),
        out_dir=Path(out_text),
        out_where=out_where,
    )
    scenario.load_data()
    return scenario


def cmd_rho(args) -> int:
    chosen = [name for name in ("hqpsk", "h8psk", "h32apsk") if getattr(args, name)]
    if args.table:
        if args.table == "hqpsk":
            print("rho_he theta_deg cos2(theta)")
            for rho, theta in geom.ADOPTED_QPSK_SPLITS.items():
                value = geom.qpsk_rho_he(geom.QpskParams(theta))
                print(f"{rho:<6g} {theta:<9g} {value:.4f}")
        else:
            print("rho_he gamma1 gamma2 theta_deg computed")
            for rho, (g1, g2, theta) in geom.ADOPTED_APSK32_TRIPLES.items():
                value = geom.apsk32_rho_he(geom.Apsk32Params(g1, g2, theta))
                print(f"{rho:<6g} {g1:<6g} {g2:<6g} {theta:<9g} {value:.4f}")
        return 0
    if len(chosen) != 1:
        print("error: pick exactly one of --hqpsk/--h8psk/--h32apsk (or --table)", file=sys.stderr)
        return 1
    try:
        if args.hqpsk:
            if args.theta is None:
                raise ValueError("--theta required")
            value = geom.qpsk_rho_he(geom.QpskParams(args.theta))
        elif args.h8psk:
            if args.theta is None:
                raise ValueError("--theta required")
            value = geom.psk8_rho_he(geom.Psk8Params(args.theta))
        else:
            if None in (args.g1, args.g2, args.theta):
                raise ValueError("--g1, --g2 and --theta required")
            value = geom.apsk32_rho_he(geom.Apsk32Params(args.g1, args.g2, args.theta))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"rho_he = {value:.4f}")
    return 0


def cmd_pair(args) -> int:
    for snr in (args.snr1, args.snr2):
        if not math.isfinite(snr):
            raise ScenarioError(f"SNR {snr} dB is not a finite number")
    scenario = load_scenario(args.scenario, args)
    snr_weak, snr_strong = sorted((args.snr1, args.snr2))
    table = scenario.tables
    solution = pair_solution(snr_weak, snr_strong, table)
    if args.dump_hull:
        lines = ["r1,r2,configuration"]
        for p in rate_region_hull(achievable_pairs(snr_weak, snr_strong, table)):
            desc = p.describe().split(" via ", 1)[1]
            lines.append(f"{p.r1:.10g},{p.r2:.10g},\"{desc}\"")
        try:
            Path(args.dump_hull).write_text("\n".join(lines) + "\n")
        except OSError as exc:
            raise ScenarioError(f"--dump-hull {args.dump_hull}: {exc.strerror}") from None

    for label, snr in (("weak", snr_weak), ("strong", snr_strong)):
        best = table.best_single(snr)
        state = str(best) if best else "OUTAGE (no decodable single modcod)"
        print(f"{label:>6} receiver {snr:g} dB: {state}")
    print(f"r_ts  = {solution.r_ts:.6f} bit/s/Hz (classical time sharing)")
    print(f"r_hm  = {solution.r_hm:.6f} bit/s/Hz (hierarchical time sharing)")
    gain = solution.gain
    print(f"gain  = {gain if gain != float('inf') else 'inf (zero baseline)'}")
    share = solution.schedule
    if share.point_a == share.point_b:
        print(f"schedule: serve {share.point_a.describe()} full time")
    else:
        print(
            f"schedule: {share.tau:.4f} of time on {share.point_a.describe()}, "
            f"rest on {share.point_b.describe()}"
        )
    if args.dump_hull:
        print(f"hull vertices written to {args.dump_hull}")
    return 0


def cmd_campaign(args) -> int:
    scenario = load_scenario(args.scenario, args)
    cfg = scenario.campaign_config()
    out = scenario.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"{scenario.out_where}: {exc.strerror}") from None
    report = run_campaign(cfg, scenario.tables, scenario.antenna, scenario.weather)
    gains = out / "gains.csv"
    gains.write_text(gains_csv_text(report))
    for token in report.family_tokens:
        (out / f"curve_{token}.csv").write_text(curve_csv_text(report, token))
    total_excluded = sum(s.total_outage_runs for s in report.outage.values())
    worst_outage = max(s.max_count for s in report.outage.values())
    print(f"wrote {gains} ({len(report.config.snr_max_grid)} grid points x {len(report.family_tokens)} curves)")
    print(f"runs excluded for total outage: {total_excluded}; worst per-run outage count: {worst_outage}")
    return 0


def cmd_validate(args) -> int:
    try:
        scenario = load_scenario(args.scenario, args)
    except ScenarioError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    warnings = scenario.tables.warnings
    for w in warnings:
        print(w)
    anomalies = load_anomaly_manifest()
    hits = [w for w in warnings if w.known_anomaly]
    print(f"tables: {len(scenario.tables)} entries, {len(warnings)} warnings "
          f"({len(hits)} known-anomaly, {len(anomalies)} manifest rows)")
    print(f"weather CDF: {len(scenario.weather.cum_prob)} points, max attenuation "
          f"{scenario.weather.attenuation_db[-1]:g} dB")
    if scenario.tables.lowest_single_threshold() is None:
        print("FAIL: no single-stream baseline entries; campaigns cannot run", file=sys.stderr)
        return 1
    try:
        scenario.campaign_families()
    except ScenarioError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    unknown = [w for w in warnings if not w.known_anomaly]
    if unknown:
        print(f"FAIL: {len(unknown)} warnings outside the known-anomalies manifest", file=sys.stderr)
        return 1
    print("OK")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error exits 1, like any other bad input, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="hmsim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p):
        p.add_argument("--scenario", metavar="PATH", help="scenario INI file")
        p.add_argument("--seed", type=int, metavar="N")
        p.add_argument("--receivers", type=int, metavar="N")
        p.add_argument("--reps", type=int, metavar="N")
        p.add_argument("--grid", metavar="A:B:STEP")
        p.add_argument("--families", metavar="LIST", help="comma list of family tokens, 'all' and/or 'combined'")
        p.add_argument("--out", metavar="DIR")
        p.add_argument("--workers", type=int, metavar="N")

    p_rho = sub.add_parser("rho", help="HE energy fraction of a constellation")
    p_rho.add_argument("--hqpsk", action="store_true")
    p_rho.add_argument("--h8psk", action="store_true")
    p_rho.add_argument("--h32apsk", action="store_true")
    p_rho.add_argument("--theta", type=float)
    p_rho.add_argument("--g1", type=float)
    p_rho.add_argument("--g2", type=float)
    p_rho.add_argument("--table", choices=("hqpsk", "h32apsk"), help="print the adopted parameter table")
    p_rho.set_defaults(func=cmd_rho)

    p_pair = sub.add_parser("pair", help="solve one receiver pair")
    p_pair.add_argument("snr1", type=float)
    p_pair.add_argument("snr2", type=float)
    p_pair.add_argument("--scenario", metavar="PATH", help="scenario INI file")
    p_pair.add_argument("--dump-hull", metavar="PATH", help="write hull vertices as CSV")
    p_pair.set_defaults(func=cmd_pair)

    p_camp = sub.add_parser("campaign", help="run a Monte Carlo gain campaign")
    add_scenario_flags(p_camp)
    p_camp.set_defaults(func=cmd_campaign)

    p_val = sub.add_parser("validate", help="validate scenario data files")
    add_scenario_flags(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that the flush at exit does not
        # raise again on the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:  # a stdout without a file descriptor
            pass
        finally:
            os.close(devnull)
        return 0
    except ValueError as exc:  # ScenarioError and the table errors among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - unexpected runtime failures
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
