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
``baseline`` and ``cdf`` exactly one. A section or key that
``DEFAULT_SCENARIO`` lacks, one under ``[DEFAULT]`` included, is an error
naming the file, the section and the key. ``families`` takes a comma list
of tokens: hierarchical families (``h_qpsk``, ``h_apsk32``, ...); ``all``,
every hierarchical family in the tables; and ``combined``, one more curve
for all the chosen families together, the only switch for that curve
(there is no ``combined`` key). A list naming no family, empty or
``combined`` alone, means ``all``.

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
seed = 1
workers = 1

[output]
dir = out
"""


class ScenarioError(ValueError):
    pass


def _write(path: Path, text: str, where: str = "", mode: str = "w") -> None:
    """Write an output file, opened in ``mode``; a failure is a ScenarioError
    located by ``where`` or ``path``."""
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise ScenarioError(f"{where or path}: {exc.strerror}") from None


@dataclass
class Scenario:
    """A loaded scenario: its data files, read and checked, and its settings."""

    baseline_path: Path
    hierarchical_paths: tuple[Path, ...]
    weather_path: Path
    tables: ThresholdTable = field(repr=False)
    weather: WeatherCdf = field(repr=False)
    antenna: AntennaConfig
    campaign: CampaignConfig
    out_dir: Path
    out_where: str  # the INI key or flag out_dir came from, for messages

    def campaign_config(self) -> CampaignConfig:
        """The campaign the scenario describes, ``campaign``."""
        return self.campaign


# Most points a grid range may have: a mistyped step must fail at once,
# not build millions of points.
_MAX_GRID_POINTS = 10_000


def _parse_grid(text: str, where: str) -> tuple[float, ...]:
    """Grid points of 'start:stop:step' or a single value; ``where`` names
    the INI key or flag the text came from, for the error message. A range
    is start + k * step, k = 0, 1, ..., rounded to 9 decimals, up to the
    stop rounded likewise; two equal points, or more than
    ``_MAX_GRID_POINTS`` of them, are an error."""
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
    values, k = [], 0
    while (v := round(start + k * step, 9)) <= round(stop, 9):
        if values and v == values[-1]:
            raise ScenarioError(f"{where} is not a valid grid: two points round to {v:g} at 9 decimals")
        if len(values) == _MAX_GRID_POINTS:
            raise ScenarioError(f"{where} is not a valid grid: more than {_MAX_GRID_POINTS:,} points")
        values.append(v)
        k += 1
    return tuple(values)


def _resolve_families(text: str, where: str, tables: ThresholdTable) -> tuple[tuple[Family, ...], bool]:
    """The families a comma list of tokens names, in order without repeats,
    and whether it names ``combined``. ``all``, or a list that names no
    family, is every hierarchical family in ``tables``. ScenarioError,
    located by ``where``, for a family that is unknown, is not hierarchical
    or has no entries in ``tables``, and for a list that comes to none."""
    loaded = tables.families()
    every = [fam for fam in loaded if fam.hierarchical]
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    families: dict[Family, None] = {}
    for token in tokens:
        if token == "all":
            families.update(dict.fromkeys(every))
        elif token != COMBINED:
            try:
                family = Family.from_token(token)
            except ValueError:
                raise ScenarioError(f"{where} names an unknown modulation family {token!r}") from None
            if not family.hierarchical:
                raise ScenarioError(f"{where} names family {token}, which is not hierarchical")
            if family not in loaded:
                raise ScenarioError(f"{where} names family {token}, which has no entries in the loaded tables")
            families[family] = None
    chosen = tuple(families) or tuple(every)
    if not chosen:
        raise ScenarioError(f"{where} selects no family: the loaded tables have no hierarchical family")
    return chosen, COMBINED in tokens


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
        known = {section: list(parser[section]) for section in parser.sections()}
        try:
            parser.read(str(file), "utf-8-sig")
        except configparser.Error as exc:
            # A missing section header or a duplicate key; configparser's
            # message names the file and the line, over several lines.
            raise ScenarioError(" ".join(str(exc).split())) from None
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{file}: not UTF-8 text: {exc}") from None
        base = file.parent
        source = str(file)
        # Only the sections and keys of DEFAULT_SCENARIO. configparser
        # copies the keys of [DEFAULT] into every section, so it takes none.
        for section in [parser.default_section, *parser.sections()]:
            if section not in known and section != parser.default_section:
                raise ScenarioError(f"{source}: [{section}] is not a scenario section; "
                                    f"the sections are {', '.join(known)}")
            allowed = known.get(section, [])
            for key in parser[section]:
                if key not in allowed:
                    raise ScenarioError(f"{source}: [{section}] {key} is not a scenario key; "
                                        f"[{section}] takes {', '.join(allowed) or 'none'}")
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

    def setting(section, option, kind=float, minimum=None):
        raw, where = text(section, option)
        try:
            value = kind(raw)
        except ValueError:
            raise ScenarioError(f"{where} is not a valid {kind.__name__}") from None
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
    baseline_path = paths("tables", "baseline", single=True)[0]
    hierarchical_paths = paths("tables", "hierarchical")
    weather_path = paths("weather", "cdf", single=True)[0]
    grid = _parse_grid(*text("campaign", "grid"))
    receivers = setting("campaign", "receivers", int, 2)
    repetitions = setting("campaign", "repetitions", int, 1)
    seed = setting("campaign", "seed", int, 0)
    workers = setting("campaign", "workers", int, 1)
    try:
        anomalies = load_anomaly_manifest()
        tables = load_threshold_csv(baseline_path, anomalies)
        for table_path in hierarchical_paths:
            tables = tables.merged_with(load_threshold_csv(table_path, anomalies))
    except (OSError, TableParseError, TableValidationError) as exc:
        raise ScenarioError(f"threshold tables: {exc}") from exc
    try:
        weather = WeatherCdf.from_csv(weather_path)
    except (OSError, ValueError) as exc:
        raise ScenarioError(f"weather CDF: {exc}") from exc
    families, combined = _resolve_families(*text("campaign", "families"), tables)
    out_text, out_where = text("output", "dir")
    return Scenario(
        baseline_path=baseline_path,
        hierarchical_paths=hierarchical_paths,
        weather_path=weather_path,
        tables=tables,
        weather=weather,
        antenna=antenna,
        campaign=CampaignConfig(
            snr_max_grid=grid,
            receivers=receivers,
            repetitions=repetitions,
            families=families,
            combined=combined,
            master_seed=seed,
            workers=workers,
        ),
        out_dir=Path(out_text),
        out_where=out_where,
    )


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
        _write(Path(args.dump_hull), "\n".join(lines) + "\n", f"--dump-hull {args.dump_hull}")

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
    out = scenario.out_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ScenarioError(f"{scenario.out_where}: {exc.strerror}") from None
    gains = out / "gains.csv"
    curves = {token: out / f"curve_{token}.csv" for token in scenario.campaign.family_tokens}
    # Every report file is created or checked before the run, so one that
    # cannot be written fails it at once; appending keeps what a file holds.
    for path in (gains, *curves.values()):
        _write(path, "", mode="a")
    report = run_campaign(scenario.campaign, scenario.tables, scenario.antenna, scenario.weather)
    _write(gains, gains_csv_text(report))
    for token, path in curves.items():
        _write(path, curve_csv_text(report, token))
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
    hits = [w for w in warnings if w.known_anomaly]
    print(f"tables: {len(scenario.tables)} entries, {len(warnings)} warnings "
          f"({len(hits)} known-anomaly, {len(load_anomaly_manifest())} manifest rows)")
    print(f"weather CDF: {len(scenario.weather.cum_prob)} points, max attenuation "
          f"{scenario.weather.attenuation_db[-1]:g} dB")
    if all(family.hierarchical for family in scenario.tables.families()):
        print("FAIL: no single-stream baseline entries; campaigns cannot run", file=sys.stderr)
        return 1
    unknown = [w for w in warnings if not w.known_anomaly]
    if unknown:
        print(f"FAIL: {len(unknown)} warnings outside the known-anomalies manifest", file=sys.stderr)
        return 1
    print("OK")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error exits 1, like any other bad input, not argparse's 2.

    argparse reads a token that starts with '-' as an option unless it is
    a negative number without an exponent. Here a token is a value when
    '-' is followed by a digit or by '.' and a digit, such as ``-1e1`` or
    the grid ``-2.4:-1.5:0.3``, or by inf, infinity or nan in any case."""

    _is_value = re.compile(r"-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE).match

    def _parse_optional(self, arg_string):
        if self._is_value(arg_string):
            return None  # argparse's answer for a value
        return super()._parse_optional(arg_string)

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
        p.add_argument("--workers", type=int, metavar="N",
                       help="most processes to run the campaign in; one for a campaign too small to pay for more")

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
