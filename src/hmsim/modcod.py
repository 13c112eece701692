"""Decoding-threshold tables and modcod selection.

A threshold table maps (scheme, stream, code rate) to the minimum SNR in dB
at which that stream decodes. Tables are loaded from CSV files with the
schema

    family,rho_he,stream,code_rate,threshold_db

where ``family`` is one of the tokens below, ``rho_he`` is empty for
non-hierarchical rows, ``stream`` is HE, LE, SINGLE or the merged token
HE/LE (one row expanded to identical HE and LE entries), and ``code_rate``
is an exact rational ``p/q``. Thresholds are step functions of SNR: a
stream decodes iff SNR >= threshold (inclusive).

The shipped files live in ``hmsim/data``:

* ``dvbs2_single.csv`` - the non-hierarchical baseline: the required SNR of
  each DVB-S2 QPSK, 8PSK, 16APSK and 32APSK modcod (ETSI EN 302 307, normal
  FEC frames), SINGLE rows only;
* ``hqpsk_thresholds.csv`` - hierarchical QPSK, HE and LE thresholds for
  rho_he = 0.5 (merged HE/LE rows) to 0.9 in steps of 0.05, as printed in
  the source tables;
* ``h32apsk_thresholds.csv`` - hierarchical 32-APSK, HE and LE thresholds
  for rho_he = 0.7 to 0.9 in steps of 0.05, as printed in the source tables;
* ``known_anomalies.csv`` - the known-anomalies manifest, schema
  ``family,rho_he,stream,code_rate,note``: cells whose printed value breaks
  an expected monotonic pattern and is kept verbatim, so that
  ``load_threshold_csv`` reports them as warnings, not errors;
* ``weather_cdf_sample.csv`` - a sample weather-attenuation CDF for the
  beam model, schema ``attenuation_db,cum_prob`` (see ``hmsim.beam``).
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from importlib import resources
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Stream",
    "Family",
    "SchemeId",
    "ModcodChoice",
    "ThresholdTable",
    "ValidationIssue",
    "TableParseError",
    "TableValidationError",
    "DVBS2_CODE_RATES",
    "EFFICIENCY_UNITS",
    "load_threshold_csv",
    "load_anomaly_manifest",
    "serialize_threshold_csv",
    "signaling_bits",
    "packaged_data_path",
]


class _CodeRate(Fraction):
    """A Fraction that computes its hash once. The keys of a loaded table
    hold these, and Fraction's own hash redoes a Python-level modular
    inverse on every dict operation; the value is the same, so a plain
    Fraction still finds the key."""

    __slots__ = ("_hash",)

    def __new__(cls, numerator, denominator):
        self = super().__new__(cls, numerator, denominator)
        self._hash = Fraction.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


# The 11 LDPC code rates of DVB-S2 (normal FEC frames).
DVBS2_CODE_RATES = tuple(
    _CodeRate(p, q)
    for p, q in [(1, 4), (1, 3), (2, 5), (1, 2), (3, 5), (2, 3), (3, 4), (4, 5), (5, 6), (8, 9), (9, 10)]
)

# Every spectral efficiency bits x p/q is a whole number of 1/180 bit/s/Hz,
# since 180 is the lcm of the rate denominators: bits x p x (180 // q).
EFFICIENCY_UNITS = math.lcm(*(rate.denominator for rate in DVBS2_CODE_RATES))


class Stream(Enum):
    # Members are singletons that compare by identity, so the identity hash
    # (a C slot, unlike Enum's) is exact and keeps table keys cheap to hash.
    __hash__ = object.__hash__

    HE = "HE"
    LE = "LE"
    SINGLE = "SINGLE"


class Family(Enum):
    """Modulation family. ``bits`` is (he_bits, le_bits); non-hierarchical
    families put their total bits per symbol in the HE slot."""

    QPSK = ("qpsk", 2, 0)
    PSK8 = ("psk8", 3, 0)
    APSK16 = ("apsk16", 4, 0)
    APSK32 = ("apsk32", 5, 0)
    H_QPSK = ("h_qpsk", 1, 1)
    H_PSK8 = ("h_psk8", 2, 1)
    H_APSK16 = ("h_apsk16", 2, 2)
    H_APSK32 = ("h_apsk32", 2, 3)

    __hash__ = object.__hash__  # as for Stream

    def __init__(self, token: str, bits_he: int, bits_le: int):
        self.token = token
        self.default_bits_he = bits_he
        self.default_bits_le = bits_le

    @property
    def hierarchical(self) -> bool:
        return self.default_bits_le > 0

    @classmethod
    def from_token(cls, token: str) -> "Family":
        try:
            return _FAMILY_BY_TOKEN[token]
        except KeyError:
            raise ValueError(f"unknown modulation family {token!r}") from None


_FAMILY_BY_TOKEN = {fam.token: fam for fam in Family}

# (bits of a stream, efficiency units) -> the code rate giving that efficiency.
_RATE_BY_UNITS = {
    (bits, int(bits * rate * EFFICIENCY_UNITS)): rate
    for bits in {bits for fam in Family for bits in (fam.default_bits_he, fam.default_bits_le) if bits}
    for rate in DVBS2_CODE_RATES
}


@dataclass(frozen=True)
class SchemeId:
    """A concrete modulation scheme: a family plus, for hierarchical
    families, its energy split rho_he. Bit widths come from the family."""

    family: Family
    rho_he: Optional[float] = None

    def __post_init__(self):
        hierarchical = self.rho_he is not None
        if self.family.hierarchical != hierarchical:
            raise ValueError(f"family {self.family.token} requires rho_he={'set' if self.family.hierarchical else 'absent'}")
        if hierarchical and not 0.5 <= self.rho_he <= 0.9:
            raise ValueError(f"rho_he must be in [0.5, 0.9], got {self.rho_he}")
        # Every table-key operation hashes the scheme, so hash it once. The
        # value differs between processes (Family hashes by identity), so
        # __reduce__ rebuilds a pickled scheme instead of copying it.
        object.__setattr__(self, "_hash", hash((self.family, self.rho_he)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return SchemeId, (self.family, self.rho_he)

    def bits(self, stream: Stream) -> int:
        if stream is Stream.SINGLE:
            if self.rho_he is not None:
                raise ValueError(f"{self.token} is hierarchical; stream SINGLE does not apply")
            return self.family.default_bits_he
        if self.rho_he is None:
            raise ValueError(f"{self.token} is non-hierarchical; stream {stream.value} does not apply")
        return self.family.default_bits_he if stream is Stream.HE else self.family.default_bits_le

    @cached_property
    def token(self) -> str:
        if self.rho_he is None:
            return self.family.token
        return f"{self.family.token}[rho={self.rho_he:g}]"

    def sort_key(self):
        return (self.family.token, -1.0 if self.rho_he is None else self.rho_he)


@dataclass(frozen=True)
class ModcodChoice:
    scheme: SchemeId
    stream: Stream
    code_rate: Fraction

    @classmethod
    def from_units(cls, scheme: SchemeId, stream: Stream, units: int) -> "ModcodChoice":
        """The choice of this scheme and stream whose efficiency is units /
        EFFICIENCY_UNITS bit/s/Hz: there the efficiency fixes the code rate."""
        return cls(scheme, stream, _RATE_BY_UNITS[scheme.bits(stream), units])

    @cached_property
    def spectral_efficiency(self) -> float:
        """bits x code rate, rounded once from the exact ratio."""
        return float(self.scheme.bits(self.stream) * self.code_rate)

    def __str__(self) -> str:
        return f"{self.scheme.token}/{self.stream.value} {self.code_rate} ({self.spectral_efficiency:.4g} bit/s/Hz)"


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" or "warning"
    message: str
    known_anomaly: bool = False

    def __str__(self) -> str:
        tag = " [known anomaly]" if self.known_anomaly else ""
        return f"{self.severity.upper()}: {self.message}{tag}"


class TableParseError(ValueError):
    """Malformed threshold CSV; carries the offending line number."""


class TableValidationError(ValueError):
    """Structurally valid CSV whose contents violate a table invariant."""


AnomalyKey = tuple[str, Optional[float], str, Fraction]


def packaged_data_path(name: str) -> Path:
    """Path of a data file shipped inside the package."""
    return Path(resources.files("hmsim").joinpath("data", name))


def load_anomaly_manifest(path: Union[str, Path, None] = None) -> dict[AnomalyKey, str]:
    """Load the known-anomalies manifest (default: the shipped one).

    Each row names a table cell whose printed value is preserved verbatim
    even though it breaks an expected monotonic pattern. Keys are
    (family token, rho_he, stream, code rate).
    """
    if path is None:
        path = packaged_data_path("known_anomalies.csv")
    manifest: dict[AnomalyKey, str] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rho = float(row["rho_he"]) if row["rho_he"] else None
            key = (row["family"], rho, row["stream"], Fraction(row["code_rate"]))
            manifest[key] = row["note"]
    return manifest


# The canonical spelling of each DVB-S2 rate, so the common case is one
# dict lookup that returns the shared DVBS2_CODE_RATES object.
_RATE_BY_TEXT = {str(rate): rate for rate in DVBS2_CODE_RATES}


def _parse_rate(text: str, path: Path, line_no: int) -> Fraction:
    rate = _RATE_BY_TEXT.get(text)
    if rate is not None:
        return rate
    try:
        rate = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise TableParseError(f"{path}: line {line_no}: bad code_rate {text!r}: {exc}") from None
    if rate not in DVBS2_CODE_RATES:
        raise TableValidationError(f"{path}: line {line_no}: code rate {text} is not a DVB-S2 rate")
    return DVBS2_CODE_RATES[DVBS2_CODE_RATES.index(rate)]


_PrefixTable = tuple[list[float], list[ModcodChoice]]


def _prefix_best(rows: Iterable[tuple[float, str, Fraction, SchemeId, Stream]]) -> _PrefixTable:
    """(thresholds, best choices) of (threshold, scheme token, code rate,
    scheme, stream) rows sorted by threshold, then scheme token and code
    rate: entry k is the most efficient of the first k + 1 rows, the earlier
    row on ties. So the best choice decodable at an SNR is entry
    bisect_right(thresholds, snr) - 1."""
    thresholds: list[float] = []
    best_choice: list[ModcodChoice] = []
    # The running best efficiency as the exact ratio cur_num / cur_den, so
    # ties compare exactly (2 x 9/10 == 3 x 3/5).
    cur_num, cur_den, cur_choice = -1, 1, None
    for thr, _, rate, scheme, stream in sorted(rows, key=itemgetter(0, 1, 2)):
        num, den = scheme.bits(stream) * rate.numerator, rate.denominator
        if num * cur_den > cur_num * den:
            cur_num, cur_den = num, den
            cur_choice = ModcodChoice(scheme, stream, rate)
        thresholds.append(thr)
        best_choice.append(cur_choice)
    return thresholds, best_choice


class ThresholdTable:
    """Immutable map (scheme, stream, code rate) -> decoding threshold in dB.

    Construction keeps only the entries and the warnings. Each query
    structure is built on the first call that reads it and kept on the
    instance, so a table that is only loaded, merged, validated or pickled
    never builds one: the sorted scheme list, the cell edges, the prefix
    table that ``best_single`` bisects and three arrays indexed by cell (see
    ``cells``). ``cell_units``, the best single, HE and LE efficiencies as
    exact integers in 1/EFFICIENCY_UNITS bit/s/Hz, is the one per-cell
    record of best efficiencies, built from the entries; ``cell_inv``, the
    float reciprocals that the harmonic sums add, is derived from it; and
    ``pair_memo`` holds solved cell pairs. These are deterministic caches,
    so instances are safe to share across threads and processes: a race
    only repeats work.
    """

    def __init__(
        self,
        entries: Mapping[tuple[SchemeId, Stream, Fraction], float],
        warnings: Sequence[ValidationIssue] = (),
    ):
        self._entries = dict(entries)
        self.warnings = tuple(warnings)

    @cached_property
    def _schemes(self) -> list[SchemeId]:
        return sorted({scheme for scheme, _, _ in self._entries}, key=SchemeId.sort_key)

    @cached_property
    def _single_lookup(self) -> _PrefixTable:
        """One prefix table over every single-stream entry, so modcod
        selection is a single bisect with no dict lookups."""
        return _prefix_best(
            (thr, scheme.token, rate, scheme, stream)
            for (scheme, stream, rate), thr in self._entries.items()
            if stream is Stream.SINGLE
        )

    @cached_property
    def _edge_array(self) -> np.ndarray:
        return np.unique(np.fromiter(self._entries.values(), float, len(self._entries)))

    @cached_property
    def cell_inv(self) -> np.ndarray:
        """1 / (best single-modcod efficiency) per cell, and inf in a cell
        where no single modcod decodes: a receiver that gets nothing pins
        every harmonic sum it enters at rate 0."""
        # units / EFFICIENCY_UNITS is the exact ratio rounded once, so it is
        # the ModcodChoice.spectral_efficiency of the cell's best choice.
        with np.errstate(divide="ignore"):
            return 1.0 / (self.cell_units[:, 0] / EFFICIENCY_UNITS)

    @cached_property
    def cell_units(self) -> np.ndarray:
        """Best efficiencies per cell as exact integers in 1/EFFICIENCY_UNITS
        bit/s/Hz: an int64 array of shape (cells, 1 + 2 S) for the S
        ``hierarchical_schemes()``, 0 where nothing decodes. Column 0 is the
        best single modcod, columns 1..S the best HE stream of each scheme
        and columns S+1..2S its best LE stream. No efficiency exceeds 5 x
        9/10 bit/s/Hz, 810 units. This is the table's one per-cell record of
        best efficiencies: ``cell_inv``, ``achievable_pairs`` and
        ``rateopt.solve_cell_pairs`` all read it."""
        schemes, entries, n = self.hierarchical_schemes(), self._entries, len(self._entries)
        column = {(scheme, Stream.HE): 1 + i for i, scheme in enumerate(schemes)}
        column.update({(scheme, Stream.LE): 1 + len(schemes) + i for i, scheme in enumerate(schemes)})
        columns = np.fromiter((column.get((scheme, stream), 0) for scheme, stream, _ in entries), np.intp, n)
        units = np.fromiter(
            (scheme.bits(stream) * rate.numerator * (EFFICIENCY_UNITS // rate.denominator)
             for scheme, stream, rate in entries),
            np.int64,
            n,
        )
        # An entry decodes from the cell its threshold opens (thresholds are
        # table edges), so the best per cell is a running max down the cells.
        cells = np.searchsorted(self._edge_array, np.fromiter(entries.values(), float, n), side="right")
        grid = np.zeros((self._edge_array.size + 1, 1 + 2 * len(schemes)), dtype=np.int64)
        np.maximum.at(grid, (cells, columns), units)
        return np.maximum.accumulate(grid, axis=0)

    @cached_property
    def pair_memo(self) -> np.ndarray:
        """(weak cell, strong cell) -> a pair's hierarchical reciprocal term,
        NaN until ``rateopt.system_summaries`` has it solved."""
        n = self._edge_array.size + 1
        return np.full((n, n), np.nan)

    # -- basic container surface -------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def threshold(self, scheme: SchemeId, stream: Stream, rate: Fraction) -> float:
        return self._entries[(scheme, stream, rate)]

    def entries(self) -> dict[tuple[SchemeId, Stream, Fraction], float]:
        return dict(self._entries)

    def schemes(self) -> list[SchemeId]:
        return list(self._schemes)

    def hierarchical_schemes(self) -> list[SchemeId]:
        return [s for s in self._schemes if s.rho_he is not None]

    def families(self) -> list[Family]:
        return sorted({s.family for s in self._schemes}, key=lambda f: f.token)

    def lowest_single_threshold(self) -> Optional[float]:
        """Threshold (dB) of the most robust non-hierarchical modcod, or
        None without SINGLE rows: ``best_single(snr)`` is None exactly when a
        non-NaN snr is below it."""
        thresholds = self._single_lookup[0]
        return thresholds[0] if thresholds else None

    def subset(self, families: Iterable[Family]) -> "ThresholdTable":
        """Table restricted to the given families (warnings not re-derived)."""
        keep = set(families)
        sub = {k: v for k, v in self._entries.items() if k[0].family in keep}
        return ThresholdTable(sub, warnings=())

    def merged_with(self, other: "ThresholdTable") -> "ThresholdTable":
        entries = dict(self._entries)
        for key, thr in other._entries.items():
            if key in entries and entries[key] != thr:
                raise TableValidationError(f"conflicting thresholds for {key[0].token}/{key[1].value} {key[2]}")
            entries[key] = thr
        return ThresholdTable(entries, warnings=tuple(self.warnings) + tuple(other.warnings))

    # -- queries -------------------------------------------------------------------

    def best_single(self, snr_db: float) -> Optional[ModcodChoice]:
        """Best non-hierarchical modcod decodable at snr_db (one bisect)."""
        thresholds, choices = self._single_lookup
        k = bisect_right(thresholds, snr_db)
        return choices[k - 1] if k else None

    def cells(self, snrs_db) -> np.ndarray:
        """Cell of each SNR: the number of distinct table thresholds at or
        below it (NaN counts as above all of them, as in bisect_right).

        Every query of this table is a bisect_right on a list of its
        thresholds, which returns the same index for two SNRs in one cell,
        or a read of an array indexed by cell; so anything computed from such
        queries is a function of the cells."""
        return np.searchsorted(self._edge_array, snrs_db, side="right")

    def cell(self, snr_db: float) -> int:
        """Cell of one SNR (see ``cells``)."""
        return int(self.cells(snr_db))


def _validation_issues(
    entries: Mapping[tuple[SchemeId, Stream, Fraction], float],
    anomalies: Optional[Mapping[AnomalyKey, str]],
) -> list[ValidationIssue]:
    """Check monotonicity invariants.

    Thresholds must be strictly increasing in code rate for each
    (scheme, stream); violations are errors unless the cell appears in
    the known-anomalies manifest. Across schemes of one hierarchical
    family at a fixed rate, HE thresholds should fall and LE thresholds
    rise with rho_he; violations of that pattern are warnings only.
    """
    anomalies = anomalies or {}
    issues: list[ValidationIssue] = []

    by_column: dict[tuple[SchemeId, Stream], list[tuple[Fraction, float]]] = {}
    for (scheme, stream, rate), thr in entries.items():
        by_column.setdefault((scheme, stream), []).append((rate, thr))
    for (scheme, stream), cells in sorted(by_column.items(), key=lambda kv: (kv[0][0].sort_key(), kv[0][1].value)):
        by_rate = sorted(cells, key=itemgetter(0))  # rates are unique within a column
        for (r_a, t_a), (r_b, t_b) in zip(by_rate, by_rate[1:]):
            if t_b <= t_a:
                key = (scheme.family.token, scheme.rho_he, stream.value, r_b)
                known = key in anomalies
                issues.append(
                    ValidationIssue(
                        severity="warning" if known else "error",
                        message=(
                            f"{scheme.token}/{stream.value}: threshold not increasing "
                            f"in code rate at {r_b} ({t_a} dB -> {t_b} dB)"
                        ),
                        known_anomaly=known,
                    )
                )

    by_family: dict[Family, list[SchemeId]] = {}
    for scheme in {scheme for scheme, _ in by_column if scheme.rho_he is not None}:
        by_family.setdefault(scheme.family, []).append(scheme)
    for family, schemes in sorted(by_family.items(), key=lambda kv: kv[0].token):
        schemes.sort(key=lambda s: s.rho_he)
        for lo, hi in zip(schemes, schemes[1:]):
            for stream, should_increase in ((Stream.HE, False), (Stream.LE, True)):
                for rate in DVBS2_CODE_RATES:
                    t_lo = entries.get((lo, stream, rate))
                    t_hi = entries.get((hi, stream, rate))
                    if t_lo is None or t_hi is None:
                        continue
                    ok = t_hi > t_lo if should_increase else t_hi < t_lo
                    if not ok:
                        key = (family.token, hi.rho_he, stream.value, rate)
                        known = key in anomalies
                        issues.append(
                            ValidationIssue(
                                severity="warning",
                                message=(
                                    f"{family.token} {stream.value} at rate {rate}: threshold should be "
                                    f"{'increasing' if should_increase else 'decreasing'} in rho_he but goes "
                                    f"{t_lo} dB (rho={lo.rho_he:g}) -> {t_hi} dB (rho={hi.rho_he:g})"
                                ),
                                known_anomaly=known,
                            )
                        )
    return issues


def load_threshold_csv(
    path: Union[str, Path],
    anomalies: Optional[Mapping[AnomalyKey, str]] = None,
) -> ThresholdTable:
    """Load and validate one threshold CSV.

    Merged H-QPSK rows (stream ``HE/LE``, only legal at rho_he = 0.5) expand
    to identical HE and LE entries. Raises TableParseError on malformed
    input and TableValidationError on invariant violations; soft issues are
    collected on the returned table's ``warnings``.
    """
    if anomalies is None:
        anomalies = load_anomaly_manifest()
    path = Path(path)
    entries: dict[tuple[SchemeId, Stream, Fraction], float] = {}
    # One SchemeId per (family, rho_he) spelling, so the rows of a scheme
    # share it and each spelling is parsed and checked once.
    schemes: dict[tuple[str, str], SchemeId] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableParseError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["family", "rho_he", "stream", "code_rate", "threshold_db"]:
            raise TableParseError(f"{path}: line 1: unexpected header {header!r}")
        for line_no, row in enumerate(reader, start=2):
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if len(cells) != 5:
                raise TableParseError(f"{path}: line {line_no}: expected 5 fields, got {len(cells)}")
            fam_tok, rho_tok, stream_tok, rate_tok, thr_tok = cells
            scheme = schemes.get((fam_tok, rho_tok))
            if scheme is None:
                try:
                    family = Family.from_token(fam_tok)
                except ValueError as exc:
                    raise TableParseError(f"{path}: line {line_no}: {exc}") from None
                try:
                    rho = float(rho_tok) if rho_tok else None
                except ValueError:
                    raise TableParseError(f"{path}: line {line_no}: bad rho_he {rho_tok!r}") from None
                try:
                    scheme = schemes[(fam_tok, rho_tok)] = SchemeId(family, rho)
                except ValueError as exc:
                    raise TableValidationError(f"{path}: line {line_no}: {exc}") from None
            family, rho = scheme.family, scheme.rho_he
            rate = _parse_rate(rate_tok, path, line_no)
            try:
                threshold = float(thr_tok)
            except ValueError:
                raise TableParseError(f"{path}: line {line_no}: bad threshold {thr_tok!r}") from None
            if not math.isfinite(threshold):
                raise TableValidationError(f"{path}: line {line_no}: non-finite threshold")

            if stream_tok == "HE/LE":
                if not family.hierarchical or rho != 0.5:
                    raise TableValidationError(
                        f"{path}: line {line_no}: merged HE/LE rows are only legal for hierarchical rho_he=0.5"
                    )
                targets = (Stream.HE, Stream.LE)
            else:
                try:
                    stream = Stream(stream_tok)
                except ValueError:
                    raise TableParseError(f"{path}: line {line_no}: unknown stream {stream_tok!r}") from None
                if (stream is Stream.SINGLE) == family.hierarchical:
                    raise TableValidationError(
                        f"{path}: line {line_no}: stream {stream.value} inconsistent with family {family.token}"
                    )
                targets = (stream,)
            for stream in targets:
                key = (scheme, stream, rate)
                if key in entries:
                    raise TableValidationError(
                        f"{path}: line {line_no}: duplicate entry {scheme.token}/{stream.value} {rate}"
                    )
                entries[key] = threshold
    if not entries:
        raise TableParseError(f"{path}: no data rows")

    issues = _validation_issues(entries, anomalies)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        raise TableValidationError(f"{path}: " + "; ".join(i.message for i in errors))
    return ThresholdTable(entries, warnings=[i for i in issues if i.severity == "warning"])


def serialize_threshold_csv(table: ThresholdTable) -> str:
    """Canonical CSV text for a table (sorted rows, %g thresholds).

    Hierarchical rho_he = 0.5 schemes whose HE and LE thresholds coincide at
    every rate are written back as merged HE/LE rows, matching the shipped
    file layout.
    """
    entries = table.entries()
    merged: set[tuple[SchemeId, Fraction]] = set()
    for scheme in table.schemes():
        if scheme.rho_he != 0.5:
            continue
        for rate in DVBS2_CODE_RATES:
            t_he = entries.get((scheme, Stream.HE, rate))
            t_le = entries.get((scheme, Stream.LE, rate))
            if t_he is not None and t_he == t_le:
                merged.add((scheme, rate))

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["family", "rho_he", "stream", "code_rate", "threshold_db"])
    stream_order = {Stream.HE: 0, Stream.LE: 1, Stream.SINGLE: 2}
    rows = []
    for (scheme, stream, rate), thr in entries.items():
        if (scheme, rate) in merged:
            if stream is Stream.LE:
                continue
            stream_tok = "HE/LE"
            skey = -1
        else:
            stream_tok = stream.value
            skey = stream_order[stream]
        rows.append((scheme.sort_key(), skey, rate, scheme, stream_tok, thr))
    rows.sort(key=lambda r: r[:3])
    for _, _, rate, scheme, stream_tok, thr in rows:
        rho_tok = "" if scheme.rho_he is None else f"{scheme.rho_he:g}"
        writer.writerow([scheme.family.token, rho_tok, stream_tok, str(rate), f"{thr:g}"])
    return out.getvalue()


def signaling_bits(n_rates: int, n_hier_mods: int) -> int:
    """Signaling bits to address a hierarchical configuration:
    ceil(log2(n_rates^2 * n_hier_mods)). Exact integer arithmetic."""
    if n_rates < 1 or n_hier_mods < 1:
        raise ValueError("counts must be >= 1")
    return (n_rates * n_rates * n_hier_mods - 1).bit_length()
