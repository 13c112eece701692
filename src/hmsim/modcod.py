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

Every data file is read by ``read_csv_rows``: UTF-8 text (a leading
byte-order mark is dropped), the expected header, then blank rows skipped
and the header's field count on the rest.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, partial
from operator import gt, is_not, lt
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

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
    "signaling_bits",
    "packaged_data_path",
    "read_csv_rows",
]


# The 11 LDPC code rates of DVB-S2 (normal FEC frames), ascending.
DVBS2_CODE_RATES = tuple(
    Fraction(p, q) for p, q in ((1, 4), (1, 3), (2, 5), (1, 2), (3, 5), (2, 3), (3, 4), (4, 5), (5, 6), (8, 9), (9, 10))
)

# Every spectral efficiency bits x p/q is a whole number of 1/180 bit/s/Hz,
# since 180 is the lcm of the rate denominators: bits x p x (180 // q).
EFFICIENCY_UNITS = math.lcm(*(rate.denominator for rate in DVBS2_CODE_RATES))

# Each rate's place in DVBS2_CODE_RATES, which orders rates and indexes
# arrays by rate, and one bit's efficiency at each rate.
_RATE_INDEX = {rate: i for i, rate in enumerate(DVBS2_CODE_RATES)}
_UNITS_PER_BIT = np.array([rate.numerator * (EFFICIENCY_UNITS // rate.denominator) for rate in DVBS2_CODE_RATES])


def _rate_index(rate: Fraction) -> int:
    """Place of a DVB-S2 code rate in DVBS2_CODE_RATES. ValueError otherwise."""
    index = _RATE_INDEX.get(rate)
    if index is None:
        raise ValueError(f"code rate {rate} is not a DVB-S2 rate")
    return index


def _efficiency_units(bits: int, rate: Fraction) -> int:
    """The one efficiency formula: a stream of ``bits`` bits per symbol at a
    DVB-S2 code rate, in 1/EFFICIENCY_UNITS bit/s/Hz. ValueError otherwise.
    ``ThresholdTable.cell_units`` applies it to arrays of columns."""
    return bits * int(_UNITS_PER_BIT[_rate_index(rate)])


def _inverse_efficiency(units: np.ndarray) -> np.ndarray:
    """The one reciprocal formula: 1 / (units / EFFICIENCY_UNITS) per entry
    of an efficiency array, inf for 0 units. ``ThresholdTable.cell_inv``
    and the classical terms of ``rateopt.solve_cell_pairs`` both take it,
    so the two agree bit for bit. ModcodChoice.spectral_efficiency is
    units / EFFICIENCY_UNITS too, so this is 1 / the spectral efficiency."""
    with np.errstate(divide="ignore"):
        return 1.0 / (units / EFFICIENCY_UNITS)


class Stream(Enum):
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
    (bits, _efficiency_units(bits, rate)): rate
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
        return _efficiency_units(self.scheme.bits(self.stream), self.code_rate) / EFFICIENCY_UNITS

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
    return Path(__file__).parent / "data" / name


def read_csv_rows(path: Path, header: Sequence[str], error: type[Exception] = ValueError) -> Iterator[tuple[int, list[str]]]:
    """(line number, stripped fields) of each non-blank row after the first,
    which must be ``header``, of a UTF-8 CSV file; a leading byte-order mark
    is dropped. Raises ``error`` naming the file for an empty file, another
    header, text that is not UTF-8 and, with its line, a row without
    ``len(header)`` fields."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = enumerate(csv.reader(fh), start=1)
            first = next(rows, None)
            if first is None:
                raise error(f"{path}: empty file")
            if [h.strip() for h in first[1]] != list(header):
                raise error(f"{path}: line 1: unexpected header {first[1]!r}")
            width = len(header)
            for line_no, row in rows:
                fields = list(map(str.strip, row))
                if not any(fields):
                    continue
                if len(fields) != width:
                    raise error(f"{path}: line {line_no}: expected {width} fields, got {len(fields)}")
                yield line_no, fields
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def load_anomaly_manifest() -> dict[AnomalyKey, str]:
    """Load the shipped known-anomalies manifest.

    Each row names a table cell whose printed value is preserved verbatim
    even though it breaks an expected monotonic pattern. Keys are
    (family token, rho_he, stream, code rate).
    """
    rows = read_csv_rows(packaged_data_path("known_anomalies.csv"), ("family", "rho_he", "stream", "code_rate", "note"))
    return {(family, float(rho) if rho else None, stream, Fraction(rate)): note
            for _, (family, rho, stream, rate, note) in rows}


# The canonical spelling of each DVB-S2 rate, so the common case is one
# dict lookup.
_RATE_INDEX_BY_TEXT = {str(rate): i for i, rate in enumerate(DVBS2_CODE_RATES)}


def _parse_rate(text: str, path: Path, line_no: int) -> int:
    """Index in DVBS2_CODE_RATES of a code_rate field in any spelling."""
    try:
        rate = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise TableParseError(f"{path}: line {line_no}: bad code_rate {text!r}: {exc}") from None
    index = _RATE_INDEX.get(rate)
    if index is None:
        raise TableValidationError(f"{path}: line {line_no}: code rate {text} is not a DVB-S2 rate")
    return index


# The thresholds of one (scheme, stream) at each DVB-S2 rate, by rate index,
# None where the table has no entry.
_Column = list[Optional[float]]

# Whether a column slot holds a threshold, as a C-level callable.
_present = partial(is_not, None)


class ThresholdTable:
    """Immutable map (scheme, stream, code rate) -> decoding threshold in dB.

    A table holds its columns, {(scheme, stream): the thresholds at the 11
    DVB-S2 rates, indexed as DVBS2_CODE_RATES, None where absent}, and its
    warnings. Each query structure is built on the first call that reads it
    and kept on the instance, so a table that is only loaded, merged,
    validated or pickled never builds one: the sorted scheme list, the cell
    edges and the structures indexed by cell (see ``cells``).
    ``cell_units``, the best single, HE and LE efficiencies as exact
    integers in 1/EFFICIENCY_UNITS bit/s/Hz, is the one per-cell record of
    best efficiencies, built from the columns; ``cell_inv``, the float
    reciprocals that the harmonic sums add, and the single-modcod choices
    that ``best_single`` returns are derived from it. These are
    deterministic caches, so instances are safe to share across threads
    and processes: a race only repeats work.
    """

    def __init__(self, columns: Mapping[tuple[SchemeId, Stream], _Column], warnings: Sequence[ValidationIssue] = ()):
        self._columns = dict(columns)
        self.warnings = tuple(warnings)

    @cached_property
    def _schemes(self) -> list[SchemeId]:
        return sorted({scheme for scheme, _ in self._columns}, key=SchemeId.sort_key)

    @cached_property
    def _thresholds(self) -> np.ndarray:
        """The columns as one (columns, rates) float array, NaN where absent."""
        return np.array(list(self._columns.values()), dtype=float).reshape(-1, len(DVBS2_CODE_RATES))

    @cached_property
    def edges(self) -> np.ndarray:
        """The distinct thresholds, ascending: each first of a run of equal
        sorted values, as np.unique keeps it (thresholds are finite). Cell c
        holds the SNRs from ``edges[c - 1]`` up to below ``edges[c]``. A
        table without entries has no edges and one cell, in outage."""
        edges = np.sort(self._thresholds[~np.isnan(self._thresholds)])
        first = np.ones(edges.size, bool)
        np.not_equal(edges[1:], edges[:-1], out=first[1:])
        return edges[first]

    @cached_property
    def cell_inv(self) -> np.ndarray:
        """1 / (best single-modcod efficiency) per cell, and inf in a cell
        where no single modcod decodes. That inf is the one outage rule:
        ``rateopt.system_summaries`` leaves such receivers out of a
        population and counts them, and a pair that holds one has
        classical rate 0."""
        return _inverse_efficiency(self.cell_units[:, 0])

    @cached_property
    def cell_units(self) -> np.ndarray:
        """Best efficiencies per cell as exact integers in 1/EFFICIENCY_UNITS
        bit/s/Hz: an int64 array of shape (cells, 1 + 2 S) for the S
        ``hierarchical_schemes()``, 0 where nothing decodes. Column 0 is the
        best single modcod, columns 1..S the best HE stream of each scheme
        and columns S+1..2S its best LE stream. No efficiency exceeds 5 x
        9/10 bit/s/Hz, 810 units. This is the table's one per-cell record of
        best efficiencies: ``cell_inv``, ``best_single`` and
        ``achievable_pairs`` read it, and ``rateopt.solve_cell_pairs``
        solves on it or, for a curve of some of its families, on the runs
        of equal rows of their columns (see ``rateopt.system_summaries``).
        A column whose stream does not apply to its scheme raises
        ValueError here."""
        schemes = self.hierarchical_schemes()
        place = {scheme: i for i, scheme in enumerate(schemes)}
        bits = np.array([scheme.bits(stream) for scheme, stream in self._columns], np.int64)
        columns = np.array([
            0 if stream is Stream.SINGLE else 1 + place[scheme] + (len(schemes) if stream is Stream.LE else 0)
            for scheme, stream in self._columns
        ], np.intp)
        # Each threshold decodes from the cell it opens (thresholds are table
        # edges), so the best per cell is a running max down the cells. An
        # absent slot adds 0 units to the cell that NaN sorts into.
        thresholds = self._thresholds
        units = np.where(np.isnan(thresholds), 0, bits[:, None] * _UNITS_PER_BIT)
        grid = np.zeros((self.edges.size + 1, 1 + 2 * len(schemes)), dtype=np.int64)
        np.maximum.at(grid, (self.cells(thresholds), columns[:, None]), units)
        return np.maximum.accumulate(grid, axis=0)

    @cached_property
    def _single_choices(self) -> list[Optional[ModcodChoice]]:
        """The best single modcod of each cell, None where none decodes.

        Of the SINGLE entries with a cell's best efficiency, ``cell_units[:,
        0]``, it is the first in (threshold, scheme token, code rate) order,
        so an exact tie (2 x 9/10 == 3 x 3/5) goes to the lower threshold,
        then the scheme token. That entry decodes in the cell: every entry
        with that efficiency has a threshold at least as high."""
        # No two SINGLE entries share a scheme token and a rate index, so the
        # sort never compares schemes.
        singles = sorted(
            (thr, scheme.token, index, scheme)
            for (scheme, stream), column in self._columns.items()
            if stream is Stream.SINGLE
            for index, thr in enumerate(column)
            if thr is not None
        )
        first: dict[int, ModcodChoice] = {}
        for _, _, index, scheme in singles:
            units = scheme.bits(Stream.SINGLE) * int(_UNITS_PER_BIT[index])
            if units not in first:
                first[units] = ModcodChoice(scheme, Stream.SINGLE, DVBS2_CODE_RATES[index])
        return list(map(first.get, self.cell_units[:, 0].tolist()))

    # -- basic container surface -------------------------------------------------

    def __len__(self) -> int:
        return sum(sum(map(_present, column)) for column in self._columns.values())

    def hierarchical_schemes(self) -> list[SchemeId]:
        return [s for s in self._schemes if s.rho_he is not None]

    def families(self) -> list[Family]:
        return sorted({s.family for s in self._schemes}, key=lambda f: f.token)

    def subset(self, families: Iterable[Family]) -> "ThresholdTable":
        """Table restricted to the given families (warnings not re-derived)."""
        keep = set(families)
        return ThresholdTable({key: column for key, column in self._columns.items() if key[0].family in keep})

    def merged_with(self, other: "ThresholdTable") -> "ThresholdTable":
        """Both tables' entries; an entry both hold must have one threshold.
        A column that both tables hold is merged slot by slot and checked
        as ``load_threshold_csv`` checks a column, against the shipped
        known-anomalies manifest, which is read only when there is one."""
        columns, merged = dict(self._columns), {}
        for key, column in other._columns.items():
            held = columns.setdefault(key, column)
            if held is column:  # a new column, or one both tables share
                continue
            merged[key] = [thr if held_thr is None else held_thr for held_thr, thr in zip(held, column)]
            for index, thr in enumerate(column):
                if thr is not None and thr != merged[key][index]:
                    raise TableValidationError(
                        f"conflicting thresholds for {key[0].token}/{key[1].value} {DVBS2_CODE_RATES[index]}"
                    )
        columns.update(merged)
        issues = _rate_order_issues(merged, load_anomaly_manifest()) if merged else []
        errors = [i.message for i in issues if i.severity == "error"]
        if errors:
            raise TableValidationError("; ".join(errors))
        # A warning both tables carry, as when one file is merged twice, is kept once.
        return ThresholdTable(columns, warnings=tuple(dict.fromkeys(self.warnings + other.warnings + tuple(issues))))

    # -- queries -------------------------------------------------------------------

    def best_single(self, snr_db: float) -> Optional[ModcodChoice]:
        """Best non-hierarchical modcod decodable at snr_db, None in outage."""
        return self._single_choices[self.cell(snr_db)]

    def cells(self, snrs_db) -> np.ndarray:
        """Cell of each SNR: the number of distinct table thresholds at or
        below it (NaN counts as above all of them).

        Every query of this table reads a structure indexed by cell, so
        anything computed from such queries is a function of the cells."""
        return np.searchsorted(self.edges, snrs_db, side="right")

    def cell(self, snr_db: float) -> int:
        """Cell of one SNR (see ``cells``)."""
        return int(self.cells(snr_db))


class _BucketSearch:
    """``np.searchsorted(points, x, side="right")`` in O(1) per x, exactly,
    for sorted finite points and any x but NaN, which counts as below every
    point.

    The span of the points is cut into buckets as wide as their smallest
    positive gap, but at most 2^12 of them. Bucket q(x) = clip((x - lo) *
    (1 / width), 0, top), truncated, is monotone in x, since rounded
    subtraction, multiplication and clipping are: a point in a bucket below
    x's is below x, and a point in a bucket above is above. So the count is
    the points in the buckets below, ``base[q(x)]``, plus a comparison of x
    with each of the at most ``depth`` points from there on, which reads
    NaN past the last point, so that x = +inf counts them all. The counts
    are of ``dtype``, which the instance keeps as its attribute."""

    def __init__(self, points: np.ndarray, dtype=np.intp):
        lo, hi = (float(points[0]), float(points[-1])) if points.size else (0.0, 0.0)
        gaps = np.diff(points)
        gaps = gaps[gaps > 0]
        self._lo, self._scale = lo, 1.0 / max(gaps.min(), (hi - lo) / 2**12) if gaps.size else 1.0
        self._top = float(int((hi - lo) * self._scale))  # the last point's bucket, as _buckets computes it
        counts = np.bincount(self._buckets(points), minlength=int(self._top) + 1)
        base = np.cumsum(counts) - counts
        padded = np.concatenate((points, np.full(counts.max(), np.nan)))
        self._base = base.astype(dtype)
        self.dtype = self._base.dtype
        self._next = [padded[base + k] for k in range(counts.max())]

    def _buckets(self, x) -> np.ndarray:
        q = np.subtract(x, self._lo)
        with np.errstate(over="ignore"):  # q = +-inf is clipped as well
            q *= self._scale
        # fmax and fmin, not clip, so that a NaN lands in bucket 0.
        return np.fmin(np.fmax(q, 0.0, out=q), self._top, out=q).astype(np.intp)

    def __call__(self, x) -> np.ndarray:
        at = self._buckets(x)
        found = self._base.take(at)
        for next_points in self._next:
            found += x >= next_points.take(at)
        return found


def _rate_order_issues(columns: Mapping[tuple[SchemeId, Stream], _Column],
                       anomalies: Mapping[AnomalyKey, str]) -> list[ValidationIssue]:
    """Thresholds must be strictly increasing in code rate for each
    (scheme, stream); violations are errors unless the cell appears in
    the known-anomalies manifest, and then warnings."""
    issues: list[ValidationIssue] = []
    # Almost every column is in order: one C-level comparison of its present
    # thresholds passes it, and only the ones that fail it are walked rate
    # by rate below.
    unordered = []
    for key, column in columns.items():
        present = list(filter(_present, column))
        if not all(map(lt, present, present[1:])):
            unordered.append((key, column))
    for (scheme, stream), column in sorted(unordered, key=lambda kv: (kv[0][0].sort_key(), kv[0][1].value)):
        by_rate = [(rate, thr) for rate, thr in zip(DVBS2_CODE_RATES, column) if thr is not None]
        for (r_a, t_a), (r_b, t_b) in zip(by_rate, by_rate[1:]):
            if t_b <= t_a:
                known = (scheme.family.token, scheme.rho_he, stream.value, r_b) in anomalies
                message = (f"{scheme.token}/{stream.value}: threshold not increasing in code rate at {r_b} "
                           f"({t_a} dB -> {t_b} dB)")
                issues.append(ValidationIssue("warning" if known else "error", message, known))
    return issues


def _validation_issues(
    columns: Mapping[tuple[SchemeId, Stream], _Column],
    anomalies: Optional[Mapping[AnomalyKey, str]],
) -> list[ValidationIssue]:
    """Check monotonicity invariants: the rate order of each column (see
    ``_rate_order_issues``), then, across schemes of one hierarchical
    family at a fixed rate, HE thresholds should fall and LE thresholds
    rise with rho_he; violations of that pattern are warnings only.
    """
    anomalies = anomalies or {}
    issues = _rate_order_issues(columns, anomalies)
    by_family: dict[Family, list[SchemeId]] = {}
    for scheme in {scheme for scheme, _ in columns if scheme.rho_he is not None}:
        by_family.setdefault(scheme.family, []).append(scheme)
    for family, schemes in sorted(by_family.items(), key=lambda kv: kv[0].token):
        schemes.sort(key=lambda s: s.rho_he)
        for lo, hi in zip(schemes, schemes[1:]):
            for stream, should_increase in ((Stream.HE, False), (Stream.LE, True)):
                lo_column, hi_column = columns.get((lo, stream)), columns.get((hi, stream))
                if lo_column is None or hi_column is None:
                    continue
                try:
                    if all(map(gt if should_increase else lt, hi_column, lo_column)):
                        continue
                except TypeError:  # a None, at a rate one of them lacks: walk the pair
                    pass
                for rate, t_lo, t_hi in zip(DVBS2_CODE_RATES, lo_column, hi_column):
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
    # One SchemeId per (family, rho_he) spelling and one target list per
    # (family, rho_he, stream) spelling, so each spelling is parsed and
    # checked once. A target is a (scheme, stream, column) that a row fills
    # at its rate.
    schemes: dict[tuple[str, str], SchemeId] = {}
    targets_of: dict[tuple[str, str, str], tuple[tuple[SchemeId, Stream, _Column], ...]] = {}
    columns: dict[tuple[SchemeId, Stream], _Column] = {}
    rate_index, isfinite = _RATE_INDEX_BY_TEXT.get, math.isfinite
    header = ("family", "rho_he", "stream", "code_rate", "threshold_db")
    for line_no, (fam_tok, rho_tok, stream_tok, rate_tok, thr_tok) in read_csv_rows(path, header, TableParseError):
        # A row's checks run in this order: scheme, rate, threshold, stream.
        targets = targets_of.get((fam_tok, rho_tok, stream_tok))
        if targets is None:
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
        index = rate_index(rate_tok)
        if index is None:
            index = _parse_rate(rate_tok, path, line_no)
        try:
            threshold = float(thr_tok)
        except ValueError:
            raise TableParseError(f"{path}: line {line_no}: bad threshold {thr_tok!r}") from None
        if not isfinite(threshold):
            raise TableValidationError(f"{path}: line {line_no}: non-finite threshold")

        if targets is None:
            family = scheme.family
            if stream_tok == "HE/LE":
                if not family.hierarchical or scheme.rho_he != 0.5:
                    raise TableValidationError(
                        f"{path}: line {line_no}: merged HE/LE rows are only legal for hierarchical rho_he=0.5"
                    )
                streams = (Stream.HE, Stream.LE)
            else:
                try:
                    stream = Stream(stream_tok)
                except ValueError:
                    raise TableParseError(f"{path}: line {line_no}: unknown stream {stream_tok!r}") from None
                if (stream is Stream.SINGLE) == family.hierarchical:
                    raise TableValidationError(
                        f"{path}: line {line_no}: stream {stream.value} inconsistent with family {family.token}"
                    )
                streams = (stream,)
            targets = targets_of[(fam_tok, rho_tok, stream_tok)] = tuple(
                (scheme, stream, columns.setdefault((scheme, stream), [None] * len(DVBS2_CODE_RATES)))
                for stream in streams
            )
        for scheme, stream, column in targets:
            if column[index] is not None:
                raise TableValidationError(
                    f"{path}: line {line_no}: duplicate entry {scheme.token}/{stream.value} {DVBS2_CODE_RATES[index]}"
                )
            column[index] = threshold
    if not columns:
        raise TableParseError(f"{path}: no data rows")

    issues = _validation_issues(columns, anomalies)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        raise TableValidationError(f"{path}: " + "; ".join(i.message for i in errors))
    return ThresholdTable(columns, warnings=[i for i in issues if i.severity == "warning"])


def signaling_bits(n_rates: int, n_hier_mods: int) -> int:
    """Signaling bits to address a hierarchical configuration:
    ceil(log2(n_rates^2 * n_hier_mods)). Exact integer arithmetic."""
    if n_rates < 1 or n_hier_mods < 1:
        raise ValueError("counts must be >= 1")
    return (n_rates * n_rates * n_hier_mods - 1).bit_length()
