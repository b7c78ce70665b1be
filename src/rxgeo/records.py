"""Transaction records: CSV parsing, validation and exclusion filtering."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
from itertools import chain, compress
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

FAMILIES = ("opioid", "benzodiazepine")

CSV_COLUMNS = (
    "record_id",
    "fill_date",
    "patient_lat",
    "patient_lon",
    "prescriber_lat",
    "prescriber_lon",
    "dispenser_lat",
    "dispenser_lon",
    "mme_total",
    "days_supply",
    "drug_family",
)

COORDINATE_COLUMNS = CSV_COLUMNS[2:8]

DEFAULT_MME_CAP = 1e5
DEFAULT_CUTOFF = date(2014, 1, 1)

# Rows parsed and written per chunk: whole-file string columns cost more
# memory than the rows they come from.
CHUNK_ROWS = 4096


class SchemaError(ValueError):
    """The CSV header does not match the expected column set."""


class ReadError(ValueError):
    """A CSV stream that cannot be read: a byte that does not decode, a field
    the csv module refuses, or, in a reader that stops at the first error, a
    header or row that breaks its schema.  The message names the line where
    there is one, but not the file."""


@dataclass(frozen=True)
class GeoPoint:
    """Latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float

    @property
    def is_valid(self) -> bool:
        return bool(_valid_coordinates(self.lat, self.lon))


def _valid_coordinates(lat, lon):
    """Whether each latitude/longitude pair is finite and in range."""
    return (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0)


@dataclass(frozen=True)
class PrescriptionRecord:
    """One dispensing transaction."""

    record_id: str
    fill_date: date
    patient: GeoPoint
    prescriber: GeoPoint
    dispenser: GeoPoint
    mme_total: float
    days_supply: int
    drug_family: str


def _int_column(values: Sequence[int]) -> np.ndarray:
    """int64, or Python ints in an object array when one does not fit."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _require_days_supply(record_ids: Sequence[str], days_supply: Sequence[int]) -> None:
    """ValueError naming the first record with ``days_supply < 1``, whose
    daily dose is undefined."""
    short = np.flatnonzero(np.asarray(days_supply) < 1)
    if short.size:
        i = short[0]
        raise ValueError(f"record {record_ids[i]}: days_supply must be >= 1, "
                         f"got {days_supply[i]}; run clean() first")


@dataclass(frozen=True)
class TransactionTable:
    """A list of :class:`PrescriptionRecord` as one column per CSV field.

    Field names and order follow ``CSV_COLUMNS``.  ``fill_date`` holds day
    ordinals (``date.toordinal``); ``days_supply`` is int64, or an object
    array of Python ints when a value does not fit in 64 bits.
    """

    record_id: list[str]
    fill_date: np.ndarray  # int64
    patient_lat: np.ndarray  # float64, as are the other coordinates
    patient_lon: np.ndarray
    prescriber_lat: np.ndarray
    prescriber_lon: np.ndarray
    dispenser_lat: np.ndarray
    dispenser_lon: np.ndarray
    mme_total: np.ndarray  # float64
    days_supply: np.ndarray
    drug_family: np.ndarray  # str

    def __len__(self) -> int:
        return len(self.record_id)

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in CSV_COLUMNS[1:]]

    @classmethod
    def from_records(cls, records: Sequence[PrescriptionRecord]) -> "TransactionTable":
        return cls(
            [r.record_id for r in records],
            np.array([r.fill_date.toordinal() for r in records], dtype=np.int64),
            *(np.array([getattr(getattr(r, point), axis) for r in records], dtype=float)
              for point in ("patient", "prescriber", "dispenser")
              for axis in ("lat", "lon")),
            np.array([r.mme_total for r in records], dtype=float),
            _int_column([r.days_supply for r in records]),
            np.array([r.drug_family for r in records], dtype=str),
        )

    def to_records(self) -> list[PrescriptionRecord]:
        dates = {d: date.fromordinal(d) for d in set(self.fill_date.tolist())}
        return [PrescriptionRecord(rid, dates[day], GeoPoint(plat, plon),
                                   GeoPoint(rlat, rlon), GeoPoint(dlat, dlon),
                                   mme, days, family)
                for rid, day, plat, plon, rlat, rlon, dlat, dlon, mme, days, family
                in zip(self.record_id, *(a.tolist() for a in self._arrays()))]

    @classmethod
    def concat(cls, parts: Sequence["TransactionTable"]) -> "TransactionTable":
        if not parts:
            return cls.from_records([])
        return cls(list(chain.from_iterable(p.record_id for p in parts)),
                   *(np.concatenate(cols) for cols in zip(*(p._arrays() for p in parts))))

    def take(self, keep: np.ndarray) -> "TransactionTable":
        """The records where the boolean mask ``keep`` is true."""
        return TransactionTable(list(compress(self.record_id, keep.tolist())),
                                *(a[keep] for a in self._arrays()))

    def mme_per_day(self) -> np.ndarray:
        """Daily dose of each record, as :func:`mme_per_day` computes it."""
        _require_days_supply(self.record_id, self.days_supply)
        return np.asarray(self.mme_total / self.days_supply, dtype=float)


@dataclass(frozen=True)
class RowError:
    """A rejected CSV row: ``line`` is the 1-based file line number."""

    line: int
    reason: str


@dataclass
class FilterReport:
    """Per-reason exclusion tallies; ``total_in`` covers malformed rows too."""

    pre_2014: int = 0
    mme_exceeds_cap: int = 0
    missing_or_zero_days_supply: int = 0
    invalid_coordinates: int = 0
    malformed_row: int = 0
    total_in: int = 0
    total_kept: int = 0

    REASONS = ("pre_2014", "mme_exceeds_cap", "missing_or_zero_days_supply",
               "invalid_coordinates", "malformed_row")

    @property
    def total_excluded(self) -> int:
        return sum(getattr(self, r) for r in self.REASONS)

    def to_dict(self) -> dict:
        d = {r: getattr(self, r) for r in self.REASONS}
        d["total_in"] = self.total_in
        d["total_kept"] = self.total_kept
        return d


def mme_per_day(record: PrescriptionRecord) -> float:
    """Daily dose for one record: total MME divided by days of supply."""
    _require_days_supply((record.record_id,), (record.days_supply,))
    return record.mme_total / record.days_supply


def _parse_float(raw: str, col: str) -> float:
    """A finite float; ValueError("invalid <col>") otherwise."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"invalid {col}")
    return value


def _parse_row(row: dict[str, str]) -> PrescriptionRecord:
    for col in CSV_COLUMNS:
        if row[col] is None or row[col].strip() == "":
            raise ValueError(f"missing {col}")
    try:
        fill_date = date.fromisoformat(row["fill_date"].strip())
    except ValueError:
        raise ValueError("invalid fill_date") from None

    coords = {col: _parse_float(row[col], col) for col in COORDINATE_COLUMNS}
    mme_total = _parse_float(row["mme_total"], "mme_total")
    if mme_total < 0:
        raise ValueError("invalid mme_total")

    try:
        days_supply = int(row["days_supply"])
        if days_supply < 0:
            raise ValueError("negative")
        float(days_supply)  # MME/day divides by it as a float
    except (ValueError, OverflowError):
        raise ValueError("invalid days_supply") from None

    drug_family = row["drug_family"].strip()
    if drug_family not in FAMILIES:
        raise ValueError(f"invalid drug_family {drug_family!r}")

    return PrescriptionRecord(
        record_id=row["record_id"],
        fill_date=fill_date,
        patient=GeoPoint(coords["patient_lat"], coords["patient_lon"]),
        prescriber=GeoPoint(coords["prescriber_lat"], coords["prescriber_lon"]),
        dispenser=GeoPoint(coords["dispenser_lat"], coords["dispenser_lon"]),
        mme_total=mme_total,
        days_supply=days_supply,
        drug_family=drug_family,
    )


def duplicate_names(names: Sequence[str]) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted({name for name in names if names.count(name) > 1})


def _check_header(names: list[str] | None) -> list[str]:
    """The stripped header names; :class:`SchemaError` unless they are the
    ingest columns, each once."""
    if names is None:
        raise SchemaError("empty input: missing header row")
    got = [name.strip() for name in names]
    if set(got) != set(CSV_COLUMNS):
        missing = sorted(set(CSV_COLUMNS) - set(got))
        unknown = sorted(set(got) - set(CSV_COLUMNS))
        raise SchemaError(f"bad header: missing columns {missing}, unknown columns {unknown}")
    twice = duplicate_names(got)
    if twice:
        raise SchemaError(f"bad header: duplicate columns {twice}")
    return got


def parse_csv(stream: TextIO | str) -> tuple[TransactionTable, list[RowError]]:
    """
    Parse a transaction CSV into a table plus row-level errors.

    Rows are read ``CHUNK_ROWS`` at a time and checked column by column with
    the same conversions as :func:`_parse_row`.  A chunk that fails the check
    is parsed row by row, so every bad row is reported with its file line
    number and reason; bad rows never abort the parse.  A wrong header raises
    :class:`SchemaError`, and a stream the csv module cannot read
    :class:`ReadError`.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    header, chunks = csv_chunks(stream)
    header = _check_header(header)
    parts, errors = [], []
    for rows, lines in chunks:
        _, table, bad = read_chunk(header, rows, lines)
        parts.append(table)
        errors += bad
    return TransactionTable.concat(parts), errors


def csv_chunks(stream: TextIO) -> tuple[list[str] | None, Iterator]:
    """The header row of a CSV stream (None if the stream is empty) and its
    other rows in lists of ``CHUNK_ROWS``, each with the list of their line
    numbers.  Blank lines are skipped, as csv.DictReader does.  A byte the
    stream cannot decode, or a field over ``csv.field_size_limit()``, raises
    :class:`ReadError` when it is reached."""
    chunks = _header_then_chunks(csv.reader(stream), CHUNK_ROWS)
    return next(chunks), chunks


def _header_then_chunks(reader, size: int) -> Iterator:
    try:
        yield next(reader, None)
        rows, lines = [], []
        for row in reader:
            if not row:
                continue
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == size:
                yield rows, lines
                rows, lines = [], []
        if rows:
            yield rows, lines
    except csv.Error as exc:
        raise ReadError(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ReadError(f"cannot decode byte {exc.object[exc.start]:#04x} "
                        f"as {exc.encoding}") from None


def _passes(check: Callable[[Sequence[str]], bool], values: Sequence[str]) -> bool:
    try:
        return check(values)
    except (ValueError, OverflowError):
        return False


def read_chunk(header: list[str], rows: list[list[str]], lines: list[int],
               rules: Sequence[tuple[str, Callable[[Sequence[str]], bool]]] = ()
               ) -> tuple[dict[str, tuple[str, ...]] | None, TransactionTable, list[RowError]]:
    """Each column's values in a chunk of rows, its records and its bad rows.

    The rows are checked column by column with the conversions of
    :func:`_parse_row` and each (column, check) pair of ``rules``; a check
    returns whether all the values it is given are valid.  A chunk that fails
    is parsed row by row, with no columns: each row gets :func:`_parse_row`,
    then each rule in turn, which rejects it as ``invalid <column>``.
    """
    checked = _check_chunk(header, rows, rules)
    if checked is not None:
        return (*checked, [])
    good, errors = [], []
    for row, line in zip(rows, lines):
        try:
            if len(row) != len(header):
                raise ValueError("wrong field count")
            fields = dict(zip(header, row))
            rec = _parse_row(fields)
            for name, check in rules:
                if not _passes(check, (fields[name],)):
                    raise ValueError(f"invalid {name}")
            good.append(rec)
        except ValueError as exc:
            errors.append(RowError(line, str(exc)))
    if not errors:
        raise RuntimeError("the chunk check rejected rows the row check accepts")
    return None, TransactionTable.from_records(good), errors


def _check_chunk(header, rows, rules) -> tuple[dict, TransactionTable] | None:
    if set(map(len, rows)) != {len(header)}:
        return None
    col = dict(zip(header, zip(*rows)))
    try:
        if not all(map(str.strip, col["record_id"])):
            return None
        dates = {text: date.fromisoformat(text.strip()) for text in set(col["fill_date"])}
        floats = [np.fromiter(map(float, col[name]), float, len(rows))
                  for name in (*COORDINATE_COLUMNS, "mme_total")]
        days_supply = list(map(int, col["days_supply"]))
        float(max(days_supply))  # MME/day divides by it as a float
    except (ValueError, OverflowError):
        return None
    family = {text: text.strip() for text in set(col["drug_family"])}
    if not (all(np.isfinite(x).all() for x in floats) and (floats[-1] >= 0).all()
            and min(days_supply) >= 0 and set(family.values()) <= set(FAMILIES)
            and all(_passes(check, col[name]) for name, check in rules)):
        return None
    ordinal = {text: d.toordinal() for text, d in dates.items()}
    return col, TransactionTable(
        list(col["record_id"]),
        np.fromiter(map(ordinal.__getitem__, col["fill_date"]), np.int64, len(rows)),
        *floats, _int_column(days_supply),
        np.array([family[text] for text in col["drug_family"]], dtype=str))


def write_csv(table: TransactionTable, path: str | Path | TextIO,
              extra: Iterable[tuple[str, np.ndarray]] = ()) -> None:
    """Write a table in the exact ingest schema, followed by the ``extra``
    (name, column) pairs; round-trips through :func:`parse_csv`.

    ``csv.writer`` writes the Python values ``CHUNK_ROWS`` rows at a time: a
    float as its repr, an int or a string as its str.
    """
    extra = list(extra)
    arrays = table._arrays()[1:] + [column for _, column in extra]
    own = isinstance(path, (str, Path))
    stream = open(path, "w", newline="") if own else path
    try:
        writer = csv.writer(stream)
        writer.writerow(CSV_COLUMNS + tuple(name for name, _ in extra))
        for start in range(0, len(table), CHUNK_ROWS):
            stop = start + CHUNK_ROWS
            days = table.fill_date[start:stop].tolist()
            iso = {d: date.fromordinal(d).isoformat() for d in set(days)}
            writer.writerows(zip(table.record_id[start:stop], map(iso.__getitem__, days),
                                 *(a[start:stop].tolist() for a in arrays)))
    finally:
        if own:
            stream.close()


def clean(
    table: TransactionTable,
    cap: float = DEFAULT_MME_CAP,
    cutoff_date: date = DEFAULT_CUTOFF,
    n_malformed: int = 0,
) -> tuple[TransactionTable, FilterReport]:
    """
    Apply the exclusion filters and tally each drop by first-matching reason.

    Reasons are checked in a fixed order (date, MME cap, days supply,
    coordinates) so that a record failing several filters is counted once.
    ``n_malformed`` folds upstream parse failures into the report so that
    ``total_in == total_kept + sum(exclusions)`` holds over the whole file.
    """
    report = FilterReport(malformed_row=n_malformed, total_in=n_malformed + len(table))
    keep = np.ones(len(table), dtype=bool)
    valid = np.ones(len(table), dtype=bool)
    for point in ("patient", "prescriber", "dispenser"):
        valid &= _valid_coordinates(getattr(table, f"{point}_lat"),
                                    getattr(table, f"{point}_lon"))
    # first matching reason, in the documented order
    for reason, fails in (("pre_2014", table.fill_date < cutoff_date.toordinal()),
                          ("mme_exceeds_cap", table.mme_total > cap),
                          ("missing_or_zero_days_supply", table.days_supply < 1),
                          ("invalid_coordinates", ~valid)):
        dropped = keep & fails
        setattr(report, reason, int(dropped.sum()))
        keep &= ~dropped
    report.total_kept = int(keep.sum())
    return table.take(keep), report
