"""Transaction records: CSV parsing, validation and exclusion filtering."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import Iterable, TextIO

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

DEFAULT_MME_CAP = 1e5
DEFAULT_CUTOFF = date(2014, 1, 1)


class SchemaError(ValueError):
    """The CSV header does not match the expected column set."""


@dataclass(frozen=True)
class GeoPoint:
    """Latitude/longitude pair in decimal degrees."""

    lat: float
    lon: float

    @property
    def is_valid(self) -> bool:
        return (math.isfinite(self.lat) and math.isfinite(self.lon)
                and -90.0 <= self.lat <= 90.0 and -180.0 <= self.lon <= 180.0)


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
    if record.days_supply < 1:
        raise ValueError(
            f"record {record.record_id}: days_supply must be >= 1, "
            f"got {record.days_supply}; run clean() first")
    return record.mme_total / record.days_supply


def _parse_float(raw: str, col: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite {col}")
    return value


def _parse_row(row: dict[str, str]) -> PrescriptionRecord:
    for col in CSV_COLUMNS:
        if row[col] is None or row[col].strip() == "":
            raise ValueError(f"missing {col}")
    try:
        fill_date = date.fromisoformat(row["fill_date"].strip())
    except ValueError:
        raise ValueError("invalid fill_date") from None

    coords = {}
    for col in ("patient_lat", "patient_lon", "prescriber_lat", "prescriber_lon",
                "dispenser_lat", "dispenser_lon"):
        try:
            coords[col] = _parse_float(row[col], col)
        except ValueError:
            raise ValueError(f"invalid {col}") from None

    try:
        mme_total = _parse_float(row["mme_total"], "mme_total")
        if mme_total < 0:
            raise ValueError("negative")
    except ValueError:
        raise ValueError("invalid mme_total") from None

    try:
        days_supply = int(row["days_supply"])
        if days_supply < 0:
            raise ValueError("negative")
    except ValueError:
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


def parse_csv(stream: TextIO | str) -> tuple[list[PrescriptionRecord], list[RowError]]:
    """
    Parse a transaction CSV into records plus row-level errors.

    A wrong header raises :class:`SchemaError`; bad rows never abort the
    parse, they are reported with their file line number and a reason.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.DictReader(stream)
    if reader.fieldnames is None:
        raise SchemaError("empty input: missing header row")
    got = [name.strip() for name in reader.fieldnames]
    if set(got) != set(CSV_COLUMNS):
        missing = sorted(set(CSV_COLUMNS) - set(got))
        unknown = sorted(set(got) - set(CSV_COLUMNS))
        raise SchemaError(f"bad header: missing columns {missing}, unknown columns {unknown}")
    reader.fieldnames = got  # rows are keyed by the stripped names

    records: list[PrescriptionRecord] = []
    errors: list[RowError] = []
    for row in reader:
        line = reader.line_num
        if None in row or any(v is None for v in row.values()):
            errors.append(RowError(line, "wrong field count"))
            continue
        try:
            records.append(_parse_row(row))
        except ValueError as exc:
            errors.append(RowError(line, str(exc)))
    return records, errors


def write_csv(records: Iterable[PrescriptionRecord], path: str | Path | TextIO) -> None:
    """Write records in the exact ingest schema; round-trips through parse_csv."""
    own = isinstance(path, (str, Path))
    stream = open(path, "w", newline="") if own else path
    try:
        writer = csv.writer(stream)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([
                r.record_id,
                r.fill_date.isoformat(),
                repr(r.patient.lat), repr(r.patient.lon),
                repr(r.prescriber.lat), repr(r.prescriber.lon),
                repr(r.dispenser.lat), repr(r.dispenser.lon),
                repr(r.mme_total),
                r.days_supply,
                r.drug_family,
            ])
    finally:
        if own:
            stream.close()


def clean(
    records: Iterable[PrescriptionRecord],
    cap: float = DEFAULT_MME_CAP,
    cutoff_date: date = DEFAULT_CUTOFF,
    n_malformed: int = 0,
) -> tuple[list[PrescriptionRecord], FilterReport]:
    """
    Apply the exclusion filters and tally each drop by first-matching reason.

    Reasons are checked in a fixed order (date, MME cap, days supply,
    coordinates) so that a record failing several filters is counted once.
    ``n_malformed`` folds upstream parse failures into the report so that
    ``total_in == total_kept + sum(exclusions)`` holds over the whole file.
    """
    report = FilterReport(malformed_row=n_malformed, total_in=n_malformed)
    kept: list[PrescriptionRecord] = []
    for r in records:
        report.total_in += 1
        if r.fill_date < cutoff_date:
            report.pre_2014 += 1
        elif r.mme_total > cap:
            report.mme_exceeds_cap += 1
        elif r.days_supply < 1:
            report.missing_or_zero_days_supply += 1
        elif not (r.patient.is_valid and r.prescriber.is_valid and r.dispenser.is_valid):
            report.invalid_coordinates += 1
        else:
            kept.append(r)
    report.total_kept = len(kept)
    return kept, report
