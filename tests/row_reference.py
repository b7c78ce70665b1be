"""A row-at-a-time reference parse of one transaction CSV row, for the oracle
tests of the column checks in ``records`` and ``series``.

``parse_row`` and ``parse_float`` are the row parser the library used before
its reader checked whole columns; the only changes are the fill_date rule,
which accepts exactly ``YYYY-MM-DD`` (ASCII digits) after stripping
surrounding whitespace, on every Python version, and the days_supply rule,
which accepts only a value that fits in int64.
"""

import math
import re
from datetime import date

from rxgeo.records import (COORDINATE_COLUMNS, CSV_COLUMNS, FAMILIES, GeoPoint,
                           PrescriptionRecord)


def parse_float(raw: str, col: str) -> float:
    """A finite float; ValueError("invalid <col>") otherwise."""
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"invalid {col}")
    return value


def parse_row(row: dict[str, str]) -> PrescriptionRecord:
    for col in CSV_COLUMNS:
        if row[col] is None or row[col].strip() == "":
            raise ValueError(f"missing {col}")
    try:
        text = row["fill_date"].strip()
        if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
            raise ValueError(text)
        fill_date = date.fromisoformat(text)
    except ValueError:
        raise ValueError("invalid fill_date") from None

    coords = {col: parse_float(row[col], col) for col in COORDINATE_COLUMNS}
    mme_total = parse_float(row["mme_total"], "mme_total")
    if mme_total < 0:
        raise ValueError("invalid mme_total")

    try:
        days_supply = int(row["days_supply"])
        if not 0 <= days_supply < 2**63:
            raise ValueError("outside int64 or negative")
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
