"""The table writer as it was before it joined the fields itself, for the
oracle test of ``records.write_csv``, and ``csv.writer`` on rows of field
texts, for the oracle test of the stages that copy their input's texts.

``write_csv`` is the ``csv.writer`` writer the library used up to version
0.9.0, copied unchanged apart from its chunk size, a constant here: the
chunk size does not change the bytes written.
"""

import csv
from datetime import date
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from rxgeo.records import CSV_COLUMNS, TransactionTable

CHUNK_ROWS = 4096


def write_csv(table: TransactionTable, path: str | Path | TextIO,
              extra: Iterable[tuple[str, np.ndarray]] = ()) -> None:
    """Write a table in the exact ingest schema, followed by the ``extra``
    (name, column) pairs; round-trips through :func:`parse_csv`.

    ``csv.writer`` writes the Python values ``CHUNK_ROWS`` rows at a time: a
    float as its repr, an int or a string as its str.
    """
    extra = list(extra)
    arrays = [getattr(table, name) for name in CSV_COLUMNS[2:]] + [column for _, column in extra]
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


def write_rows(path: str | Path, header: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    """A header line and rows of field texts, as ``csv.writer`` writes them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
