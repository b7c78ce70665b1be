"""The csv.reader loop ``records.read_csv`` ran before it split plain chunks
itself, kept as the oracle of the reader tests.  ``CHUNK_ROWS`` is this
module's own copy: a test that changes ``records.CHUNK_ROWS`` must patch this
module too (see ``test_reader._chunk_rows``)."""

import csv
from typing import Iterator, TextIO

from rxgeo.records import CHUNK_ROWS, ReadError, RowError, Schema, check_rows


def read_csv(stream: TextIO, schema: Schema) -> Iterator[tuple[dict, dict, list[RowError]]]:
    """:func:`check_rows` of each chunk of up to ``CHUNK_ROWS`` rows of a CSV
    stream, after ``schema.header`` of its header row (None if the stream is
    empty); the last chunk may be empty.  Blank lines are skipped, as
    csv.DictReader does.  A byte that does not decode, or a field over
    ``csv.field_size_limit()``, raises :class:`ReadError` when reached."""
    reader = csv.reader(stream)
    try:
        header = schema.header(next(reader, None))
        rows, lines = [], []
        for row in reader:
            if not row:
                continue
            rows.append(row)
            lines.append(reader.line_num)
            if len(rows) == CHUNK_ROWS:
                yield check_rows(schema, header, rows, lines)
                rows, lines = [], []
        yield check_rows(schema, header, rows, lines)
    except csv.Error as exc:
        raise ReadError(f"line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ReadError.undecodable(exc) from None
