"""Transaction records: CSV parsing, validation and exclusion filtering."""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import asdict, dataclass, field, fields
from datetime import date
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

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

# Rows parsed per chunk: whole-file string columns cost more memory than
# the rows they come from.
CHUNK_ROWS = 4096
# Lines built per write: the text of a block costs several times its bytes.
WRITE_ROWS = 1024
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")  # the one fill_date form


class ReadError(ValueError):
    """A CSV stream that cannot be read: a byte that does not decode, a field
    the csv module refuses, or, in a reader that stops at the first error, a
    header or row that breaks its schema.  The message names the line where
    there is one, but not the file."""

    @classmethod
    def undecodable(cls, exc: UnicodeDecodeError) -> "ReadError":
        return cls(f"cannot decode byte {exc.object[exc.start]:#04x} as {exc.encoding}")


class SchemaError(ReadError):
    """The CSV header does not match the expected column set."""


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

    Field names and order follow ``CSV_COLUMNS``.  ``record_id`` is an
    object array of str; ``fill_date`` holds day ordinals
    (``date.toordinal``).
    """

    record_id: np.ndarray  # object, of str
    fill_date: np.ndarray  # int64
    patient_lat: np.ndarray  # float64, as are the other coordinates
    patient_lon: np.ndarray
    prescriber_lat: np.ndarray
    prescriber_lon: np.ndarray
    dispenser_lat: np.ndarray
    dispenser_lon: np.ndarray
    mme_total: np.ndarray  # float64
    days_supply: np.ndarray  # int64
    drug_family: np.ndarray  # str

    def __len__(self) -> int:
        return len(self.record_id)

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self, name) for name in CSV_COLUMNS]

    @classmethod
    def from_records(cls, records: Sequence[PrescriptionRecord]) -> "TransactionTable":
        return cls(
            np.array([r.record_id for r in records], dtype=object),
            np.array([r.fill_date.toordinal() for r in records], dtype=np.int64),
            *(np.array([getattr(getattr(r, point), axis) for r in records], dtype=float)
              for point in ("patient", "prescriber", "dispenser")
              for axis in ("lat", "lon")),
            np.array([r.mme_total for r in records], dtype=float),
            np.array([r.days_supply for r in records], dtype=np.int64),
            np.array([r.drug_family for r in records], dtype=str),
        )

    def to_records(self) -> list[PrescriptionRecord]:
        dates = {d: date.fromordinal(d) for d in set(self.fill_date.tolist())}
        return [PrescriptionRecord(rid, dates[day], GeoPoint(plat, plon),
                                   GeoPoint(rlat, rlon), GeoPoint(dlat, dlon),
                                   mme, days, family)
                for rid, day, plat, plon, rlat, rlon, dlat, dlon, mme, days, family
                in zip(*(a.tolist() for a in self._arrays()))]

    @classmethod
    def concat(cls, parts: Sequence["TransactionTable"]) -> "TransactionTable":
        return cls(*(np.concatenate(cols) for cols in zip(*(p._arrays() for p in parts))))

    def take(self, keep: np.ndarray) -> "TransactionTable":
        """The records where the boolean mask ``keep`` is true."""
        return TransactionTable(*(a[keep] for a in self._arrays()))

    def mme_per_day(self) -> np.ndarray:
        """Daily dose of each record, as :func:`mme_per_day` computes it."""
        _require_days_supply(self.record_id, self.days_supply)
        return np.asarray(self.mme_total / self.days_supply, dtype=float)


@dataclass(frozen=True)
class _ReadTable(TransactionTable):
    """A table as :func:`parse_chunks` reads it, with ``texts``: the field
    text of each record, as read, by column name.  :meth:`take` keeps the
    texts of the records it keeps, so :func:`clean` filters both at once,
    and :func:`write_csv` writes the texts."""

    texts: dict[str, Sequence[str]] = field(repr=False, compare=False)

    def take(self, keep: np.ndarray) -> "_ReadTable":
        if keep.all():
            return self  # frozen: every record and its texts are kept as they are
        kept = keep.tolist()
        texts = {name: list(compress(column, kept)) for name, column in self.texts.items()}
        return _ReadTable(*super().take(keep)._arrays(), texts)


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
        return asdict(self)

    def __add__(self, other: "FilterReport") -> "FilterReport":
        """The tallies of two parts of one input, added."""
        return FilterReport(*(getattr(self, f.name) + getattr(other, f.name)
                              for f in fields(self)))


def mme_per_day(record: PrescriptionRecord) -> float:
    """Daily dose for one record: total MME divided by days of supply."""
    _require_days_supply((record.record_id,), (record.days_supply,))
    return record.mme_total / record.days_supply


def parse_date(text: str) -> date:
    """A date written exactly ``YYYY-MM-DD``, once surrounding whitespace is
    stripped; ValueError otherwise, on every Python version."""
    text = text.strip()
    if not _ISO_DATE.fullmatch(text):
        raise ValueError(f"expected YYYY-MM-DD, got {text!r}")
    return date.fromisoformat(text)


# --- the CSV schemas -------------------------------------------------------------

class Schema(NamedTuple):
    """The rules of one CSV file type, in reporting order: a row of the wrong
    length, a blank value in a ``required`` column (``missing <column>``), then
    each (column, test) of ``checks``.  A test maps a chunk's values of its
    column to their converted values and a bad-row mask (``invalid <column>``,
    then the stripped value if the column is ``quoted``); a required column's
    test rejects a blank value, so only failing rows are searched for one.
    ``header`` checks the header row and returns the names to read rows by."""

    header: Callable[[list[str] | None], list[str]]
    required: tuple[str, ...]
    quoted: tuple[str, ...]
    checks: tuple[tuple[str, Callable[[Sequence[str]], tuple[Sequence, np.ndarray]]], ...]


def _convert(func: Callable[[str], object], values: Sequence, fill, dtype=object) -> np.ndarray:
    """``func`` of each value, ``fill`` where it raises ValueError or
    OverflowError; value by value only if one pass over the column raises."""
    try:
        return np.fromiter(map(func, values), dtype, len(values))
    except (ValueError, OverflowError):
        if len(values) == 1:
            return np.array([fill], dtype)
        return np.concatenate([_convert(func, (value,), fill, dtype) for value in values])


def _text(values: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    text = np.array(values, dtype=object)
    if all(map(str.strip, values)):
        return text, np.zeros(len(values), bool)
    return text, ~np.fromiter(map(bool, map(str.strip, values)), bool, len(values))


def floats(low: float = -math.inf, empty_ok: bool = False) -> Callable:
    """The test of a float column: a value must be finite and at least
    ``low``, or, if ``empty_ok``, empty, which reads as NaN."""
    def test(values):
        x = _convert(float, values, math.nan, float)
        bad = ~(np.isfinite(x) & (x >= low))
        if empty_ok:
            bad &= np.fromiter(map(bool, values), bool, len(values))
        return x, bad
    return test


def whole_numbers(low: int) -> Callable:
    """The test of an int64 column: a value must be an integer of at least
    ``low`` that fits in 64 bits."""
    def test(values):
        column = _convert(int, values, low - 1, np.int64)
        return column, column < low
    return test


def distinct_values(convert: Callable[[str], object], fill) -> Callable:
    """The test of a column with few distinct values: ``convert`` runs once
    per distinct value and gives ``fill``, or raises ValueError, for a bad one."""
    def test(values):
        distinct = list(set(values))
        converted = dict(zip(distinct, _convert(convert, distinct, fill)))
        column = np.array(list(map(converted.__getitem__, values)), dtype=type(fill))
        return column, column == fill
    return test


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


# The transaction CSV, one column per PrescriptionRecord field.
INGEST = Schema(_check_header, CSV_COLUMNS, ("drug_family",), (
    ("record_id", _text),
    ("fill_date", distinct_values(lambda text: parse_date(text).toordinal(), np.int64(0))),
    *((name, floats()) for name in COORDINATE_COLUMNS),
    ("mme_total", floats(0.0)),
    ("days_supply", whole_numbers(0)),
    ("drug_family", distinct_values(
        lambda text: text.strip() if text.strip() in FAMILIES else "", "")),
))


def check_rows(schema: Schema, header: list[str], rows: list[list[str]], lines: Sequence[int]
               ) -> tuple[dict[str, np.ndarray], dict[str, Sequence[str]], list[RowError]]:
    """The converted columns of the rows that pass ``schema``, by name; the
    field texts of the same rows, as read, by header name; and a
    :class:`RowError` naming the first rule each other row breaks."""
    errors = []
    if set(map(len, rows)) - {len(header)}:
        fits = [len(row) == len(header) for row in rows]
        errors = [RowError(line, "wrong field count") for line, ok in zip(lines, fits) if not ok]
        rows, lines = list(compress(rows, fits)), list(compress(lines, fits))
    values = dict(zip(header, zip(*rows))) if rows else dict.fromkeys(header, ())
    return _check_columns(schema, values, lines, errors)


def _check_columns(schema: Schema, values: dict[str, Sequence[str]], lines: Sequence[int],
                   errors: list[RowError]) -> tuple[dict, dict, list[RowError]]:
    """:func:`check_rows` of rows of the header's length, given as columns by
    name; ``errors`` holds those of the rows of another length, in line
    order.  When every row passes, the texts are ``values`` itself."""
    columns, masks = {}, []
    for column, test in schema.checks:
        columns[column], bad = test(values[column])
        masks.append(bad)
    keep = ~np.any(masks, axis=0)
    if keep.all():
        return columns, values, errors
    first = np.argmax(masks, axis=0)  # the first check each row fails
    for i in np.flatnonzero(~keep).tolist():
        column = schema.checks[first[i]][0]
        blank = [name for name in schema.required if not values[name][i].strip()]
        reason = f"missing {blank[0]}" if blank else f"invalid {column}"
        if column in schema.quoted and not blank:
            reason += f" {values[column][i].strip()!r}"
        errors.append(RowError(lines[i], reason))
    kept = keep.tolist()
    return ({name: column[keep] for name, column in columns.items()},
            {name: list(compress(text, kept)) for name, text in values.items()},
            sorted(errors, key=lambda e: e.line))


def _plain_text(lines: list[str]) -> str | None:
    """The text of ``lines`` with LF line ends if csv.reader reads each line
    as the text between its commas: no line holds a double quote, a NUL or a
    CR other than in a CRLF end, none is shorter than three characters (so
    none is blank) and none is longer than ``csv.field_size_limit()``.  None
    otherwise, and for no lines.  Each test looks for one character, which
    is several times faster than looking for two."""
    if (not lines or min(map(len, lines)) < 3
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    text = "".join(lines)
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != sum(map(str.endswith, lines, repeat("\r\n"))):
            return None
        text = text.replace("\r", "")
    return text


def read_csv(stream: TextIO, schema: Schema) -> Iterator[tuple[dict, dict, list[RowError]]]:
    """:func:`check_rows` of each chunk of up to ``CHUNK_ROWS`` rows of a CSV
    stream, after ``schema.header`` of its header row (None if the stream is
    empty); the last chunk may be empty.  Blank lines are skipped, as
    csv.DictReader does.  A byte that does not decode, or a field over
    ``csv.field_size_limit()``, raises :class:`ReadError` when reached.

    The header, and each chunk of ``CHUNK_ROWS`` lines that
    :func:`_plain_text` accepts and whose every line has one comma fewer
    than the header has names, is split at its commas.  From the first
    chunk that is not, csv.reader reads the rest of the stream, starting
    with that chunk's lines, so the rows, line numbers, chunks and errors
    are always those of csv.reader.
    """
    return _read_chunks(stream, schema, map, lambda chunk: chunk)


def read_columns(stream: TextIO, schema: Schema, names: Sequence[str]
                 ) -> Iterator[tuple[list[np.ndarray], list[RowError]]]:
    """The converted ``names`` columns, in that order, and the errors of each
    chunk :func:`read_csv` reads.  As only those columns travel back, the
    plain chunks are split and checked by :func:`_workers.ordered_map`, in
    worker processes where there are CPUs for them.  (:func:`read_csv`
    checks every chunk in this process: its chunks keep every field's text,
    and sending those back from workers raised ingest's peak RSS at 200k
    records from 39 MB to 45-48 MB and saved no time.)"""
    from ._workers import ordered_map  # here: the producer stages do not load it
    return _read_chunks(stream, schema, ordered_map,
                        lambda chunk: ([chunk[0][name] for name in names], chunk[2]))


def _read_chunks(stream: TextIO, schema: Schema, run: Callable, project: Callable) -> Iterator:
    """:func:`read_csv`'s chunks, each passed through ``project``; ``run``
    (``map`` or one like it) maps the splitting and checking, and
    ``project``, over the plain chunks."""
    read = 0  # the lines split here; csv.reader reads the rest
    try:
        lines = list(islice(stream, 1))
        text = _plain_text(lines)
        if text is not None:
            header, read = schema.header(text.rstrip("\n").split(",")), 1
            width, ended = len(header), False

            def plain_chunks():
                """Each plain chunk as [first line number, rows, text];
                leaves ``lines`` at the lines of the first chunk that is not."""
                nonlocal lines, read, ended
                while not ended:
                    lines = list(islice(stream, CHUNK_ROWS))
                    text = _plain_text(lines)
                    if text is None or set(map(str.count, lines, repeat(","))) != {width - 1}:
                        return
                    n, lines = len(lines), None
                    ended = n < CHUNK_ROWS
                    read += n
                    chunk, text = [read - n + 1, n, text], None
                    yield chunk

            def split(chunk):
                first, n = chunk[:2]
                # Popped, the text's one copy goes as soon as its next exists.
                cells = chunk.pop().replace("\n", ",").split(",")
                del cells[n * width:]  # the empty cell after the last line end
                values = {name: cells[j::width] for j, name in enumerate(header)}
                cells = None
                return project(_check_columns(schema, values, range(first, first + n), []))

            yield from run(split, plain_chunks())
            if ended:
                return
        reader = csv.reader(chain(lines, stream))
        if not read:
            header = schema.header(next(reader, None))
        rows, numbers = [], []
        for row in reader:
            if not row:
                continue
            rows.append(row)
            numbers.append(read + reader.line_num)
            if len(rows) == CHUNK_ROWS:
                yield project(check_rows(schema, header, rows, numbers))
                rows, numbers = [], []
        yield project(check_rows(schema, header, rows, numbers))
    except csv.Error as exc:
        raise ReadError(f"line {read + reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ReadError.undecodable(exc) from None


def duplicate_names(names: Sequence[str]) -> list[str]:
    """The names that occur more than once, sorted."""
    return sorted({name for name in names if names.count(name) > 1})


def parse_chunks(stream: TextIO) -> Iterator[tuple[TransactionTable, list[RowError]]]:
    """A transaction CSV a chunk at a time, as :func:`read_csv` reads it with
    the ``INGEST`` schema: each chunk's table, whose ``texts`` hold the field
    texts of its records, and a :class:`RowError` for each of its rows the
    schema rejects."""
    for columns, texts, errors in read_csv(stream, INGEST):
        yield _ReadTable(**columns, texts=texts), errors
        columns = texts = None  # free the chunk before the next is read


def parse_csv(stream: TextIO | str) -> tuple[TransactionTable, list[RowError]]:
    """A transaction CSV as a table, and a :class:`RowError` for each row the
    ``INGEST`` schema rejects; bad rows never abort the parse.  A wrong
    header raises :class:`SchemaError`, and a stream the csv module cannot
    read :class:`ReadError`."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    parts, errors = [], []
    for columns, texts, bad in read_csv(stream, INGEST):
        parts.append(TransactionTable(**columns))
        errors += bad
        texts = None  # free the chunk's texts before the next is read
    return TransactionTable.concat(parts), errors


def _needs_quotes(text: str) -> bool:
    """Whether csv.writer's QUOTE_MINIMAL quotes a field holding ``text``: it
    holds a comma, a double quote, CR or LF.  Four searches for one
    character are several times faster than one regular expression."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _quoted(texts: Sequence[str]) -> Sequence[str]:
    """Text fields as csv.writer's QUOTE_MINIMAL writes them: one that
    :func:`_needs_quotes` is wrapped in double quotes, each double quote
    doubled."""
    if not _needs_quotes("".join(texts)):
        return texts
    return ['"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text
            for text in texts]


def _field_texts(column: np.ndarray) -> list[str]:
    """The CSV fields of a column: repr of a float, str of an int, and str of
    anything else under the quoting rule of :func:`_quoted`."""
    values = column.tolist()
    if column.dtype.kind == "f":
        return list(map(repr, values))
    if column.dtype.kind in "iub":
        return list(map(str, values))
    return _quoted(list(map(str, values)))


def write_csv(table: TransactionTable, path: str | Path | TextIO,
              extra: Iterable[tuple[str, np.ndarray]] = (), header: bool = True) -> None:
    """Write a table in the exact ingest schema, followed by the ``extra``
    (name, column) pairs; round-trips through :func:`parse_csv`.  Without
    the ``header`` line, the rows follow what a stream already holds, so a
    table can be written a part at a time.

    The bytes are those of ``csv.writer``: one CRLF-ended line per record,
    ``WRITE_ROWS`` lines per write, with a float as its repr, an int as its
    str, and other values as their str under the quoting rule of
    :func:`_quoted`.  A table :func:`parse_chunks` read (or taken from one)
    has its ingest columns written as the field texts it was read from,
    each under the quoting rule of :func:`_quoted`, not formatted from its
    values; its ``extra`` columns are formatted.
    """
    extra = list(extra)
    texts = table.texts if isinstance(table, _ReadTable) else None
    own = isinstance(path, (str, Path))
    stream = open(path, "w", newline="") if own else path
    try:
        if header:
            stream.write(",".join(_quoted([*CSV_COLUMNS, *(name for name, _ in extra)]))
                         + "\r\n")
        for start in range(0, len(table), WRITE_ROWS):
            stop = start + WRITE_ROWS
            if texts is not None:
                fields = [_quoted(texts[name][start:stop]) for name in CSV_COLUMNS]
            else:
                days = table.fill_date[start:stop].tolist()
                iso = {d: date.fromordinal(d).isoformat() for d in set(days)}
                fields = [_field_texts(table.record_id[start:stop]),
                          list(map(iso.__getitem__, days)),
                          *(_field_texts(a[start:stop]) for a in table._arrays()[2:])]
            fields += [_field_texts(column[start:stop]) for _, column in extra]
            stream.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")
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
