"""``records.read_csv`` against the csv.reader loop it replaced.

The reader splits plain chunks at their commas and hands the rest of the
stream to csv.reader from the first line that needs it.  On every input it
must give what the old loop in ``reader_reference`` gives: the same chunks,
with the same columns bit for bit, the same field texts and the same
``(line, reason)`` errors, or the same exception type and message after the
same chunks.
"""

import csv
import io
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reader_reference
from rxgeo import _workers, geo, records, series, syngen

SCHEMAS = {"ingest": records.INGEST, "classified": series.CLASSIFIED,
           "series": series.SERIES}
CHUNKS = (1, 7, records.CHUNK_ROWS)
# Cell values: bad numbers, blanks, text the csv module quotes, a NUL (which
# csv rejects on Python 3.10 only), and non-ASCII text.
POOL = ["", " ", "  5 ", "nan", "1e400", "-1", "0", "abc", "1.5", "+5", "١", "é",
        "2018-02-30", " opioid", "x,y", 'a"b', "a\rb", "a\nb", "a\r\nb", "\x00",
        "ab\x00", '"', "a,", ",", "0" * 50]
# Raw characters put into the text anywhere, so that rows break between quotes.
RAW = ['"', "\r", "\n", "\r\n", ",", "\x00", " ", "\t"]


def _base_texts():
    """Header and rows of each CSV type, as lists of field text."""
    kept, _ = records.clean(syngen.generate(syngen.default_config(), 80, seed=3))
    out = io.StringIO(newline="")
    series.write_classified_csv(out, geo.classify_records(kept))
    classified = list(csv.reader(io.StringIO(out.getvalue(), newline="")))
    width = len(records.CSV_COLUMNS)
    months = [["month_index", "year", "month", "mean_mme_day", "n_records"]]
    months += [[str(i), str(2014 + i // 12), str(i % 12 + 1),
                "" if i % 5 == 3 else repr(40.0 + i / 7), str(i % 4)] for i in range(30)]
    return {"ingest": [row[:width] for row in classified], "classified": classified,
            "series": months}


BASE = _base_texts()


def _field(text, quote):
    return '"' + text.replace('"', '""') + '"' if quote else text


@st.composite
def csv_texts(draw, kind):
    """A CSV text of ``kind``: valid rows, some cells changed, some rows
    ragged, quoted or not, CRLF or LF line ends, blank lines, raw special
    characters, and sometimes no final line end."""
    base = BASE[kind]
    rows = [list(base[0])]
    rows += [list(draw(st.sampled_from(base[1:]))) for _ in range(draw(st.integers(0, 24)))]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(rows) - 1))
        change = draw(st.sampled_from(["cell", "cell", "short", "long"]))
        if change == "cell":
            rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(st.sampled_from(POOL))
        elif change == "short" and len(rows[row]) > 1:
            rows[row].pop()
        else:
            rows[row].append("x")
    quote_from = draw(st.integers(0, len(rows) + 1))  # rows that quote their special fields
    lines = [",".join(_field(f, i >= quote_from and any(c in f for c in ',"\r\n'))
                      for f in row) for i, row in enumerate(rows)]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", " ", "  ", "\t", ",", ",,"])))
    ends = draw(st.sampled_from(["\r\n", "\n", "mixed"]))
    text = "".join(line + (draw(st.sampled_from(["\r\n", "\n"])) if ends == "mixed" else ends)
                   for line in lines)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(RAW)) + text[at:]
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _bits(column):
    """A column's dtype and exact content."""
    column = np.asarray(column)
    if column.dtype == object:
        return column.dtype.str, [(type(v), v) for v in column.tolist()]
    return column.dtype.str, column.tobytes()


def _outcome(read, stream, schema):
    """Each chunk's columns, field texts and errors, then the exception the
    reader raised, if any.  Only the reader's own step is in the ``try``, so
    a chunk of the wrong shape fails the test instead of passing as an
    exception that both readers raise."""
    chunks, chunk_iter = [], read(stream, schema)
    while True:
        try:
            chunk = next(chunk_iter)
        except StopIteration:
            return chunks, None
        except Exception as exc:  # noqa: BLE001 - any exception must match
            return chunks, (type(exc), str(exc))
        columns, texts, errors = chunk
        chunks.append(({name: _bits(c) for name, c in columns.items()},
                       {name: list(t) for name, t in texts.items()},
                       [(e.line, e.reason) for e in errors]))


@contextmanager
def _chunk_rows(n):
    with mock.patch.object(records, "CHUNK_ROWS", n), \
            mock.patch.object(reader_reference, "CHUNK_ROWS", n):
        yield


@contextmanager
def _field_limit(limit):
    old = csv.field_size_limit()
    csv.field_size_limit(limit or old)
    try:
        yield
    finally:
        csv.field_size_limit(old)


STREAMS = {
    "newline=''": lambda text: io.StringIO(text, newline=""),
    "default newline": lambda text: io.StringIO(text),
    "utf-8 bytes": lambda text: io.TextIOWrapper(
        io.BytesIO(text.encode("utf-8", "surrogatepass")), encoding="utf-8", newline=""),
}


def _assert_same(text, kind, chunk, limit=None):
    with _chunk_rows(chunk), _field_limit(limit):
        for make in STREAMS.values():
            got = _outcome(records.read_csv, make(text), SCHEMAS[kind])
            want = _outcome(reader_reference.read_csv, make(text), SCHEMAS[kind])
            assert got == want
    return got


@settings(max_examples=300, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_reader_matches_the_csv_reader_loop(kind, data):
    text = data.draw(csv_texts(kind), label="text")
    chunk = data.draw(st.sampled_from(CHUNKS), label="chunk rows")
    limit = data.draw(st.sampled_from([None, None, 60, 300]), label="field size limit")
    _assert_same(text, kind, chunk, limit)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
@pytest.mark.parametrize("text", [
    "", "\r\n", "\n", "\r", " \r\n", "\x00", '"', '""\r\n',
    "header,only", "header,only\r\n", "a,b\r\n\r\n", "a,b\rc,d\r\n",
], ids=repr)
def test_reader_matches_on_degenerate_streams(kind, chunk, text):
    _assert_same(text, kind, chunk)


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_reader_matches_on_header_only_and_exact_chunk_multiples(kind, chunk):
    base = BASE[kind]
    for n in (0, 1, 7, 14):
        rows = [base[0]] + [base[1 + i % (len(base) - 1)] for i in range(n)]
        text = "".join(",".join(row) + "\r\n" for row in rows)
        _assert_same(text, kind, chunk)
        _assert_same(text.rstrip("\r\n"), kind, chunk)


@pytest.mark.parametrize("special", ['"id, with a comma"', '"id with\r\na line break"',
                                     "\r", "\x00", "\r\n", "x" * 400, "id,extra"],
                         ids=["quoted comma", "quoted CRLF", "CR", "NUL", "blank line",
                              "oversized field", "extra field"])
@pytest.mark.parametrize("chunk", CHUNKS)
def test_reader_matches_when_the_first_special_line_is_in_a_late_chunk(chunk, special):
    """The lines before it are split at commas, the rest read by csv.reader."""
    base = BASE["classified"]
    n = 2 * chunk + 10
    rows = [",".join(base[1 + i % (len(base) - 1)]) for i in range(n)]
    rows[2 * chunk + 3] = special + rows[2 * chunk + 3][rows[2 * chunk + 3].index(","):]
    text = ",".join(base[0]) + "\r\n" + "\r\n".join(rows) + "\r\n"
    chunks, exc = _assert_same(text, "classified", chunk, limit=300)
    if special.startswith('"'):
        assert exc is None
        assert sum(len(c["mme_total"][1]) // 8 + len(e) for c, _, e in chunks) == n
    if special == "id,extra":
        assert [e for _, _, e in chunks if e] == [[(2 * chunk + 5, "wrong field count")]]


def test_reader_reports_a_late_undecodable_byte_as_the_loop_does():
    base = BASE["ingest"]
    text = "".join(",".join(base[1 + i % (len(base) - 1)]) + "\r\n" for i in range(3000))
    data = (",".join(base[0]) + "\r\n" + text).encode() + b"\xff\r\n" + text.encode()
    for chunk in CHUNKS:
        with _chunk_rows(chunk):
            outcomes = [_outcome(read, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                                                        newline=""),
                                 records.INGEST)
                        for read in (records.read_csv, reader_reference.read_csv)]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] == (records.ReadError, "cannot decode byte 0xff as utf-8")


def _keeping(read):
    """``read`` as :func:`records.read_columns`: the kept columns and the
    errors of each chunk."""
    def read_kept(stream, schema, names):
        for columns, _, errors in read(stream, schema):
            yield [columns[name] for name in names], errors
    return read_kept


def _peak(read, path):
    # One worker: the whole read runs in this process, where tracemalloc sees it.
    with mock.patch.object(series, "read_columns", read), open(path, newline="") as fh, \
            mock.patch.object(_workers, "worker_count", lambda: 1):
        tracemalloc.start()
        try:
            table = series.read_classified_csv(fh)
            return tracemalloc.get_traced_memory()[1], table
        finally:
            tracemalloc.stop()


def test_classified_read_peak_memory_is_no_higher_than_the_loops(tmp_path):
    kept, _ = records.clean(syngen.generate(syngen.default_config(), 20000, seed=11))
    path = tmp_path / "classified.csv"
    series.write_classified_csv(path, geo.classify_records(kept))
    assert len(kept) > 19000
    reference_read = _keeping(reader_reference.read_csv)
    for read in (reference_read, records.read_columns):  # fill any cache first
        with mock.patch.object(series, "read_columns", read), open(path, newline="") as fh:
            series.read_classified_csv(fh)
    want, reference = _peak(reference_read, path)
    got, table = _peak(records.read_columns, path)
    for name in ("drug_family", "month_index", "mme_total", "days_supply", "class_code",
                 "mme_day"):
        assert _bits(getattr(table, name)) == _bits(getattr(reference, name))
    assert got <= want, (got, want)
