"""The columnar producer path: the chunked ingest parser, the table writer
and the simulate, ingest and classify stages that run on them.

The parser must give the records and row errors of a per-row parse built on
the reference ``row_reference.parse_row``, and the stages must write what the
per-record writers below (the ones the table writer replaced) write.
"""

import csv
import io
import json
import math
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxgeo import cli, geo, records, series, syngen
from rxgeo.records import CSV_COLUMNS, FilterReport, TransactionTable, mme_per_day
from row_reference import parse_row
from writer_reference import write_csv as reference_write_csv
from writer_reference import write_rows as reference_write_rows


# --- chunked parser vs. a per-row oracle ----------------------------------------

def _oracle_rows(text):
    """(row, record) pairs and (line, reason) errors of a row-at-a-time
    parse; each row is the field texts csv.DictReader reads, by stripped
    header name."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    reader.fieldnames = [name.strip() for name in reader.fieldnames]
    parsed, errors = [], []
    for row in reader:
        if None in row or None in row.values():
            errors.append((reader.line_num, "wrong field count"))
            continue
        try:
            parsed.append((row, parse_row(row)))
        except ValueError as exc:
            errors.append((reader.line_num, str(exc)))
    return parsed, errors


def _oracle(text):
    """Records and (line, reason) errors of a row-at-a-time parse."""
    parsed, errors = _oracle_rows(text)
    return [rec for _, rec in parsed], errors


POOL = ["", " ", "1_000", " 7 ", "+7", "٣", "²", "nan", "inf", "-inf", "1e400",
        "-0.0", "0", "-1", "2.5", "abc", str(10**20), "95", "181", "2013-12-31",
        " 2016-07-01 ", "20190305", "2018-02-30", " opioid", "Opioid",
        "benzodiazepine", "1" + "0" * 400, str(2**63), str(2**63 - 1)]


@pytest.fixture(scope="module")
def base_rows():
    """Header plus eight valid rows of a transaction CSV."""
    buf = io.StringIO(newline="")
    table = syngen.generate(syngen.default_config(), 80, seed=5)
    records.write_csv(table.take(np.arange(len(table)) < 8), buf)
    return list(csv.reader(io.StringIO(buf.getvalue(), newline="")))


def _csv_text(rows):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_chunked_parser_matches_row_oracle(base_rows, data):
    rows = [list(r) for r in base_rows]
    if data.draw(st.booleans(), label="padded header"):
        rows[0] = [f" {name} " if i % 3 == 0 else name
                   for i, name in enumerate(rows[0])]
    for row in rows[1:]:
        kind = data.draw(st.sampled_from(["keep", "keep", "cell", "cell", "days_supply",
                                          "short", "long", "multi-line id"]))
        if kind == "cell":  # one mutated cell in this row
            col = data.draw(st.integers(0, len(CSV_COLUMNS) - 1), label="column")
            row[col] = data.draw(st.sampled_from(POOL), label="value")
        elif kind == "days_supply":  # the column whose bound is 64 bits
            row[CSV_COLUMNS.index("days_supply")] = data.draw(st.sampled_from(POOL),
                                                              label="value")
        elif kind == "short":
            row.pop()
        elif kind == "long":
            row.append("x")
        elif kind == "multi-line id":
            row[0] = "id with\na line break"
    text = _csv_text(rows)
    lines = text.split("\r\n")
    for _ in range(data.draw(st.integers(0, 2), label="blank lines")):
        at = data.draw(st.integers(1, len(lines) - 1))
        lines.insert(at, "")
    text = "\r\n".join(lines)
    chunk = data.draw(st.sampled_from([1, 3, 4096]), label="chunk rows")

    expected_recs, expected_errors = _oracle(text)
    with mock.patch.object(records, "CHUNK_ROWS", chunk):
        table, errors = records.parse_csv(text)
    # repr compares floats bit for bit (-0.0 against 0.0 as well)
    assert repr(table.to_records()) == repr(expected_recs)
    assert [(e.line, e.reason) for e in errors] == expected_errors


def test_days_supply_beyond_int64_is_a_malformed_row(base_rows):
    rows = [list(r) for r in base_rows]
    rows[2][CSV_COLUMNS.index("days_supply")] = str(2**63 - 1)
    rows[3][CSV_COLUMNS.index("days_supply")] = str(2**63)
    table, errors = records.parse_csv(_csv_text(rows))
    assert [(e.line, e.reason) for e in errors] == [(4, "invalid days_supply")]
    assert table.days_supply.dtype == np.int64
    assert table.days_supply.tolist()[1] == 2**63 - 1
    kept, report = records.clean(table)
    assert report.total_kept == len(kept) == len(rows) - 2
    buf = io.StringIO(newline="")
    records.write_csv(kept, buf)
    assert buf.getvalue() == _csv_text(rows[:3] + rows[4:])


def test_record_id_is_an_object_array_on_every_path(base_rows):
    # generate, parse_csv and take used to give a list, while a parse_chunks
    # chunk, and clean of a chunk that excludes nothing, gave an object array.
    rows = [list(r) for r in base_rows]
    rows[2][CSV_COLUMNS.index("mme_total")] = "abc"  # a row error
    rows[5][CSV_COLUMNS.index("fill_date")] = "2013-12-31"  # excluded by clean
    text = _csv_text(rows)
    generated = syngen.generate(syngen.default_config(), 80, seed=5)
    parsed, _ = records.parse_csv(text)
    chunk, _ = next(records.parse_chunks(io.StringIO(text, newline="")))
    tables = {
        "generate": generated,
        "generate_blocks": next(syngen.generate_blocks(syngen.default_config(), 80, seed=5)),
        "parse_csv": parsed,
        "parse_chunks": chunk,
        "clean, nothing excluded": records.clean(chunk.take(np.arange(len(chunk)) < 3))[0],
        "clean, one excluded": records.clean(chunk)[0],
        "take": generated.take(np.arange(len(generated)) < 5),
        "concat": TransactionTable.concat([parsed, generated]),
        "from_records": TransactionTable.from_records(parsed.to_records()),
        "from_records, empty": TransactionTable.from_records([]),
    }
    for path, table in tables.items():
        ids = table.record_id
        assert isinstance(ids, np.ndarray) and ids.dtype == object and ids.ndim == 1, path
        assert len(ids) == len(table.fill_date), path
        assert all(type(i) is str for i in ids.tolist()), path
    assert tables["clean, one excluded"].record_id.tolist() == [
        r[0] for i, r in enumerate(rows[1:]) if i not in (1, 4)]


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cli_exit_codes_on_mutated_input(base_rows, tmp_path_factory, data):
    """ingest -> classify -> aggregate on a CSV with one bad cell or row and
    a few filter settings: every stage exits 0, 1 or 2 and none raises."""
    rows = [list(r) for r in base_rows]
    at = data.draw(st.integers(1, len(rows) - 1), label="row")
    kind = data.draw(st.sampled_from(["cell", "cell", "short", "long", "blank"]))
    if kind == "cell":
        col = data.draw(st.integers(0, len(CSV_COLUMNS) - 1), label="column")
        rows[at][col] = data.draw(st.sampled_from(POOL), label="value")
    elif kind == "short":
        rows[at].pop()
    elif kind == "long":
        rows[at].append("x")
    else:
        rows[at] = []
    cap = data.draw(st.sampled_from(["1e5", "0", "-1", "500", "inf", "nan"]), label="cap")
    cutoff = data.draw(st.sampled_from(["2014-01-01", "0001-01-01", "2016-07-01",
                                        "9999-12-31", "2014-13-01"]), label="cutoff")
    work = tmp_path_factory.mktemp("cli")
    (work / "raw.csv").write_text(_csv_text(rows), newline="")
    for argv in (["ingest", "--input", work / "raw.csv", "--out", work / "clean.csv",
                  "--report", work / "filter.json", "--cap", cap, "--cutoff-date", cutoff],
                 ["classify", "--input", work / "clean.csv", "--out", work / "classified.csv"],
                 ["aggregate", "--input", work / "classified.csv", "--outdir", work / "series"]):
        assert cli.main([str(a) for a in argv]) in (0, 1, 2)


# --- the table writer vs. the csv.writer oracle -----------------------------------

# Fields csv.writer quotes (comma, double quote, CR, LF), text beyond ASCII
# and surrounding spaces.
_TEXT = st.one_of(
    st.text(st.sampled_from(list(',"\r\n x1-é€😀\t')), max_size=6),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, 0.1, -1.5e-7,
                     math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True))
_DAYS = st.integers(date.min.toordinal(), date.max.toordinal())


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 9), label="rows")

    def column(values):
        return draw(st.lists(values, min_size=n, max_size=n))
    days_supply = np.array(column(st.one_of(st.sampled_from([-2**63, 2**63 - 1]),
                                            st.integers(-2**63, 2**63 - 1))), dtype=np.int64)
    table = TransactionTable(np.array(column(_TEXT), dtype=object),
                             np.array(column(_DAYS), dtype=np.int64),
                             *(np.array(column(_FLOATS), dtype=float) for _ in range(7)),
                             days_supply, np.array(column(_TEXT), dtype=str))
    extra = [("d_pp", np.array(column(_FLOATS), dtype=float)),
             ("class, \"code\"", np.array(column(_TEXT), dtype=str)),
             ("risk_level", np.array(column(st.integers(-9, 9)), dtype=np.int64))]
    return table, extra


@settings(max_examples=300, deadline=None)
@given(case=_tables(), with_extra=st.booleans(), to_path=st.booleans())
def test_write_csv_writes_the_bytes_of_the_csv_writer_oracle(tmp_path_factory, case,
                                                             with_extra, to_path):
    table, extra = case
    extra = extra if with_extra else []
    if to_path:
        work = tmp_path_factory.mktemp("write")
        records.write_csv(table, work / "got.csv", extra)
        reference_write_csv(table, work / "want.csv", extra)
        assert (work / "got.csv").read_bytes() == (work / "want.csv").read_bytes()
    else:
        got, want = io.StringIO(newline=""), io.StringIO(newline="")
        records.write_csv(table, got, iter(extra))
        reference_write_csv(table, want, extra)
        assert got.getvalue() == want.getvalue()


@settings(max_examples=100, deadline=None)
@given(case=_tables(), cut=st.integers(0, 9), block=st.sampled_from([1, 2, 1024]))
def test_a_table_written_in_two_parts_is_written_once(case, cut, block):
    table, extra = case
    got, want = io.StringIO(newline=""), io.StringIO(newline="")
    head = np.arange(len(table)) < cut
    with mock.patch.object(records, "WRITE_ROWS", block):
        for part, header in ((head, True), (~head, False)):
            records.write_csv(table.take(part), got,
                              [(name, column[part]) for name, column in extra], header)
    reference_write_csv(table, want, extra)
    assert got.getvalue() == want.getvalue()


@settings(max_examples=200, deadline=None)
@given(case=_tables(), data=st.data(), block=st.sampled_from([1, 2, 1024]))
def test_a_read_table_is_written_as_the_texts_it_was_read_from(case, data, block):
    """A table that carries field texts, as ``parse_chunks`` reads one, is
    written a part at a time (each part taken from it) as csv.writer's rows
    of its texts, whatever its values, then the formatted ``extra``."""
    table, extra = case
    n = len(table)
    texts = {name: data.draw(st.lists(_TEXT, min_size=n, max_size=n), label=name)
             for name in CSV_COLUMNS}
    read = records._ReadTable(*(getattr(table, name) for name in CSV_COLUMNS), texts)
    cut = data.draw(st.integers(0, n), label="cut")
    head = np.arange(n) < cut
    got = io.StringIO(newline="")
    with mock.patch.object(records, "WRITE_ROWS", block):
        for part, header in ((head, True), (~head, False)):
            records.write_csv(read.take(part), got,
                              [(name, column[part]) for name, column in extra], header)
    rows = zip(*(texts[name] for name in CSV_COLUMNS),
               *(column.tolist() for _, column in extra))
    assert got.getvalue() == _csv_text([[*CSV_COLUMNS, *(name for name, _ in extra)], *rows])


# --- producer stages vs. the per-record writers -----------------------------------

def _reference_write_csv(recs, path):
    """The per-record ingest-schema writer, kept as the reference."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in recs:
            writer.writerow([
                r.record_id, r.fill_date.isoformat(),
                repr(r.patient.lat), repr(r.patient.lon),
                repr(r.prescriber.lat), repr(r.prescriber.lon),
                repr(r.dispenser.lat), repr(r.dispenser.lon),
                repr(r.mme_total), r.days_supply, r.drug_family,
            ])


def _reference_classification(r, thresholds):
    """The classified columns of one record, on the scalar classification path."""
    g = geo.geometry(r)
    return [repr(g.d_pp), repr(g.d_pd), repr(g.d_rd), repr(g.pi_total),
            geo.class_code(r, thresholds).code, geo.risk_level(mme_per_day(r)).level]


def _reference_write_classified(recs, path, thresholds=geo.ClassThresholds()):
    """The per-record classified writer, on the scalar classification path."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS + series.CLASSIFIED_EXTRA)
        for r in recs:
            writer.writerow([
                r.record_id, r.fill_date.isoformat(),
                repr(r.patient.lat), repr(r.patient.lon),
                repr(r.prescriber.lat), repr(r.prescriber.lon),
                repr(r.dispenser.lat), repr(r.dispenser.lon),
                repr(r.mme_total), r.days_supply, r.drug_family,
                *_reference_classification(r, thresholds),
            ])


def _reference_clean(recs, cap, cutoff, n_malformed):
    """The per-record filter loop (first matching reason), kept as the reference."""
    report = FilterReport(malformed_row=n_malformed, total_in=n_malformed)
    kept = []
    for r in recs:
        report.total_in += 1
        if r.fill_date < cutoff:
            report.pre_2014 += 1
        elif r.mme_total > cap:
            report.mme_exceeds_cap += 1
        elif r.days_supply < 1:
            report.missing_or_zero_days_supply += 1
        elif not (r.patient.is_valid and r.prescriber.is_valid
                  and r.dispenser.is_valid):
            report.invalid_coordinates += 1
        else:
            kept.append(r)
    report.total_kept = len(kept)
    return kept, report


def _edit_raw(path):
    """Rewrite a raw CSV so that every exclusion reason and kinds of
    malformed rows occur, with blank lines and a multi-line record_id."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = {name: i for i, name in enumerate(rows[0])}
    edits = [("fill_date", "2013-12-31"), ("mme_total", "2e5"), ("days_supply", "0"),
             ("patient_lat", "95"), ("dispenser_lon", "-181"), ("mme_total", "abc"),
             ("days_supply", "1_0"), ("days_supply", str(10**20)), ("fill_date", ""),
             ("drug_family", " benzodiazepine "), ("record_id", "id\nwith a break"),
             ("prescriber_lat", "-0.0"), ("mme_total", "nan"), ("days_supply", "7\r\n"),
             ("record_id", 'id "q", x')]
    for k, row in enumerate(rows[5::37]):
        name, value = edits[k % len(edits)]
        row[col[name]] = value
    rows[9].pop()
    rows[12].append("x")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, row in enumerate(rows):
            writer.writerow(row)
            if i % 500 == 250:
                fh.write("\r\n")


@pytest.mark.parametrize("seed,edited", [(7, False), (21, True)])
def test_producer_stages_write_what_the_record_writers_wrote(tmp_path, seed, edited):
    """simulate writes what the record writer writes.  ingest and classify
    copy each kept field's text through: on simulate's own output that is
    what the record writers write, and on a raw file edited with accepted
    spellings (``" benzodiazepine "``, ``"1_0"``, a days_supply that ends in
    CRLF, record_ids holding a line break or a quote and a comma) it is each
    kept row's field texts as csv.reader reads them, written again by
    csv.writer, then the classification."""
    n = 3000
    raw, clean, classified = (tmp_path / name for name in
                              ("raw.csv", "clean.csv", "classified.csv"))
    assert cli.main(["simulate", "--n", str(n), "--seed", str(seed),
                     "--out", str(raw)]) == 0
    _reference_write_csv(syngen.generate(syngen.default_config(), n, seed=seed).to_records(),
                         tmp_path / "ref_raw.csv")
    assert raw.read_bytes() == (tmp_path / "ref_raw.csv").read_bytes()
    if edited:
        _edit_raw(raw)

    report_path = tmp_path / "filter_report.json"
    assert cli.main(["ingest", "--input", str(raw), "--out", str(clean),
                     "--report", str(report_path)]) == 0
    with open(raw, newline="") as fh:
        parsed, errors = _oracle_rows(fh.read())
    kept, report = _reference_clean([rec for _, rec in parsed], records.DEFAULT_MME_CAP,
                                    records.DEFAULT_CUTOFF, len(errors))
    if edited:
        kept_set = set(kept)
        texts = [[row[name] for name in CSV_COLUMNS] for row, rec in parsed if rec in kept_set]
        assert len(texts) == len(kept)
        reference_write_rows(tmp_path / "ref_clean.csv", CSV_COLUMNS, texts)
    else:
        _reference_write_csv(kept, tmp_path / "ref_clean.csv")
    assert clean.read_bytes() == (tmp_path / "ref_clean.csv").read_bytes()
    payload = report.to_dict()
    payload["row_errors"] = [{"line": line, "reason": reason} for line, reason in errors]
    assert report_path.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if edited:
        assert all(report.to_dict()[reason] for reason in FilterReport.REASONS)

    assert cli.main(["classify", "--input", str(clean), "--out", str(classified),
                     "--near-miles", "40", "--isolation-ratio", "2.5"]) == 0
    thresholds = geo.ClassThresholds(40.0, 2.5)
    if edited:
        reference_write_rows(tmp_path / "ref_classified.csv",
                             CSV_COLUMNS + series.CLASSIFIED_EXTRA,
                             [text + _reference_classification(rec, thresholds)
                              for text, rec in zip(texts, kept)])
    else:
        _reference_write_classified(kept, tmp_path / "ref_classified.csv", thresholds)
    assert classified.read_bytes() == (tmp_path / "ref_classified.csv").read_bytes()


def _edit_spellings(path):
    """Rewrite a raw CSV so that each data row tries one (column, value) of
    ``POOL`` and keeps it if the row oracle accepts the row with it; return
    the edited column names of each record_id, which is left as it is."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    tries = [(j, value) for j in range(1, len(CSV_COLUMNS)) for value in POOL]
    edited = {}
    for i, row in enumerate(rows[1:]):
        j, value = tries[i % len(tries)]
        new = [*row[:j], value, *row[j + 1:]]
        try:
            parse_row(dict(zip(CSV_COLUMNS, new)))
        except ValueError:
            continue
        if value != row[j]:
            row[j] = value
            edited[row[0]] = {CSV_COLUMNS[j]}
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return edited


def test_analytics_do_not_depend_on_spelling(tmp_path):
    """ingest -> classify -> aggregate and summary-table on a raw file whose
    fields use accepted spellings from ``POOL``, and on its canonical twin
    (the oracle's records written by the record writer): the series and the
    summary tables are the same bytes, and the clean and classified files
    differ only in the edited fields."""
    runs = {name: tmp_path / name for name in ("edited", "canonical")}
    for work in runs.values():
        work.mkdir()
    raw = runs["edited"] / "raw.csv"
    assert cli.main(["simulate", "--n", "2000", "--seed", "13", "--out", str(raw)]) == 0
    edited = _edit_spellings(raw)
    with open(raw, newline="") as fh:
        recs, errors = _oracle(fh.read())
    assert not errors and len(edited) > 500
    _reference_write_csv(recs, runs["canonical"] / "raw.csv")

    for work in runs.values():
        for argv in (["ingest", "--input", "raw.csv", "--out", "clean.csv",
                      "--report", "filter.json"],
                     ["classify", "--input", "clean.csv", "--out", "classified.csv"],
                     ["aggregate", "--input", "classified.csv", "--outdir", "series"],
                     ["summary-table", "--input", "classified.csv", "--outdir", "tables"]):
            assert cli.main([argv[0], *(a if a.startswith("--") else str(work / a)
                                        for a in argv[1:])]) == 0

    def outputs(work):
        return {path.relative_to(work): path.read_bytes()
                for sub in ("series", "tables") for path in sorted((work / sub).iterdir())
                if not path.name.startswith("manifest_")}

    got, want = outputs(runs["edited"]), outputs(runs["canonical"])
    assert len(want) > 10 and got == want
    assert (runs["edited"] / "filter.json").read_text() == \
        (runs["canonical"] / "filter.json").read_text()

    for name, header in (("clean.csv", CSV_COLUMNS),
                         ("classified.csv", CSV_COLUMNS + series.CLASSIFIED_EXTRA)):
        tables = []
        for work in runs.values():
            with open(work / name, newline="") as fh:
                tables.append(list(csv.reader(fh)))
        assert tables[0][0] == tables[1][0] == list(header)
        assert len(tables[0]) == len(tables[1]) > 1000
        changed = 0
        for got_row, want_row in zip(*tables):
            differ = {header[j] for j, (a, b) in enumerate(zip(got_row, want_row)) if a != b}
            assert differ <= edited.get(got_row[0], set()), (got_row, want_row)
            changed += bool(differ)
        assert changed > 300
