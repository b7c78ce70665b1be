"""The columnar classified-CSV reader and the record table it feeds.

The reader must accept and reject exactly what a per-row check built on the
reference ``row_reference.parse_row`` accepts and rejects, and the aggregation
functions must give equal results on a classified table and on the table read
back from its CSV.
"""

import csv
import io
import math
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxgeo import cli, geo, records, series, syngen
from rxgeo.series import (MonthKey, RecordTable, aggregate_monthly,
                          pre_post_table, summarize_classes)
from row_reference import parse_float, parse_row


def _classified(n, seed):
    """The classified table of shuffled records of both families."""
    kept, _ = records.clean(syngen.generate(syngen.default_config(), n, seed=seed))
    recs = kept.to_records()
    random.Random(seed).shuffle(recs)
    return geo.classify_records(records.TransactionTable.from_records(recs))


def _rows(classified):
    """(record, class code) of each classified record."""
    return list(zip(classified.records.to_records(), classified.class_codes().tolist()))


def _read(path):
    return cli._read_input(path, cli.RunManifest("test", []), series.read_classified_csv)


# --- reader vs. a per-row oracle ----------------------------------------------

def _oracle(text):
    """(line, reason) of the first bad row, by the row-at-a-time rules."""
    reader = csv.DictReader(io.StringIO(text, newline=""))
    for row in reader:
        try:
            if None in row or None in row.values():
                raise ValueError("wrong field count")
            fields = {k: row[k] for k in records.CSV_COLUMNS}
            try:
                no_days = int(fields["days_supply"]) == 0
            except ValueError:
                no_days = False
            if no_days:  # a classified row needs days_supply >= 1, in the ingest rule's place
                fields["days_supply"] = "-1"
            parse_row(fields)
            for col in ("d_pp", "d_pd", "d_rd", "pi_total"):
                try:
                    parse_float(row[col], col)
                except ValueError:
                    raise ValueError(f"invalid {col}") from None
            if row["class_code"] not in geo.ALL_CLASS_CODES:
                raise ValueError("invalid class_code")
            risk = row["risk_level"]
            if not (risk.isdecimal() and int(risk) in geo.RISK_HAZARD_RATIOS):
                raise ValueError("invalid risk_level")
        except ValueError as exc:
            return reader.line_num, str(exc)
    return None


COLUMNS = records.CSV_COLUMNS + series.CLASSIFIED_EXTRA
POOL = ["", " ", "nan", "inf", "1e400", "-1", "0", "1_0", " 5 ", "+5", "abc",
        "9z", "01", "١", "²", "2018-02-30", "2018-02-03", " 2016-07-01 ", "-0.0",
        "1.5", "3", "23", " opioid", "benzodiazepine", "Opioid"]


@pytest.fixture(scope="module")
def base_rows(tmp_path_factory):
    """Header plus eight valid rows of a classified CSV."""
    path = tmp_path_factory.mktemp("base") / "classified.csv"
    series.write_classified_csv(path, _classified(60, 5))
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[:9]


def _check_reader(path, text, chunk):
    """The reader's verdict on ``text`` equals the oracle's."""
    path.write_text(text, newline="")
    expected = _oracle(text)
    with mock.patch.object(records, "CHUNK_ROWS", chunk):
        try:
            table = _read(path)
        except cli.DataError as exc:
            match = re.fullmatch(rf"{re.escape(str(path))}: line (\d+): (.*)",
                                 str(exc), re.S)
            assert match, str(exc)
            assert (int(match[1]), match[2]) == expected
        else:
            assert expected is None
            return table


def _csv_text(rows):
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def test_reader_matches_row_oracle_on_every_single_cell_change(tmp_path, base_rows):
    """Each pool value in each column of row 4, after a multi-line record_id."""
    path = tmp_path / "classified.csv"
    for col in range(len(COLUMNS)):
        for value in POOL:
            rows = [list(r) for r in base_rows]
            rows[2][0] = "id with\na line break"
            rows[4][col] = value
            _check_reader(path, _csv_text(rows), chunk=3)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_reader_matches_row_oracle(tmp_path_factory, base_rows, data):
    rows = [list(r) for r in base_rows]
    bad = data.draw(st.integers(1, len(rows) - 1), label="row")
    kind = data.draw(st.sampled_from(["cell", "cell", "cell", "short", "long"]))
    if kind == "cell":
        col = data.draw(st.sampled_from(COLUMNS), label="column")
        rows[bad][COLUMNS.index(col)] = data.draw(st.sampled_from(POOL), label="value")
    elif kind == "short":
        rows[bad].pop()
    else:
        rows[bad].append("x")
    if data.draw(st.booleans(), label="multi-line record_id"):
        rows[data.draw(st.integers(1, bad))][0] = "id with\na line break"
    text = _csv_text(rows)
    if data.draw(st.booleans(), label="blank line"):
        lines = text.split("\r\n")
        at = data.draw(st.integers(1, len(lines) - 1))
        text = "\r\n".join(lines[:at] + [""] + lines[at:])
    chunk = data.draw(st.sampled_from([1, 3, 4096]), label="chunk rows")
    table = _check_reader(tmp_path_factory.mktemp("reader") / "classified.csv",
                          text, chunk)
    if table is not None:
        assert len(table) == len(rows) - 1


def test_reader_rejects_days_supply_beyond_float(tmp_path, base_rows):
    rows = [list(r) for r in base_rows]
    rows[2][COLUMNS.index("days_supply")] = "1" + "0" * 400
    path = tmp_path / "classified.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(cli.DataError, match=r": line 3: invalid days_supply$"):
        _read(path)


@pytest.mark.parametrize("column,value", [("drug_family", "Opioid"), ("d_pp", "abc"),
                                          ("class_code", "9z"), ("risk_level", "0")])
def test_zero_days_supply_is_reported_before_later_columns(tmp_path, base_rows,
                                                            column, value):
    # The classified rule days_supply >= 1 takes the ingest rule's place, so
    # it is reported in file column order, before drug_family too.
    rows = [list(r) for r in base_rows]
    rows[2][COLUMNS.index("days_supply")] = "0"
    rows[2][COLUMNS.index(column)] = value
    path = tmp_path / "classified.csv"
    text = _csv_text(rows)
    assert _oracle(text) == (3, "invalid days_supply")
    _check_reader(path, text, chunk=4096)


def test_library_reader_reads_a_stream(base_rows):
    """The reader on an in-memory stream, with no file or manifest."""
    table = series.read_classified_csv(io.StringIO(_csv_text(base_rows[:1]), newline=""))
    # the same columns and dtypes as the table of no records
    no_records = records.TransactionTable.from_records([])
    assert repr(table) == repr(RecordTable.from_table(no_records))
    rows = [list(r) for r in base_rows]
    rows[6][COLUMNS.index("class_code")] = "9z"  # line 7, in the second chunk of 3 rows
    with mock.patch.object(records, "CHUNK_ROWS", 3):
        with pytest.raises(records.ReadError, match=r"^line 7: invalid class_code$"):
            series.read_classified_csv(io.StringIO(_csv_text(rows), newline=""))
        assert len(series.read_classified_csv(io.StringIO(_csv_text(base_rows),
                                                          newline=""))) == 8


# --- classified table vs. table read back from its CSV ---------------------------

def _bucket_loop(classified, group_by, family, span=None):
    """The per-record dict-of-lists aggregation, kept as the reference."""
    buckets = {}
    for r, code in _rows(classified):
        if r.drug_family != family:
            continue
        key = series.OVERALL if group_by == "overall" else code
        idx = MonthKey.from_date(r.fill_date).index
        buckets.setdefault(key, {}).setdefault(idx, []).append(records.mme_per_day(r))
    out = {}
    for key in sorted(buckets):
        months = buckets[key]
        lo, hi = (min(months), max(months)) if span is None else \
            (span[0].index, span[1].index)
        out[key] = [(idx, math.fsum(months.get(idx, ())) / len(months[idx])
                     if idx in months else None, len(months.get(idx, ())))
                    for idx in range(lo, hi + 1)]
    return out


def _as_dict(all_series):
    return {s.class_code: [(p.month.index, p.mean_mme_day if p.n_records else None,
                            p.n_records) for p in s.points] for s in all_series}


@pytest.fixture(scope="module")
def classified_pair(tmp_path_factory):
    """A classified table of shuffled records, and the path of its CSV."""
    classified = _classified(900, 11)
    path = tmp_path_factory.mktemp("table") / "classified.csv"
    series.write_classified_csv(path, classified)
    return classified, path


def test_table_holds_record_columns(classified_pair):
    classified, path = classified_pair
    table = _read(path)
    assert isinstance(table, RecordTable) and len(table) == len(classified)
    assert table.class_code.tolist() == classified.class_codes().tolist()
    assert table.mme_day.tolist() == [records.mme_per_day(r) for r, _ in _rows(classified)]
    assert table.mme_day.tolist() == RecordTable.from_table(classified).mme_day.tolist()


@pytest.mark.parametrize("family", records.FAMILIES)
def test_table_and_records_aggregate_equally(classified_pair, family):
    classified, path = classified_pair
    table = _read(path)
    span = (MonthKey(2015, 1), MonthKey(2019, 12))
    for group_by in ("class", "overall"):
        for sp in (None, span):
            from_classified = aggregate_monthly(classified, group_by, family, span=sp)
            assert from_classified == aggregate_monthly(table, group_by, family, span=sp)
            assert _as_dict(from_classified) == _bucket_loop(classified, group_by,
                                                             family, sp)
    # repr compares floats bit for bit and treats NaN fields as equal
    assert repr(summarize_classes(classified, family)) == \
        repr(summarize_classes(table, family))
    assert repr(pre_post_table(classified, family)) == \
        repr(pre_post_table(table, family))


def test_records_unit_stats_get_the_same_inputs(classified_pair, tmp_path,
                                                monkeypatch):
    classified, path = classified_pair
    by_code = {}  # first-appearance class order, record order within a class
    for r, code in _rows(classified):
        if r.drug_family == "opioid":
            by_code.setdefault(code, []).append(records.mme_per_day(r))
    seen = {}

    def recording(name, func):
        def wrapped(values, *args):
            seen[name] = values
            return func(values, *args)
        return wrapped

    monkeypatch.setattr(cli, "one_way_anova", recording("anova", cli.one_way_anova))
    monkeypatch.setattr(cli, "t_test_greater", recording("ttest", cli.t_test_greater))
    assert cli.main(["anova", "--input", str(path), "--unit", "records",
                     "--out", str(tmp_path / "a.json")]) == 0
    assert cli.main(["ttest", "--input", str(path), "--unit", "records",
                     "--class-code", "03", "--mu0", "50",
                     "--out", str(tmp_path / "t.json")]) == 0
    assert seen["anova"] == [v for v in by_code.values() if len(v) >= 2]
    assert seen["ttest"] == by_code["03"]
