import csv
import io
import math
from datetime import date
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxgeo import records, series
from rxgeo.geo import classify_records
from rxgeo.records import GeoPoint, PrescriptionRecord, TransactionTable, mme_per_day
from rxgeo.series import (ClassSeries, MonthKey, SeriesPoint, aggregate_monthly,
                          pre_post_table, split_pre_post, summarize_classes)
from rxgeo.stats import MeanCI

P = GeoPoint(34.0, -81.0)


def rec(year, month, day, mme, days=1, family="opioid", rid="r"):
    return PrescriptionRecord(rid, date(year, month, day), P, P, P,
                              float(mme), days, family)


def classify(records):
    """The classified table of a record list."""
    return classify_records(TransactionTable.from_records(records))


# --- MonthKey -------------------------------------------------------------------

def test_month_key_index_invariant():
    for year in (2014, 2016, 2021):
        for month in range(1, 13):
            mk = MonthKey(year, month)
            assert mk.index == (year - 2014) * 12 + (month - 1)
            assert MonthKey.from_index(mk.index) == mk


def test_month_key_parse_and_order():
    assert MonthKey.parse("2018-05") == MonthKey(2018, 5)
    assert MonthKey(2018, 4) < MonthKey(2018, 5) < MonthKey(2019, 1)
    with pytest.raises(ValueError):
        MonthKey(2018, 13)
    with pytest.raises(ValueError):
        MonthKey.parse("201805")


def test_month_index_of_day_ordinals_matches_month_key():
    """The numpy calendar step against the per-date MonthKey mapping, over
    every year a date can have."""
    rng = np.random.default_rng(0)
    last = date.max.toordinal()
    days = np.concatenate([rng.integers(1, last + 1, 20_000), [1, last],
                           np.arange(date(2013, 12, 1).toordinal(),
                                     date(2014, 2, 1).toordinal())])
    expected = [MonthKey.from_date(date.fromordinal(d)).index for d in days.tolist()]
    assert series._month_index(days).tolist() == expected


# --- aggregate_monthly ------------------------------------------------------------

def test_aggregate_simple_mean():
    records = [rec(2015, 3, 5, 30), rec(2015, 3, 9, 60), rec(2015, 3, 20, 90)]
    (s,) = aggregate_monthly(TransactionTable.from_records(records), group_by="overall")
    assert len(s) == 1
    assert s.points[0].mean_mme_day == pytest.approx(60.0)
    assert s.points[0].n_records == 3


def test_aggregate_gap_month_marked_missing():
    records = [rec(2014, 1, 2, 10), rec(2014, 3, 2, 20)]
    (s,) = aggregate_monthly(TransactionTable.from_records(records), group_by="overall")
    assert [str(p.month) for p in s.points] == ["2014-01", "2014-02", "2014-03"]
    assert s.points[1].n_records == 0
    assert math.isnan(s.points[1].mean_mme_day)


def test_aggregate_group_by_class_requires_classification():
    with pytest.raises(ValueError):
        aggregate_monthly(TransactionTable.from_records([rec(2015, 1, 1, 10)]), group_by="class")


def test_aggregate_brute_force_oracle_and_permutation_invariance():
    rng = np.random.default_rng(10)
    records = []
    for i in range(400):
        y = int(rng.integers(2014, 2017))
        m = int(rng.integers(1, 13))
        records.append(rec(y, m, int(rng.integers(1, 28)),
                           rng.uniform(1, 500), int(rng.integers(1, 30)),
                           rid=f"r{i}"))
    classified = classify(records)
    series = aggregate_monthly(classified, group_by="class")

    # independent dict-based group-by
    sums, counts = {}, {}
    for r, code in zip(records, classified.class_codes().tolist()):
        key = (code, MonthKey.from_date(r.fill_date).index)
        sums[key] = sums.get(key, 0.0) + mme_per_day(r)
        counts[key] = counts.get(key, 0) + 1
    for s in series:
        for p in s.points:
            key = (s.class_code, p.month.index)
            if p.n_records:
                assert p.mean_mme_day == pytest.approx(sums[key] / counts[key],
                                                       abs=1e-9)
                assert p.n_records == counts[key]
            else:
                assert key not in counts

    shuffled = list(records)
    rng.shuffle(shuffled)
    series2 = aggregate_monthly(classify(shuffled), group_by="class")
    key1 = {(s.class_code): s.points for s in series}
    key2 = {(s.class_code): s.points for s in series2}
    assert key1 == key2


def test_aggregate_class_counts_sum_to_overall():
    rng = np.random.default_rng(11)
    records = []
    for i in range(300):
        pts = [GeoPoint(rng.uniform(-60, 60), rng.uniform(-120, 120))
               for _ in range(3)]
        records.append(PrescriptionRecord(
            f"r{i}", date(int(rng.integers(2014, 2016)), int(rng.integers(1, 13)), 5),
            *pts, rng.uniform(1, 300), int(rng.integers(1, 20)), "opioid"))
    classified = classify(records)
    span = (MonthKey(2014, 1), MonthKey(2015, 12))
    by_class = aggregate_monthly(classified, group_by="class", span=span)
    (overall,) = aggregate_monthly(classified, group_by="overall", span=span)
    for i in range(len(overall)):
        assert sum(s.points[i].n_records for s in by_class) == overall.points[i].n_records


def test_aggregate_monthly_mean_bounded_by_extremes():
    rng = np.random.default_rng(12)
    records = [rec(2015, 4, int(rng.integers(1, 28)), rng.uniform(5, 800),
                   int(rng.integers(1, 30)), rid=f"r{i}") for i in range(50)]
    (s,) = aggregate_monthly(TransactionTable.from_records(records), group_by="overall")
    values = [mme_per_day(r) for r in records]
    assert min(values) <= s.points[0].mean_mme_day <= max(values)


# --- split_pre_post ---------------------------------------------------------------

def test_split_pre_post_boundary_and_identity():
    records = [rec(2018, 4, 5, 10), rec(2018, 5, 5, 20), rec(2018, 6, 5, 30)]
    (s,) = aggregate_monthly(TransactionTable.from_records(records), group_by="overall")
    pre, post = split_pre_post(s, MonthKey(2018, 5))
    assert [str(p.month) for p in pre.points] == ["2018-04"]
    assert [str(p.month) for p in post.points] == ["2018-05", "2018-06"]
    assert pre.points + post.points == s.points


def test_observed_keeps_the_months_with_records():
    # the expression each caller used to write inline
    def inline(s):
        return np.array([p.mean_mme_day for p in s.points if p.n_records > 0])

    records = [rec(2018, 1, 5, 10), rec(2018, 1, 9, 30), rec(2018, 3, 5, 7)]
    (s,) = aggregate_monthly(TransactionTable.from_records(records), group_by="overall")
    empty = ClassSeries("opioid", "00", [SeriesPoint(MonthKey(2018, m), math.nan, 0)
                                         for m in (1, 2)])
    for series in (s, empty, ClassSeries("opioid", "00")):
        got, want = series.observed(), inline(series)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert s.observed().tolist() == [20.0, 7.0]
    assert empty.observed().size == 0


def test_split_empty_side_permitted():
    records = [rec(2019, 1, 5, 10)]
    (s,) = aggregate_monthly(TransactionTable.from_records(records), group_by="overall")
    pre, post = split_pre_post(s, MonthKey(2018, 5))
    assert len(pre) == 0 and len(post) == 1


# --- summarize_classes --------------------------------------------------------------

def _clustered_records(n, code_points, family="opioid", mme=100.0, start_id=0):
    """Records that all land in the class implied by ``code_points``."""
    out = []
    for i in range(n):
        out.append(PrescriptionRecord(
            f"s{start_id + i}", date(2015, 1 + (i % 12), 3), *code_points,
            mme, 2, family))
    return out


def test_summarize_single_class_gets_all_shares():
    records = _clustered_records(40, (P, P, P))
    rows = summarize_classes(classify(records))
    by_code = {r.class_code: r for r in rows}
    assert len(rows) == 16
    # all records in one class ("03": tiny distances, no isolation)
    assert by_code["03"].pct_of_records == pytest.approx(100.0)
    assert by_code["03"].pct_of_mme == pytest.approx(100.0)
    assert by_code["03"].n_records == 40
    assert sum(r.pct_of_records for r in rows) == pytest.approx(100.0, abs=0.01)


def test_summarize_shares_match_brute_force():
    rng = np.random.default_rng(13)
    records = []
    for i in range(200):
        pts = [GeoPoint(rng.uniform(-60, 60), rng.uniform(-120, 120))
               for _ in range(3)]
        records.append(PrescriptionRecord(
            f"r{i}", date(2015, int(rng.integers(1, 13)), 4), *pts,
            rng.uniform(10, 900), int(rng.integers(1, 15)), "opioid"))
    classified = classify(records)
    rows = summarize_classes(classified)
    codes = classified.class_codes().tolist()
    total_mme = sum(r.mme_total for r in records)
    for row in rows:
        group = [r for r, code in zip(records, codes) if code == row.class_code]
        assert row.pct_of_records == pytest.approx(100.0 * len(group) / 200, abs=1e-9)
        expect_mme = 100.0 * sum(r.mme_total for r in group) / total_mme
        assert row.pct_of_mme == pytest.approx(expect_mme, abs=1e-9)
    assert sum(r.pct_of_mme for r in rows) == pytest.approx(100.0, abs=0.01)


def test_summarize_ci_undefined_below_two_months():
    records = _clustered_records(3, (P, P, P))
    one_month = [r for r in records if r.fill_date.month == 1]
    rows = summarize_classes(classify(one_month))
    row = {r.class_code: r for r in rows}["03"]
    assert row.n_months == 1
    assert row.mean_mme_day is None


def test_summarize_ci_ordering():
    records = _clustered_records(60, (P, P, P))
    rows = summarize_classes(classify(records))
    row = {r.class_code: r for r in rows}["03"]
    ci = row.mean_mme_day
    assert ci.lo <= ci.mean <= ci.hi


# --- pre_post_table -----------------------------------------------------------------

def test_pre_post_table_structure_and_symmetry():
    # identical monthly data in equal-length windows around 2018-01
    records = []
    rid = 0
    for idx in range(MonthKey(2017, 1).index, MonthKey(2019, 1).index):
        mk = MonthKey.from_index(idx)
        for v in (40.0, 60.0):
            records.append(PrescriptionRecord(
                f"p{rid}", date(mk.year, mk.month, 7), P, P, P, v, 1, "opioid"))
            rid += 1
    table = pre_post_table(classify(records),
                           policy_month=MonthKey(2018, 1))
    assert len(table) == 16
    pre, post = table["03"]
    assert pre.n == post.n == 12
    assert pre.mean == pytest.approx(post.mean, abs=1e-9)
    assert pre.lo == pytest.approx(post.lo, abs=1e-9)
    # classes with no data are undefined
    assert table["32"] == (None, None)


def test_pre_post_one_month_window_has_no_interval():
    # one pre month and one post month: each window is a MeanCI with n=1
    # and NaN bounds and level; the report prints "(n/a)" for it
    records = [PrescriptionRecord(f"p{i}", date(2018, month, 7), P, P, P, v, 1,
                                  "opioid")
               for i, (month, v) in enumerate([(1, 40.0), (1, 60.0), (2, 70.0)])]
    table = pre_post_table(classify(records), policy_month=MonthKey(2018, 2))
    pre, post = table["03"]
    assert isinstance(pre, MeanCI) and isinstance(post, MeanCI)
    assert (pre.mean, pre.n, post.mean, post.n) == (50.0, 1, 70.0, 1)
    for cell in (pre, post):
        assert math.isnan(cell.lo) and math.isnan(cell.hi) and math.isnan(cell.level)


def test_pre_post_table_detects_drop():
    rng = np.random.default_rng(14)
    records = []
    rid = 0
    for idx in range(MonthKey(2014, 1).index, MonthKey(2021, 12).index):
        mk = MonthKey.from_index(idx)
        post = mk >= MonthKey(2018, 5)
        for _ in range(8):
            base = 90.0 if post else 100.0
            records.append(PrescriptionRecord(
                f"q{rid}", date(mk.year, mk.month, 10), P, P, P,
                base + rng.normal(0, 1), 1, "opioid"))
            rid += 1
    table = pre_post_table(classify(records))
    pre, post = table["03"]
    assert post.mean < pre.mean
    assert post.mean < pre.lo  # outside the pre CI


# --- series CSV reader vs. a per-row oracle -------------------------------------

def _series_oracle(text):
    """The values, or the ReadError message, of the row-at-a-time series reader
    the column check replaced."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if not header or "mean_mme_day" not in header:
        return "expected an aggregate series CSV (missing mean_mme_day column)"
    values = []
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != len(header):
            return f"line {line}: wrong field count"
        raw = dict(zip(header, row))["mean_mme_day"]
        try:
            if raw and not math.isfinite(float(raw)):
                raise ValueError(raw)
        except ValueError:
            return f"line {line}: invalid mean_mme_day"
        values.append(float(raw) if raw else math.nan)
    return values if values else "empty series"


SERIES_POOL = ["", "", " ", "nan", "inf", "-inf", "1e400", "-1", "0", "-0.0", "2.5",
               "1_0", " 3 ", "٣", "abc", "47.25"]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_series_reader_matches_row_oracle(data):
    header = ["month_index", "year", "month", "mean_mme_day", "n_records"]
    if data.draw(st.booleans(), label="doubled column"):
        header.append("mean_mme_day")
    n_rows = data.draw(st.integers(0, 8), label="rows")
    rows = [header]
    for i in range(n_rows):
        row = [str(i), "2014", str(i % 12 + 1), "50.0", "3"] + ["51.5"] * (len(header) - 5)
        kind = data.draw(st.sampled_from(["keep", "keep", "cell", "cell", "short", "long"]))
        if kind == "cell":
            col = data.draw(st.sampled_from([3, len(header) - 1]), label="column")
            row[col] = data.draw(st.sampled_from(SERIES_POOL), label="value")
        elif kind == "short":
            row.pop()
        elif kind == "long":
            row.append("x")
        rows.append(row)
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    lines = buf.getvalue().split("\r\n")
    for _ in range(data.draw(st.integers(0, 2), label="blank lines")):
        at = data.draw(st.integers(1, len(lines) - 1))
        lines.insert(at, "")
    text = "\r\n".join(lines)
    chunk = data.draw(st.sampled_from([1, 3, 4096]), label="chunk rows")

    expected = _series_oracle(text)
    with mock.patch.object(records, "CHUNK_ROWS", chunk):
        try:
            got = series.read_series_csv(io.StringIO(text, newline="")).tolist()
        except records.ReadError as exc:
            got = str(exc)
    # repr compares floats bit for bit and NaN equal to NaN
    assert repr(got) == repr(expected)
