import io
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxgeo import records, syngen
from rxgeo.records import (CSV_COLUMNS, GeoPoint, PrescriptionRecord,
                           SchemaError, TransactionTable, clean, mme_per_day,
                           parse_csv, write_csv)

HEADER = ",".join(CSV_COLUMNS)
VALID_ROW = "r1,2019-03-05,34.0,-81.0,34.1,-81.1,33.9,-80.9,450.0,5,opioid"


def make_record(**overrides) -> PrescriptionRecord:
    base = dict(
        record_id="r1",
        fill_date=date(2019, 3, 5),
        patient=GeoPoint(34.0, -81.0),
        prescriber=GeoPoint(34.1, -81.1),
        dispenser=GeoPoint(33.9, -80.9),
        mme_total=450.0,
        days_supply=5,
        drug_family="opioid",
    )
    base.update(overrides)
    return PrescriptionRecord(**base)


def clean_records(records, **kwargs):
    """:func:`clean` on the records' table; the kept records and the report."""
    kept, report = clean(TransactionTable.from_records(records), **kwargs)
    return kept.to_records(), report


# --- parse_csv ----------------------------------------------------------------

def test_parse_valid_row():
    table, errors = parse_csv(f"{HEADER}\n{VALID_ROW}\n")
    assert len(table) == 1 and not errors
    (r,) = table.to_records()
    assert r.record_id == "r1"
    assert r.fill_date == date(2019, 3, 5)
    assert r.mme_total == 450.0
    assert r.days_supply == 5
    assert r.drug_family == "opioid"


def test_parse_missing_days_supply():
    row = VALID_ROW.replace(",5,opioid", ",,opioid")
    table, errors = parse_csv(f"{HEADER}\n{row}\n")
    assert table.to_records() == []
    assert len(errors) == 1
    assert "missing days_supply" in errors[0].reason
    assert errors[0].line == 2


@pytest.mark.parametrize("field,value,reason", [
    ("fill_date", "03/05/2019", "invalid fill_date"),
    ("mme_total", "-3", "invalid mme_total"),
    ("mme_total", "abc", "invalid mme_total"),
    ("days_supply", "-1", "invalid days_supply"),
    ("days_supply", "2.5", "invalid days_supply"),
    ("days_supply", "1" + "0" * 400, "invalid days_supply"),
    ("patient_lat", "inf", "invalid patient_lat"),
    ("drug_family", "aspirin", "invalid drug_family"),
])
def test_parse_bad_fields(field, value, reason):
    cols = dict(zip(CSV_COLUMNS, VALID_ROW.split(",")))
    cols[field] = value
    row = ",".join(cols[c] for c in CSV_COLUMNS)
    table, errors = parse_csv(f"{HEADER}\n{row}\n")
    assert table.to_records() == []
    assert len(errors) == 1 and reason in errors[0].reason


def test_parse_wrong_field_count_row():
    table, errors = parse_csv(f"{HEADER}\n{VALID_ROW},extra\n{VALID_ROW}\n")
    assert len(table) == 1
    assert len(errors) == 1 and errors[0].line == 2


def test_parse_bad_header_fatal():
    with pytest.raises(SchemaError):
        parse_csv("a,b,c\n1,2,3\n")
    with pytest.raises(SchemaError):
        parse_csv(HEADER.replace("days_supply", "days") + f"\n{VALID_ROW}\n")
    with pytest.raises(SchemaError):
        parse_csv("")
    # A schema error is a read error, so every stage names its file.
    with pytest.raises(records.ReadError, match="^bad header: missing columns"):
        parse_csv("a,b,c\n1,2,3\n")


def test_parse_rejects_a_column_named_twice():
    # the last copy used to win silently: mme_total=999999.0, no row error
    with pytest.raises(SchemaError, match="duplicate columns.*mme_total"):
        parse_csv(f"{HEADER},mme_total\n{VALID_ROW},999999\n")
    with pytest.raises(SchemaError, match="duplicate columns.*days_supply"):
        parse_csv(f"{HEADER}, days_supply\n{VALID_ROW},7\n")


def test_parse_errors_never_abort():
    bad = VALID_ROW.replace("opioid", "x")
    table, errors = parse_csv(f"{HEADER}\n{bad}\n{VALID_ROW}\n{bad}\n")
    assert len(table) == 1
    assert [e.line for e in errors] == [2, 4]


# --- round-trip ---------------------------------------------------------------

def test_write_parse_roundtrip_syngen_1000():
    cfg = syngen.default_config()
    table = syngen.generate(cfg, 1000, seed=9)
    buf = io.StringIO()
    write_csv(table, buf)
    parsed, errors = parse_csv(io.StringIO(buf.getvalue()))
    assert not errors
    assert parsed.to_records() == table.to_records()


def test_write_empty_is_header_only():
    buf = io.StringIO()
    write_csv(TransactionTable.from_records([]), buf)
    assert buf.getvalue().strip() == HEADER


# --- clean --------------------------------------------------------------------

def test_clean_mme_cap():
    kept, rep = clean_records([make_record(mme_total=2e5)])
    assert kept == []
    assert rep.mme_exceeds_cap == 1 and rep.total_in == 1 and rep.total_kept == 0


def test_clean_pre_cutoff():
    kept, rep = clean_records([make_record(fill_date=date(2013, 12, 31))])
    assert kept == []
    assert rep.pre_2014 == 1


def test_clean_empty_input():
    kept, rep = clean_records([])
    assert kept == []
    assert rep.total_in == 0 and rep.total_kept == 0 and rep.total_excluded == 0


def test_clean_priority_order_first_match_only():
    # Fails the date, the cap, the days-supply and the coordinate checks;
    # only the date reason may count.
    r = make_record(fill_date=date(2012, 1, 1), mme_total=1e9, days_supply=0,
                    patient=GeoPoint(99.0, 0.0))
    kept, rep = clean_records([r])
    assert rep.pre_2014 == 1
    assert rep.mme_exceeds_cap == rep.missing_or_zero_days_supply == 0
    assert rep.invalid_coordinates == 0


def test_clean_zero_days_and_bad_coords():
    kept, rep = clean_records([make_record(days_supply=0),
                               make_record(prescriber=GeoPoint(12.0, 181.0))])
    assert kept == []
    assert rep.missing_or_zero_days_supply == 1
    assert rep.invalid_coordinates == 1


def test_clean_retains_zero_mme():
    kept, rep = clean_records([make_record(mme_total=0.0)])
    assert len(kept) == 1


def test_clean_boundaries_inclusive():
    kept, _ = clean_records([make_record(mme_total=1e5),
                             make_record(fill_date=date(2014, 1, 1))])
    assert len(kept) == 2


def test_clean_idempotent_and_preserves_records():
    records = [make_record(record_id=f"r{i}", mme_total=float(i) * 2e4)
               for i in range(10)]
    once, rep1 = clean_records(records)
    twice, rep2 = clean_records(once)
    assert once == twice
    assert rep2.total_in == rep2.total_kept == len(once)
    assert once == [r for r in records if r.mme_total <= 1e5]


def test_clean_malformed_fold_in():
    kept, rep = clean_records([make_record()], n_malformed=3)
    assert rep.total_in == 4 and rep.total_kept == 1 and rep.malformed_row == 3
    assert rep.total_in == rep.total_kept + rep.total_excluded


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(
    st.dates(min_value=date(2010, 1, 1), max_value=date(2022, 12, 31)),
    st.floats(min_value=0, max_value=2e5, allow_nan=False),
    st.integers(min_value=0, max_value=90),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
), max_size=40))
def test_clean_conservation_property(rows):
    records = [make_record(record_id=f"r{i}", fill_date=d, mme_total=m,
                           days_supply=ds, patient=GeoPoint(lat, 0.0))
               for i, (d, m, ds, lat) in enumerate(rows)]
    kept, rep = clean_records(records)
    assert rep.total_in == rep.total_kept + rep.total_excluded
    assert rep.total_kept == len(kept)
    for r in kept:  # every survivor satisfies all filters
        assert r.fill_date >= date(2014, 1, 1)
        assert r.mme_total <= 1e5
        assert r.days_supply >= 1
        assert r.patient.is_valid


# --- mme_per_day ---------------------------------------------------------------

def test_mme_per_day_examples():
    assert mme_per_day(make_record(mme_total=450.0, days_supply=5)) == 90.0
    assert mme_per_day(make_record(mme_total=90.0, days_supply=1)) == 90.0


def test_mme_per_day_zero_days_contract():
    with pytest.raises(ValueError):
        mme_per_day(make_record(days_supply=0))


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0, max_value=1e5, allow_nan=False),
       st.integers(min_value=1, max_value=365))
def test_mme_per_day_algebraic_inverse(mme, days):
    r = make_record(mme_total=mme, days_supply=days)
    back = mme_per_day(r) * days
    assert back == pytest.approx(mme, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("text", ["20190305", "2019-W10-2", "2019W102", "2019-064",
                                  "2019-03-05T00:00", "2019-3-5", "٢٠١٩-03-05"])
def test_fill_date_is_exactly_yyyy_mm_dd(text):
    # date.fromisoformat accepts the first three on Python 3.11 but not on
    # 3.10, so one file used to ingest differently by interpreter.
    table, errors = parse_csv(f"{HEADER}\n{VALID_ROW.replace('2019-03-05', text)}\n")
    assert len(table) == 0 and [(e.line, e.reason) for e in errors] == [
        (2, "invalid fill_date")]
    with pytest.raises(ValueError):
        records.parse_date(text)


def test_fill_date_strips_surrounding_whitespace():
    table, errors = parse_csv(f"{HEADER}\n{VALID_ROW.replace('2019-03-05', ' 2019-03-05 ')}\n")
    assert not errors and table.fill_date.tolist() == [date(2019, 3, 5).toordinal()]
    assert records.parse_date("\t2019-03-05 ") == date(2019, 3, 5)
