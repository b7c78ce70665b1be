"""tools/its_record.py: the record of one corpus, and the comparison of two."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "its_record.py"


@pytest.fixture(scope="module")
def its_record():
    spec = importlib.util.spec_from_file_location("its_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _series(const=(1.0, 0.5), bic=10.0, kept=("level_shift",), orders="ARIMA(0,0,0)"):
    fit = {"orders": orders, "bic": bic,
           "coefficients": {"const": list(const), "level_shift": [-3.0, 1.0]}}
    return {"pre_fit": fit, "arimax": fit, "kept_events": list(kept),
            "dropped_events": ["ramp", "inverse_trend"]}


def test_compare_reports_orders_events_failures_and_the_largest_moves(its_record, tmp_path):
    a = {"1000/1": {"opioid/overall": _series(), "opioid/00": {"failure": "edge"},
                    "opioid/01": _series(const=(1.0, math.nan))}}
    b = {"1000/1": {"opioid/overall": _series(const=(1.25, 0.5), bic=10.5),
                    "opioid/00": {"failure": "edge"},
                    "opioid/01": _series(const=(1.0, math.nan))}}
    paths = []
    for name, record in (("a", a), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(record))
    assert its_record.main(["--compare", *map(str, paths)]) == 0
    diffs, notes = its_record.compare(a, b)
    assert diffs == []
    assert notes[0].startswith("largest |delta estimate| / SE: 0.5 (1000/1 opioid/overall")
    assert notes[1].startswith("largest BIC rise: 0.5 (1000/1 opioid/overall")
    assert any("opioid/01 pre_fit const" in n and "SE not finite" in n for n in notes)

    b["1000/1"]["opioid/overall"] = _series(kept=(), orders="ARIMA(1,0,0)")
    b["1000/1"]["opioid/00"] = {"failure": "other"}
    del b["1000/1"]["opioid/01"]
    paths[1].write_text(json.dumps(b))
    assert its_record.main(["--compare", *map(str, paths)]) == 1
    diffs, _ = its_record.compare(a, b)
    assert diffs == [
        "1000/1 opioid/00: failure 'edge' -> 'other'",
        "1000/1 opioid/01: in one record only",
        "1000/1 opioid/overall: kept_events ['level_shift'] -> []",
        "1000/1 opioid/overall: pre_fit orders ARIMA(0,0,0) -> ARIMA(1,0,0)",
        "1000/1 opioid/overall: arimax orders ARIMA(0,0,0) -> ARIMA(1,0,0)",
    ]


def test_record_holds_every_series_of_the_batch(its_record):
    from rxgeo import geo, syngen
    from rxgeo.intervention import its_analysis
    from rxgeo.records import clean
    from rxgeo.series import aggregate_monthly

    record = its_record.record(20_000, 2)
    assert len(record) == 34  # 16 classes and one overall series per family
    assert sum("failure" in entry for entry in record.values()) == 23
    kept, _ = clean(syngen.generate(syngen.default_config(), 20_000, seed=2))
    (series,) = aggregate_monthly(geo.classify_records(kept), group_by="overall")
    res = its_analysis(series)
    entry = record["opioid/overall"]
    assert entry["arimax"]["orders"] == res.arimax.orders.label()
    assert entry["arimax"]["bic"] == res.arimax.bic
    assert entry["kept_events"] == [c.name for c in res.arimax.event_coefficients()]
    assert entry["dropped_events"] == res.dropped_events
    assert entry["pre_fit"]["coefficients"] == {
        c.name: [c.estimate, c.std_error] for c in res.pre_fit.coefficients()}
