"""Which rxgeo modules a CLI stage loads, and the package's exported names.

Only ``fit`` and ``its`` load the model code (``arima`` and ``_optimize``;
``its`` also ``intervention``) and only ``simulate`` loads ``syngen``: each
stage is its own process, and the modules a stage never runs would cost it
their import time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rxgeo

SRC = Path(__file__).resolve().parents[1] / "src"
MODEL = {"rxgeo.arima", "rxgeo.intervention", "rxgeo._optimize"}
# rxgeo.__all__ before the names were loaded on first use.
EXPORTED = [
    "ALL_CLASS_CODES", "ArimaFit", "ArimaOrders", "ArimaParams", "ClassCode", "ClassProfile",
    "ClassSeries", "ClassSummaryRow", "ClassThresholds", "ClassifiedTable", "DisparityLabel",
    "EventInput", "FAMILIES", "FilterReport", "Forecast", "GeoPoint", "ItsResult", "MeanCI",
    "MonthKey", "PrescriptionRecord", "RecordTable", "RiskLevel", "ScenarioConfig",
    "TestResult", "TransactionTable", "TriangleGeometry", "adf_test", "aggregate_monthly",
    "arima", "auto_fit", "class_code", "classify_records", "clean", "css_objective",
    "default_config", "difference", "disparity", "distance_level", "event_regressor", "fit",
    "fit_arimax", "forecast", "generate", "geo", "geometry", "haversine", "intervention",
    "its_analysis", "its_batch", "ljung_box", "mean_ci", "mme_per_day", "one_way_anova",
    "parse_csv", "pct_change", "pre_post_table", "records", "risk_level",
    "select_differencing", "series", "significance_stars", "simulate", "split_pre_post",
    "stats", "summarize_classes", "syngen", "t_test_greater", "tentative_orders", "write_csv",
]


def _python(cwd, code, *argv):
    """The last stdout line of ``python -c code argv`` as JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, argv)], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _stage_modules(cwd, *argv):
    """The rxgeo modules loaded once ``rxgeo <argv>`` has run, in a fresh process."""
    code, modules = _python(cwd, (
        "import json, sys\n"
        "from rxgeo import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('rxgeo'))]))"),
        *argv)
    assert code == 0
    return set(modules)


def test_only_the_stages_that_run_them_load_syngen_and_the_model_code(tmp_path):
    simulate = _stage_modules(tmp_path, "simulate", "--n", 600, "--out", "raw.csv")
    assert "rxgeo.syngen" in simulate and not simulate & MODEL
    for argv in (["ingest", "--input", "raw.csv", "--out", "clean.csv", "--report", "r.json"],
                 ["classify", "--input", "clean.csv", "--out", "classified.csv"],
                 ["aggregate", "--input", "classified.csv", "--outdir", "series"],
                 ["anova", "--input", "classified.csv", "--unit", "records",
                  "--out", "anova.json"]):
        loaded = _stage_modules(tmp_path, *argv)
        assert "rxgeo.series" in loaded
        assert not loaded & (MODEL | {"rxgeo.syngen"}), argv[0]
    fitted = _stage_modules(tmp_path, "fit", "--input", "series/series_opioid_overall.csv",
                            "--orders", "0,0,0", "--out", "fit.json")
    assert {"rxgeo.arima", "rxgeo._optimize"} <= fitted


def test_importing_the_package_loads_no_submodule(tmp_path):
    assert _python(tmp_path, "import json, sys, rxgeo\n"
                   "print(json.dumps(sorted(m for m in sys.modules if m.startswith('rxgeo'))))"
                   ) == ["rxgeo"]


def test_the_package_exports_the_same_names():
    assert rxgeo.__all__ == EXPORTED
    from rxgeo import fit, generate, its_batch
    from rxgeo.arima import fit as arima_fit
    from rxgeo.intervention import its_batch as intervention_its_batch
    from rxgeo.syngen import generate as syngen_generate
    assert (fit, its_batch, generate) == (arima_fit, intervention_its_batch, syngen_generate)
    assert set(EXPORTED) <= set(dir(rxgeo))
    namespace = {}
    exec("from rxgeo import *", namespace)
    assert set(EXPORTED) <= set(namespace)
    assert rxgeo.arima.fit is arima_fit and rxgeo.records.parse_csv is rxgeo.parse_csv


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rxgeo.no_such_name


def test_a_reader_stage_that_loads_the_sidecar_loads_no_worker_code(tmp_path):
    for argv in (["simulate", "--n", 600, "--out", "raw.csv"],
                 ["ingest", "--input", "raw.csv", "--out", "clean.csv", "--report", "r.json"],
                 ["classify", "--input", "clean.csv", "--out", "classified.csv"]):
        _stage_modules(tmp_path, *argv)
    code, loaded = _python(tmp_path, (
        "import json, sys\n"
        "from rxgeo import cli\n"
        "code = cli.main(['anova', '--input', 'classified.csv', '--out', 'anova.json'])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                             if m.startswith(('rxgeo', 'multiprocessing')))]))"))
    assert code == 0
    assert not {"rxgeo._workers", "multiprocessing"} & set(loaded)
    assert "classified.csv.columns" in json.loads(
        (tmp_path / "manifest_anova.json").read_text())["inputs"]
