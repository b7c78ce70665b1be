"""The benchmark tracer resolves every producer-stage name it wraps.

``perfbench/tracer.py`` wraps rxgeo functions by name and counts the records
each returns; a name the package no longer binds, or one the CLI does not
call, leaves its layer at zero in a traced benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced(spans, run_id, *argv):
    """Run one CLI stage under the tracer; return its spans."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans),
                    run_id, *map(str, argv)], env=env, check=True, capture_output=True)
    return json.loads(spans.read_text())


def test_traced_producer_stages_count_their_records(tmp_path):
    raw, cleaned, classified = (tmp_path / name for name in
                                ("raw.csv", "clean.csv", "classified.csv"))
    spans = []
    for run_id, argv in (
            ("simulate", ["simulate", "--n", 200, "--seed", 3, "--out", raw]),
            ("ingest", ["ingest", "--input", raw, "--out", cleaned,
                        "--report", tmp_path / "filter.json"]),
            ("classify", ["classify", "--input", cleaned, "--out", classified])):
        spans += _traced(tmp_path / f"{run_id}.json", run_id, *argv)
    by_name = {}
    for span in spans:
        assert not span["failed"], span
        by_name.setdefault(span["name"], []).append(span)

    (generated,) = by_name["syngen.generate"]
    parsed = by_name["records.parse_csv"]
    (cleaned_span,) = by_name["records.clean"]
    (classified_span,) = by_name["geo.classify_records"]
    assert len(by_name["records.write_csv"]) == 3  # one per stage
    assert [s["run_id"] for s in parsed] == ["ingest", "classify"]
    n = generated["records"]
    assert n > 0 and parsed[0]["rows"] == n and parsed[0]["row_errors"] == 0
    assert cleaned_span["excluded"] == 0
    assert parsed[1]["rows"] == classified_span["records"] == n
