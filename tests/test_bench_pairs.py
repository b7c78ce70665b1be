"""tools/bench_pairs.py with a stand-in for the benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = {"cli.ingest.s": 1.0, "completed_per_s": 2.0,
           "records.parse_csv.row_errors": 0, "records.parse_csv.s": 0.25}


@pytest.fixture
def bench_pairs(monkeypatch):
    """The tool as a module, its runs replaced by one fixed result each; a
    checkout named "other" gets other digests."""
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def run_bench(checkout, workload, seed, seconds, trace):
        return {"correct": True, "input_digest": "in", "pass_digest": checkout.name,
                "env": {"python": "3"}, "metrics": dict(METRICS)}
    monkeypatch.setattr(module, "run_bench", run_bench)
    return module


def test_traced_pairs_keep_every_reported_metric(bench_pairs, tmp_path):
    # The traced pairs used to keep only a fixed list of its-stage names, so
    # an etl pair showed no records.parse_csv layer.
    side = tmp_path / "side"
    side.mkdir()
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(side), "--change", str(side),
                             "--out", str(out), "--traced", "etl:42:2"]) == 0
    pairs = json.loads(out.read_text())["traced_etl_seed42"]["pairs"]
    assert pairs == [{s: {**METRICS, "pass_digest": "side"} for s in ("parent", "change")}] * 2


def test_traced_pairs_with_other_digests_exit_1(bench_pairs, tmp_path):
    for name in ("side", "other"):
        (tmp_path / name).mkdir()
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "side"),
                             "--change", str(tmp_path / "other"),
                             "--out", str(out), "--traced", "etl:42:1"]) == 1
    assert out.exists()
