"""tools/bench_pairs.py with a stand-in for the benchmark runs."""

import importlib.util
import json
import os
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

    def run_bench(checkout, workload, seed, seconds, trace, cpu=None):
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


def test_traced_children_alone_run_on_one_cpu(tmp_path):
    # rxgeo works in worker processes on more than one CPU, where the tracer
    # records no span; a traced child is pinned, and nothing else is.
    spec = importlib.util.spec_from_file_location("bench_pairs_real", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    side = tmp_path / "side"
    (side / "perfbench").mkdir(parents=True)
    (side / "perfbench" / "run.py").write_text(
        "import json, os\n"
        "cpus = sorted(os.sched_getaffinity(0))\n"
        "print(json.dumps({'input_digest': 'in', 'pass_digest': 'p', 'env': {}}))\n"
        "print(json.dumps({'correct': True, 'metrics': {\n"
        "    'cpus': {'value': len(cpus)}, 'first_cpu_from_1': {'value': cpus[0] + 1}}}))\n")
    out = tmp_path / "bench.json"
    assert module.main(["--parent", str(side), "--change", str(side), "--out", str(out),
                        "--seconds", "1", "--pairs", "etl:42:1", "--traced", "its:42:2",
                        "--traced-unpinned", "its:42:1"]) == 0
    record = json.loads(out.read_text())
    mine = sorted(os.sched_getaffinity(0))
    traced = record["traced_its_seed42"]
    assert traced["pinned_cpu"] == mine[0]
    assert [run["cpus"] for pair in traced["pairs"] for run in pair.values()] == [1] * 4
    assert {run["first_cpu_from_1"] for pair in traced["pairs"]
            for run in pair.values()} == {mine[0] + 1}
    unpinned = record["traced_unpinned_its_seed42"]
    assert unpinned["pinned_cpu"] is None
    assert [run["cpus"] for run in unpinned["pairs"][0].values()] == [len(mine)] * 2
    runs = record["workloads"]["etl/seed42"]["metrics"]["cpus"]
    assert runs["parent_runs"] == runs["change_runs"] == [len(mine)]
    assert sorted(os.sched_getaffinity(0)) == mine  # this process is not pinned


def test_traced_pairs_with_other_digests_exit_1(bench_pairs, tmp_path):
    for name in ("side", "other"):
        (tmp_path / name).mkdir()
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "side"),
                             "--change", str(tmp_path / "other"),
                             "--out", str(out), "--traced", "etl:42:1"]) == 1
    assert out.exists()


def test_src_lines_of_each_side(bench_pairs, tmp_path):
    # The newlines of src/rxgeo/*.py, as `cat src/rxgeo/*.py | wc -l` counts
    # them: a file with no final newline adds none for its last line.
    for name, files in (("side", {"a.py": "x = 1\ny = 2\n", "b.py": "z = 3\nw = 4"}),
                        ("other", {"a.py": "x = 1\n", "notes.txt": "not code\n"})):
        package = tmp_path / name / "src" / "rxgeo"
        package.mkdir(parents=True)
        for file, text in files.items():
            (package / file).write_text(text)
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", str(tmp_path / "side"), "--change", str(tmp_path / "other"),
                      "--out", str(out), "--digest", "its:42"])
    assert json.loads(out.read_text())["src_lines"] == {"parent": 3, "change": 1}


def _scale_run(checkout, n):
    return {stage: {"exit": 0, "wall_s": 2.0, "cpu_s": 1.0, "peak_rss_mb": 50.0,
                    "sha256": {"out.csv": checkout.name}}
            for stage in ("simulate", "ingest", "classify", "aggregate")}


def test_scale_record_per_stage(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_scale", _scale_run)
    side = tmp_path / "side"
    side.mkdir()
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(side), "--change", str(side), "--out", str(out),
                             "--scale", "100000", "--scale", "1000000"]) == 0
    scale = json.loads(out.read_text())["scale_runs"]
    assert sorted(scale) == ["100000", "1000000"]
    record = scale["1000000"]
    assert record["outputs_equal"] is True
    assert record["parent"] == record["change"] == [_scale_run(side, 0)] * 2
    assert record["change_over_parent"]["ingest"] == {"wall_s": 1.0, "cpu_s": 1.0,
                                                      "peak_rss_mb": 1.0}


def test_scale_shots_run_in_abba_order(bench_pairs, tmp_path, monkeypatch):
    # Every parent stage used to run before any change stage, so drift over
    # the run read as a change.  Parent, change, change, parent cancels a
    # linear drift in each side's mean: here wall time grows by 1 s a shot.
    order = []

    def drifting_run(checkout, n):
        order.append(checkout.parent.name)
        shot = _scale_run(checkout, n)
        for stage in shot.values():
            stage["wall_s"] = float(len(order))
        return shot

    monkeypatch.setattr(bench_pairs, "run_scale", drifting_run)
    for name in ("parent", "change"):
        (tmp_path / name / "side").mkdir(parents=True)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent" / "side"),
                             "--change", str(tmp_path / "change" / "side"),
                             "--out", str(out), "--scale", "1000"]) == 0
    assert order == ["parent", "change", "change", "parent"]
    record = json.loads(out.read_text())["scale_runs"]["1000"]
    assert record["order"] == order
    assert [shot["ingest"]["wall_s"] for shot in record["parent"]] == [1.0, 4.0]
    assert [shot["ingest"]["wall_s"] for shot in record["change"]] == [2.0, 3.0]
    assert record["change_over_parent"]["ingest"]["wall_s"] == 1.0


def test_scale_record_with_other_outputs_exits_1(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "run_scale", _scale_run)
    for name in ("side", "other"):
        (tmp_path / name).mkdir()
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "side"),
                             "--change", str(tmp_path / "other"),
                             "--out", str(out), "--scale", "1000"]) == 1
    assert json.loads(out.read_text())["scale_runs"]["1000"]["outputs_equal"] is False


def test_scale_run_of_the_producer_stages(bench_pairs):
    # One real run of this checkout on a few records; aggregate reads the
    # classified CSV after the three producer stages.
    stages = bench_pairs.run_scale(TOOL.parents[1], 300)
    assert list(stages) == ["simulate", "ingest", "classify", "aggregate"]
    for stage in stages.values():
        assert stage["exit"] == 0 and stage["wall_s"] > 0 and stage["peak_rss_mb"] > 0
        assert all(len(digest) == 64 for digest in stage["sha256"].values())
    assert list(stages["ingest"]["sha256"]) == ["clean.csv", "filter_report.json"]
    written = list(stages["aggregate"]["sha256"])
    assert written[-1] == "series/aggregate_summary.json"
    assert "series/series_opioid_overall.csv" in written and len(written) > 3
    assert not any("manifest" in name for name in written)
