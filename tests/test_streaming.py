"""The streamed producer stages: ingest and classify read, check and write
their input a chunk of ``records.CHUNK_ROWS`` rows at a time, and simulate
writes each (family, month) block as it is drawn.

Their outputs must not depend on where the chunks end, a stage that fails
in a late chunk must leave nothing behind, and their peak memory must not
grow with the record count.
"""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from rxgeo import cli, records
from test_transaction_table import _edit_raw

ROOT = Path(__file__).resolve().parent.parent


def _run(capsys, *argv):
    """``cli.main`` on ``argv``: its exit code, stdout and stderr."""
    capsys.readouterr()
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def raw(tmp_path_factory):
    """A simulated transaction CSV edited so that every exclusion reason and
    malformed rows of several kinds occur, spread over many chunks of 7."""
    path = tmp_path_factory.mktemp("raw") / "raw.csv"
    assert cli.main(["simulate", "--n", "400", "--seed", "5", "--out", str(path)]) == 0
    _edit_raw(path)
    return path


def _producer_outputs(capsys, raw, work, chunk):
    with mock.patch.object(records, "CHUNK_ROWS", chunk):
        code, _, err = _run(capsys, "ingest", "--input", raw, "--out", work / "clean.csv",
                            "--report", work / "filter_report.json")
        assert code == 0, err
        code, summary, err = _run(capsys, "classify", "--input", work / "clean.csv",
                                  "--out", work / "classified.csv")
        assert code == 0, err
    return {name: (work / name).read_bytes()
            for name in ("clean.csv", "filter_report.json", "classified.csv")}, summary


def test_outputs_do_not_depend_on_where_chunks_end(capsys, raw, tmp_path):
    runs = {}
    for chunk in (1, 7, records.CHUNK_ROWS):
        (tmp_path / str(chunk)).mkdir()
        runs[chunk] = _producer_outputs(capsys, raw, tmp_path / str(chunk), chunk)
    (files, summary), *others = runs.values()
    assert all(other == (files, summary) for other in others)
    assert b'"row_errors": [\n    {' in files["filter_report.json"]
    assert b'"id\nwith a break"' in files["classified.csv"]
    assert summary.startswith("classify: 00=")


def _spoil_last_row(src, dst, column, value):
    """Copy a CSV with ``column`` of its last row set to ``value``; return
    that row's line number and record id."""
    with open(src, newline="") as fh:
        lines = fh.read().split("\r\n")
    header = lines[0].split(",")
    last = lines[-2].split(",")
    last[header.index(column)] = value
    dst.write_text("\r\n".join(lines[:-2] + [",".join(last), ""]), newline="")
    return len(lines) - 1, last[0]


def _left_behind(directory):
    return sorted(p.name for p in directory.iterdir())


@pytest.mark.parametrize("column,value,message", [
    ("mme_total", "abc", "1 malformed rows (first: line {line}: invalid mme_total)"),
    ("days_supply", "0", "record {rid}: days_supply must be >= 1, got 0; run clean() first"),
])
def test_classify_failing_in_its_last_chunk_leaves_nothing(capsys, tmp_path, column,
                                                           value, message):
    assert cli.main(["simulate", "--n", "300", "--seed", "3",
                     "--out", str(tmp_path / "clean.csv")]) == 0
    bad = tmp_path / "bad.csv"
    line, rid = _spoil_last_row(tmp_path / "clean.csv", bad, column, value)
    out = tmp_path / "out"
    out.mkdir()
    with mock.patch.object(records, "CHUNK_ROWS", 7):
        code, stdout, err = _run(capsys, "classify", "--input", bad,
                                 "--out", out / "classified.csv")
        assert (code, stdout) == (2, "")
        assert err == f"error: {bad}: {message.format(line=line, rid=rid)}\n"
        assert _left_behind(out) == []
        code, _, _ = _run(capsys, "classify", "--input", bad,
                          "--out", tmp_path / "new" / "dir" / "classified.csv")
    assert code == 2 and not (tmp_path / "new").exists()


def test_ingest_failing_on_a_late_undecodable_byte_leaves_nothing(capsys, raw, tmp_path):
    bad = tmp_path / "bad.csv"
    data = raw.read_bytes()
    bad.write_bytes(data[:-40] + b"\xff" + data[-39:])
    out = tmp_path / "out"
    out.mkdir()
    with mock.patch.object(records, "CHUNK_ROWS", 7):
        code, stdout, err = _run(capsys, "ingest", "--input", bad, "--out", out / "clean.csv",
                                 "--report", out / "filter_report.json")
    assert (code, stdout) == (2, "")
    assert err == f"error: {bad}: cannot decode byte 0xff as utf-8\n"
    assert _left_behind(out) == []


def test_simulate_without_records_writes_the_header(capsys, tmp_path):
    raw = tmp_path / "raw.csv"
    code, out, _ = _run(capsys, "simulate", "--n", 1, "--seed", 2, "--out", raw)
    assert (code, out) == (0, f"simulate: wrote 0 records to {raw}\n")
    assert raw.read_bytes() == (",".join(records.CSV_COLUMNS) + "\r\n").encode()


def test_an_output_is_written_through_a_symlink_and_keeps_the_file_mode(capsys, tmp_path):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "raw.csv"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "raw.csv"
    link.symlink_to(target)
    code, _, err = _run(capsys, "simulate", "--n", 50, "--seed", 1, "--out", link)
    assert code == 0, err
    assert link.is_symlink() and target.read_text().startswith("record_id,")
    assert target.stat().st_mode & 0o777 == 0o640
    assert _left_behind(tmp_path / "data") == ["raw.csv"]


# Runs the command in argv and prints its peak RSS in kB, read from
# os.wait4.  A child's peak counts the memory of the process it was forked
# from, so each stage is started from this small process, not from pytest.
_WAIT4 = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(cwd, *argv):
    """Peak RSS in MB of one CLI stage run as its own process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", _WAIT4, sys.executable, "-m", "rxgeo.cli",
                          *map(str, argv)], cwd=cwd, env=env, check=True,
                         capture_output=True, text=True).stdout
    code, kb = map(int, out.split())
    assert code == 0, argv
    return kb / 1024.0


# The 100k-record peak of ingest and of classify over their 10k-record peak.
# Measured on a 2-vCPU host: 1.01 for both when streamed; 1.78 and 1.75
# (75.1 and 74.7 MB against 42.3 and 42.7 MB) when each held its whole table.
PEAK_GROWTH_BOUND = 1.2


def test_ingest_and_classify_peak_memory_does_not_grow_with_records(tmp_path):
    peaks = {}
    for n in (10_000, 100_000):
        work = tmp_path / str(n)
        work.mkdir()
        _peak_rss_mb(work, "simulate", "--n", n, "--seed", 42, "--out", "raw.csv")
        peaks["ingest", n] = _peak_rss_mb(work, "ingest", "--input", "raw.csv",
                                          "--out", "clean.csv", "--report", "report.json")
        peaks["classify", n] = _peak_rss_mb(work, "classify", "--input", "clean.csv",
                                            "--out", "classified.csv")
        (work / "raw.csv").unlink()
    for stage in ("ingest", "classify"):
        assert peaks[stage, 100_000] <= PEAK_GROWTH_BOUND * peaks[stage, 10_000], peaks
