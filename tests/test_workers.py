"""Worker processes: ``_workers.ordered_map`` and the stages that use it.

The reader stages check the chunks of a classified CSV, and ``its`` fits its
series, in forked worker processes, one per CPU.  With one worker and with
two, every result, error message and output byte must be the same, and no
worker may outlive the call or the stage that started it, whether it
succeeded or failed.
"""

import io
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from rxgeo import _workers, cli, records, series
from test_intervention import _batch_outputs, make_series
from test_streaming import _WAIT4, ROOT

FIELDS = ("drug_family", "month_index", "mme_total", "days_supply", "class_code", "mme_day")


@contextmanager
def _workers_of(n, pids=None):
    """``worker_count`` reading ``n``; each worker forked appends its pid to
    the file ``pids`` names, if given."""
    serve = _workers._serve

    def record_and_serve(link, func):
        with open(pids, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        serve(link, func)
    with mock.patch.object(_workers, "worker_count", lambda: n), \
            mock.patch.object(_workers, "_serve", record_and_serve if pids else serve):
        yield


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _assert_no_worker_left(pids):
    """Workers were forked, and none is running or waiting to be reaped."""
    started = [int(line) for line in pids.read_text().split()]
    assert started and os.getpid() not in started
    assert multiprocessing.active_children() == []
    assert not any(map(_alive, started))
    return started


@contextmanager
def _no_fork():
    def refuse(*_):
        raise AssertionError("a worker process was started")
    with mock.patch.object(multiprocessing, "get_context", refuse):
        yield


# --- ordered_map -------------------------------------------------------------------

def test_ordered_map_gives_maps_results_from_a_closure():
    offset = 10  # a closure: it cannot be pickled, so the fork must carry it
    for n in (1, 2, 3):
        with _workers_of(n):
            assert list(_workers.ordered_map(lambda x: x * x + offset, iter(range(25)))) \
                == [x * x + offset for x in range(25)]


def test_ordered_map_raises_where_map_raises():
    def func(x):
        if x == 7:
            raise ValueError(f"bad item {x}")
        return x

    def items():
        yield from range(12)
        raise KeyError("the items ran out")

    for n in (1, 2):
        with _workers_of(n):
            got = []
            with pytest.raises(ValueError, match="bad item 7"):
                got.extend(_workers.ordered_map(func, range(12)))
            assert got == list(range(7))
            got = []
            with pytest.raises(KeyError, match="the items ran out"):
                got.extend(_workers.ordered_map(abs, items()))
            assert got == list(range(12))


def test_ordered_map_of_one_item_or_one_cpu_starts_no_process():
    with _no_fork():
        for n, items in ((2, [3]), (2, []), (1, range(9))):
            with _workers_of(n):
                assert list(_workers.ordered_map(str, items)) == list(map(str, items))


def test_ordered_map_beside_another_thread_starts_no_process():
    # A fork copies only the calling thread: a lock another thread holds
    # would stay held in the worker.
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with _no_fork(), _workers_of(2):
            assert list(_workers.ordered_map(str, range(9))) == list(map(str, range(9)))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()


def test_ordered_map_forks_a_worker_only_when_every_worker_is_busy(tmp_path):
    # However many CPUs there are, three items need at most three workers.
    pids = tmp_path / "pids"
    with _workers_of(32, pids):
        assert list(_workers.ordered_map(abs, range(-3, 0))) == [3, 2, 1]
    assert 1 <= len(_assert_no_worker_left(pids)) <= 3


def test_ordered_map_closed_early_leaves_no_worker(tmp_path):
    pids = tmp_path / "pids"
    with _workers_of(2, pids):
        results = _workers.ordered_map(abs, range(-50, 0))
        assert next(results) == 50
        results.close()
    _assert_no_worker_left(pids)


# --- the classified reader ------------------------------------------------------

@pytest.fixture(scope="module")
def classified(tmp_path_factory):
    """A classified CSV of about 1,500 records: over 30 chunks of 50 rows."""
    work = tmp_path_factory.mktemp("classified")
    raw, clean, classified = (work / name for name in ("raw.csv", "clean.csv", "classified.csv"))
    for argv in (["simulate", "--n", 1500, "--seed", 9, "--out", raw],
                 ["ingest", "--input", raw, "--out", clean, "--report", work / "report.json"],
                 ["classify", "--input", clean, "--out", classified]):
        assert cli.main(list(map(str, argv))) == 0
    # Without its column sidecar, a reader stage parses the CSV in workers.
    records.sidecar_path(classified).unlink()
    return classified


def _read_outcome(data):
    """The columns ``read_classified_csv`` reads from ``data``, or its error."""
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    try:
        table = series.read_classified_csv(stream)
    except records.ReadError as exc:
        return str(exc)
    return {name: (getattr(table, name).dtype.str, getattr(table, name).tobytes())
            for name in FIELDS}


def _same_with_one_and_two_workers(data):
    with mock.patch.object(records, "CHUNK_ROWS", 50):
        with _workers_of(1):
            one = _read_outcome(data)
        with _workers_of(2):
            two = _read_outcome(data)
    assert one == two
    return one


def _lines(path):
    return path.read_bytes().splitlines(keepends=True)


def test_a_late_bad_row_is_the_same_error_with_workers(classified):
    lines = _lines(classified)
    late = len(lines) - 120
    fields = lines[late].split(b",")
    fields[8] = b"-5"  # mme_total
    lines[late] = b",".join(fields)
    lines[late + 30] = b"not,a,row\r\n"
    error = _same_with_one_and_two_workers(b"".join(lines))
    assert error == f"line {late + 1}: invalid mme_total"


def test_a_quoted_chunk_after_plain_ones_reads_the_same_with_workers(classified):
    lines = _lines(classified)
    plain = _same_with_one_and_two_workers(b"".join(lines))
    assert isinstance(plain, dict)
    late = len(lines) - 300
    fields = lines[late].split(b",")
    fields[-1] = b'"' + fields[-1].rstrip() + b'"\r\n'  # risk_level, quoted
    lines[late] = b",".join(fields)
    assert _same_with_one_and_two_workers(b"".join(lines)) == plain


def test_an_undecodable_byte_is_the_same_error_with_workers(classified):
    lines = _lines(classified)
    lines.insert(len(lines) - 200, b"\xff\r\n")
    assert _same_with_one_and_two_workers(b"".join(lines)) == \
        "cannot decode byte 0xff as utf-8"
    # A bad row before the byte is reported first, as map would.
    fields = lines[100].split(b",")
    fields[9] = b"x"  # days_supply
    lines[100] = b",".join(fields)
    assert _same_with_one_and_two_workers(b"".join(lines)) == "line 101: invalid days_supply"


def test_a_one_chunk_file_starts_no_process(classified, tmp_path):
    head = b"".join(_lines(classified)[:40])
    with _no_fork(), _workers_of(2):
        assert isinstance(_read_outcome(head), dict)
        s = series.ClassSeries("opioid", "overall", [
            series.SeriesPoint(series.MonthKey.from_index(i), 40.0 + i, 3) for i in range(30)])
        series.write_series_csv(tmp_path / "series.csv", s)
        with open(tmp_path / "series.csv", newline="") as fh:
            assert series.read_series_csv(fh).tolist() == s.values().tolist()


# Reads a classified CSV with ``worker_count`` and ``CHUNK_ROWS`` patched to
# argv[2] and argv[3].
_READ = """
import sys
from unittest import mock
from rxgeo import _workers, records, series
with mock.patch.object(_workers, "worker_count", lambda: int(sys.argv[2])), \\
        mock.patch.object(records, "CHUNK_ROWS", int(sys.argv[3])), \\
        open(sys.argv[1], newline="") as fh:
    series.read_classified_csv(fh)
"""


def test_a_read_of_many_small_chunks_peaks_no_higher_than_one_of_few(classified, tmp_path):
    # The column parts of each chunk are joined into a block every
    # JOIN_CHUNKS chunks.  Held until the end instead, the parts of 385
    # chunks of 512 rows left their freed pages with the process: a peak RSS
    # of 81 MB against 75-78 MB for 49 chunks of 4096 rows, and 68 MB with
    # the blocks (a 2-vCPU host, with one worker and with two).
    lines = _lines(classified)
    path = tmp_path / "classified.csv"
    path.write_bytes(lines[0] + b"".join(lines[1:]) * 134)  # about 197k records
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def peak_kb(workers, rows):
        out = subprocess.run([sys.executable, "-c", _WAIT4, sys.executable, "-c", _READ,
                              str(path), str(workers), str(rows)],
                             env=env, check=True, capture_output=True, text=True).stdout
        code, kb = map(int, out.split())
        assert code == 0
        return kb
    for workers in (1, 2):
        small, large = peak_kb(workers, 512), peak_kb(workers, records.CHUNK_ROWS)
        assert small <= large, (workers, small, large)


# --- its_batch ------------------------------------------------------------------

def test_its_batch_is_the_same_with_workers():
    rng = np.random.default_rng(5)
    shift = np.r_[np.zeros(52), np.full(43, -4.0)]
    batch = [make_series(50 + rng.normal(0, 1, 95) + shift, code=f"{i}{i}") for i in range(4)]
    batch += [make_series(np.arange(40.0), code="31"),  # too short: a failure
              make_series(50 + rng.normal(0, 1, 95), family="benzodiazepine")]
    with _workers_of(1):
        one = _batch_outputs(batch)
    with _workers_of(2):
        two = _batch_outputs(batch)
    assert one == two
    assert '"failures": {"opioid/31": "need >= 12 post-policy months, got 0"}' in one[0]


# --- stages leave no worker -------------------------------------------------------

def _stage(capsys, *argv):
    capsys.readouterr()
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().err


def test_reader_and_its_stages_leave_no_worker(capsys, classified, tmp_path):
    # aggregate forks one or two workers to read; its one or two more to fit
    # (a second only while the first is busy).
    for argv, forked in (
            (["aggregate", "--input", classified, "--outdir", tmp_path / "series"], (1, 2)),
            (["its", "--input", classified, "--outdir", tmp_path / "its"], (2, 4))):
        pids = tmp_path / f"{argv[0]}.pids"
        with mock.patch.object(records, "CHUNK_ROWS", 50), _workers_of(2, pids):
            code, err = _stage(capsys, *argv)
        assert code == 0, err
        assert forked[0] <= len(_assert_no_worker_left(pids)) <= forked[1]
    results = json.loads((tmp_path / "its" / "its_results.json").read_text())
    assert results["results"]


def test_a_stage_failing_in_a_late_chunk_leaves_no_output_and_no_worker(
        capsys, classified, tmp_path):
    lines = _lines(classified)
    fields = lines[-100].split(b",")
    fields[1] = b"2018-13-01"  # fill_date
    lines[-100] = b",".join(fields)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(lines))
    pids = tmp_path / "pids"
    with mock.patch.object(records, "CHUNK_ROWS", 50), _workers_of(2, pids):
        code, err = _stage(capsys, "aggregate", "--input", bad, "--outdir", tmp_path / "out")
    assert code == 2
    assert f"line {len(lines) - 99}: invalid fill_date" in err
    assert not (tmp_path / "out").exists()
    _assert_no_worker_left(pids)
