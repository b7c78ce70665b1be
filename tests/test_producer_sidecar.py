"""The column sidecars of the transaction CSVs that simulate and ingest write.

simulate writes ``raw.csv.columns`` and ingest ``clean.csv.columns`` beside
their CSV when every field they wrote is plain.  ingest and classify then
take each chunk's values from their input's sidecar, and each record's text
from the CSV's lines, instead of parsing it; any sidecar that does not check
out is ignored.  Either way a stage writes the same bytes, prints the same
summary and exits with the same code.
"""

import csv
import hashlib
import io
import json
import math
import os
import shutil
import warnings
from unittest import mock

import numpy as np
import pytest

from rxgeo import cli, records
from rxgeo.records import (COORDINATE_COLUMNS, FAMILIES, INGEST_LAYOUT, SIDECAR_SUFFIX,
                           sidecar_path)
from rxgeo.series import CLASSIFIED_LAYOUT


def _run(capsys, *argv):
    capsys.readouterr()
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture(scope="module")
def raw(tmp_path_factory):
    """A simulated transaction CSV with its sidecar."""
    path = tmp_path_factory.mktemp("producers") / "raw.csv"
    assert cli.main(["simulate", "--n", "2000", "--seed", "3", "--out", str(path)]) == 0
    return path


def _write_sidecar(csv_path):
    """Write the ``INGEST_LAYOUT`` sidecar of a plain transaction CSV whose
    rows all pass the ``INGEST`` checks, as simulate would."""
    with open(csv_path, newline="") as fh:
        table, errors = records.parse_csv(fh)
    assert not errors and '"' not in csv_path.read_text()
    with open(sidecar_path(csv_path), "wb") as fh:
        writer = records.SidecarWriter(fh, INGEST_LAYOUT)
        writer.append(records.ingest_rows(table))
        writer.finish(hashlib.sha256(csv_path.read_bytes()).hexdigest())
    assert writer.valid


def _stage(capsys, csv_path, outdir, stage, *args):
    """A producer stage on ``csv_path`` with its outputs in ``outdir``: its
    exit code, stdout, stderr and output bytes by name, and its manifest's
    inputs (None without one)."""
    if stage == "ingest":
        outs = ["--out", outdir / "clean.csv", "--report", outdir / "filter_report.json"]
    else:
        outs = ["--out", outdir / "classified.csv"]
    code, stdout, err = _run(capsys, stage, "--input", csv_path, *outs, *args)
    made = {p.name: p.read_bytes() for p in sorted(outdir.glob("*"))
            if not p.name.startswith("manifest_")} if outdir.exists() else {}
    manifest = outdir / f"manifest_{stage}.json"
    inputs = json.loads(manifest.read_text())["inputs"] if manifest.exists() else None
    return (code, stdout, err, made), inputs


def _both_paths(capsys, tmp_path, csv_path, stage, *args):
    """The stage on a copy of ``csv_path`` with its sidecar and on one
    without it: the two results, each copy's directory in stderr read as
    ``DIR``, and the inputs each manifest lists."""
    results = []
    for name, with_sidecar in (("hit", True), ("parsed", False)):
        (tmp_path / name).mkdir()
        copy = tmp_path / name / csv_path.name
        shutil.copyfile(csv_path, copy)
        if with_sidecar:
            shutil.copyfile(sidecar_path(csv_path), sidecar_path(copy))
        (code, stdout, err, made), inputs = _stage(capsys, copy, tmp_path / name / "out",
                                                   stage, *args)
        results.append(((code, stdout, err.replace(str(tmp_path / name), "DIR"), made),
                        inputs))
    return results


def test_a_sidecar_chunk_equals_the_parsed_chunk(raw):
    key = hashlib.sha256(raw.read_bytes()).hexdigest()
    with mock.patch.object(records, "CHUNK_ROWS", 7):
        with open(raw, newline="") as fh:
            parsed = list(records.parse_chunks(fh))
        sidecar = records.open_sidecar(sidecar_path(raw), key, INGEST_LAYOUT)
        with open(raw, newline="") as fh:
            read = list(records.sidecar_chunks(fh, sidecar))
    assert sidecar.file.closed
    assert len(read) == len(parsed) > 1
    for (got, got_errors), (want, want_errors) in zip(read, parsed):
        assert got_errors == want_errors == []
        for name in records.CSV_COLUMNS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype.kind == b.dtype.kind and a.flags.c_contiguous, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert got.texts == [",".join(row) for row in zip(*want.texts.values())]


@pytest.mark.parametrize("args", [[], ["--cap", "1000"], ["--cutoff-date", "2018-06-01"]])
def test_ingest_writes_the_same_with_and_without_the_sidecar(capsys, raw, tmp_path, args):
    (hit, hit_inputs), (parsed, parsed_inputs) = _both_paths(capsys, tmp_path, raw,
                                                             "ingest", *args)
    assert hit == parsed and hit[0] == 0, hit[2]
    assert sorted(hit[3]) == ["clean.csv", f"clean.csv{SIDECAR_SUFFIX}", "filter_report.json"]
    assert ("(0 excluded)" in hit[1]) == (not args)
    assert [name for name in hit_inputs if name.endswith(SIDECAR_SUFFIX)] == [
        f"../raw.csv{SIDECAR_SUFFIX}"]
    assert not any(name.endswith(SIDECAR_SUFFIX) for name in parsed_inputs)


@pytest.mark.parametrize("source", ["clean", "raw"])
def test_classify_writes_the_same_with_and_without_the_sidecar(capsys, raw, tmp_path, source):
    csv_path = raw
    if source == "clean":
        assert cli.main(["ingest", "--input", str(raw), "--out", str(tmp_path / "clean.csv"),
                         "--report", str(tmp_path / "report.json")]) == 0
        csv_path = tmp_path / "clean.csv"
    (hit, hit_inputs), (parsed, _) = _both_paths(capsys, tmp_path, csv_path, "classify")
    assert hit == parsed and hit[0] == 0, hit[2]
    assert sorted(hit[3]) == ["classified.csv", f"classified.csv{SIDECAR_SUFFIX}"]
    assert f"../{csv_path.name}{SIDECAR_SUFFIX}" in hit_inputs


@pytest.mark.parametrize("rows", [0, 1, 2])
def test_a_chunk_that_ends_the_file_is_read_as_the_parse_reads_it(capsys, tmp_path, rows):
    # With the rows a multiple of CHUNK_ROWS, the parse ends on an empty
    # chunk; without rows, the empty chunk is the one that writes the header.
    source = tmp_path / "source.csv"
    assert cli.main(["simulate", "--n", "50", "--seed", "4", "--out", str(source)]) == 0
    with open(source, newline="") as fh:
        lines = fh.readlines()
    raw = tmp_path / "raw.csv"
    raw.write_text("".join(lines[:1 + 3 * rows]), newline="")
    _write_sidecar(raw)
    with mock.patch.object(records, "CHUNK_ROWS", 3):
        (hit, _), (parsed, _) = _both_paths(capsys, tmp_path, raw, "ingest")
    assert hit == parsed and hit[0] == 0, hit[2]
    assert hit[3]["clean.csv"] == raw.read_bytes()


@pytest.mark.parametrize("record_id", ["id, with a comma", "id\nwith a break"])
def test_a_quoted_field_gets_no_sidecar(capsys, raw, tmp_path, record_id):
    with open(raw, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][0] = record_id
    quoted = tmp_path / "quoted.csv"
    with open(quoted, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "out"
    (code, _, err, made), _ = _stage(capsys, quoted, out, "ingest")
    assert code == 0, err
    assert sorted(made) == ["clean.csv", "filter_report.json"]
    assert json.loads((out / "manifest_ingest.json").read_text())["outputs"] == [
        "clean.csv", "filter_report.json"]
    assert made["clean.csv"] == quoted.read_bytes()
    (code, _, err, made), _ = _stage(capsys, out / "clean.csv", tmp_path / "classified",
                                     "classify")
    assert code == 0, err
    assert f"classified.csv{SIDECAR_SUFFIX}" in made  # its readers never read its lines
    with open(quoted, newline="") as fh:
        table, _ = records.parse_csv(fh)
    with open(tmp_path / "again.csv", "w", newline="") as fh:
        assert records.write_csv(table, fh) is False
        assert records.write_csv(table.take(table.record_id != record_id), fh) is True


def test_a_scenario_with_negative_mme_gets_no_raw_sidecar(capsys, tmp_path):
    # Month factors below 0 draw negative MME totals, which ingest reports as
    # malformed rows; a sidecar would have taken them as values.
    scenario = tmp_path / "scenario.json"
    assert cli.main(["simulate", "--n", "10", "--out", str(tmp_path / "x.csv"),
                     "--dump-config", str(scenario)]) == 0
    scenario.write_text(json.dumps({**json.loads(scenario.read_text()), "noise_sd": 3.0}))
    raw = tmp_path / "raw.csv"
    code, _, err = _run(capsys, "simulate", "--n", 500, "--seed", 3, "--config", scenario,
                        "--out", raw)
    assert code == 0, err
    assert not sidecar_path(raw).exists()
    assert json.loads((tmp_path / "manifest_simulate.json").read_text())["outputs"] == [
        "raw.csv"]
    (code, stdout, err, made), _ = _stage(capsys, raw, tmp_path / "out", "ingest")
    assert code == 0 and json.loads(made["filter_report.json"])["malformed_row"] > 0
    assert f"clean.csv{SIDECAR_SUFFIX}" in made


_ONE_RECORD = {"record_id": "r1", "fill_date": 735600, "mme_total": 30.0, "days_supply": 5,
               "drug_family": "opioid", **dict.fromkeys(COORDINATE_COLUMNS, 34.0)}

_BOUNDARY = [
    *(("record_id", v) for v in ("r1", " r1 ", "", "  ", "a,b")),
    *((name, v) for name in COORDINATE_COLUMNS
      for v in (-0.0, 1e308, 5e-324, math.inf, -math.inf, math.nan)),
    *(("mme_total", v) for v in (0.0, -0.0, 5e-324, -5e-324, 1e308, math.inf, math.nan)),
    *(("days_supply", v) for v in (0, -1, 2**63 - 1, -2**63)),
    *(("drug_family", v) for v in (*FAMILIES, "", "other", "Opioid")),
]


@pytest.mark.parametrize("column,value", _BOUNDARY)
def test_passes_ingest_accepts_what_the_parse_accepts(column, value):
    # simulate writes a raw sidecar only for blocks passes_ingest accepts, so
    # it must accept a record exactly when parse_csv of its written row does,
    # and the sidecar rows must then be those of the parse.
    values = {**_ONE_RECORD, column: value}
    table = records.TransactionTable(
        np.array([values["record_id"]], dtype=object),
        *(np.array([values[name]], dtype=np.int64 if name in ("fill_date", "days_supply")
                   else float) for name in records.CSV_COLUMNS[1:-1]),
        np.array([values["drug_family"]], dtype=str))
    text = io.StringIO(newline="")
    records.write_csv(table, text)
    parsed, errors = records.parse_csv(io.StringIO(text.getvalue(), newline=""))
    assert records.passes_ingest(table) == (not errors)
    if not errors:
        assert records.ingest_rows(parsed).tobytes() == records.ingest_rows(table).tobytes()


def _copy_with_sidecar(csv_path, directory):
    directory.mkdir()
    copy = directory / csv_path.name
    shutil.copyfile(csv_path, copy)
    shutil.copyfile(sidecar_path(csv_path), sidecar_path(copy))
    return copy


def test_an_input_replaced_after_it_is_hashed_is_read_as_hashed(capsys, raw, tmp_path,
                                                                monkeypatch):
    # The hash, the sidecar it keys and the lines all come from one open file,
    # so a CSV moved over the input in between is not read.
    want, _ = _stage(capsys, _copy_with_sidecar(raw, tmp_path / "plain"),
                     tmp_path / "plain" / "out", "ingest")
    copy = _copy_with_sidecar(raw, tmp_path / "work")
    other = tmp_path / "other.csv"
    text = raw.read_bytes()
    at = text.index(b"\r\n") + 2  # a record_id's "r" is an "s"
    other.write_bytes(text[:at] + b"s" + text[at + 1:])
    real = cli._sha256

    def hash_then_replace(fh):
        digest = real(fh)
        if other.exists():
            os.replace(other, copy)
        return digest
    monkeypatch.setattr(cli, "_sha256", hash_then_replace)
    got, inputs = _stage(capsys, copy, tmp_path / "work" / "out", "ingest")
    assert not other.exists()
    assert got[0] == 0 and got[3] == want[3], got[2]
    assert inputs["../raw.csv"] == hashlib.sha256(text).hexdigest()


def test_a_csv_written_to_while_it_is_read_fails_the_stage(capsys, raw, tmp_path,
                                                          monkeypatch):
    copy = _copy_with_sidecar(raw, tmp_path / "work")
    real = records.open_sidecar

    def open_then_append(*args):
        found = real(*args)
        with open(copy, "ab") as fh:
            fh.write(raw.read_bytes().splitlines(keepends=True)[-1])
        return found
    monkeypatch.setattr(records, "open_sidecar", open_then_append)
    (code, stdout, err, _), _ = _stage(capsys, copy, tmp_path / "work" / "out", "ingest")
    assert (code, stdout) == (2, "")
    assert err == f"error: {copy}: changed while it was read\n"


def _spoil(csv_path, how):
    sidecar = sidecar_path(csv_path)
    data = sidecar.read_bytes()
    if how == "stale":  # the CSV edited after it was written: a record_id's "r" is an "s"
        text = csv_path.read_bytes()
        at = text.index(b"\r\n") + 2
        csv_path.write_bytes(text[:at] + b"s" + text[at + 1:])
    elif how == "truncated":
        sidecar.write_bytes(data[:-100])
    elif how == "flipped":  # a byte of the rows
        sidecar.write_bytes(data[:40] + bytes([data[40] ^ 1]) + data[41:])
    elif how == "another version":
        sidecar.write_bytes(data[:-12] + (2).to_bytes(4, "little") + data[-8:])
    elif how == "another layout":
        sidecar.write_bytes(data[:-8] + CLASSIFIED_LAYOUT.magic)
    elif how == "a directory":
        sidecar.unlink()
        sidecar.mkdir()


@pytest.mark.parametrize("how", ["stale", "truncated", "flipped", "another version",
                                 "another layout", "a directory"])
@pytest.mark.parametrize("stage", ["ingest", "classify"])
def test_a_sidecar_that_does_not_check_out_falls_back_to_the_parse(capsys, raw, tmp_path,
                                                                   how, stage):
    work = tmp_path / "work"
    work.mkdir()
    csv_path = work / raw.name
    shutil.copyfile(raw, csv_path)
    shutil.copyfile(sidecar_path(raw), sidecar_path(csv_path))
    _spoil(csv_path, how)
    plain = tmp_path / "plain"
    plain.mkdir()
    shutil.copyfile(csv_path, plain / raw.name)
    got, inputs = _stage(capsys, csv_path, tmp_path / "spoiled", stage)
    want, _ = _stage(capsys, plain / raw.name, tmp_path / "parsed", stage)
    assert got == want and got[0] == 0, got[2]
    assert "Traceback" not in got[2]
    assert not any(name.endswith(SIDECAR_SUFFIX) for name in inputs)


def test_classify_refuses_out_of_range_coordinates_on_both_paths(capsys, tmp_path):
    # A patient at latitude 91, which ingest drops, and a prescriber at 89,
    # half the world apart: the haversine term under the square root rounds
    # below 0, so the distance would be NaN.
    source = tmp_path / "source.csv"
    assert cli.main(["simulate", "--n", "300", "--seed", "3", "--out", str(source)]) == 0
    with open(source, newline="") as fh:
        rows = list(csv.reader(fh))
    col = {name: i for i, name in enumerate(rows[0])}
    for name, value in (("patient_lat", "91"), ("patient_lon", "0"),
                        ("prescriber_lat", "89"), ("prescriber_lon", "180")):
        rows[-1][col[name]] = value
    raw = tmp_path / "raw.csv"
    with open(raw, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    _write_sidecar(raw)
    with warnings.catch_warnings(), mock.patch.object(records, "CHUNK_ROWS", 7):
        warnings.simplefilter("error")  # no "invalid value encountered in sqrt"
        (hit, _), (parsed, _) = _both_paths(capsys, tmp_path, raw, "classify")
    assert hit == parsed
    assert hit[:2] == (2, "") and hit[3] == {}
    assert hit[2] == (f"error: DIR/raw.csv: record {rows[-1][0]}: patient coordinates out "
                      "of range, got (91.0, 0.0); run clean() first\n")
