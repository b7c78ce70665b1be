"""The column sidecar that classify writes beside its CSV.

A reader stage that finds a sidecar keyed by its CSV's hash builds its
records from it instead of parsing the CSV; every other sidecar is ignored,
and the stage parses as before.  Either way its outputs are the same bytes.
"""

import csv
import hashlib
import json
import shutil
from unittest import mock

import numpy as np
import pytest

from rxgeo import cli, records, series
from rxgeo.series import SIDECAR_SUFFIX, read_classified_csv, read_sidecar

# Every accepted non-canonical spelling, as (column, text).
SPELLINGS = [("days_supply", " 7 "), ("fill_date", " 2016-07-01 "),
             ("drug_family", " benzodiazepine "), ("mme_total", "1e2"), ("days_supply", "1_0"),
             ("days_supply", "+7"), ("days_supply", "007"), ("mme_total", "1.50"),
             ("mme_total", "-0"), ("days_supply", "٣"), ("record_id", "id, with a comma")]

READERS = {  # the reader stages: their arguments after --input, and their output
    "aggregate": ["--outdir", "o/series"],
    "summary-table": ["--outdir", "o/tables"],
    "anova": ["--out", "o/anova.json"],
    "ttest": ["--class-code", "03", "--mu0", "40", "--out", "o/ttest.json"],
    "its": ["--outdir", "o/its"],
}


def _run(capsys, *argv):
    capsys.readouterr()
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def _spell(path):
    """Rewrite a transaction CSV with each of ``SPELLINGS`` in its own row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    col = {name: i for i, name in enumerate(rows[0])}
    for k, (name, text) in enumerate(SPELLINGS):
        rows[3 + 11 * k][col[name]] = text
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture(scope="module")
def classified(tmp_path_factory):
    """A classified CSV, written in chunks of 7 rows from a cleaned file that
    holds every accepted non-canonical spelling, with its sidecar."""
    work = tmp_path_factory.mktemp("sidecar")
    assert cli.main(["simulate", "--n", "2000", "--seed", "3",
                     "--out", str(work / "raw.csv")]) == 0
    _spell(work / "raw.csv")
    with mock.patch.object(records, "CHUNK_ROWS", 7):
        assert cli.main(["ingest", "--input", str(work / "raw.csv"), "--out",
                         str(work / "clean.csv"), "--report", str(work / "report.json")]) == 0
        assert cli.main(["classify", "--input", str(work / "clean.csv"),
                         "--out", str(work / "classified.csv")]) == 0
    text = (work / "classified.csv").read_text()
    assert all(spelled in text for _, spelled in SPELLINGS[:-1])
    assert '"id, with a comma"' in text
    return work / "classified.csv"


def _outputs(capsys, csv_path, outdir, stage):
    """A reader stage's exit code, stdout, stderr and output bytes by name,
    written under ``outdir``, and its manifest's inputs (None without one);
    ``outdir`` is removed."""
    code, stdout, err = _run(capsys, stage, "--input", csv_path,
                             *[outdir / a if "/" in a else a for a in READERS[stage]])
    made = {p.relative_to(outdir).as_posix(): p.read_bytes() for p in outdir.rglob("*")
            if p.is_file() and not p.name.startswith("manifest_")}
    manifests = list(outdir.rglob(f"manifest_{stage}.json"))
    inputs = json.loads(manifests[0].read_text())["inputs"] if manifests else None
    shutil.rmtree(outdir, ignore_errors=True)
    return (code, stdout, err, made), inputs


def test_sidecar_equals_the_parse_of_its_csv(classified):
    key = hashlib.sha256(classified.read_bytes()).hexdigest()
    table, digest = read_sidecar(series.sidecar_path(classified), key)
    assert digest == hashlib.sha256(series.sidecar_path(classified).read_bytes()).hexdigest()
    with mock.patch.object(records, "CHUNK_ROWS", 7), open(classified, newline="") as fh:
        parsed = read_classified_csv(fh)
    for name in ("drug_family", "month_index", "mme_total", "days_supply", "class_code",
                 "mme_day"):
        got, want = getattr(table, name), getattr(parsed, name)
        assert got.dtype.kind == want.dtype.kind, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert np.signbit(table.mme_total).tolist() == np.signbit(parsed.mme_total).tolist()


@pytest.mark.parametrize("stage", READERS)
def test_reader_stages_write_the_same_with_and_without_the_sidecar(capsys, classified,
                                                                   tmp_path, stage):
    (with_sidecar, inputs) = _outputs(capsys, classified, tmp_path / "hit", stage)
    assert with_sidecar[0] == 0, with_sidecar[2]
    sidecar = series.sidecar_path(classified)
    listed = {name: h for name, h in inputs.items() if name.endswith(SIDECAR_SUFFIX)}
    assert list(listed.values()) == [hashlib.sha256(sidecar.read_bytes()).hexdigest()]
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / classified.name).write_bytes(classified.read_bytes())
    (without, inputs) = _outputs(capsys, alone / classified.name, tmp_path / "hit", stage)
    assert without == with_sidecar
    assert not any(name.endswith(SIDECAR_SUFFIX) for name in inputs)


def _spoil(csv_path, sidecar, how):
    data = sidecar.read_bytes()
    if how == "missing":
        sidecar.unlink()
    elif how == "stale":  # the CSV edited after classify: one MME value changed
        text = csv_path.read_bytes()
        csv_path.write_bytes(text.replace(b",1.50,", b",1.25,", 1))
        assert csv_path.read_bytes() != text
    elif how == "truncated":
        sidecar.write_bytes(data[:-100])
    elif how == "corrupted":  # a byte of the rows flipped
        sidecar.write_bytes(data[:40] + bytes([data[40] ^ 1]) + data[41:])
    elif how == "unknown version":
        sidecar.write_bytes(data[:-12] + (2).to_bytes(4, "little") + data[-8:])
    elif how == "a directory":
        sidecar.unlink()
        sidecar.mkdir()


@pytest.mark.parametrize("how", ["missing", "stale", "truncated", "corrupted",
                                 "unknown version", "a directory"])
@pytest.mark.parametrize("stage", ["aggregate", "anova"])
def test_a_sidecar_that_does_not_check_out_falls_back_to_the_parse(capsys, classified,
                                                                   tmp_path, how, stage):
    work = tmp_path / "work"
    work.mkdir()
    csv_path, sidecar = work / classified.name, work / series.sidecar_path(classified).name
    csv_path.write_bytes(classified.read_bytes())
    sidecar.write_bytes(series.sidecar_path(classified).read_bytes())
    _spoil(csv_path, sidecar, how)
    plain = tmp_path / "plain"
    plain.mkdir()
    (plain / classified.name).write_bytes(csv_path.read_bytes())
    got, inputs = _outputs(capsys, csv_path, tmp_path / "spoiled", stage)
    want, _ = _outputs(capsys, plain / classified.name, tmp_path / "spoiled", stage)
    assert got == want and got[0] == 0
    assert "Traceback" not in got[2]
    assert not any(name.endswith(SIDECAR_SUFFIX) for name in inputs)


def test_classify_writes_the_same_sidecar_twice(capsys, classified, tmp_path):
    clean = classified.parent / "clean.csv"
    for name in ("a", "b"):
        code, _, err = _run(capsys, "classify", "--input", clean,
                            "--out", tmp_path / name / "classified.csv")
        assert code == 0, err
    sidecars = [(tmp_path / name / f"classified.csv{SIDECAR_SUFFIX}").read_bytes()
                for name in ("a", "b")]
    assert sidecars[0] == sidecars[1] == series.sidecar_path(classified).read_bytes()
    manifest = json.loads((tmp_path / "a" / "manifest_classify.json").read_text())
    assert manifest["outputs"] == ["classified.csv", f"classified.csv{SIDECAR_SUFFIX}"]


def test_a_non_finite_distance_gets_no_sidecar_and_the_readers_reject_it(capsys, tmp_path):
    # A patient at latitude 91 (ingest would drop it, classify does not) and a
    # prescriber at 89, half the world apart: the haversine term under the
    # square root rounds below 0, so d_pp is NaN.
    assert cli.main(["simulate", "--n", "300", "--seed", "3",
                     "--out", str(tmp_path / "clean.csv")]) == 0
    with open(tmp_path / "clean.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    col = {name: i for i, name in enumerate(rows[0])}
    for name, value in (("patient_lat", "91"), ("patient_lon", "0"),
                        ("prescriber_lat", "89"), ("prescriber_lon", "180")):
        rows[-1][col[name]] = value
    with open(tmp_path / "clean.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):
        code, _, err = _run(capsys, "classify", "--input", tmp_path / "clean.csv",
                            "--out", out / "classified.csv")
    assert code == 0, err
    assert sorted(p.name for p in out.iterdir()) == ["classified.csv", "manifest_classify.json"]
    assert json.loads((out / "manifest_classify.json").read_text())["outputs"] == [
        "classified.csv"]
    for stage in READERS:
        (code, stdout, err, made), _ = _outputs(capsys, out / "classified.csv",
                                                tmp_path / stage, stage)
        assert (code, stdout, made) == (2, "", {})
        assert err == f"error: {out / 'classified.csv'}: line {len(rows)}: invalid d_pp\n"
