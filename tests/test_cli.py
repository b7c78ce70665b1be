import csv
import hashlib
import inspect
import json
import os
import re
import sys
from pathlib import Path

import pytest

from rxgeo import geo, intervention, report, series
from rxgeo.cli import build_parser, main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small simulate -> ingest -> classify run shared by the tests."""
    root = tmp_path_factory.mktemp("pipe")
    data = root / "data.csv"
    cleaned = root / "clean.csv"
    classified = root / "classified.csv"
    assert run("simulate", "--n", 4000, "--seed", 7, "--out", data,
               "--dump-config", root / "scenario.json") == 0
    assert run("ingest", "--input", data, "--out", cleaned,
               "--report", root / "filter.json") == 0
    assert run("classify", "--input", cleaned, "--out", classified) == 0
    return root


def test_subcommands_do_not_mutate_inputs(pipeline):
    data = (pipeline / "data.csv").read_bytes()
    cleaned = (pipeline / "clean.csv").read_bytes()
    classified = (pipeline / "classified.csv").read_bytes()
    assert run("aggregate", "--input", pipeline / "classified.csv",
               "--outdir", pipeline / "series_again") == 0
    assert run("anova", "--input", pipeline / "classified.csv",
               "--out", pipeline / "anova2.json") == 0
    assert (pipeline / "data.csv").read_bytes() == data
    assert (pipeline / "clean.csv").read_bytes() == cleaned
    assert (pipeline / "classified.csv").read_bytes() == classified


def test_simulate_and_manifest(pipeline):
    manifest = json.loads((pipeline / "manifest_simulate.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 7
    assert "data.csv" in manifest["outputs"]
    assert manifest["version"]


def test_dumped_scenario_reproduces_the_records_with_the_same_seed(pipeline, tmp_path):
    # The dump used to write "seed": 0 for a --seed 7 run, a seed that only
    # syngen.generate called without a seed read.
    assert "seed" not in json.loads((pipeline / "scenario.json").read_text())
    again = tmp_path / "again.csv"
    assert run("simulate", "--n", 4000, "--seed", 7, "--config", pipeline / "scenario.json",
               "--out", again) == 0
    assert again.read_bytes() == (pipeline / "data.csv").read_bytes()


def test_cli_analysis_defaults_are_the_librarys():
    _, sub = build_parser()
    thresholds = geo.ClassThresholds()
    assert sub["classify"].get_default("near_miles") == thresholds.near_miles
    assert sub["classify"].get_default("isolation_ratio") == thresholds.isolation_ratio
    alphas = {inspect.signature(f).parameters["alpha"].default
              for f in (intervention.its_analysis, intervention.its_batch,
                        intervention.ItsResult.significant_events,
                        report.arimax_table_rows, report.arimax_markdown)}
    assert alphas == {sub["its"].get_default("alpha")} == {series.DEFAULT_ALPHA}


def test_filter_report_conserves(pipeline):
    rep = json.loads((pipeline / "filter.json").read_text())
    excluded = sum(rep[k] for k in ("pre_2014", "mme_exceeds_cap",
                                    "missing_or_zero_days_supply",
                                    "invalid_coordinates", "malformed_row"))
    assert rep["total_in"] == rep["total_kept"] + excluded


def test_classified_csv_has_extra_columns(pipeline):
    with open(pipeline / "classified.csv", newline="") as fh:
        header = next(csv.reader(fh))
    for col in ("d_pp", "d_pd", "d_rd", "pi_total", "class_code", "risk_level"):
        assert col in header


def test_aggregate_and_fit(pipeline):
    outdir = pipeline / "series"
    assert run("aggregate", "--input", pipeline / "classified.csv",
               "--outdir", outdir) == 0
    overall = outdir / "series_opioid_overall.csv"
    assert overall.exists()
    with open(overall, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["month_index"] == "0" or int(rows[0]["month_index"]) >= 0
    assert run("fit", "--input", overall, "--out", pipeline / "fit.json",
               "--residuals", pipeline / "resid.csv") == 0
    fit = json.loads((pipeline / "fit.json").read_text())
    assert {"orders", "coefficients", "sigma2", "bic", "n_effective"} <= set(fit)
    assert all({"name", "estimate", "std_error", "p_value"} <= set(c)
               for c in fit["coefficients"])


def test_fit_auto_writes_interpolated_count(tmp_path):
    # a 60-month series with 3 empty interior months: the automatic fit
    # interpolates them once and must report that in the fit JSON
    series = tmp_path / "series.csv"
    rows = ["month_index,year,month,mean_mme_day,n_records"]
    for i in range(60):
        empty = i in (10, 25, 40)
        mean = "" if empty else repr(50.0 + 3.0 * ((i * 7) % 5) - 0.1 * i)
        rows.append(f"{i},{2014 + i // 12},{i % 12 + 1},{mean},{0 if empty else 9}")
    series.write_text("\n".join(rows) + "\n")
    assert run("fit", "--input", series, "--orders", "auto",
               "--out", tmp_path / "fit.json") == 0
    assert json.loads((tmp_path / "fit.json").read_text())["n_interpolated"] == 3


def test_summary_and_stats_commands(pipeline):
    results = pipeline / "results"
    assert run("summary-table", "--input", pipeline / "classified.csv",
               "--outdir", results) == 0
    assert (results / "class_summary_opioid.md").exists()
    assert (results / "pre_post_opioid.csv").exists()
    assert run("anova", "--input", pipeline / "classified.csv",
               "--out", pipeline / "anova.json") == 0
    anova = json.loads((pipeline / "anova.json").read_text())
    assert anova["statistic"] >= 0 and 0 <= anova["p_value"] <= 1
    assert run("ttest", "--input", pipeline / "classified.csv",
               "--class-code", "03", "--mu0", 50,
               "--out", pipeline / "ttest.json") == 0
    tt = json.loads((pipeline / "ttest.json").read_text())
    assert tt["mu0"] == 50.0 and "ci_lo" in tt


def test_usage_errors_exit_1(capsys, tmp_path):
    assert run("summary-table", "--input", "x.csv", "--outdir", tmp_path,
               "--policy-month", "May 2018") == 1
    err = capsys.readouterr().err
    assert "--policy-month" in err
    assert run("--no-such-flag") == 1
    assert run("fit", "--input", "x.csv", "--orders", "1,2", "--out", "y") == 1


def test_data_errors_exit_2(tmp_path, capsys):
    assert run("ingest", "--input", tmp_path / "missing.csv",
               "--out", tmp_path / "o.csv", "--report", tmp_path / "r.json") == 2
    assert "missing input file" in capsys.readouterr().err
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert run("ingest", "--input", bad, "--out", tmp_path / "o.csv",
               "--report", tmp_path / "r.json") == 2
    empty = tmp_path / "results"
    empty.mkdir()
    assert run("report", "--results-dir", empty, "--outdir", tmp_path / "rep") == 2
    err = capsys.readouterr().err
    assert "summary-table" in err or "missing stage output" in err
    assert not (tmp_path / "rep").exists()  # the inputs are checked first


def test_ingest_reads_padded_header_names(pipeline, tmp_path):
    data = (pipeline / "data.csv").read_bytes()
    header, rest = data.split(b"\r\n", 1)
    padded = tmp_path / "padded.csv"
    padded.write_bytes(header.replace(b"record_id,", b" record_id,")
                       .replace(b",mme_total,", b", mme_total ,") + b"\r\n" + rest)
    assert run("ingest", "--input", padded, "--out", tmp_path / "clean.csv",
               "--report", tmp_path / "filter.json") == 0
    assert (tmp_path / "clean.csv").read_bytes() == (pipeline / "clean.csv").read_bytes()
    assert (tmp_path / "filter.json").read_bytes() == (pipeline / "filter.json").read_bytes()


def _append_column(src, dst, name, value):
    """Copy a CSV with one more column, ``name``, set to ``value`` in every row."""
    with open(src, newline="") as fh:
        rows = list(csv.reader(fh))
    with open(dst, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0] + [name]] + [r + [value] for r in rows[1:]])


def test_a_column_named_twice_exits_2(pipeline, tmp_path, capsys):
    # The last copy used to win: aggregate exited 0 with mean_mme_day ~ 7.5e7.
    for command, src, argv in (
            ("ingest", "data.csv", ["--out", tmp_path / "c.csv",
                                    "--report", tmp_path / "r.json"]),
            ("classify", "clean.csv", ["--out", tmp_path / "k.csv"]),
            ("aggregate", "classified.csv", ["--outdir", tmp_path / "series"])):
        bad = tmp_path / src
        _append_column(pipeline / src, bad, "mme_total", "1e9")
        capsys.readouterr()
        assert run(command, "--input", bad, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "duplicate columns" in err
        assert "mme_total" in err and "Traceback" not in err
    assert not (tmp_path / "series").exists()


def test_classify_rejects_uncleaned_input(pipeline, tmp_path, capsys):
    # days_supply=0 passes the parse but not clean(); it used to end in a
    # ValueError traceback
    bad = tmp_path / "unclean.csv"
    _rewrite_csv(pipeline / "clean.csv", bad, "days_supply", "0")
    capsys.readouterr()
    assert run("classify", "--input", bad, "--out", tmp_path / "k.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "days_supply must be >= 1" in err
    assert not (tmp_path / "k.csv").exists()


def test_days_supply_too_large_for_a_float_is_a_malformed_row(pipeline, tmp_path):
    # 1 followed by 400 zeros used to pass ingest, and classify then ended in
    # an OverflowError traceback
    raw, cleaned, report = (tmp_path / name for name in ("raw.csv", "clean.csv",
                                                         "filter.json"))
    _rewrite_csv(pipeline / "data.csv", raw, "days_supply", "1" + "0" * 400)
    assert run("ingest", "--input", raw, "--out", cleaned, "--report", report) == 0
    rep = json.loads(report.read_text())
    assert rep["row_errors"] == [{"line": 2, "reason": "invalid days_supply"}]
    assert rep["malformed_row"] == 1
    assert run("classify", "--input", cleaned, "--out", tmp_path / "k.csv") == 0


def _rewrite_csv(src, dst, column, value):
    """Copy a CSV, setting ``column`` of the first data row to ``value``."""
    with open(src, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0][column] = value
    with open(dst, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.mark.parametrize("column,value", [("class_code", "9z"),
                                          ("mme_total", "abc"),
                                          ("days_supply", "0"),
                                          ("pi_total", "abc"),
                                          ("risk_level", "²")])
def test_malformed_classified_row_exits_2(pipeline, tmp_path, capsys,
                                          column, value):
    bad = tmp_path / "classified.csv"
    _rewrite_csv(pipeline / "classified.csv", bad, column, value)
    capsys.readouterr()
    assert run("aggregate", "--input", bad, "--outdir", tmp_path / "s") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert str(bad) in err and "line 2" in err and f"invalid {column}" in err


def test_malformed_series_row_exits_2(pipeline, tmp_path, capsys):
    series = tmp_path / "series"
    assert run("aggregate", "--input", pipeline / "classified.csv",
               "--outdir", series) == 0
    bad = tmp_path / "bad_series.csv"
    _rewrite_csv(series / "series_opioid_overall.csv", bad, "mean_mme_day", "abc")
    short = tmp_path / "short_series.csv"
    lines = (series / "series_opioid_overall.csv").read_text().splitlines()
    short.write_text("\n".join(lines[:2] + ["3,2014,3"] + lines[3:]) + "\n")
    for path, line, reason in ((bad, 2, "invalid mean_mme_day"),
                               (short, 3, "wrong field count")):
        capsys.readouterr()
        assert run("fit", "--input", path, "--out", tmp_path / "fit.json") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert f"{path}: line {line}: {reason}" in err


# Each stage that reads a CSV: the file it reads (from the pipeline, or
# "series" for an aggregate series CSV), the column spoiled in its first data
# row, and the stage's other arguments; a Path is an output under "out".
_READERS = [
    ("ingest", "data.csv", "record_id",
     ["--out", Path("o.csv"), "--report", Path("r.json")]),
    ("classify", "clean.csv", "record_id", ["--out", Path("k.csv")]),
    ("aggregate", "classified.csv", "record_id", ["--outdir", Path("s")]),
    ("summary-table", "classified.csv", "record_id", ["--outdir", Path("t")]),
    ("anova", "classified.csv", "record_id", ["--out", Path("a.json")]),
    ("ttest", "classified.csv", "record_id",
     ["--class-code", "03", "--mu0", "50", "--out", Path("t.json")]),
    ("its", "classified.csv", "record_id", ["--outdir", Path("its")]),
    ("fit", "series", "mean_mme_day", ["--out", Path("fit.json")]),
]


@pytest.mark.parametrize("spoil", ["long field", "undecodable byte"])
@pytest.mark.parametrize("command,src,column,argv", _READERS)
def test_unreadable_csv_exits_2(pipeline, tmp_path, capsys, command, src, column,
                                argv, spoil):
    # A 200,000-character field (over the csv module's 131,072 limit) or a
    # byte that is not UTF-8 used to end every reader in a traceback.
    if src == "series":
        assert run("aggregate", "--input", pipeline / "classified.csv",
                   "--outdir", tmp_path / "series") == 0
        src = tmp_path / "series" / "series_opioid_overall.csv"
    else:
        src = pipeline / src
    bad = tmp_path / "bad.csv"
    if spoil == "long field":
        _rewrite_csv(src, bad, column, "1" * 200_000)
        expected = f"{bad}: line 2: field larger than field limit"
    else:
        header, rest = src.read_bytes().split(b"\n", 1)
        bad.write_bytes(header + b"\n\xff" + rest)
        expected = f"{bad}: cannot decode byte 0xff"
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, "--input", bad,
               *(out / a if isinstance(a, Path) else a for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,src,column,argv", _READERS[:2])
def test_bad_transaction_header_names_the_file(pipeline, tmp_path, capsys, command, src,
                                               column, argv):
    # ingest and classify used to print "error: bad header: ..." without the
    # file, while every other CSV error names it.
    bad = tmp_path / "bad.csv"
    header, rest = (pipeline / src).read_bytes().split(b"\n", 1)
    bad.write_bytes(header.replace(b"days_supply", b"days") + b"\n" + rest)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(command, "--input", bad, *(out / a if isinstance(a, Path) else a
                                          for a in argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: bad header: missing columns ['days_supply']")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,argv", [
    ("anova", []), ("ttest", ["--class-code", "03", "--mu0", "50"])])
def test_anova_and_ttest_reject_family_both(tmp_path, capsys, command, argv):
    # --family both used to be accepted and then exit 2 on a valid file with
    # "fewer than 2 classes have enough data for ANOVA" or "class 03 has
    # fewer than 2 monthly values".  --input does not exist: the check comes
    # before any input is read.
    assert run(command, "--input", tmp_path / "absent.csv", "--family", "both",
               "--out", tmp_path / "out" / "x.json", *argv) == 1
    err = capsys.readouterr().err
    assert "--family" in err and "'both'" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("alpha", ["7", "0", "1", "-0.5", "nan"])
def test_its_alpha_outside_unit_interval_is_usage_error(pipeline, tmp_path,
                                                        capsys, alpha):
    assert run("its", "--input", pipeline / "classified.csv",
               "--outdir", tmp_path / "its", "--alpha", alpha) == 1
    assert "--alpha" in capsys.readouterr().err
    assert not (tmp_path / "its").exists()


@pytest.mark.parametrize("command,flag,value", [
    ("ttest", "--mu0", "nan"), ("ttest", "--mu0", "inf"), ("ttest", "--mu0", "-inf"),
    ("ingest", "--cap", "nan"), ("ingest", "--cap", "inf"),
    ("classify", "--near-miles", "nan"), ("classify", "--near-miles", "inf"),
    ("classify", "--near-miles", "0"), ("classify", "--near-miles", "-5"),
    ("classify", "--isolation-ratio", "nan"), ("classify", "--isolation-ratio", "-inf"),
    ("classify", "--isolation-ratio", "0"), ("classify", "--isolation-ratio", "-1.5"),
])
def test_non_finite_or_non_positive_numbers_are_usage_errors(pipeline, tmp_path, capsys,
                                                             command, flag, value):
    # These used to run: ttest wrote "mu0": NaN, which is not JSON; ingest
    # with --cap nan excluded nothing; classify with --near-miles nan put
    # every record in a far class.
    out = tmp_path / "out"
    argv = {"ttest": ["--input", pipeline / "classified.csv", "--class-code", "03",
                      "--out", out / "t.json"],
            "ingest": ["--input", pipeline / "data.csv", "--out", out / "clean.csv",
                       "--report", out / "report.json"],
            "classify": ["--input", pipeline / "clean.csv", "--out", out / "c.csv"]}
    assert run(command, *argv[command], f"{flag}={value}") == 1
    err = capsys.readouterr().err
    assert flag in err and repr(value) in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command,argv", [
    ("ttest", ["--class-code", "03", "--mu0=-1e300"]),
    ("classify", ["--near-miles", "1e-9", "--isolation-ratio", "1e9"]),
])
def test_finite_and_positive_numbers_still_run(pipeline, tmp_path, command, argv):
    source = {"ttest": "classified.csv", "classify": "clean.csv"}[command]
    assert run(command, "--input", pipeline / source, "--out", tmp_path / "out", *argv) == 0


def test_fit_with_a_seasonal_lag_past_the_series_is_a_data_error(pipeline, tmp_path, capsys):
    # This used to exit 0 and report a sar1000 coefficient with NaN
    # standard errors.
    series_dir = pipeline / "series_lag"
    assert run("aggregate", "--input", pipeline / "classified.csv", "--outdir", series_dir) == 0
    assert run("fit", "--input", series_dir / "series_opioid_overall.csv",
               "--orders", "1,0,0,1,0,0", "--season", 1000,
               "--out", tmp_path / "out" / "fit.json") == 2
    err = capsys.readouterr().err
    assert "fit failed" in err and "too short" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value", [
    ("--events", "bogus"),
    ("--events", ""),
    ("--events", "level_shift,level_shift"),
    ("--announce-month", "2018-05"),  # the default --policy-month
])
def test_its_bad_flags_exit_1_before_any_io(tmp_path, capsys, flag, value):
    # --input does not exist: a flag check that came after reading it would
    # exit 2, and one that came after --outdir would leave the directory.
    assert run("its", "--input", tmp_path / "absent.csv",
               "--outdir", tmp_path / "its", flag, value) == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert not (tmp_path / "its").exists()


@pytest.mark.parametrize("flag,month", [
    ("--announce-month", "2030-01"),
    ("--announce-month", "2010-01"),
    ("--policy-month", "2030-01"),
    ("--policy-month", "2012-01"),
])
def test_its_onset_outside_the_data_span_is_a_data_error(pipeline, tmp_path,
                                                         capsys, flag, month):
    # These used to exit 0 with every series failed.  The check runs after
    # the input is read and before any fit or --outdir.
    assert run("its", "--input", pipeline / "classified.csv", "--family", "opioid",
               "--outdir", tmp_path / "its", flag, month) == 2
    err = capsys.readouterr().err
    assert f"{flag} {month} is outside the opioid data span" in err
    assert "Traceback" not in err
    assert not (tmp_path / "its").exists()


@pytest.mark.parametrize("argv", [
    ["--season", "-3"],
    ["--season", "0"],
    ["--season", "1"],
    ["--season", "1", "--orders", "1,0,0"],
])
def test_fit_season_below_2_is_usage_error(tmp_path, capsys, argv):
    # --season -3 used to end in an IndexError traceback, 0 in a numpy
    # matmul error, and 1 with fixed nonseasonal orders ran.
    assert run("fit", "--input", tmp_path / "absent.csv",
               "--out", tmp_path / "out" / "fit.json", *argv) == 1
    err = capsys.readouterr().err
    assert "--season" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("orders", ["-1,0,0", "0,0,0,3,0,0", "0,2,0,0,2,0"])
def test_fit_orders_that_arima_rejects_are_a_usage_error(tmp_path, capsys, orders):
    # A negative order, a seasonal order over the cap and d + D over 3 used
    # to read the input first and exit 2 with "fit failed: ...".
    assert run("fit", "--input", tmp_path / "absent.csv",
               "--out", tmp_path / "out" / "fit.json", f"--orders={orders}") == 1
    err = capsys.readouterr().err
    assert "--orders" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("code", ["99", "overall", "3"])
def test_ttest_class_code_outside_the_16_codes_is_a_usage_error(tmp_path, capsys, code):
    # These used to read the whole input and exit 2 with "class 99 has fewer
    # than 2 monthly values".
    assert run("ttest", "--input", tmp_path / "absent.csv", "--class-code", code,
               "--mu0", 90, "--out", tmp_path / "out" / "ttest.json") == 1
    err = capsys.readouterr().err
    assert "--class-code" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_fit_impute_is_a_usage_error(tmp_path, capsys):
    assert run("fit", "--input", tmp_path / "absent.csv", "--impute", "none",
               "--out", tmp_path / "out" / "fit.json") == 1
    assert "--impute" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_subcommand_flag_is_named_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    _, subparsers = build_parser()
    missing = [f"{command} {flag}" for command, parser in subparsers.items()
               for action in parser._actions if action.dest != "help"
               for flag in action.option_strings
               if not re.search(re.escape(flag) + r"(?![\w-])", readme)]
    assert not missing


def test_report_requires_its_outputs(pipeline, tmp_path, capsys):
    results = pipeline / "results"
    if not (results / "class_summary_opioid.md").exists():
        run("summary-table", "--input", pipeline / "classified.csv",
            "--outdir", results)
    # its output absent -> named in the error
    assert run("report", "--results-dir", results, "--outdir", tmp_path / "r") == 2
    assert "its" in capsys.readouterr().err


def test_config_file_supplies_flags(tmp_path):
    cfg = tmp_path / "flags.json"
    out = tmp_path / "d.csv"
    cfg.write_text(json.dumps({"simulate": {"n": 200, "seed": 3,
                                            "out": str(out)}}))
    assert run("--config-file", cfg, "simulate") == 0
    assert out.exists()
    # the config file sets flags that change outputs, so it is a hashed input
    manifest = json.loads((tmp_path / "manifest_simulate.json").read_text())
    assert manifest["inputs"] == {"flags.json": hashlib.sha256(cfg.read_bytes()).hexdigest()}
    # explicit flags win over config-file defaults
    out2 = tmp_path / "e.csv"
    assert run("--config-file", cfg, "simulate", "--out", out2) == 0
    assert out2.exists()
    assert run("--config-file", tmp_path / "absent.json", "simulate") == 2


def test_config_file_rejects_unknown_keys(pipeline, tmp_path, capsys):
    # a misspelt flag, and the removed its --threads flag
    for command, key, flag in (("anova", "unti", "--out"),
                               ("its", "threads", "--outdir")):
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps({command: {key: 2}}))
        capsys.readouterr()
        assert run("--config-file", cfg, command, "--input",
                   pipeline / "classified.csv", flag, tmp_path / "out") == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,section,flag,argv", [
    ("anova", {"unit": "bogus"}, "--unit", ["--out", "out"]),
    ("simulate", {"n": 1.5}, "--n", ["--out", "out"]),
    ("its", {"alpha": [1]}, "--alpha", ["--outdir", "out"]),
    ("its", {"events": "ramp,bogus"}, "--events", ["--outdir", "out"]),
    ("fit", {"season": 0}, "--season", ["--out", "out"]),
])
def test_config_file_values_are_checked_like_flags(pipeline, tmp_path, capsys,
                                                   command, section, flag, argv):
    cfg = tmp_path / "flags.json"
    cfg.write_text(json.dumps({command: section}))
    if command != "simulate":
        argv = ["--input", pipeline / "classified.csv", *argv]
    argv = [tmp_path / a if a == "out" else a for a in argv]
    capsys.readouterr()
    assert run("--config-file", cfg, command, *argv) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_pipeline_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        assert run("simulate", "--n", 1500, "--seed", 42, "--out", d / "data.csv") == 0
        assert run("ingest", "--input", d / "data.csv", "--out", d / "clean.csv",
                   "--report", d / "filter.json") == 0
        assert run("classify", "--input", d / "clean.csv",
                   "--out", d / "classified.csv") == 0
        assert run("aggregate", "--input", d / "classified.csv",
                   "--outdir", d / "series") == 0
        outs.append(d)
    a, b = outs
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "classified.csv").read_bytes() == (b / "classified.csv").read_bytes()
    for f in sorted((a / "series").glob("*.csv")):
        assert f.read_bytes() == (b / "series" / f.name).read_bytes()


def test_cutoff_date_is_exactly_yyyy_mm_dd(pipeline, tmp_path, capsys):
    # date.fromisoformat accepts both on Python 3.11 but not on 3.10.
    for text in ("20140101", "2014-W01-3"):
        assert run("ingest", "--input", pipeline / "data.csv",
                   "--out", tmp_path / "out" / "o.csv",
                   "--report", tmp_path / "out" / "r.json", "--cutoff-date", text) == 1
        err = capsys.readouterr().err
        assert "argument --cutoff-date" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _first_profile(**values):
    def edit(scenario):
        scenario["families"]["opioid"]["profiles"][0].update(values)
        return scenario
    return edit


@pytest.mark.parametrize("edit,message", [
    (lambda scenario: [scenario], "expected a JSON object, got list"),
    (_first_profile(bogus=1), "'bogus'"),
    # The generator never read mean_mme, so 0.13.0 removed it.
    (_first_profile(mean_mme=802.32), "'mean_mme'"),
    # generate drew with this seed only when called without one, which the
    # CLI never did; 0.15.0 removed it, so --seed is the run's one seed.
    (lambda scenario: {**scenario, "seed": 7}, "unknown scenario key(s): 'seed'"),
    (_first_profile(class_code="99"), "opioid class '99': not a class code"),
    (_first_profile(sd_days=0), "opioid class 00: sd_days must be finite > 0, got 0"),
    (_first_profile(target_mme_day=-5),
     "opioid class 00: target_mme_day must be finite > 0, got -5"),
    (_first_profile(sd_mme="wide"), "sd_mme must be finite > 0, got 'wide'"),
    (lambda scenario: {**scenario, "noise_sd": -1}, "noise_sd must be finite >= 0"),
    (lambda scenario: {**scenario, "trend_slop": 0.1},
     "unknown scenario key(s): 'trend_slop'"),
    (lambda scenario: {**scenario, "families": {
        **scenario["families"],
        "opioid": {**scenario["families"]["opioid"], "level_scal": 2.0}}},
     "unknown opioid family key(s): 'level_scal'"),
], ids=["json-array", "unknown-key", "removed-mean-mme", "removed-seed", "class-99", "sd-days-0",
        "negative-target", "text-sd", "negative-noise", "unknown-top-key", "unknown-family-key"])
def test_bad_scenario_config_exits_2(pipeline, tmp_path, capsys, edit, message):
    # Each used to end in a traceback (exit 1): TypeError, TypeError,
    # IndexError, ZeroDivisionError, then three ValueErrors from generate.
    # The two misspelt keys used to be dropped, and the run exited 0.
    scenario = json.loads((pipeline / "scenario.json").read_text())
    cfg = tmp_path / "scenario.json"
    cfg.write_text(json.dumps(edit(scenario)))
    out = tmp_path / "out" / "data.csv"
    capsys.readouterr()
    assert run("simulate", "--n", 100, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad scenario config {cfg}: ") and message in err
    assert "Traceback" not in err and not out.parent.exists()


@pytest.mark.parametrize("argv,flags,flag", [
    (["--n", "0"], {}, "--n"),
    (["--n", "-5"], {}, "--n"),
    (["--n", "10", "--seed", "-1"], {}, "--seed"),
    ([], {"n": 0}, "--n"),
], ids=["n-0", "n-negative", "seed-negative", "config-file-n-0"])
def test_simulate_count_and_seed_are_usage_errors(tmp_path, capsys, argv, flags, flag):
    # --n 0 used to end in "ValueError: n_records must be positive" and
    # --seed -1 in numpy's "expected non-negative integer", both tracebacks.
    cfg = tmp_path / "flags.json"
    cfg.write_text(json.dumps({"simulate": flags}))
    out = tmp_path / "out" / "data.csv"
    assert run("--config-file", cfg, "simulate", *argv, "--out", out) == 1
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and "Traceback" not in err
    assert not out.parent.exists()


def test_undecodable_text_inputs_exit_2(pipeline, tmp_path, capsys):
    # A byte that is not UTF-8 in a --config-file, a --config scenario or a
    # table that report assembles used to end in a UnicodeDecodeError traceback.
    flags = tmp_path / "flags.json"
    flags.write_bytes(b'{"simulate": {"n": 5}}\n\xff')
    scenario = tmp_path / "scenario.json"
    scenario.write_bytes((pipeline / "scenario.json").read_bytes() + b"\xff")
    results = tmp_path / "results"
    results.mkdir()
    (results / "class_summary_opioid.md").write_bytes(b"# Summary\n\xff\n")
    (results / "its_coefficients.md").write_text("# ITS\n")
    out = tmp_path / "out"
    for path, argv in (
            (flags, ["--config-file", flags, "simulate", "--out", out / "a.csv"]),
            (scenario, ["simulate", "--n", 10, "--config", scenario, "--out", out / "b.csv"]),
            (results / "class_summary_opioid.md",
             ["report", "--results-dir", results, "--outdir", out / "report"])):
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {path}: cannot decode byte 0xff as utf-8\n"
    assert not (out / "a.csv").exists() and not (out / "b.csv").exists()


# --- the stage shape: main writes the manifest, _output every output -------------

def test_manifest_argv_is_the_argv_given_to_main(tmp_path, monkeypatch):
    # It used to be sys.argv[1:]: under a wrapper such as perfbench/tracer.py
    # that put the wrapper's own arguments in the manifest.
    monkeypatch.setattr(sys, "argv", ["wrapper", "spans.json", "run-7"])
    argv = ["simulate", "--n", "50", "--out", str(tmp_path / "d.csv")]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "manifest_simulate.json").read_text())
    assert manifest["argv"] == argv


def test_second_output_in_a_new_directory(pipeline, tmp_path):
    # Each used to exit 2 with "[Errno 2]" after the first output was
    # written, and left no manifest.
    assert run("aggregate", "--input", pipeline / "classified.csv",
               "--family", "opioid", "--outdir", tmp_path / "series") == 0
    for command, argv, first, flag, second in (
            ("simulate", ["--n", 100], "s/d.csv", "--dump-config", "b/x.json"),
            ("ingest", ["--input", pipeline / "data.csv"], "i/c.csv", "--report", "d/r.json"),
            ("fit", ["--input", tmp_path / "series" / "series_opioid_overall.csv"],
             "f/fit.json", "--residuals", "e/res.csv")):
        first, second = tmp_path / first, tmp_path / second
        assert run(command, *argv, "--out", first, flag, second) == 0
        assert first.is_file() and second.is_file()
        manifest = first.parent / f"manifest_{command}.json"
        assert json.loads(manifest.read_text())["outputs"] == [
            first.name, os.path.join("..", second.parent.name, second.name)]


# The ten stages in pipeline order: the command, its arguments (a Path is
# one under the work directory), and the directory its manifest goes to.
_STAGES = [
    ("simulate", ["--n", 4000, "--seed", 42, "--out", Path("data.csv"),
                  "--dump-config", Path("scenario.json")], "."),
    ("ingest", ["--input", Path("data.csv"), "--out", Path("clean.csv"),
                "--report", Path("filter_report.json")], "."),
    ("classify", ["--input", Path("clean.csv"), "--out", Path("classified.csv")], "."),
    ("aggregate", ["--input", Path("classified.csv"), "--outdir", Path("series")],
     "series"),
    ("summary-table", ["--input", Path("classified.csv"), "--outdir", Path("results")],
     "results"),
    ("anova", ["--input", Path("classified.csv"), "--out", Path("stats/anova.json")],
     "stats"),
    ("ttest", ["--input", Path("classified.csv"), "--class-code", "03", "--mu0", 50,
               "--out", Path("stats/ttest.json")], "stats"),
    ("fit", ["--input", Path("series/series_opioid_overall.csv"),
             "--out", Path("fit/fit.json"), "--residuals", Path("fit/residuals.csv")],
     "fit"),
    ("its", ["--input", Path("classified.csv"), "--outdir", Path("results")], "results"),
    ("report", ["--results-dir", Path("results"), "--outdir", Path("report")], "report"),
]


@pytest.fixture(scope="module")
def ten_stages(tmp_path_factory):
    """All ten stages run in one work directory, given paths relative to it;
    for each, the files it made with their modification times."""
    root = tmp_path_factory.mktemp("stages")

    def files():
        return {p: p.stat().st_mtime_ns for p in root.rglob("*") if p.is_file()}

    made = {}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for command, argv, _ in _STAGES:
            before = files()
            assert run(command, *argv) == 0
            made[command] = {p: t for p, t in files().items() if p not in before}
    finally:
        os.chdir(cwd)
    return root, made


@pytest.mark.parametrize("command,manifest_dir",
                         [(command, d) for command, _, d in _STAGES])
def test_every_stage_lists_what_it_wrote(ten_stages, command, manifest_dir):
    root, made = ten_stages
    manifest_path = root / manifest_dir / f"manifest_{command}.json"
    assert manifest_path in made[command]
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == command
    outputs = [manifest_path.parent / o for o in manifest["outputs"]]
    assert sorted(outputs) == sorted(set(made[command]) - {manifest_path})
    times = [made[command][o] for o in outputs]
    assert times == sorted(times)  # listed in the order they were written


@pytest.mark.parametrize("command,manifest_dir",
                         [(command, d) for command, _, d in _STAGES])
def test_manifest_paths_are_relative_to_the_manifest(ten_stages, command, manifest_dir):
    # They used to be recorded as typed, relative to the directory the stage
    # ran in: series/manifest_aggregate.json listed "series/series_opioid_00.csv"
    # and the input "classified.csv", which do not resolve from series/.
    root, _ = ten_stages
    here = root / manifest_dir
    manifest = json.loads((here / f"manifest_{command}.json").read_text())
    for name in [*manifest["inputs"], *manifest["outputs"]]:
        assert not os.path.isabs(name) and (here / name).is_file(), name
    for name, digest in manifest["inputs"].items():
        assert hashlib.sha256((here / name).read_bytes()).hexdigest() == digest
    if command in ("aggregate", "its"):
        assert "../classified.csv" in manifest["inputs"]
