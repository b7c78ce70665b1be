"""Command-line pipeline: simulate -> ingest -> classify -> aggregate ->
stats / its -> report, with a reproducibility manifest per run.

Exit codes: 0 success, 1 usage error, 2 data/contract error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import shutil
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterator, TextIO

import numpy as np

from . import __version__, geo, records, report
from .series import (CLASSIFIED_LAYOUT, DEFAULT_ALPHA, DEFAULT_POLICY_MONTH, EVENT_KINDS,
                     MonthKey, RecordTable, aggregate_monthly, classified_rows, pre_post_table,
                     read_classified_csv, read_series_csv, read_sidecar, summarize_classes,
                     write_classified_csv, write_series_csv)
from .stats import mean_ci, one_way_anova, t_test_greater

# syngen (simulate) and the model code in arima, intervention and _optimize
# (fit, its) are imported by the stages that run them, so the other stages
# start without loading them.
if TYPE_CHECKING:
    from .arima import ArimaFit


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, never SystemExit(2)
        raise UsageError(f"{self.prog}: {message}")


def _typed(parse, form: str, low: int | None = None, what: str = ""):
    """An argparse type: the ``parse`` of a flag's text, and at least ``low``
    if that is given; a usage error naming ``form`` or ``what`` otherwise."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {value}")
        return value
    return convert


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if value <= 0:
        raise ValueError(text)
    return value


def _events_arg(text: str) -> list[str]:
    kinds = text.split(",")
    if not set(kinds) <= set(EVENT_KINDS) or len(set(kinds)) != len(kinds):
        raise argparse.ArgumentTypeError(
            f"expected distinct comma-separated kinds from {EVENT_KINDS}, got {text!r}")
    return kinds


def _families(arg: str) -> tuple[str, ...]:
    return records.FAMILIES if arg == "both" else (arg,)


# --- manifest ----------------------------------------------------------------

def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    seed: int | None = None
    version: str = __version__
    started_at: str = ""
    finished_at: str = ""
    inputs: dict = field(default_factory=dict)
    outputs: list = field(default_factory=list)
    made_dirs: list = field(default_factory=list)  # made by _output; not written out

    def write(self, outdir: Path) -> None:
        """Write ``manifest_<command>.json`` to ``outdir``, naming every input
        and output by its path relative to ``outdir``."""
        self.finished_at = datetime.now(timezone.utc).isoformat()
        path = outdir / f"manifest_{self.command}.json"
        payload = {k: v for k, v in self.__dict__.items() if k != "made_dirs"}
        path.write_text(_json({
            **payload,
            "inputs": {os.path.relpath(p, outdir): h for p, h in self.inputs.items()},
            "outputs": [os.path.relpath(p, outdir) for p in self.outputs]}))


def _sha256(fh: BinaryIO) -> str:
    """The hex SHA-256 of the rest of an open binary file."""
    h = hashlib.sha256()
    for chunk in iter(lambda: fh.read(1 << 20), b""):
        h.update(chunk)
    return h.hexdigest()


def _open_input(path: Path) -> BinaryIO:
    """The input at ``path``, open in binary; a DataError if it is missing."""
    if not path.exists():
        raise DataError(f"missing input file: {path}")
    return open(path, "rb")


def _track_input(manifest: RunManifest, path: Path) -> None:
    with _open_input(path) as fh:
        manifest.inputs[str(path)] = _sha256(fh)


# --- shared I/O --------------------------------------------------------------

def _read_text(path: Path) -> str:
    """The text of a file; a byte that does not decode is a DataError."""
    try:
        return path.read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {records.ReadError.undecodable(exc)}") from None


@contextmanager
def _input(path: Path, manifest: RunManifest) -> Iterator[TextIO]:
    """The open input, hashed into the manifest; a ReadError while it is open
    becomes a DataError naming it.  The hash is taken of the open file the
    stage then reads, so that it, and a sidecar keyed by it, are of the bytes
    read even if the file at ``path`` is replaced in between."""
    raw = _open_input(path)
    with io.TextIOWrapper(raw, newline="") as fh:
        manifest.inputs[str(path)] = _sha256(raw)
        raw.seek(0)
        try:
            yield fh
        except records.ReadError as exc:
            raise DataError(f"{path}: {exc}") from exc


def _read_input(path: Path, manifest: RunManifest, read):
    """``read`` on the open input, as :func:`_input` opens it."""
    with _input(path, manifest) as fh:
        return read(fh)


def _chunks(fh: TextIO, path: Path, manifest: RunManifest
            ) -> Iterator[tuple[records.TransactionTable, list[records.RowError]]]:
    """The chunks of the transaction CSV that :func:`_input` opened at
    ``path``: read from its column sidecar if that is keyed by the CSV's
    hash and checks out (it is then listed in the manifest's inputs with its
    own hash), parsed otherwise."""
    sidecar = records.open_sidecar(records.sidecar_path(path), manifest.inputs[str(path)],
                                   records.INGEST_LAYOUT)
    if sidecar is None:
        return records.parse_chunks(fh)
    manifest.inputs[str(records.sidecar_path(path))] = sidecar.sha256
    return records.sidecar_chunks(fh, sidecar)


def _read_classified(path: Path, manifest: RunManifest) -> RecordTable:
    """The records of a classified CSV, as :func:`_input` opens it: from its
    column sidecar if that is keyed by the CSV's hash and checks out (it is
    then listed in the manifest's inputs with its own hash), parsed
    otherwise."""
    with _input(path, manifest) as fh:
        found = read_sidecar(records.sidecar_path(path), manifest.inputs[str(path)])
        if found is None:
            return read_classified_csv(fh)
        table, digest = found
        manifest.inputs[str(records.sidecar_path(path))] = digest
        return table


def _class_values(table: RecordTable, family: str, unit: str) -> dict:
    """Each class's values in ``family``: for ``unit`` "monthly", its monthly
    means (months with records only) as an array, in class-code order; for
    "records", its records' MME/day as a list, in order of first appearance."""
    if unit == "monthly":
        return {s.class_code: s.observed()
                for s in aggregate_monthly(table, group_by="class", family=family)}
    fam = table.drug_family == family
    codes, values = table.class_code[fam], table.mme_day[fam]
    found, first = np.unique(codes, return_index=True)
    return {code: values[codes == code].tolist() for code in found[np.argsort(first)]}


def _output(manifest: RunManifest, path) -> Path:
    """Where to write a stage output: a temporary file next to ``path``, in
    its directory, made if missing.  ``path`` is listed in the manifest in the
    order the stage writes; ``_run_stage`` moves the file there once the
    stage has succeeded, or removes it and the directories made for it."""
    path = Path(path)
    manifest.made_dirs += [d for d in (path.parent, *path.parent.parents) if not d.exists()]
    path.parent.mkdir(parents=True, exist_ok=True)
    manifest.outputs.append(str(path))
    return _partial(path)


class _HashedFile(io.BufferedWriter):
    """A file opened for writing whose ``sha256`` hashes what is written."""

    def __init__(self, path: Path):
        super().__init__(io.FileIO(path, "w"))
        self.sha256 = hashlib.sha256()

    def write(self, data) -> int:
        self.sha256.update(data)
        return super().write(data)


@contextmanager
def _csv_output(manifest: RunManifest, path, layout: records.SidecarLayout
                ) -> Iterator[tuple[TextIO, records.SidecarWriter]]:
    """The text stream of a CSV output at ``path`` (see :func:`_output`) and
    the writer of its column sidecar, an output listed after it.  Once the
    body is done, the sidecar is keyed by the SHA-256 of the bytes written
    to the CSV, or, if the writer turned invalid, removed from the outputs."""
    side = records.sidecar_path(path)
    csv_file = _HashedFile(_output(manifest, path))
    with io.TextIOWrapper(csv_file, newline="") as out, \
            open(_output(manifest, side), "wb") as stream:
        sidecar = records.SidecarWriter(stream, layout)
        yield out, sidecar
        out.flush()
        sidecar.finish(csv_file.sha256.hexdigest())
    if not sidecar.valid:
        manifest.outputs.remove(str(side))
        _partial(side).unlink()


def _partial(path) -> Path:
    """The temporary file of an output, next to the file ``path`` names after
    any symlink, so that moving it there writes through the link."""
    target = Path(os.path.realpath(path))
    return target.with_name(f".{target.name}.{os.getpid()}.tmp")


def _run_stage(args, manifest: RunManifest) -> str:
    """The stage's summary, once its outputs are in place; if it fails, no
    output, temporary file or directory made for one is left.  An output that
    replaces a file keeps that file's mode.  The outputs are moved one at a
    time, so a move that fails (say, for a permission) leaves the ones moved
    before it in place."""
    try:
        summary = args.func(args, manifest)
        for path in dict.fromkeys(manifest.outputs):
            target = os.path.realpath(path)
            with suppress(FileNotFoundError):
                shutil.copymode(target, _partial(path))
            os.replace(_partial(path), target)
    except BaseException:
        for path in manifest.outputs:
            _partial(path).unlink(missing_ok=True)
        for directory in sorted(manifest.made_dirs, key=lambda d: len(d.parts), reverse=True):
            with suppress(OSError):  # not empty: another output is still in it
                directory.rmdir()
        raise
    return summary


def _write_csv_rows(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


# --- subcommands ---------------------------------------------------------------
#
# Each stage reads its inputs through the manifest, writes every output file
# at a path from ``_output``, and returns its one-line summary; ``main``
# moves the outputs into place, writes the manifest and prints the summary.

def _cmd_simulate(args, manifest: RunManifest) -> str:
    from . import syngen
    if args.config:
        cfg_path = Path(args.config)
        _track_input(manifest, cfg_path)
        try:
            cfg = syngen.config_from_dict(json.loads(_read_text(cfg_path)))
        except (KeyError, ValueError) as exc:
            raise DataError(f"bad scenario config {cfg_path}: {exc}") from exc
    else:
        cfg = syngen.default_config()
    n = 0
    with _csv_output(manifest, args.out, records.INGEST_LAYOUT) as (out, sidecar):
        for i, block in enumerate(syngen.generate_blocks(cfg, args.n, seed=args.seed)):
            plain = records.write_csv(block, out, header=i == 0)
            sidecar.append(records.ingest_rows(block)
                           if plain and records.passes_ingest(block) else None)
            n += len(block)
    if args.dump_config:
        _output(manifest, args.dump_config).write_text(
            _json(syngen.config_to_dict(cfg)))
    return f"simulate: wrote {n} records to {Path(args.out)}"


def _cmd_ingest(args, manifest: RunManifest) -> str:
    path = Path(args.input)
    report, errors = records.FilterReport(), []
    with _input(path, manifest) as fh, \
            _csv_output(manifest, args.out, records.INGEST_LAYOUT) as (out, sidecar):
        # Not enumerate: its reused result tuple would hold the last chunk
        # (and its texts) while the next one is read.
        header = True
        for table, bad in _chunks(fh, path, manifest):
            kept, part = records.clean(table, cap=args.cap, cutoff_date=args.cutoff_date,
                                       n_malformed=len(bad))
            plain = records.write_csv(kept, out, header=header)
            sidecar.append(records.ingest_rows(kept) if plain else None)
            report += part
            errors += bad
            header, table, kept = False, None, None  # free the chunk before the next is read
    payload = report.to_dict()
    payload["row_errors"] = [{"line": e.line, "reason": e.reason} for e in errors]
    _output(manifest, args.report).write_text(_json(payload))
    return (f"ingest: kept {report.total_kept}/{report.total_in} records "
            f"({report.total_excluded} excluded)")


def _cmd_classify(args, manifest: RunManifest) -> str:
    path = Path(args.input)
    thresholds = geo.ClassThresholds(near_miles=args.near_miles,
                                     isolation_ratio=args.isolation_ratio)
    errors, unclean, counts = [], None, Counter()
    with _input(path, manifest) as fh, \
            _csv_output(manifest, args.out, CLASSIFIED_LAYOUT) as (out, sidecar):
        header = True  # not enumerate, as in _cmd_ingest
        for table, bad in _chunks(fh, path, manifest):
            errors += bad
            if errors or unclean:
                continue  # read on to count the malformed rows
            try:
                classified = geo.classify_records(table, thresholds)
            except ValueError as exc:  # a record clean() drops: the input was not cleaned
                unclean = exc
                continue
            write_classified_csv(out, classified, header=header)
            sidecar.append(classified_rows(classified))
            counts.update(classified.class_counts())
            header, table, classified = False, None, None  # free the chunk before the next
        if errors:
            raise DataError(f"{path}: {len(errors)} malformed rows "
                            f"(first: line {errors[0].line}: {errors[0].reason})")
        if unclean:
            raise DataError(f"{path}: {unclean}") from unclean
    return "classify: " + " ".join(f"{k}={v}" for k, v in counts.items() if v)


def _cmd_aggregate(args, manifest: RunManifest) -> str:
    table = _read_classified(Path(args.input), manifest)
    outdir = Path(args.outdir)
    summary = {}
    for family in _families(args.family):
        all_series = aggregate_monthly(table, group_by="class", family=family)
        all_series += aggregate_monthly(table, group_by="overall", family=family)
        for s in all_series:
            name = f"series_{family}_{s.class_code}.csv"
            write_series_csv(_output(manifest, outdir / name), s)
            vals = s.observed()
            summary[f"{family}/{s.class_code}"] = {
                "n_months": int(len(s)),
                "n_records": int(s.counts().sum()),
                "mean_mme_day": float(np.mean(vals)) if vals.size else None,
            }
    _output(manifest, outdir / "aggregate_summary.json").write_text(_json(summary))
    return f"aggregate: wrote {len(manifest.outputs) - 1} series files to {outdir}"


def _cmd_summary_table(args, manifest: RunManifest) -> str:
    table = _read_classified(Path(args.input), manifest)
    outdir = Path(args.outdir)
    for family in _families(args.family):
        rows = summarize_classes(table, family=family)
        _output(manifest, outdir / f"class_summary_{family}.md").write_text(
            report.class_summary_markdown(rows, family))
        _write_csv_rows(_output(manifest, outdir / f"class_summary_{family}.csv"),
                        report.class_summary_csv_rows(rows))
        grid = pre_post_table(table, family=family, policy_month=args.policy_month)
        _output(manifest, outdir / f"pre_post_{family}.md").write_text(
            report.pre_post_markdown(grid, family))
        _write_csv_rows(_output(manifest, outdir / f"pre_post_{family}.csv"),
                        report.pre_post_csv_rows(grid))
    return f"summary-table: wrote tables to {args.outdir}"


def _cmd_anova(args, manifest: RunManifest) -> str:
    table = _read_classified(Path(args.input), manifest)
    groups = [v for v in _class_values(table, args.family, args.unit).values() if len(v) >= 2]
    if len(groups) < 2:
        raise DataError("fewer than 2 classes have enough data for ANOVA")
    res = one_way_anova(groups)
    payload = {"statistic": res.statistic, "df": list(res.df),
               "p_value": res.p_value, "n_groups": len(groups), "unit": args.unit}
    _output(manifest, args.out).write_text(_json(payload))
    return (f"anova: F = {res.statistic:.4f}, df = ({res.df[0]:.0f}, {res.df[1]:.0f}), "
            f"p = {report.format_p(res.p_value)}")


def _cmd_ttest(args, manifest: RunManifest) -> str:
    table = _read_classified(Path(args.input), manifest)
    values = _class_values(table, args.family, args.unit).get(args.class_code, [])
    if len(values) < 2:
        raise DataError(f"class {args.class_code} has fewer than 2 {args.unit} values")
    res = t_test_greater(values, args.mu0)
    ci = mean_ci(values)
    payload = {"statistic": res.statistic, "df": list(res.df), "p_value": res.p_value,
               "mu0": args.mu0, "mean": ci.mean, "ci_lo": ci.lo, "ci_hi": ci.hi,
               "n": ci.n, "unit": args.unit}
    _output(manifest, args.out).write_text(_json(payload))
    return (f"ttest: class {args.class_code} vs mu0={args.mu0}: "
            f"t = {res.statistic:.4f}, p = {report.format_p(res.p_value)}")


def _orders_arg(text: str):
    if text == "auto":
        return "auto"
    parts = text.split(",")
    if len(parts) not in (3, 6):
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or p,d,q[,P,D,Q], got {text!r}")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-integer order in {text!r}") from None
    return nums


def _fit_to_payload(f: ArimaFit) -> dict:
    return {
        "orders": asdict(f.orders),
        "model": f.orders.label(),
        "coefficients": [c._asdict() for c in f.coefficients()],
        "sigma2": f.params.sigma2,
        "bic": f.bic,
        "n_effective": f.n_effective,
        "n_interpolated": f.n_interpolated,
        "degenerate": f.degenerate,
    }


def _cmd_fit(args, manifest: RunManifest) -> str:
    from . import arima
    try:
        orders = (args.orders if args.orders == "auto"
                  else arima.ArimaOrders(*args.orders, s=args.season))
    except ValueError as exc:
        raise UsageError(f"rxgeo fit: bad --orders: {exc}") from None
    y = _read_input(Path(args.input), manifest, read_series_csv)
    try:
        f = arima.auto_fit(y, s=args.season) if orders == "auto" else arima.fit(y, orders)
    except (arima.FitError, ValueError) as exc:
        raise DataError(f"fit failed: {exc}") from exc
    _output(manifest, args.out).write_text(_json(_fit_to_payload(f)))
    if args.residuals:
        rows = [["t", "residual"]] + [[i, repr(float(r))]
                                      for i, r in enumerate(f.residuals)]
        _write_csv_rows(_output(manifest, args.residuals), rows)
    return f"fit: {f.orders.label()} bic={f.bic:.2f} sigma2={f.params.sigma2:.4f}"


def _its_result_payload(res) -> dict:
    return {
        "family": res.drug_family,
        "class_code": res.class_code,
        "policy_month": str(res.policy_month),
        "pre_fit": _fit_to_payload(res.pre_fit),
        "arimax": {
            "model": res.arimax.orders.label(),
            "coefficients": [{**c._asdict(), "stars": c.stars}
                             for c in res.arimax.coefficients()],
            "bic": res.arimax.bic,
            "n_interpolated": res.arimax.n_interpolated,
        },
        "dropped_events": res.dropped_events,
        "mismatch": [
            {"month": str(m.month),
             "delta": None if math.isnan(m.delta) else m.delta,
             "outside_interval": m.outside_interval}
            for m in res.mismatch],
    }


def _cmd_its(args, manifest: RunManifest) -> str:
    if not 0.0 < args.alpha < 1.0:
        raise UsageError(f"rxgeo its: --alpha must be in (0, 1), got {args.alpha}")
    if args.announce_month == args.policy_month:
        raise UsageError(f"rxgeo its: --announce-month {args.announce_month} equals "
                         "--policy-month; the two onsets would be collinear")
    from .intervention import its_batch
    table = _read_classified(Path(args.input), manifest)
    # Each family's overall series spans its first to last month with records.
    overall = [s for family in _families(args.family)
               for s in aggregate_monthly(table, group_by="overall", family=family)]
    spans = {s.drug_family: (s.points[0].month, s.points[-1].month) for s in overall}
    onsets = [("--policy-month", args.policy_month),
              ("--announce-month", args.announce_month)]
    for family, (first, last) in spans.items():
        for flag, month in onsets:
            if month is not None and not first <= month <= last:
                raise DataError(f"rxgeo its: {flag} {month} is outside the {family} "
                                f"data span {first} to {last}")

    all_series = overall + [c for s in overall for c in aggregate_monthly(
        table, group_by="class", family=s.drug_family, span=spans[s.drug_family])]
    table = None  # the batch's worker processes are forked without the records

    batch = its_batch(all_series, policy_month=args.policy_month,
                      event_kinds=args.events, alpha=args.alpha,
                      announce_month=args.announce_month)
    by_key = {(s.drug_family, s.class_code): s for s in all_series}
    payload = {"results": [_its_result_payload(r) for r in batch.results],
               "failures": batch.failures}
    outdir = Path(args.outdir)
    _output(manifest, outdir / "its_results.json").write_text(_json(payload))
    _output(manifest, outdir / "its_coefficients.md").write_text(
        report.arimax_markdown(batch.results, alpha=args.alpha))
    _write_csv_rows(_output(manifest, outdir / "its_coefficients.csv"),
                    [report.TABLE_HEADER]
                    + report.arimax_table_rows(batch.results, alpha=args.alpha))
    for res in batch.results:
        s = by_key[(res.drug_family, res.class_code)]
        _write_csv_rows(_output(manifest, outdir / f"plotdata_{res.drug_family}_"
                                f"{res.class_code}.csv"),
                        report.plot_data_rows(res, s))
    n_sig = sum(1 for r in batch.results if r.significant_events(args.alpha))
    return (f"its: analyzed {len(batch.results)} series "
            f"({len(batch.failures)} failures, {n_sig} with significant events)")


def _cmd_report(args, manifest: RunManifest) -> str:
    results_dir = Path(args.results_dir)
    if not results_dir.is_dir():
        raise DataError(f"results directory not found: {results_dir}")
    sections = ["# Analysis report\n"]
    wanted = sorted(results_dir.glob("class_summary_*.md")) \
        + sorted(results_dir.glob("pre_post_*.md"))
    its_md = results_dir / "its_coefficients.md"
    if not wanted:
        raise DataError(f"missing stage output: no class_summary_*.md / "
                        f"pre_post_*.md in {results_dir} (run summary-table first)")
    if not its_md.exists():
        raise DataError(f"missing stage output: {its_md} (run its first)")
    for path in [*wanted, its_md]:
        _track_input(manifest, path)
        sections.append(_read_text(path))

    plots = sorted(results_dir.glob("plotdata_*.csv"))
    if plots:
        sections.append("## Plot data files\n\n"
                        + "\n".join(f"- {p.name}" for p in plots) + "\n")
    outdir = Path(args.outdir)
    for p in plots:
        _output(manifest, outdir / p.name).write_bytes(p.read_bytes())
    _output(manifest, outdir / "report.md").write_text("\n".join(sections))
    return f"report: wrote {outdir / 'report.md'}"


# --- parser -------------------------------------------------------------------

def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="rxgeo", description=__doc__, epilog=(
        "A JSON config file (--config-file) may supply any subcommand flag as "
        '{"<subcommand>": {"<flag-name>": value, ...}}; command-line flags win.'))
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config-file", default=None,
                        help="JSON file of per-subcommand flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic transaction CSV")
    p.add_argument("--config", help="scenario JSON (default: built-in scenario)")
    p.add_argument("--n", type=_typed(int, "an integer", 1, "record count"), required=True,
                   help="target record count")
    p.add_argument("--seed", type=_typed(int, "an integer", 0, "seed"), default=42)
    p.add_argument("--out", required=True)
    p.add_argument("--dump-config", help="also write the scenario JSON used")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ingest", help="parse and filter a transaction CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="cleaned records CSV")
    p.add_argument("--report", required=True, help="filter report JSON")
    p.add_argument("--cap", type=_typed(_finite, "a finite number"),
                   default=records.DEFAULT_MME_CAP)
    p.add_argument("--cutoff-date", type=_typed(records.parse_date, "YYYY-MM-DD"),
                   default=records.DEFAULT_CUTOFF)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("classify", help="append geometry and class codes")
    p.add_argument("--input", required=True, help="cleaned records CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--near-miles", type=_typed(_positive, "a positive number"),
                   default=geo.ClassThresholds.near_miles)
    p.add_argument("--isolation-ratio", type=_typed(_positive, "a positive number"),
                   default=geo.ClassThresholds.isolation_ratio)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("aggregate", help="build monthly series CSVs")
    p.add_argument("--input", required=True, help="classified CSV")
    p.add_argument("--outdir", required=True)
    p.add_argument("--family", choices=(*records.FAMILIES, "both"), default="both")
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("summary-table", help="per-class and pre/post tables")
    p.add_argument("--input", required=True, help="classified CSV")
    p.add_argument("--outdir", required=True)
    p.add_argument("--family", choices=(*records.FAMILIES, "both"), default="opioid")
    p.add_argument("--policy-month", type=_typed(MonthKey.parse, "YYYY-MM"),
                   default=DEFAULT_POLICY_MONTH)
    p.set_defaults(func=_cmd_summary_table)

    p = sub.add_parser("anova", help="one-way ANOVA across classes")
    p.add_argument("--input", required=True, help="classified CSV")
    p.add_argument("--family", choices=records.FAMILIES, default="opioid")
    p.add_argument("--unit", choices=("monthly", "records"), default="monthly")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_anova)

    p = sub.add_parser("ttest", help="one-sided t-test of a class against a threshold")
    p.add_argument("--input", required=True, help="classified CSV")
    p.add_argument("--family", choices=records.FAMILIES, default="opioid")
    p.add_argument("--class-code", choices=geo.ALL_CLASS_CODES, required=True)
    p.add_argument("--mu0", type=_typed(_finite, "a finite number"), required=True)
    p.add_argument("--unit", choices=("monthly", "records"), default="monthly")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ttest)

    p = sub.add_parser("fit", help="fit one series (auto or fixed orders)")
    p.add_argument("--input", required=True, help="series CSV from aggregate")
    p.add_argument("--season", type=_typed(int, "an integer", 2, "season length"),
                   default=12)
    p.add_argument("--orders", type=_orders_arg, default="auto",
                   help="'auto' or p,d,q[,P,D,Q]")
    p.add_argument("--out", required=True, help="fit JSON")
    p.add_argument("--residuals", help="optional residuals CSV")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("its", help="interrupted-time-series analysis per series")
    p.add_argument("--input", required=True, help="classified CSV")
    p.add_argument("--outdir", required=True)
    p.add_argument("--family", choices=(*records.FAMILIES, "both"), default="both")
    p.add_argument("--policy-month", type=_typed(MonthKey.parse, "YYYY-MM"),
                   default=DEFAULT_POLICY_MONTH)
    p.add_argument("--events", type=_events_arg, default=",".join(EVENT_KINDS))
    p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p.add_argument("--announce-month", type=_typed(MonthKey.parse, "YYYY-MM"), default=None,
                   help="optional second onset for announcement effects")
    p.set_defaults(func=_cmd_its)

    p = sub.add_parser("report", help="assemble the Markdown report bundle")
    p.add_argument("--results-dir", required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser, dict(sub.choices)


def _apply_config_file(argv: list[str], subparsers) -> tuple[list[str], Path | None]:
    """Insert a --config-file JSON section as ``--flag=value`` tokens, and
    return the new argv with the config file's path (None without one).

    They go right after the subcommand, so argparse converts and checks them
    like typed flags and the user's own flags, coming later, win.
    """
    if "--config-file" not in argv:
        return argv, None
    i = argv.index("--config-file")
    if i + 1 >= len(argv):
        raise UsageError("rxgeo: --config-file requires a path")
    path = Path(argv[i + 1])
    argv = argv[:i] + argv[i + 2:]
    try:
        defaults = json.loads(_read_text(path))
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"bad --config-file {path}: {exc}") from exc
    command = next((a for a in argv if not a.startswith("-")), None)
    section = defaults.get(command) if isinstance(defaults, dict) else None
    if command not in subparsers or not isinstance(section, dict):
        return argv, path
    option = {a.dest: a.option_strings[0] for a in subparsers[command]._actions
              if a.dest != "help"}
    unknown = sorted(key for key in section if key.replace("-", "_") not in option)
    if unknown:
        raise UsageError(f"rxgeo: unknown {command} flag(s) in --config-file "
                         f"{path}: {', '.join(unknown)}")
    tokens = [f"{option[key.replace('-', '_')]}="
              f"{value if isinstance(value, str) else json.dumps(value)}"
              for key, value in section.items()]
    at = argv.index(command) + 1
    return argv[:at] + tokens + argv[at:], path


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser, subparsers = build_parser()
    try:
        expanded, config_file = _apply_config_file(argv, subparsers)
        args = parser.parse_args(expanded)
        manifest = RunManifest(command=args.command, argv=argv,
                               seed=getattr(args, "seed", None),
                               started_at=datetime.now(timezone.utc).isoformat())
        if config_file is not None:
            _track_input(manifest, config_file)
        summary = _run_stage(args, manifest)
        manifest.write(Path(args.outdir) if hasattr(args, "outdir")
                       else Path(args.out).parent)
        print(summary)
        return 0
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
