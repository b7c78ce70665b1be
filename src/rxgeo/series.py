"""Monthly aggregation of classified records into MME/day series and the
per-class summary tables, and the classified and series CSV files."""

from __future__ import annotations

import csv
import math
from contextlib import closing
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from .geo import ALL_CLASS_CODES, RISK_HAZARD_RATIOS, ClassifiedTable
from .records import (CSV_COLUMNS, FAMILIES, INGEST, ReadError, Schema, SidecarLayout,
                      TransactionTable, _require_days_supply, distinct_values, duplicate_names,
                      family_index, floats, open_sidecar, read_columns, whole_numbers,
                      write_csv)
from .stats import MeanCI, mean_ci

INDEX_BASE_YEAR = 2014
OVERALL = "overall"


@dataclass(frozen=True, order=True)
class MonthKey:
    year: int
    month: int

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError(f"month must be 1..12, got {self.month}")

    @property
    def index(self) -> int:
        """Months since 2014-01 (0-based)."""
        return (self.year - INDEX_BASE_YEAR) * 12 + (self.month - 1)

    @classmethod
    def from_index(cls, index: int) -> "MonthKey":
        return cls(INDEX_BASE_YEAR + index // 12, index % 12 + 1)

    @classmethod
    def from_date(cls, d: date) -> "MonthKey":
        return cls(d.year, d.month)

    @classmethod
    def parse(cls, text: str) -> "MonthKey":
        parts = text.split("-")
        if len(parts) != 2:
            raise ValueError(f"expected YYYY-MM, got {text!r}")
        return cls(int(parts[0]), int(parts[1]))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"


DEFAULT_POLICY_MONTH = MonthKey(2018, 5)
# The event inputs intervention.its_analysis can fit at an onset month, and
# the level below which an event's p-value counts as significant; here, so
# that the CLI parser reads them without loading the model code.
EVENT_KINDS = ("level_shift", "ramp", "inverse_trend")
DEFAULT_ALPHA = 0.05


class SeriesPoint(NamedTuple):
    month: MonthKey
    mean_mme_day: float  # NaN when the month has no records
    n_records: int


@dataclass
class ClassSeries:
    """Monthly mean MME/day for one (family, class) pair.

    Points are contiguous in month index; months without records are kept
    with ``n_records = 0`` and a NaN mean.
    """

    drug_family: str
    class_code: str  # two-digit code or "overall"
    points: list[SeriesPoint] = field(default_factory=list)

    def values(self) -> np.ndarray:
        return np.array([p.mean_mme_day for p in self.points], dtype=float)

    def counts(self) -> np.ndarray:
        return np.array([p.n_records for p in self.points], dtype=int)

    def observed(self) -> np.ndarray:
        """The monthly means of the months with records."""
        return self.values()[self.counts() > 0]

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RecordTable:
    """The record columns the aggregation and statistics stages read.

    One entry per record, in input order.  ``class_code`` is ``""`` for a
    record that is not classified; ``days_supply`` holds whole numbers as
    float64, and ``mme_day`` is ``mme_total / days_supply``.
    """

    drug_family: np.ndarray  # str
    month_index: np.ndarray  # int64, months since 2014-01
    mme_total: np.ndarray  # float64
    days_supply: np.ndarray  # float64
    class_code: np.ndarray  # str
    mme_day: np.ndarray  # float64

    def __len__(self) -> int:
        return self.mme_day.size

    @classmethod
    def from_table(cls, table: TransactionTable | ClassifiedTable) -> "RecordTable":
        """The columns of a transaction or classified table (``ValueError``
        if a record has ``days_supply < 1``)."""
        if isinstance(table, ClassifiedTable):
            codes, table = table.class_codes(), table.records
        else:
            codes = np.full(len(table), "")
        _require_days_supply(table.record_id, table.days_supply)
        return cls.from_columns(table.drug_family, table.fill_date, table.mme_total,
                                table.days_supply, codes)

    @classmethod
    def from_columns(cls, drug_family: np.ndarray, fill_date: np.ndarray,
                     mme_total: np.ndarray, days_supply: np.ndarray,
                     class_code: np.ndarray) -> "RecordTable":
        """The table of the five record columns it is built from: ``fill_date``
        as day ordinals, ``days_supply`` as whole numbers of at least 1."""
        days_supply = days_supply.astype(float)
        return cls(drug_family, _month_index(fill_date), mme_total, days_supply, class_code,
                   mme_total / days_supply)


def _month_index(fill_date: np.ndarray) -> np.ndarray:
    """The month index of each day ordinal; numpy's datetime64 calendar is the
    proleptic Gregorian calendar of ``datetime.date``."""
    days = (fill_date - date(1970, 1, 1).toordinal()).astype("datetime64[D]")
    return days.astype("datetime64[M]").astype(np.int64) - (INDEX_BASE_YEAR - 1970) * 12


def _as_table(records) -> RecordTable:
    if isinstance(records, RecordTable):
        return records
    return RecordTable.from_table(records)


def aggregate_monthly(
    records: RecordTable | TransactionTable | ClassifiedTable,
    group_by: str = "class",
    family: str = "opioid",
    span: tuple[MonthKey, MonthKey] | None = None,
) -> list[ClassSeries]:
    """
    Build monthly mean-MME/day series for ``family``.

    ``group_by="class"`` yields one series per class code present (the
    records must be classified); ``group_by="overall"`` pools the whole
    family and also accepts a :class:`TransactionTable`.  ``span`` pins an
    inclusive month range; by default each series spans its own first..last
    month with records.
    """
    if group_by not in ("class", "overall"):
        raise ValueError(f"group_by must be 'class' or 'overall', got {group_by!r}")
    table = _as_table(records)
    fam = table.drug_family == family
    months = table.month_index[fam]
    if not months.size:
        return []
    if group_by == "overall":
        names, keys = [OVERALL], np.zeros(months.size, dtype=np.intp)
    else:
        codes = table.class_code[fam]
        if np.any(codes == ""):
            raise ValueError("group_by='class' requires classified records")
        names, keys = np.unique(codes, return_inverse=True)

    # One stable sort on (key, month); each (key, month) group is a slice.
    order = np.lexsort((months, keys))
    keys, months = keys[order], months[order]
    cut = (np.flatnonzero((np.diff(keys) != 0) | (np.diff(months) != 0)) + 1).tolist()
    values = table.mme_day[fam][order].tolist()
    keys, months = keys.tolist(), months.tolist()
    groups: dict[int, dict[int, tuple[float, int]]] = {}
    for a, b in zip([0, *cut], [*cut, len(values)]):
        # fsum is correctly rounded, so the mean is exactly permutation-
        # invariant in record order.
        groups.setdefault(keys[a], {})[months[a]] = (
            math.fsum(values[a:b]) / (b - a), b - a)

    out: list[ClassSeries] = []
    for key, by_month in groups.items():
        if span is None:
            lo, hi = min(by_month), max(by_month)
        else:
            lo, hi = span[0].index, span[1].index
        points = [SeriesPoint(MonthKey.from_index(idx),
                              *by_month.get(idx, (math.nan, 0)))
                  for idx in range(lo, hi + 1)]
        out.append(ClassSeries(family, str(names[key]), points))
    return out


def split_pre_post(
    series: ClassSeries,
    policy_month: MonthKey = DEFAULT_POLICY_MONTH,
) -> tuple[ClassSeries, ClassSeries]:
    """Partition a series at the policy month (that month starts the post side)."""
    pre_pts = [p for p in series.points if p.month < policy_month]
    post_pts = [p for p in series.points if p.month >= policy_month]
    return (ClassSeries(series.drug_family, series.class_code, pre_pts),
            ClassSeries(series.drug_family, series.class_code, post_pts))


@dataclass(frozen=True)
class ClassSummaryRow:
    class_code: str
    n_records: int
    n_months: int
    mean_days_supply: float
    sd_days_supply: float
    mean_mme: float
    sd_mme: float
    mean_mme_day: MeanCI | None  # None when fewer than 2 months of data
    pct_of_mme: float
    pct_of_records: float


def _sd(x: np.ndarray) -> float:
    return float(np.std(x, ddof=1)) if x.size >= 2 else math.nan


def summarize_classes(
    classified: RecordTable | ClassifiedTable,
    family: str = "opioid",
) -> list[ClassSummaryRow]:
    """Per-class record statistics plus the CI of the monthly mean MME/day.

    Both the MME share and the record share are reported; they answer
    different questions and do not generally agree.
    """
    table = _as_table(classified)
    fam = table.drug_family == family
    codes = table.class_code[fam]
    days_all, mme_all = table.days_supply[fam], table.mme_total[fam]
    total_records = int(codes.size)
    total_mme = sum(mme_all.tolist())  # builtin sum in record order
    monthly_by_code = {s.class_code: s.observed() for s in
                       aggregate_monthly(table, group_by="class", family=family)}

    rows: list[ClassSummaryRow] = []
    for code in ALL_CLASS_CODES:
        in_class = codes == code
        n = int(np.count_nonzero(in_class))
        if not n:
            rows.append(ClassSummaryRow(code, 0, 0, math.nan, math.nan, math.nan,
                                        math.nan, None, 0.0, 0.0))
            continue
        days, mme = days_all[in_class], mme_all[in_class]
        monthly = monthly_by_code[code]
        ci = mean_ci(monthly) if monthly.size >= 2 else None
        rows.append(ClassSummaryRow(
            class_code=code,
            n_records=n,
            n_months=int(monthly.size),
            mean_days_supply=float(np.mean(days)),
            sd_days_supply=_sd(days),
            mean_mme=float(np.mean(mme)),
            sd_mme=_sd(mme),
            mean_mme_day=ci,
            pct_of_mme=100.0 * float(np.sum(mme)) / total_mme if total_mme else 0.0,
            pct_of_records=100.0 * n / total_records if total_records else 0.0,
        ))
    return rows


def _window_cell(monthly: np.ndarray) -> MeanCI | None:
    """Window average of monthly means; one month gets NaN lo, hi and level."""
    if monthly.size == 0:
        return None
    if monthly.size < 2:
        return MeanCI(float(monthly[0]), math.nan, math.nan, math.nan, 1)
    return mean_ci(monthly)


def pre_post_table(
    classified: RecordTable | ClassifiedTable,
    family: str = "opioid",
    policy_month: MonthKey = DEFAULT_POLICY_MONTH,
) -> dict[str, tuple[MeanCI | None, MeanCI | None]]:
    """Per-class pre/post window averages of the monthly mean MME/day.

    Keys cover all 16 class codes; each window is a ``MeanCI`` of its
    months with records, and a missing window maps to ``None``.
    """
    table: dict[str, tuple[MeanCI | None, MeanCI | None]] = {}
    series = {s.class_code: s for s in aggregate_monthly(
        classified, group_by="class", family=family)}
    for code in ALL_CLASS_CODES:
        s = series.get(code)
        if s is None:
            table[code] = (None, None)
            continue
        pre, post = split_pre_post(s, policy_month)
        table[code] = (_window_cell(pre.observed()), _window_cell(post.observed()))
    return table


# --- CSV files -------------------------------------------------------------------

# The columns a classified CSV has after the ingest columns.
CLASSIFIED_EXTRA = ("d_pp", "d_pd", "d_rd", "pi_total", "class_code", "risk_level")


# The checks of a classified row beyond the ingest ones, each in place of
# the ingest check of its column.  After clean(), days_supply >= 1;
# risk_level names a tier.
CLASSIFIED_RULES = (
    ("days_supply", whole_numbers(1)),
    *((name, floats()) for name in CLASSIFIED_EXTRA[:4]),
    ("class_code", distinct_values(lambda text: text if text in ALL_CLASS_CODES else "", "")),
    ("risk_level", distinct_values(lambda text: int(text) if text.isdecimal()
                                   and int(text) in RISK_HAZARD_RATIOS else 0, 0)),
)


def _classified_header(names: list[str] | None) -> list[str]:
    missing = (set(CSV_COLUMNS) | set(CLASSIFIED_EXTRA)) - set(names or ())
    if missing:
        raise ReadError(f"not a classified CSV (missing columns {sorted(missing)})")
    twice = duplicate_names(names)
    if twice:
        raise ReadError(f"duplicate columns {twice}")
    return names


def _series_header(names: list[str] | None) -> list[str]:
    if not names or "mean_mme_day" not in names:
        raise ReadError("expected an aggregate series CSV (missing mean_mme_day column)")
    return names


CLASSIFIED = INGEST._replace(header=_classified_header, checks=tuple(
    {**dict(INGEST.checks), **dict(CLASSIFIED_RULES)}.items()))
# A series CSV: an empty mean_mme_day marks a month without records.  A doubled
# column is read from its last copy, as csv.DictReader does.
SERIES = Schema(_series_header, (), (), (("mean_mme_day", floats(empty_ok=True)),))


def write_classified_csv(path: str | Path | TextIO, c: ClassifiedTable,
                         header: bool = True) -> None:
    """The ingest columns of the records, then ``CLASSIFIED_EXTRA``, as
    :func:`records.write_csv` writes them to ``path``."""
    write_csv(c.records, path, extra=zip(CLASSIFIED_EXTRA, (
        c.d_pp, c.d_pd, c.d_rd, c.pi_total, c.class_codes(), c.risk_level)), header=header)


# Chunks whose column parts are joined into one block as they are read (see _read).
JOIN_CHUNKS = 32


def _read(stream: TextIO, schema: Schema, names: tuple[str, ...]) -> list[np.ndarray]:
    """The ``names`` columns of a CSV stream checked by ``schema``, a chunk at
    a time in worker processes (:func:`records.read_columns`); a
    :class:`ReadError` names its first bad row, and no chunk after those in
    flight is read.

    Every ``JOIN_CHUNKS`` chunks, their parts of each column are joined into
    one block.  A part is too small for the allocator to give it pages of
    its own, so the parts of a whole file would leave the memory they held
    with this process after they are freed (aggregate's peak at 1M records
    read 237 MB, against 200 MB when one process checked every chunk); the
    parts of a few chunks reuse the same memory, and a block, large enough
    for pages of its own, returns them when the columns are joined at the
    end."""
    blocks, parts = [], []
    with closing(read_columns(stream, schema, names)) as chunks:
        for columns, errors in chunks:
            if errors:
                raise ReadError(f"line {errors[0].line}: {errors[0].reason}")
            parts.append(columns)
            if len(parts) == JOIN_CHUNKS:
                blocks.append(_joined(parts))
                parts = []
    if parts:
        blocks.append(_joined(parts))
    return _joined(blocks)


def _joined(parts: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Each column of the parts, joined, one column at a time: each part's
    copy of a column is dropped once it is joined."""
    return [np.concatenate([part.pop(0) for part in parts]) for _ in range(len(parts[0]))]


def read_classified_csv(stream: TextIO) -> RecordTable:
    """The columns of a classified CSV that the reader stages use, checked a
    chunk at a time by the ``CLASSIFIED`` schema; :class:`ReadError` names a
    missing or doubled column, or the first bad row."""
    return RecordTable.from_columns(*_read(stream, CLASSIFIED, (
        "drug_family", "fill_date", "mme_total", "days_supply", "class_code")))


# --- the column sidecar of a classified CSV ---------------------------------------
#
# classify writes, beside its CSV, the five columns read_classified_csv keeps
# (records.SidecarWriter, in CLASSIFIED_LAYOUT): family and class as their
# index in FAMILIES and ALL_CLASS_CODES.  Its readers never read the CSV's
# lines, so it is written for a CSV with quoted fields too.

CLASSIFIED_LAYOUT = SidecarLayout(np.dtype([
    ("fill_date", "<i8"), ("mme_total", "<f8"), ("days_supply", "<i8"), ("family", "u1"),
    ("class", "u1")]), b"RXGEOCOL", (("family", len(FAMILIES)), ("class", len(ALL_CLASS_CODES))))


def classified_rows(c: ClassifiedTable) -> np.ndarray:
    """The ``CLASSIFIED_LAYOUT`` rows of a classified table."""
    rows = np.empty(len(c), CLASSIFIED_LAYOUT.row)
    rows["fill_date"], rows["mme_total"] = c.records.fill_date, c.records.mme_total
    rows["days_supply"], rows["class"] = c.records.days_supply, c.code
    rows["family"] = family_index(c.records.drug_family)
    return rows


def read_sidecar(path: str | Path, csv_sha256: str) -> tuple[RecordTable, str] | None:
    """The :class:`RecordTable` the sidecar at ``path`` holds, which equals
    :func:`read_classified_csv` of the CSV whose hex SHA-256 is
    ``csv_sha256``, and the sidecar's own hex SHA-256; None if it does not
    check out (:func:`records.open_sidecar`)."""
    sidecar = open_sidecar(path, csv_sha256, CLASSIFIED_LAYOUT)
    if sidecar is None:
        return None
    with sidecar.file:
        rows = sidecar.read(sidecar.rows)
    return RecordTable.from_columns(
        np.array(FAMILIES)[rows["family"]], rows["fill_date"], rows["mme_total"].copy(),
        rows["days_supply"], np.array(ALL_CLASS_CODES)[rows["class"]]), sidecar.sha256


def write_series_csv(path: str | Path, s: ClassSeries) -> None:
    """One row per month; an empty ``mean_mme_day`` marks a month without records."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([
            ("month_index", "year", "month", "mean_mme_day", "n_records"),
            *([p.month.index, p.month.year, p.month.month,
               "" if math.isnan(p.mean_mme_day) else repr(p.mean_mme_day), p.n_records]
              for p in s.points)])


def read_series_csv(stream: TextIO) -> np.ndarray:
    """The ``mean_mme_day`` column of a series CSV, NaN where it is empty,
    checked by the ``SERIES`` schema; :class:`ReadError` names the first bad
    row."""
    values, = _read(stream, SERIES, ("mean_mme_day",))
    if not values.size:
        raise ReadError("empty series")
    return values
