"""Markdown/CSV renderers for the summary tables, the coefficient table and
the per-series plot data."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from .series import DEFAULT_ALPHA, ClassSeries, ClassSummaryRow, split_pre_post
from .stats import MeanCI

if TYPE_CHECKING:  # the stages that only read tables do not load the model code
    from .intervention import ItsResult

_P_FLOOR = 0.001


def format_p(p: float) -> str:
    if math.isnan(p):
        return "n/a"
    if p < _P_FLOOR:
        return "p<0.001"
    return f"{p:.3f}"


def format_stars(stars: str) -> str:
    return f"({stars})" if stars else ""


def coefficient_display_name(name: str, d: int = 0) -> str:
    """Human-readable coefficient labels for the report tables."""
    if name == "const":
        return "Constant"
    for prefix, label in (("sar", "AR"), ("sma", "MA"), ("ar", "AR"), ("ma", "MA")):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return f"{label} ({name[len(prefix):]})"
    pretty = name.replace("_", " ").title()
    if d > 0 and not name.startswith(("ar", "ma", "sar", "sma", "const")):
        pretty += f" D({d})"
    return pretty


def _md_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def _fmt(x: float, nd: int = 2) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    return f"{x:.{nd}f}"


# --- per-class summary (record stats + monthly-mean CI) ---------------------

SUMMARY_COLUMNS = ["class_code", "n_records", "n_months", "mean_days_supply",
                   "sd_days_supply", "mean_mme", "sd_mme", "mean_mme_day",
                   "ci_lo", "ci_hi", "pct_of_mme", "pct_of_records"]


def class_summary_csv_rows(rows: Iterable[ClassSummaryRow]) -> list[list]:
    out = [list(SUMMARY_COLUMNS)]
    for r in rows:
        ci = r.mean_mme_day
        out.append([r.class_code, r.n_records, r.n_months,
                    _fmt(r.mean_days_supply), _fmt(r.sd_days_supply),
                    _fmt(r.mean_mme), _fmt(r.sd_mme),
                    _fmt(ci.mean) if ci else "", _fmt(ci.lo) if ci else "",
                    _fmt(ci.hi) if ci else "", _fmt(r.pct_of_mme),
                    _fmt(r.pct_of_records)])
    return out


def class_summary_markdown(rows: Iterable[ClassSummaryRow], family: str) -> str:
    header = ["Group Code", "Mean (SD) Days Supply", "Mean (SD) MME",
              "MME per day (95% CI)", "Percentage of MME", "Percentage of Records"]
    body = []
    for r in rows:
        ci = r.mean_mme_day
        ci_txt = f"{_fmt(ci.mean)} ({_fmt(ci.lo)}, {_fmt(ci.hi)})" if ci else "n/a"
        body.append([r.class_code,
                     f"{_fmt(r.mean_days_supply)} ({_fmt(r.sd_days_supply)})",
                     f"{_fmt(r.mean_mme)} ({_fmt(r.sd_mme)})",
                     ci_txt, _fmt(r.pct_of_mme), _fmt(r.pct_of_records)])
    title = f"## Key statistics per class ({family})\n\n"
    return title + _md_table(header, body)


# --- pre/post grid ----------------------------------------------------------

_DISPARITY_LABELS = ("Patient isolated", "Prescriber isolated",
                     "Dispenser isolated", "Otherwise")
_DISTANCE_LABELS = ("<=250 mi", "250-500 mi", "500-1000 mi", ">1000 mi")


def _cell_text(cell: MeanCI | None) -> str:
    if cell is None:
        return "n/a"
    if math.isnan(cell.lo):
        return f"{_fmt(cell.mean)} (n/a)"
    return f"{_fmt(cell.mean)} ({_fmt(cell.lo)}, {_fmt(cell.hi)})"


def pre_post_markdown(table: dict[str, tuple[MeanCI | None, MeanCI | None]],
                      family: str) -> str:
    header = ["Disparity \\ Distance"] + [f"{lab} pre / post" for lab in _DISTANCE_LABELS]
    body = []
    for disp in range(4):
        row = [f"{disp}: {_DISPARITY_LABELS[disp]}"]
        for dist in range(4):
            pre, post = table[f"{dist}{disp}"]
            row.append(f"{_cell_text(pre)} / {_cell_text(post)}")
        body.append(row)
    title = f"## Monthly mean MME/day before/after policy ({family})\n\n"
    return title + _md_table(header, body)


def pre_post_csv_rows(table: dict[str, tuple[MeanCI | None, MeanCI | None]]
                      ) -> list[list]:
    out = [["class_code", "pre_mean", "pre_lo", "pre_hi", "pre_n_months",
            "post_mean", "post_lo", "post_hi", "post_n_months"]]
    for code in sorted(table):
        pre, post = table[code]
        row = [code]
        for cell in (pre, post):
            if cell is None:
                row += ["", "", "", 0]
            else:
                row += [_fmt(cell.mean, 4), _fmt(cell.lo, 4), _fmt(cell.hi, 4),
                        cell.n]
        out.append(row)
    return out


# --- ARIMAX coefficient table ------------------------------------------------

TABLE_HEADER = ["Class", "Model", "Coefficient", "Estimate", "Standard Error",
                "P value", "Significance Level"]


def arimax_table_rows(results: Iterable[ItsResult],
                      alpha: float = DEFAULT_ALPHA) -> list[list[str]]:
    """
    Coefficient rows for the final per-series ARIMAX models, listing only
    the series with at least one significant event input (the report shape).
    """
    rows: list[list[str]] = []
    for res in results:
        if not res.significant_events(alpha):
            continue
        label = "Overall" if res.class_code == "overall" else res.class_code
        model = res.arimax.orders.label()
        for coef in res.arimax.coefficients():
            if coef.name == "const" and coef.estimate == 0.0:
                continue
            rows.append([
                f"{res.drug_family}:{label}",
                model,
                coefficient_display_name(coef.name, res.arimax.orders.d),
                _fmt(coef.estimate, 2),
                _fmt(coef.std_error, 2),
                format_p(coef.p_value),
                format_stars(coef.stars),
            ])
    return rows


def arimax_markdown(results: Iterable[ItsResult], alpha: float = DEFAULT_ALPHA) -> str:
    rows = arimax_table_rows(results, alpha=alpha)
    title = "## Intervention models (series with significant event inputs)\n\n"
    if not rows:
        return title + "No series had a significant event input.\n"
    return title + _md_table(TABLE_HEADER, rows)


# --- plot data ---------------------------------------------------------------

PLOT_COLUMNS = ["month", "actual", "fitted", "forecast", "lo", "hi", "policy_flag"]


def plot_data_rows(res: ItsResult, series: "ClassSeries") -> list[list]:
    """
    One row per month of the series: pre months carry the in-sample
    one-step fit of the pre-policy model, post months the pre-model
    forecast and its interval.  Months without records have blank actuals.
    """
    rows: list[list] = [list(PLOT_COLUMNS)]
    pre_fit = res.pre_fit
    offset = pre_fit.orders.d + pre_fit.orders.D * pre_fit.orders.s
    fitted = [""] * offset + [repr(v) for v in (pre_fit.y[offset:] - pre_fit.residuals).tolist()]
    fc = res.post_forecast
    pre, post = split_pre_post(series, res.policy_month)

    def actual(p) -> str:
        return "" if math.isnan(p.mean_mme_day) else repr(float(p.mean_mme_day))

    for p, fit_txt in zip(pre.points, fitted):
        rows.append([str(p.month), actual(p), fit_txt, "", "", "", 0])
    for p, mid, lo, hi in zip(post.points, fc.point.tolist(), fc.lower.tolist(),
                              fc.upper.tolist()):
        rows.append([str(p.month), actual(p), "", repr(mid), repr(lo), repr(hi), 1])
    return rows
