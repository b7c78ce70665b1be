"""Interrupted-time-series analysis with ARIMAX event inputs.

The procedure per series: fit an automatic ARIMA to the pre-policy window,
forecast the post window and record where actuals leave the prediction
band, then fit the full series jointly with level-shift / ramp / inverse-
trend event regressors and keep the events that stay significant under
backward elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Sequence

import numpy as np

from . import arima
from .arima import (ArimaFit, ArimaOrders, Coefficient, FitError, Forecast,
                    _css_finish, _css_residuals, _filled_differences, _minimize_css,
                    _pack, _sum_of_squares, difference)
from .arima import significance_stars  # noqa: F401 - public name of this module
from ._workers import ordered_map
from .series import (DEFAULT_ALPHA, DEFAULT_POLICY_MONTH, EVENT_KINDS, ClassSeries, MonthKey,
                     split_pre_post)

MIN_PRE_MONTHS = 36
MIN_POST_MONTHS = 12


class CollinearityError(ValueError):
    """Event regressors are degenerate or (pairwise) collinear."""


@dataclass(frozen=True)
class EventInput:
    """An intervention regressor shape anchored at an onset month."""

    kind: str
    onset: MonthKey | int
    name: str | None = None

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}; "
                             f"expected one of {EVENT_KINDS}")

    @property
    def label(self) -> str:
        return self.name if self.name else self.kind

    def onset_index(self, start_month: MonthKey) -> int:
        if isinstance(self.onset, MonthKey):
            return self.onset.index - start_month.index
        return int(self.onset)


def event_regressor(kind: str, onset: int, n: int) -> np.ndarray:
    """
    Deterministic event-input series of length ``n``.

    level_shift: 0 before onset, 1 from onset on.
    ramp:        0 before onset, then t - onset.
    inverse_trend: 0 before onset, then 1 / (t - onset + 1).
    """
    if not 0 <= onset < n:
        raise ValueError(f"onset {onset} outside series range [0, {n})")
    t = np.arange(n, dtype=float)
    active = t >= onset
    if kind == "level_shift":
        return active.astype(float)
    if kind == "ramp":
        return np.where(active, t - onset, 0.0)
    if kind == "inverse_trend":
        out = np.zeros(n)
        out[active] = 1.0 / (t[active] - onset + 1.0)
        return out
    raise ValueError(f"unknown event kind {kind!r}")


def _check_collinearity(x: np.ndarray, names: Sequence[str]) -> None:
    for j, name in enumerate(names):
        col = x[:, j]
        if float(np.ptp(col)) == 0.0:
            raise CollinearityError(f"event regressor {name!r} has zero variance "
                                    "after differencing")
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = x[:, i], x[:, j]
            da, db = a - a.mean(), b - b.mean()
            denom = math.sqrt(float(da @ da) * float(db @ db))
            if denom == 0.0:
                continue
            corr = abs(float(da @ db)) / denom
            if corr > 0.9999:
                raise CollinearityError(
                    f"event regressors {names[i]!r} and {names[j]!r} are collinear")


# Passed as ``base_fit`` when the no-event fit failed, so it is not retried.
_BASE_FIT_FAILED = object()


def _base_fit(y: np.ndarray, orders: ArimaOrders):
    """The no-event fit that seeds ``fit_arimax``, or ``_BASE_FIT_FAILED``."""
    try:
        return arima.fit(y, orders)
    except (FitError, ValueError):
        return _BASE_FIT_FAILED


def fit_arimax(
    y: Sequence[float] | np.ndarray,
    orders: ArimaOrders,
    events: Sequence[EventInput],
    start_month: MonthKey = MonthKey.from_index(0),
    base_fit: ArimaFit | None = None,
) -> ArimaFit:
    """
    Joint CSS estimation of event-regression and ARMA coefficients.

    Event regressors are built in level space and then differenced exactly
    like the series, so the regression lives in one stationary frame.  The
    optimizer, as in ``arima.fit``, starts from the better of an
    OLS+Hannan-Rissanen point and the no-event base fit with zero betas,
    which makes the optimized CSS never exceed the base model's
    (nested-model property).  The base fit is
    computed here unless ``base_fit`` supplies it.  Objective, residuals,
    BIC and standard errors come from the CSS core that ``arima.fit`` uses,
    and the result is an ``ArimaFit`` whose coefficients list the events
    right after the constant.
    """
    o = orders
    y, n_interp, z = _filled_differences(y, o)
    names = [e.label for e in events]
    if len(set(names)) != len(names):
        raise CollinearityError(f"duplicate event names: {names}")
    levels = [event_regressor(e.kind, e.onset_index(start_month), y.size)
              for e in events]

    x = np.zeros((z.size, len(levels)))
    for j, level in enumerate(levels):
        x[:, j] = difference(level, o.d, o.D, o.s)
    _check_collinearity(x, names)
    residuals = _css_residuals(z, x, o)
    objective = _sum_of_squares(residuals)

    # Start 1: OLS for betas, Hannan-Rissanen on the OLS residuals.
    design = np.column_stack([np.ones(z.size), x])
    beta_full = np.linalg.lstsq(design, z, rcond=None)[0]
    ols_resid = z - design @ beta_full
    hr = arima.hannan_rissanen_start(ols_resid + float(beta_full[0]), o)
    candidates = [_pack(hr, beta_full[1:])]
    # Start 2: the nested no-event optimum with zero betas.
    if base_fit is None:
        base_fit = _base_fit(y, o)
    if base_fit is not _BASE_FIT_FAILED:
        candidates.append(_pack(base_fit.params, np.zeros(len(names))))

    # Each start is scored once.  LM and the simplex, its fallback, both keep
    # their start point, so the result is never worse than the best start.
    result = _minimize_css(residuals, min(candidates, key=objective), o, len(names))
    return _css_finish(y, n_interp, z, x, names, o, result.x)


class MismatchPoint(NamedTuple):
    month: MonthKey
    delta: float  # actual - predicted; NaN when the month had no records
    outside_interval: bool


@dataclass
class ItsResult:
    drug_family: str
    class_code: str
    policy_month: MonthKey
    pre_fit: ArimaFit
    post_forecast: Forecast
    arimax: ArimaFit
    mismatch: list[MismatchPoint]
    dropped_events: list[str] = field(default_factory=list)

    def significant_events(self, alpha: float = DEFAULT_ALPHA) -> list[Coefficient]:
        return [c for c in self.arimax.event_coefficients()
                if not math.isnan(c.p_value) and c.p_value < alpha]


def its_analysis(
    series: ClassSeries,
    policy_month: MonthKey = DEFAULT_POLICY_MONTH,
    event_kinds: Sequence[str] = EVENT_KINDS,
    alpha: float = DEFAULT_ALPHA,
    announce_month: MonthKey | None = None,
) -> ItsResult:
    """
    Three-step interrupted-time-series analysis of one monthly series.

    1. Automatic ARIMA on the pre-policy window only.
    2. Forecast across the post window; record actual-minus-predicted and
       whether each month escapes the prediction interval.
    3. ARIMAX on the full series with the event inputs at the policy onset
       (plus, optionally, a second onset at ``announce_month``), dropping
       weak events one at a time (largest p first) and refitting.  The
       retention threshold is Bonferroni-corrected, ``alpha / #events
       initially included``, so the chance of keeping any spurious event on
       a null series stays near ``alpha`` overall; with a single event it
       reduces to plain ``alpha``.  The full series' interior gaps are
       interpolated once, before step 1, and its no-event base model is
       attempted once and, if it succeeds, seeds every refit and is the
       ARIMAX fit once every event is dropped.
    """
    pre, post = split_pre_post(series, policy_month)
    if len(pre) < MIN_PRE_MONTHS:
        raise ValueError(f"need >= {MIN_PRE_MONTHS} pre-policy months, got {len(pre)}")
    if len(post) < MIN_POST_MONTHS:
        raise ValueError(f"need >= {MIN_POST_MONTHS} post-policy months, got {len(post)}")

    # Filled once, before any fit: an empty edge month fails here.
    y, n_interp = arima.fill_missing(series.values())
    pre_fit = arima.auto_fit(pre.values())
    fc = arima.forecast(pre_fit, len(post))
    mismatch = [MismatchPoint(point.month, point.mean_mme_day - mid,
                              not math.isnan(point.mean_mme_day)
                              and not lo <= point.mean_mme_day <= hi)
                for point, mid, lo, hi in zip(post.points, fc.point.tolist(),
                                              fc.lower.tolist(), fc.upper.tolist())]

    start_month = series.points[0].month
    events = [EventInput(kind, policy_month) for kind in event_kinds]
    if announce_month is not None:
        events += [EventInput(kind, announce_month, name=f"{kind}@announce")
                   for kind in event_kinds]

    orders = pre_fit.orders
    dropped: list[str] = []
    current = list(events)
    keep_level = alpha / max(len(events), 1)
    base_fit = _base_fit(y, orders)
    while True:
        if not current and base_fit is not _BASE_FIT_FAILED:
            arimax_fit = base_fit  # the no-event model is already fitted
            break
        arimax_fit = fit_arimax(y, orders, current, start_month=start_month, base_fit=base_fit)
        evs = arimax_fit.event_coefficients()
        p = [2.0 if math.isnan(cf.p_value) else cf.p_value for cf in evs]  # a NaN drops first
        if not current or max(p) < keep_level:
            break
        weakest = evs[p.index(max(p))]
        dropped.append(weakest.name)
        current = [e for e in current if e.label != weakest.name]
    arimax_fit.n_interpolated = n_interp

    return ItsResult(drug_family=series.drug_family, class_code=series.class_code,
                     policy_month=policy_month, pre_fit=pre_fit, post_forecast=fc,
                     arimax=arimax_fit, mismatch=mismatch, dropped_events=dropped)


@dataclass
class ItsBatchResult:
    results: list[ItsResult]
    failures: dict[str, str]  # "family/class" -> error message


def _series_sort_key(s: ClassSeries) -> tuple:
    return (s.drug_family, s.class_code != "overall", s.class_code)


def _its_outcome(series: ClassSeries, **options) -> ItsResult | str:
    """:func:`its_analysis` of one series, or the message of its failure."""
    try:
        return its_analysis(series, **options)
    except Exception as exc:  # noqa: BLE001 - failures are data
        return str(exc)


def its_batch(
    all_series: Sequence[ClassSeries],
    policy_month: MonthKey = DEFAULT_POLICY_MONTH,
    event_kinds: Sequence[str] = EVENT_KINDS,
    alpha: float = DEFAULT_ALPHA,
    announce_month: MonthKey | None = None,
) -> ItsBatchResult:
    """
    Run :func:`its_analysis` over many series, in worker processes where
    there are CPUs for them (:func:`_workers.ordered_map`); per-series
    failures are recorded and the batch continues.  Output order is
    deterministic: by family, overall series first, then class codes
    ascending.
    """
    ordered = sorted(all_series, key=_series_sort_key)
    analyse = partial(_its_outcome, policy_month=policy_month, event_kinds=event_kinds,
                      alpha=alpha, announce_month=announce_month)
    results: list[ItsResult] = []
    failures: dict[str, str] = {}
    for s, outcome in zip(ordered, list(ordered_map(analyse, ordered))):
        if isinstance(outcome, str):
            failures[f"{s.drug_family}/{s.class_code}"] = outcome
        else:
            results.append(outcome)
    return ItsBatchResult(results=results, failures=failures)
