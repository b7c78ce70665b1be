import math

import numpy as np

from rxgeo import arima
from rxgeo.intervention import its_analysis
from rxgeo.report import (PLOT_COLUMNS, arimax_table_rows,
                          coefficient_display_name, format_p, format_stars,
                          plot_data_rows)
from rxgeo.series import ClassSeries, MonthKey, SeriesPoint


def make_series(values, start=MonthKey(2014, 1), counts=None):
    pts = [SeriesPoint(MonthKey.from_index(start.index + i), float(v),
                       100 if counts is None else counts[i])
           for i, v in enumerate(values)]
    return ClassSeries("opioid", "overall", pts)


def test_format_p_styles():
    assert format_p(0.0004) == "p<0.001"
    assert format_p(0.004) == "0.004"
    assert format_p(0.04) == "0.040"
    assert format_p(float("nan")) == "n/a"


def test_format_stars_parenthesized():
    assert format_stars("***") == "(***)"
    assert format_stars("") == ""


def test_coefficient_display_names():
    assert coefficient_display_name("const") == "Constant"
    assert coefficient_display_name("ar1") == "AR (1)"
    assert coefficient_display_name("sar12") == "AR (12)"
    assert coefficient_display_name("sma24") == "MA (24)"
    assert coefficient_display_name("level_shift") == "Level Shift"
    assert coefficient_display_name("inverse_trend", d=1) == "Inverse Trend D(1)"
    assert coefficient_display_name("ramp", d=0) == "Ramp"


def test_arimax_table_row_formatting():
    # a clear negative step: the table row must render estimate, SE, the
    # p<0.001 style and the parenthesized stars
    rng = np.random.default_rng(90)
    vals = 50 + rng.normal(0, 0.4, 95)
    vals[52:] -= 5.28
    res = its_analysis(make_series(vals))
    rows = arimax_table_rows([res])
    assert rows, "series with a significant event must be listed"
    shift_rows = [r for r in rows if r[2] == "Level Shift"]
    assert shift_rows
    cls, model, name, est, se, p, stars = shift_rows[0]
    assert cls == "opioid:Overall"
    assert model.startswith("ARIMA(")
    assert float(est) < -4.0
    assert p == "p<0.001"
    assert stars == "(***)"


def test_arimax_table_skips_null_series_by_default():
    rng = np.random.default_rng(91)
    res = its_analysis(make_series(50 + rng.normal(0, 1.0, 95)))
    if res.significant_events():
        return  # unlucky seed would make the premise false; seed 91 is null
    assert arimax_table_rows([res]) == []


def test_plot_data_one_row_per_month():
    rng = np.random.default_rng(92)
    vals = 50 + rng.normal(0, 1.0, 95)
    counts = [100] * 95
    counts[10] = 0
    vals[10] = math.nan  # a month without records
    series = make_series(vals, counts=counts)
    res = its_analysis(series)
    rows = plot_data_rows(res, series)
    assert rows[0] == PLOT_COLUMNS
    assert len(rows) - 1 == 95
    months = [r[0] for r in rows[1:]]
    assert months[0] == "2014-01" and months[-1] == "2021-11"
    assert len(set(months)) == 95
    # the record-free month has a blank actual
    assert rows[1 + 10][1] == ""
    # pre rows carry fitted, post rows carry forecast and bounds
    pre_row, post_row = rows[30], rows[60]
    assert pre_row[6] == 0 and post_row[6] == 1
    assert post_row[3] != "" and post_row[4] != "" and post_row[5] != ""
    assert pre_row[3] == ""


def test_plot_data_fitted_matches_residuals():
    rng = np.random.default_rng(93)
    series = make_series(50 + rng.normal(0, 1.0, 95))
    res = its_analysis(series)
    rows = plot_data_rows(res, series)
    offset = res.pre_fit.orders.d + res.pre_fit.orders.D * res.pre_fit.orders.s
    t = 20
    fitted = float(rows[1 + t][2])
    expected = res.pre_fit.y[t] - res.pre_fit.residuals[t - offset]
    assert fitted == float(expected)


def test_plot_data_fitted_blank_before_the_differencing_offset():
    # A random walk's pre model is differenced, so its first months have no
    # one-step fit; every later pre month has one.
    rng = np.random.default_rng(94)
    series = make_series(50 + np.cumsum(rng.normal(0, 1.0, 95)))
    res = its_analysis(series)
    offset = res.pre_fit.orders.d + res.pre_fit.orders.D * res.pre_fit.orders.s
    assert res.pre_fit.orders.d >= 1
    pre_rows = [r for r in plot_data_rows(res, series)[1:] if r[6] == 0]
    assert len(pre_rows) == 52
    assert [r[2] for r in pre_rows[:offset]] == [""] * offset
    assert all(r[2] != "" for r in pre_rows[offset:])
