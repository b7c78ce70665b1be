import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxgeo import _optimize, _workers, arima, intervention
from rxgeo.arima import ArimaOrders, ArimaParams
from rxgeo.cli import _its_result_payload
from rxgeo.intervention import (CollinearityError, EventInput, event_regressor,
                                fit_arimax, its_analysis, its_batch,
                                significance_stars)
from rxgeo.series import EVENT_KINDS, ClassSeries, MonthKey, SeriesPoint


def make_series(values, family="opioid", code="overall",
                start=MonthKey(2014, 1), counts=None):
    pts = []
    for i, v in enumerate(values):
        n = 100 if counts is None else counts[i]
        pts.append(SeriesPoint(MonthKey.from_index(start.index + i), float(v), n))
    return ClassSeries(family, code, pts)


# --- event_regressor -----------------------------------------------------------

def test_event_regressor_shapes():
    assert np.array_equal(event_regressor("level_shift", 3, 6), [0, 0, 0, 1, 1, 1])
    assert np.array_equal(event_regressor("ramp", 3, 6), [0, 0, 0, 0, 1, 2])
    assert np.allclose(event_regressor("inverse_trend", 3, 6),
                       [0, 0, 0, 1, 0.5, 1 / 3])


def test_event_regressor_onset_bounds():
    with pytest.raises(ValueError):
        event_regressor("level_shift", 6, 6)
    with pytest.raises(ValueError):
        event_regressor("ramp", -1, 6)
    with pytest.raises(ValueError):
        event_regressor("sawtooth", 2, 6)


def test_event_regressor_deterministic():
    a = event_regressor("inverse_trend", 10, 50)
    b = event_regressor("inverse_trend", 10, 50)
    assert np.array_equal(a, b)


def test_event_input_onset_resolution():
    e = EventInput("level_shift", MonthKey(2018, 5))
    assert e.onset_index(MonthKey(2014, 1)) == 52
    assert EventInput("ramp", 7).onset_index(MonthKey(2014, 1)) == 7
    with pytest.raises(ValueError):
        EventInput("spike", 3)


# --- significance stars ----------------------------------------------------------

@pytest.mark.parametrize("p,stars", [
    (0.0005, "***"), (0.004, "**"), (0.04, "*"), (0.05, ""), (0.2, ""),
    (0.0009999, "***"), (0.001, "**"), (0.01, "*"),
])
def test_significance_stars_thresholds(p, stars):
    assert significance_stars(p) == stars


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_significance_stars_consistent(p):
    s = significance_stars(p)
    assert s in ("", "*", "**", "***")
    assert (p < 0.05) == (len(s) >= 1)
    assert (p < 0.01) == (len(s) >= 2)
    assert (p < 0.001) == (len(s) == 3)


def test_significance_stars_domain():
    with pytest.raises(ValueError):
        significance_stars(1.5)


# --- fit_arimax -------------------------------------------------------------------

def test_arimax_recovers_level_shift():
    rng = np.random.default_rng(70)
    y = rng.normal(size=200)
    y[100:] += 5.0
    fx = fit_arimax(y, ArimaOrders(), [EventInput("level_shift", 100)])
    coef = fx.event_coefficients()[0]
    assert 4.0 <= coef.estimate <= 6.0
    assert coef.p_value < 0.001
    assert coef.stars == "***"


def test_arimax_null_effect_mostly_insignificant():
    hits = 0
    for seed in range(100):
        y = arima.simulate(ArimaOrders(p=1),
                           ArimaParams(c=0.0, phi=[0.5], sigma2=1.0),
                           200, seed=1200 + seed)
        fx = fit_arimax(y, ArimaOrders(p=1), [EventInput("level_shift", 100)])
        coef = fx.event_coefficients()[0]
        hits += (abs(coef.estimate) < 2 * coef.std_error)
    assert hits >= 90


def test_arimax_returns_arima_fit_with_events_after_const():
    rng = np.random.default_rng(77)
    y = rng.normal(size=120)
    y[30] = math.nan
    events = [EventInput("level_shift", 60), EventInput("ramp", 60, name="r")]
    fx = fit_arimax(y, ArimaOrders(p=1), events)
    assert isinstance(fx, arima.ArimaFit)
    assert fx.coefficient_names() == ["const", "level_shift", "r", "ar1"]
    coefs = fx.coefficients()
    assert all(isinstance(c, arima.Coefficient) for c in coefs)
    assert fx.event_coefficients() == coefs[1:3]
    assert [c.estimate for c in coefs[1:3]] == fx.betas.tolist()
    assert fx.n_interpolated == 1 and fx.y.size == 120 and math.isfinite(fx.y[30])
    assert not fx.degenerate
    # a plain fit is the zero-event case of the same type
    plain = arima.fit(y, ArimaOrders(p=1))
    assert plain.betas.size == 0 and plain.event_names == []
    assert plain.event_coefficients() == []
    assert [c.name for c in plain.coefficients()] == ["const", "ar1"]


def test_coefficient_stars():
    assert arima.Coefficient("x", 1.0, 0.1, 1e-5).stars == "***"
    assert arima.Coefficient("x", 1.0, 0.5, 0.04).stars == "*"
    assert arima.Coefficient("x", 1.0, math.nan, math.nan).stars == ""
    assert significance_stars is arima.significance_stars


def test_arimax_zero_variance_regressor_rejected():
    rng = np.random.default_rng(71)
    y = rng.normal(size=50)
    with pytest.raises(ValueError):
        # onset at n is outside the admissible range -> all-zero regressor
        fit_arimax(y, ArimaOrders(), [EventInput("level_shift", 50)])


def test_arimax_collinear_pair_named():
    rng = np.random.default_rng(72)
    y = rng.normal(size=60)
    events = [EventInput("level_shift", 30, name="a"),
              EventInput("level_shift", 30, name="b")]
    with pytest.raises(CollinearityError) as exc:
        fit_arimax(y, ArimaOrders(), events)
    assert "a" in str(exc.value) and "b" in str(exc.value)


def test_arimax_duplicate_names_rejected():
    rng = np.random.default_rng(73)
    y = rng.normal(size=60)
    with pytest.raises(CollinearityError):
        fit_arimax(y, ArimaOrders(), [EventInput("level_shift", 30),
                                      EventInput("level_shift", 40)])


def test_arimax_nested_model_property():
    # adding an event regressor never worsens the optimized CSS
    for seed in range(8):
        y = arima.simulate(ArimaOrders(p=1),
                           ArimaParams(c=2.0, phi=[0.6], sigma2=1.0),
                           150, seed=1300 + seed)
        base = arima.fit(y, ArimaOrders(p=1))
        fx = fit_arimax(y, ArimaOrders(p=1), [EventInput("level_shift", 75)])
        css_base = math.exp(base.log_css)
        assert math.exp(fx.log_css) <= css_base * (1 + 1e-9)


def test_arimax_differences_event_regressors_with_series():
    # with d=1 a level shift becomes a single pulse; its coefficient still
    # measures the level change in the original scale
    rng = np.random.default_rng(74)
    y = np.cumsum(rng.normal(size=200) * 0.1)
    y[120:] += 8.0
    fx = fit_arimax(y, ArimaOrders(d=1), [EventInput("level_shift", 120)])
    coef = fx.event_coefficients()[0]
    assert 7.0 <= coef.estimate <= 9.0
    assert fx.residuals.size == 199  # one observation lost to differencing


def test_arimax_bic_counts_event_coefficients():
    rng = np.random.default_rng(75)
    y = rng.normal(size=120)
    fx = fit_arimax(y, ArimaOrders(), [EventInput("level_shift", 60)])
    n = fx.n_effective
    k = 2  # constant + event
    expected = n * math.log(fx.params.sigma2) + k * math.log(n)
    assert fx.bic == pytest.approx(expected, rel=1e-12)


def test_arimax_scores_each_start_once(monkeypatch):
    # the residual function runs once per start point plus once per LM
    # evaluation; LM finishes, so the simplex never runs
    rng = np.random.default_rng(76)
    y = rng.normal(size=120)
    y[60:] += 2.0
    base = arima.fit(y, ArimaOrders(p=1))
    evals = []
    real_residuals = intervention._css_residuals

    def counting_residuals(z, x, orders):
        residuals = real_residuals(z, x, orders)

        def counted(vec):
            evals.append(1)
            return residuals(vec)
        return counted

    runs = []
    real_lm = arima.levenberg_marquardt

    def recording_lm(*args):
        runs.append(real_lm(*args))
        return runs[-1]

    def no_simplex(*args):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(intervention, "_css_residuals", counting_residuals)
    monkeypatch.setattr(arima, "levenberg_marquardt", recording_lm)
    monkeypatch.setattr(arima, "nelder_mead", no_simplex)
    fit_arimax(y, ArimaOrders(p=1), [EventInput("level_shift", 60)], base_fit=base)
    assert len(runs) == 1 and runs[0] is not None
    assert len(evals) == runs[0].n_evals + 2  # OLS start and base-fit start


# --- its_analysis ------------------------------------------------------------------

def test_its_minimum_window_requirements():
    short_pre = make_series(np.arange(40.0), start=MonthKey(2017, 1))
    with pytest.raises(ValueError):
        its_analysis(short_pre)
    short_post = make_series(np.arange(56.0), start=MonthKey(2014, 1))
    with pytest.raises(ValueError):
        its_analysis(short_post)  # policy 2018-05 leaves only 4 post months


def test_its_no_change_zero_noise():
    s = make_series([50.0] * 95)
    res = its_analysis(s)
    assert res.pre_fit.degenerate
    assert np.allclose(res.post_forecast.point, 50.0)
    assert all(not m.outside_interval for m in res.mismatch)
    assert all(m.delta == 0.0 for m in res.mismatch)
    assert len(res.mismatch) == 43


def test_its_detects_negative_step():
    rng = np.random.default_rng(76)
    vals = 50.0 + rng.normal(0, 0.5, 95)
    vals[52:] -= 3.0
    res = its_analysis(make_series(vals))
    sig = res.significant_events()
    assert any(c.estimate < 0 for c in sig)
    assert sum(m.outside_interval for m in res.mismatch) > len(res.mismatch) / 2
    assert res.policy_month == MonthKey(2018, 5)


def test_its_step1_never_sees_post_data():
    rng = np.random.default_rng(77)
    vals = 50.0 + rng.normal(0, 1.0, 95)
    s1 = make_series(vals.copy())
    corrupted = vals.copy()
    corrupted[52:] = 1e6  # sentinel post-policy values
    s2 = make_series(corrupted)
    r1 = its_analysis(s1)
    r2 = its_analysis(s2)
    assert r1.pre_fit.orders == r2.pre_fit.orders
    assert np.array_equal(r1.pre_fit.params.vector(), r2.pre_fit.params.vector())


def test_its_empty_post_month_has_no_delta():
    # A post month without records has a NaN delta, lies inside no interval,
    # and is written as a null delta.
    rng = np.random.default_rng(78)
    vals = 50 + rng.normal(0, 1, 95)
    vals[60] = math.nan
    res = its_analysis(make_series(vals))
    empty = res.mismatch[60 - 52]
    assert str(empty.month) == "2019-01"
    assert math.isnan(empty.delta) and empty.outside_interval is False
    assert not any(math.isnan(m.delta) for m in res.mismatch if m is not empty)
    written = json.loads(json.dumps(_its_result_payload(res)))["mismatch"][60 - 52]
    assert written == {"month": "2019-01", "delta": None, "outside_interval": False}


def test_its_mismatch_covers_post_months():
    rng = np.random.default_rng(78)
    res = its_analysis(make_series(50 + rng.normal(0, 1, 95)))
    months = [str(m.month) for m in res.mismatch]
    assert months[0] == "2018-05"
    assert months[-1] == "2021-11"
    assert len(months) == 43


def test_its_fits_base_model_once(monkeypatch):
    # a null series: events get dropped one by one, and every refit reuses
    # the single no-event base fit of the full-length series
    rng = np.random.default_rng(78)
    vals = 50 + rng.normal(0, 1, 95)
    lengths = []
    real_fit = arima.fit

    def counting_fit(y, *args, **kwargs):
        lengths.append(len(y))
        return real_fit(y, *args, **kwargs)

    monkeypatch.setattr(arima, "fit", counting_fit)
    res = its_analysis(make_series(vals))
    assert len(res.dropped_events) >= 2
    assert lengths.count(95) == 1


def test_its_that_drops_every_event_keeps_the_base_fit(monkeypatch):
    # a null series that drops all its events: one fit_arimax call per
    # event, no refit without events, and the ARIMAX fit is the base fit
    rng = np.random.default_rng(78)
    vals = 50 + rng.normal(0, 1, 95)
    calls, bases = [], []
    real_fit_arimax = intervention.fit_arimax
    real_base_fit = intervention._base_fit

    def counting_fit_arimax(*args, **kwargs):
        calls.append(1)
        return real_fit_arimax(*args, **kwargs)

    def recording_base_fit(*args):
        bases.append(real_base_fit(*args))
        return bases[-1]

    monkeypatch.setattr(intervention, "fit_arimax", counting_fit_arimax)
    monkeypatch.setattr(intervention, "_base_fit", recording_base_fit)
    res = its_analysis(make_series(vals))
    assert sorted(res.dropped_events) == sorted(EVENT_KINDS)
    assert len(calls) == len(EVENT_KINDS)
    assert res.arimax is bases[0]
    assert res.arimax.event_coefficients() == []


def test_its_writes_the_interpolated_count_of_the_arimax_fit():
    # two empty post months are filled in the full series, not in the pre
    # window, and each block of its_results.json says how many it filled
    rng = np.random.default_rng(78)
    vals = 50 + rng.normal(0, 1, 95)
    vals[[10, 60, 70]] = math.nan
    written = json.loads(json.dumps(_its_result_payload(its_analysis(make_series(vals)))))
    assert written["pre_fit"]["n_interpolated"] == 1
    assert written["arimax"]["n_interpolated"] == 3


def test_its_failed_base_fit_is_not_retried(monkeypatch):
    # when the no-event fit of the full-length series fails, every
    # elimination step starts from the OLS point alone instead of
    # attempting that fit again
    rng = np.random.default_rng(78)
    vals = 50 + rng.normal(0, 1, 95)
    lengths = []
    real_fit = arima.fit

    def failing_full_fit(y, *args, **kwargs):
        lengths.append(len(y))
        if len(y) == 95:
            raise arima.FitError("forced failure")
        return real_fit(y, *args, **kwargs)

    monkeypatch.setattr(arima, "fit", failing_full_fit)
    calls = []
    real_fit_arimax = intervention.fit_arimax

    def counting_fit_arimax(*args, **kwargs):
        calls.append(1)
        return real_fit_arimax(*args, **kwargs)

    monkeypatch.setattr(intervention, "fit_arimax", counting_fit_arimax)
    res = its_analysis(make_series(vals))
    assert len(calls) == len(res.dropped_events) + 1 >= 2
    assert lengths.count(95) == 1


def test_its_fails_an_empty_edge_before_any_fit(monkeypatch):
    # The pre window is full, so it could be fitted; the empty last month
    # fails the analysis before any fit of either window.
    rng = np.random.default_rng(79)
    vals = 50 + rng.normal(0, 1, 95)
    assert arima.auto_fit(vals[:52]).n_interpolated == 0
    calls = []
    real_fit = arima.fit

    def counting_fit(*args, **kwargs):
        calls.append(1)
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(arima, "fit", counting_fit)
    vals[-1] = math.nan
    with pytest.raises(ValueError, match="cannot interpolate missing values at the series edges"):
        its_analysis(make_series(vals))
    assert not calls


def test_its_fills_the_full_series_once():
    # Interior gaps are filled once, and the ARIMAX fit counts them all.
    rng = np.random.default_rng(79)
    vals = 50 + rng.normal(0, 1, 95)
    gaps = vals.copy()
    gaps[[10, 60, 61, 80]] = math.nan
    res = its_analysis(make_series(gaps))
    assert res.pre_fit.n_interpolated == 1
    assert res.arimax.n_interpolated == 4


def test_its_drops_an_event_with_a_nan_p_value_first(monkeypatch):
    # A clear step keeps the level shift; with its standard error made NaN
    # in every fit, its NaN p-value ranks above any other and goes first.
    rng = np.random.default_rng(76)
    vals = 50.0 + rng.normal(0, 0.5, 95)
    vals[52:] -= 3.0
    assert "level_shift" not in its_analysis(make_series(vals)).dropped_events
    real_fit_arimax = intervention.fit_arimax
    p_values = []

    def nan_level_shift(*args, **kwargs):
        fit = real_fit_arimax(*args, **kwargs)
        if "level_shift" in fit.event_names:
            fit.std_errors = fit.std_errors.copy()
            fit.std_errors[1 + fit.event_names.index("level_shift")] = math.nan
        p_values.append({c.name: c.p_value for c in fit.event_coefficients()})
        return fit

    monkeypatch.setattr(intervention, "fit_arimax", nan_level_shift)
    res = its_analysis(make_series(vals))
    assert math.isnan(p_values[0]["level_shift"])
    assert max(p for name, p in p_values[0].items() if name != "level_shift") < 1.0
    assert res.dropped_events[0] == "level_shift"
    assert len(p_values) == len(res.dropped_events) + 1


# --- its_batch ---------------------------------------------------------------------

def test_its_batch_ordering_and_failures():
    rng = np.random.default_rng(79)
    good = 50 + rng.normal(0, 1, 95)
    series = [
        make_series(good, family="opioid", code="03"),
        make_series(good, family="opioid", code="overall"),
        make_series(np.arange(40.0), family="opioid", code="31",
                    start=MonthKey(2017, 1)),  # too short: recorded failure
        make_series(good, family="benzodiazepine", code="overall"),
    ]
    batch = its_batch(series)
    keys = [(r.drug_family, r.class_code) for r in batch.results]
    assert keys == [("benzodiazepine", "overall"), ("opioid", "overall"),
                    ("opioid", "03")]
    assert list(batch.failures) == ["opioid/31"]


def _batch_outputs(series):
    """The its_results.json payload of a batch, and the bytes of its arrays."""
    batch = its_batch(series)
    payload = json.dumps({"results": [_its_result_payload(r) for r in batch.results],
                          "failures": batch.failures}, sort_keys=True)
    arrays = b"".join(
        a.tobytes() for r in batch.results
        for a in (r.pre_fit.residuals, r.pre_fit.std_errors, r.arimax.residuals,
                  r.arimax.std_errors, r.post_forecast.point, r.post_forecast.lower,
                  r.post_forecast.upper))
    return payload, arrays


def test_its_batch_matches_reference_simplex_and_objective(monkeypatch, tmp_path):
    # The same batch through the array-free simplex and per-model residual
    # functions, and through the list-of-arrays simplex and the residuals of
    # the objective they replaced.  Two workers fit the series; each forks
    # with the references patched in, and notes its pid in a file on each
    # reference residual function it builds and each reference simplex run.
    # The MA(1) series near its invertibility bound sends some fits of its
    # order grid to the simplex, so the reference simplex is checked too.
    from test_arima import reference_css_residuals
    from test_optimize import reference_nelder_mead
    monkeypatch.setattr(_workers, "worker_count", lambda: 2)
    residual_runs = tmp_path / "reference_residual_runs"
    simplex_runs = tmp_path / "reference_simplex_runs"

    rng = np.random.default_rng(80)
    shift = np.r_[np.zeros(52), np.full(43, -3.0)]
    models = [(ArimaOrders(), ArimaParams(c=50.0, sigma2=1.0)),
              (ArimaOrders(p=1), ArimaParams(c=20.0, phi=[0.6], sigma2=1.0)),
              (ArimaOrders(q=1), ArimaParams(c=50.0, theta=[0.5], sigma2=1.0)),
              (ArimaOrders(p=1, P=1), ArimaParams(c=10.0, phi=[0.4], Phi=[0.5],
                                                  sigma2=1.0)),
              (ArimaOrders(q=1), ArimaParams(c=50.0, theta=[-0.95], sigma2=1.0))]
    series = [make_series(arima.simulate(o, params, 95, seed=81 + i) + shift,
                          code=f"{i}0")
              for i, (o, params) in enumerate(models)]
    series.append(make_series(rng.normal(size=40), code="31",
                              start=MonthKey(2017, 1)))  # too short: a failure
    lean = _batch_outputs(series)

    def note(path):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")

    def residuals(*args, **kwargs):
        note(residual_runs)
        return reference_css_residuals(*args, **kwargs)

    def simplex(func, x0):
        note(simplex_runs)
        return reference_nelder_mead(func, x0, _optimize._MAX_EVALS)
    for module in (arima, intervention):
        monkeypatch.setattr(module, "_css_residuals", residuals)
    monkeypatch.setattr(arima, "nelder_mead", simplex)
    assert _batch_outputs(series) == lean
    assert '"failures": {"opioid/31"' in lean[0]
    for runs in (residual_runs, simplex_runs):
        pids = set(runs.read_text().split())
        assert pids and str(os.getpid()) not in pids


def test_its_batch_34_series_structural():
    # 16 classes x 2 families + one overall per family, constant-valued so
    # each analysis is the fast degenerate path; exactly one result each
    series = []
    for fam in ("opioid", "benzodiazepine"):
        series.append(make_series([50.0] * 95, family=fam, code="overall"))
        for dist in range(4):
            for disp in range(4):
                code = f"{dist}{disp}"
                level = 40.0 + dist * 4 + disp
                series.append(make_series([level] * 95, family=fam, code=code))
    assert len(series) == 34
    batch = its_batch(series)
    assert not batch.failures
    assert len(batch.results) == 34
    keys = [(r.drug_family, r.class_code) for r in batch.results]
    assert len(set(keys)) == 34
    assert keys == sorted(keys, key=lambda k: (k[0], k[1] != "overall", k[1]))


def test_its_batch_flags_only_true_effect_classes():
    # generator ground truth: classes 03 and 30 carry a -10% effect while
    # 22 and 32 are null; the batch must flag the former and not the latter
    from rxgeo import geo, syngen
    from rxgeo.records import clean
    from rxgeo.series import aggregate_monthly

    base = {
        "03": (15.40, 5.15, 302.02, 47.96),
        "30": (7.66, 3.15, 230.59, 37.78),
        "22": (18.93, 6.97, 746.99, 91.71),
        "32": (20.06, 7.51, 1153.52, 96.50),
    }
    profiles = [
        syngen.ClassProfile(code, 0.25, *stats,
                            post_policy_multiplier=0.9 if code in ("03", "30")
                            else 1.0)
        for code, stats in base.items()
    ]
    cfg = syngen.ScenarioConfig(trend_slope=0.0, seasonal_amplitude=0.0,
                                noise_sd=0.005)
    cfg.families = {"opioid": syngen.FamilySettings(1.0, 1.0, profiles)}

    hits = 0
    n_seeds = 5
    for seed in range(n_seeds):
        records, _ = clean(syngen.generate(cfg, 40_000, seed=2000 + seed))
        classified = geo.classify_records(records)
        series = aggregate_monthly(classified, group_by="class")
        batch = its_batch(series)
        assert not batch.failures
        flagged = {r.class_code for r in batch.results if r.significant_events()}
        hits += ({"03", "30"} <= flagged) and not ({"22", "32"} & flagged)
    assert hits >= 4  # >= 80% of seeds
