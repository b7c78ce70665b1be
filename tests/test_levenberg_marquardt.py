"""Levenberg-Marquardt on its own, and the CSS fits it runs against the
simplex that it replaced, which stays as its fallback."""

import math

import numpy as np
import pytest

from rxgeo import _optimize, arima
from rxgeo.arima import ArimaOrders, ArimaParams
from rxgeo.intervention import EventInput, event_regressor, fit_arimax
from test_arima import reference_css_objective
from test_optimize import reference_nelder_mead

# Set before the optimizer was tuned: LM's CSS may exceed the simplex's by
# this share at most, and each coefficient may move this many of the
# simplex fit's standard errors at most.
CSS_SHARE = 1e-12
SE_SHARE = 1e-3


# --- the minimizer ------------------------------------------------------------------

def test_linear_least_squares_reaches_the_lstsq_solution():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(40, 3))
    b = rng.normal(size=40)
    res = _optimize.levenberg_marquardt(lambda x: a @ x - b, np.zeros(3))
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    assert res.converged
    assert np.allclose(res.x, want, rtol=1e-7, atol=1e-9)
    assert res.fun == pytest.approx(float((a @ want - b) @ (a @ want - b)), rel=1e-12)


def test_nonlinear_fit_and_repeat_call_is_bit_identical():
    t = np.linspace(0.0, 3.0, 30)
    y = 2.5 * np.exp(-1.3 * t) + 0.01 * np.sin(7.0 * t)

    def residuals(x):
        return x[0] * np.exp(-x[1] * t) - y

    x0 = np.array([1.0, 0.5])
    first = _optimize.levenberg_marquardt(residuals, x0)
    second = _optimize.levenberg_marquardt(residuals, x0.copy())
    assert abs(first.x[0] - 2.5) < 0.01 and abs(first.x[1] - 1.3) < 0.01
    assert first.x.tobytes() == second.x.tobytes()
    assert (first.fun, first.n_evals) == (second.fun, second.n_evals)
    assert np.array_equal(x0, [1.0, 0.5])  # the start is not modified


def test_result_is_never_worse_than_the_start():
    # at the minimum itself no step lowers the sum, so the start comes back
    res = _optimize.levenberg_marquardt(lambda x: np.array([x[0] - 1.0, 2.0]),
                                        np.array([1.0]))
    assert res.converged and res.x.tolist() == [1.0] and res.fun == 4.0


@pytest.mark.parametrize("residuals", [
    lambda x: None,  # an infeasible start
    lambda x: np.array([x[0], 1.0]) if x[0] < 0.5 else None,  # a Jacobian point
    lambda x: np.array([x[0] - 3.0, 1.0 + 0.0 * x[1]]),  # x[1] moves no residual
    # finite residuals whose forward difference overflows
    lambda x: np.array([math.copysign(1.7e308, x[0] - 0.500000009), x[1]]),
])
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_returns_none_where_it_cannot_finish(residuals):
    assert _optimize.levenberg_marquardt(residuals, np.array([0.5 - 1e-9, 0.0])) is None


def test_iteration_cap_returns_none(monkeypatch):
    monkeypatch.setattr(_optimize, "_LM_MAX_ITER", 1)
    t = np.linspace(0.0, 3.0, 30)
    res = _optimize.levenberg_marquardt(lambda x: x[0] * np.exp(-x[1] * t) - np.exp(-t),
                                        np.array([5.0, 3.0]))
    assert res is None


# --- the CSS fits against the simplex ------------------------------------------------

EVENTS = [EventInput("level_shift", 52), EventInput("ramp", 52),
          EventInput("inverse_trend", 52)]

# AR, MA, seasonal AR, seasonal MA and mixed orders, with d and D, and 0-3
# events each.
CASES = [
    (ArimaOrders(p=1), ArimaParams(c=20.0, phi=[0.6], sigma2=1.0), 0),
    (ArimaOrders(q=1), ArimaParams(c=50.0, theta=[0.5], sigma2=1.0), 1),
    (ArimaOrders(P=1), ArimaParams(c=25.0, Phi=[0.5], sigma2=1.0), 2),
    (ArimaOrders(Q=1), ArimaParams(c=50.0, Theta=[0.4], sigma2=1.0), 3),
    (ArimaOrders(p=1, d=1, q=1), ArimaParams(c=0.1, phi=[0.5], theta=[0.3], sigma2=1.0), 1),
    (ArimaOrders(p=1, D=1, Q=1), ArimaParams(phi=[0.4], Theta=[-0.5], sigma2=1.0), 2),
    (ArimaOrders(p=2, d=1, q=1), ArimaParams(phi=[0.5, -0.3], theta=[0.4], sigma2=1.0), 0),
    (ArimaOrders(q=2, D=1), ArimaParams(theta=[0.3, 0.2], sigma2=1.0), 3),
    (ArimaOrders(p=1, q=1, P=1), ArimaParams(c=10.0, phi=[0.4], theta=[0.3], Phi=[0.4],
                                             sigma2=1.0), 2),
]


def _case_series(i, orders, params):
    y = arima.simulate(orders, params, 95, seed=500 + i)
    return y + np.r_[np.zeros(52), np.full(43, -3.0)]


def _fit(y, orders, n_events):
    return (arima.fit(y, orders) if n_events == 0
            else fit_arimax(y, orders, EVENTS[:n_events]))


@pytest.mark.parametrize("i", range(len(CASES)))
def test_lm_fit_is_no_worse_than_the_simplex(monkeypatch, i):
    orders, params, n_events = CASES[i]
    y = _case_series(i, orders, params)
    simplex_runs = []
    real_nelder_mead = arima.nelder_mead

    def counting_nelder_mead(*args):
        simplex_runs.append(1)
        return real_nelder_mead(*args)

    monkeypatch.setattr(arima, "nelder_mead", counting_nelder_mead)
    lm = _fit(y, orders, n_events)
    assert not simplex_runs  # LM finished every fit of this case
    monkeypatch.setattr(arima, "levenberg_marquardt", lambda residuals, x0: None)
    simplex = _fit(y, orders, n_events)
    assert simplex_runs

    assert lm.params.sigma2 <= simplex.params.sigma2 * (1.0 + CSS_SHARE)
    assert lm.bic <= simplex.bic + 1e-9
    for got, want in zip(lm.coefficients(), simplex.coefficients(), strict=True):
        assert got.name == want.name
        assert math.isfinite(want.std_error) and want.std_error > 0
        assert abs(got.estimate - want.estimate) <= SE_SHARE * want.std_error, got.name


def _fit_arrays(f):
    return b"".join(np.asarray(a, dtype=float).tobytes() for a in (
        f.params.vector(), f.betas, f.std_errors, f.residuals,
        [f.bic, f.log_css, f.params.sigma2]))


@pytest.mark.parametrize("i", [1, 5, 7, 8])
def test_fallback_is_the_reference_simplex_bit_for_bit(monkeypatch, i):
    # With LM failing, both fits are the simplex's from LM's start: the same
    # result as the reference simplex on the reference objective from there.
    orders, params, n_events = CASES[i]
    y = _case_series(i, orders, params)
    starts = []
    monkeypatch.setattr(arima, "levenberg_marquardt",
                        lambda residuals, x0: starts.append(x0.copy()))
    y_filled, n_interp, z = arima._filled_differences(y, orders)
    no_events = np.zeros((z.size, 0))

    got = arima.fit(y, orders)
    hr = arima._pack(arima.hannan_rissanen_start(z, orders))
    assert starts[-1].tobytes() == hr.tobytes()
    want = reference_nelder_mead(reference_css_objective(z, no_events, orders), hr,
                                 _optimize._MAX_EVALS)
    want_fit = arima._css_finish(y_filled, n_interp, z, no_events, (), orders, want.x)
    assert _fit_arrays(got) == _fit_arrays(want_fit)

    events = EVENTS[:n_events]
    got = fit_arimax(y, orders, events)
    x = np.column_stack([arima.difference(event_regressor(e.kind, e.onset, y.size),
                                          orders.d, orders.D, orders.s)
                         for e in events])
    want = reference_nelder_mead(reference_css_objective(z, x, orders), starts[-1],
                                 _optimize._MAX_EVALS)
    want_fit = arima._css_finish(y_filled, n_interp, z, x, [e.label for e in events],
                                 orders, want.x)
    assert _fit_arrays(got) == _fit_arrays(want_fit)
