import dataclasses
import math
import warnings

import numpy as np
import pytest

from rxgeo import arima
from rxgeo.arima import (ArimaOrders, ArimaParams, adf_test,
                         auto_fit, css_objective, difference, fill_missing,
                         fit, forecast, ljung_box,
                         select_differencing, simulate,
                         simulate_forecast_paths, tentative_orders)

AR1 = ArimaOrders(p=1)


def ar1_params(phi=0.6, c=0.0, sigma2=1.0):
    return ArimaParams(c=c, phi=[phi], sigma2=sigma2)


# --- difference ------------------------------------------------------------------

def test_difference_linear_series():
    y = 2.0 * np.arange(30)
    z = difference(y, 1, 0)
    assert z.size == 29
    assert np.allclose(z, 2.0)


def test_difference_identity():
    y = np.arange(10.0)
    assert np.array_equal(difference(y, 0, 0), y)


def test_difference_inverse_reconstruction_oracle():
    # difference then cumulative-sum reconstruction (given the initial
    # values of each intermediate stage) recovers the original series
    rng = np.random.default_rng(30)
    y = rng.normal(size=60)
    for d, D, s in ((1, 0, 12), (2, 0, 12), (1, 1, 12), (0, 1, 4)):
        z = difference(y, d, D, s)
        assert z.size == y.size - d - D * s
        chain = [y.copy()]
        for _ in range(d):
            chain.append(chain[-1][1:] - chain[-1][:-1])
        for _ in range(D):
            chain.append(chain[-1][s:] - chain[-1][:-s])
        rebuilt = z.copy()
        for level in range(len(chain) - 2, -1, -1):
            lag = 1 if level < d else s  # the step that produced chain[level+1]
            parent = chain[level]
            buf = list(parent[:lag])
            for v in rebuilt:
                buf.append(v + buf[-lag])
            rebuilt = np.asarray(buf)
        assert rebuilt.size == y.size
        assert np.allclose(rebuilt, y, atol=1e-9)


def test_difference_length_guard():
    with pytest.raises(ValueError):
        difference(np.arange(5.0), 1, 1, 12)


def test_fill_missing():
    y = np.array([1.0, np.nan, 3.0, np.nan, np.nan, 6.0])
    filled, n = fill_missing(y)
    assert n == 3
    assert np.allclose(filled, [1, 2, 3, 4, 5, 6])
    with pytest.raises(ValueError):
        fill_missing(np.array([np.nan, 1.0]))


# --- css objective ----------------------------------------------------------------

def test_css_zero_model_is_sum_of_squares():
    rng = np.random.default_rng(31)
    z = rng.normal(size=100)
    val = css_objective(z, ArimaOrders(), ArimaParams(c=0.0))
    assert val == pytest.approx(float(z @ z), rel=1e-12)


def test_css_true_phi_beats_perturbed():
    y = simulate(AR1, ar1_params(0.6), 500, seed=32)
    for wrong in (0.3, 0.9):
        assert css_objective(y, AR1, ar1_params(0.6)) < \
            css_objective(y, AR1, ar1_params(wrong))


def test_css_deterministic_under_copy():
    rng = np.random.default_rng(33)
    z = rng.normal(size=80)
    with_extra = np.append(z, 5.0)[:-1]
    assert css_objective(z, AR1, ar1_params(0.5)) == \
        css_objective(with_extra, AR1, ar1_params(0.5))


def test_css_rejects_bad_params():
    z = np.zeros(50) + np.arange(50) % 3
    assert css_objective(z, AR1, ar1_params(1.2)) >= 1e300
    with pytest.raises(ValueError):
        css_objective(z, AR1, ArimaParams(c=0.0, phi=[0.5, 0.1]))


def test_css_matches_manual_ar1_recursion():
    rng = np.random.default_rng(34)
    z = rng.normal(size=40)
    phi, c = 0.4, 0.6
    mu = c / (1 - phi)
    v = z - mu
    eps = [v[0]] + [v[t] - phi * v[t - 1] for t in range(1, 40)]
    manual = float(np.sum(np.square(eps)))
    assert css_objective(z, AR1, ArimaParams(c=c, phi=[phi])) == \
        pytest.approx(manual, rel=1e-12)


def test_css_seasonal_polynomial_expansion():
    # (1 - phi B)(1 - Phi B^12) -> lags 1, 12, 13 with product cross term
    rng = np.random.default_rng(35)
    z = rng.normal(size=60)
    phi, Phi = 0.5, 0.3
    orders = ArimaOrders(p=1, P=1, s=12)
    params = ArimaParams(c=0.0, phi=[phi], Phi=[Phi])
    v = z.copy()
    eps = np.empty(60)
    for t in range(60):
        acc = v[t]
        if t >= 1:
            acc -= phi * v[t - 1]
        if t >= 12:
            acc -= Phi * v[t - 12]
        if t >= 13:
            acc += phi * Phi * v[t - 13]
        eps[t] = acc
    assert css_objective(z, orders, params) == pytest.approx(
        float(eps @ eps), rel=1e-12)


def _product_lags(nonseasonal, seasonal, s):
    """Lag coefficients of (1 - a(B)) (1 - b(B^s)) by polynomial product, as
    computed before the lag layout replaced it."""
    pa = np.r_[1.0, -np.asarray(nonseasonal, dtype=float)]
    lifted = np.zeros(s * len(seasonal))
    lifted[s - 1::s] = seasonal
    return -np.convolve(pa, np.r_[1.0, -lifted])[1:]


def _random_coefs(rng, n):
    c = rng.uniform(-0.95, 0.95, n)
    c[rng.random(n) < 0.25] = 0.0
    return c


def _layout_and_product(rng, orders):
    phi, theta, Phi, Theta = (_random_coefs(rng, k) for k in
                              (orders.p, orders.q, orders.P, orders.Q))
    a, m = arima._LagLayout(orders).coefs(phi.tolist(), theta.tolist(),
                                          Phi.tolist(), Theta.tolist())
    s = orders.s
    return a, m, _product_lags(phi, Phi, s), -_product_lags(-theta, -Theta, s)


def test_lag_layout_matches_polynomial_product():
    # p, q < s: every term has a lag of its own, so each coefficient is one
    # rounded product.  Equality is exact; zero entries may differ only in
    # sign, which neither the recursion (it skips zeros) nor the sum sees.
    rng = np.random.default_rng(36)
    for _ in range(3000):
        s = int(rng.choice([2, 4, 12]))
        p, q = (int(k) for k in rng.integers(0, s, 2))
        P, Q = (int(k) for k in rng.integers(0, 3, 2))
        a, m, ref_a, ref_m = _layout_and_product(rng, ArimaOrders(p=p, q=q, P=P, Q=Q, s=s))
        assert np.array_equal(a, ref_a) and np.array_equal(m, ref_m)
        assert a.sum().tobytes() == ref_a.sum().tobytes()


def test_lag_layout_colliding_orders_close_to_polynomial_product():
    # p >= s or q >= s with a seasonal factor: terms share lags and are
    # summed in the layout's fixed order
    rng = np.random.default_rng(37)
    for _ in range(2000):
        s = int(rng.choice([2, 3, 4]))
        p, q = (int(k) for k in rng.integers(s, s + 4, 2))
        P, Q = (int(k) for k in rng.integers(1, 3, 2))
        a, m, ref_a, ref_m = _layout_and_product(rng, ArimaOrders(p=p, q=q, P=P, Q=Q, s=s))
        np.testing.assert_allclose(a, ref_a, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(m, ref_m, rtol=1e-12, atol=1e-15)


def _dense_residuals(v, a, m):
    """The residual recursion over every lag up to the last nonzero MA lag."""
    base = v.copy()
    for k in range(1, a.size + 1):
        if a[k - 1] != 0.0:
            base[k:] -= a[k - 1] * v[:-k]
    mlist = np.trim_zeros(m, "b").tolist()
    if not mlist:
        return base
    eps = []
    for t, acc in enumerate(base.tolist()):
        for j in range(1, min(t, len(mlist)) + 1):
            if mlist[j - 1] != 0.0:
                acc -= mlist[j - 1] * eps[t - j]
        eps.append(acc)
    return np.asarray(eps)


def test_sparse_residuals_match_dense_recursion():
    # Zero coefficients at structural lags (theta_1 = 0 makes lags 1 and 13
    # zero) meet an infinite value: a loop over structural lags without the
    # zero skip turns 0 * inf into NaN where the dense recursion does not.
    rng = np.random.default_rng(38)
    orders = ArimaOrders(p=2, q=2, P=1, Q=1, s=12)
    for trial in range(300):
        v = rng.normal(size=int(rng.integers(5, 80)))
        if trial % 3 == 0:
            v[rng.integers(v.size)] = math.inf
        a, m, _, _ = _layout_and_product(rng, orders)
        got, want = arima._residuals_from_lags(v, a, m), _dense_residuals(v, a, m)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
    v = np.r_[1.0, math.inf, rng.normal(size=30)]
    a, m = arima._LagLayout(orders).coefs([0.5, 0.0], [0.0, 0.4], [0.3], [0.6])
    got = arima._residuals_from_lags(v, a, m)
    assert got.tobytes() == _dense_residuals(v, a, m).tobytes()
    assert not np.isnan(got[2])  # m_1 = 0 is skipped, not multiplied by inf


# --- the CSS evaluator against the composition it replaced --------------------------

def _reference_coefs_from_unconstrained(u):
    if u.size == 0:
        return []
    return arima._pacf_to_coefs([min(max(r, -arima._PACF_CLIP), arima._PACF_CLIP)
                                 for r in np.tanh(u).tolist()])


def _reference_arma_coefs(x, o, n_events):
    """One tanh and one Durbin-Levinson per part, as before the evaluator."""
    k = 1 + n_events
    phi = _reference_coefs_from_unconstrained(x[k:k + o.p]); k += o.p
    theta = [-v for v in _reference_coefs_from_unconstrained(x[k:k + o.q])]; k += o.q
    Phi = _reference_coefs_from_unconstrained(x[k:k + o.P]); k += o.P
    Theta = [-v for v in _reference_coefs_from_unconstrained(x[k:k + o.Q])]
    return phi, theta, Phi, Theta


def _reference_residuals(v, a, m):
    """The sparse recursion as one loop with the j > t break at every t."""
    base = v.copy()
    for k, ak in enumerate(a.tolist(), start=1):
        if ak != 0.0:
            base[k:] -= ak * v[:-k]
    ma = [(j, mj) for j, mj in enumerate(m.tolist(), start=1) if mj != 0.0]
    if not ma:
        return base
    eps = []
    for t, acc in enumerate(base.tolist()):
        for j, mj in ma:
            if j > t:
                break
            acc -= mj * eps[t - j]
        eps.append(acc)
    return np.asarray(eps)


def _reference_css_value(z, c, a, m):
    """The CSS of constant c and lag coefficients a, m, as one function."""
    ar_at_one = 1.0 - a.sum()
    if abs(ar_at_one) < 1e-10:
        return arima._PENALTY
    eps = _reference_residuals(z - c / ar_at_one, a, m)
    css = float(eps @ eps)
    return css if math.isfinite(css) else arima._PENALTY


def _reference_regression_css(z, x, vec, a, m):
    n_events = x.shape[1]
    w = z - x @ vec[1:1 + n_events] if n_events else z
    return _reference_css_value(w, float(vec[0]), a, m)


def reference_css_objective(z, x, orders, raw=False):
    """The objective every model used before the one-evaluator-per-model
    form: _regression_css(z, x, vec, *_LagLayout(o).coefs(*_arma_coefs(vec, o, n))).
    With ``raw``, the ARMA part is read as coefficients, as the standard-error
    Hessian's own objective read it: _LagLayout(o).split(vec[1 + n:].tolist())."""
    n_events = x.shape[1]

    def objective(vec):
        layout = arima._LagLayout(orders)
        arma = (layout.split(vec[1 + n_events:].tolist()) if raw
                else _reference_arma_coefs(vec, orders, n_events))
        return _reference_regression_css(z, x, vec, *layout.coefs(*arma))
    return objective


def reference_css_residuals(z, x, orders, raw=False):
    """The one-step errors that ``reference_css_objective`` squares and sums,
    or None where it gives the penalty."""
    n_events = x.shape[1]

    def residuals(vec):
        layout = arima._LagLayout(orders)
        arma = (layout.split(vec[1 + n_events:].tolist()) if raw
                else _reference_arma_coefs(vec, orders, n_events))
        a, m = layout.coefs(*arma)
        ar_at_one = 1.0 - a.sum()
        if abs(ar_at_one) < 1e-10:
            return None
        w = z - x @ vec[1:1 + n_events] if n_events else z
        eps = _reference_residuals(w - float(vec[0]) / ar_at_one, a, m)
        return eps if math.isfinite(float(eps @ eps)) else None
    return residuals


def reference_public_css(z, orders, params):
    """``css_objective`` as a root check and then the CSS of the model's own
    full-lag coefficients."""
    if not (params.is_stationary and params.is_invertible):
        return arima._PENALTY
    a, m = arima._LagLayout(orders).coefs(params.phi.tolist(), params.theta.tolist(),
                                          params.Phi.tolist(), params.Theta.tolist())
    return _reference_css_value(np.asarray(z, dtype=float), params.c, a, m)


def _random_css_case(rng, trial):
    """Orders, z and x for one trial: every fifth model has no ARMA term (its
    own evaluator), and every seventh z holds inf."""
    s = int(rng.choice([2, 4, 12]))
    if trial % 5 == 0:
        orders = ArimaOrders(s=s)
    else:
        p, q = (int(k) for k in rng.integers(0, 6, 2))
        P, Q = (int(k) for k in rng.integers(0, 3, 2))
        orders = ArimaOrders(p=p, q=q, P=P, Q=Q, s=s)
    n_events = int(rng.integers(0, 4))
    z = rng.normal(size=int(rng.integers(20, 100)))
    if trial % 7 == 0:
        z[rng.integers(z.size)] = math.inf
    return orders, z, rng.normal(size=(z.size, n_events))


def _random_raw_arma(rng, orders, trial):
    """Raw ARMA coefficients, some exactly zero.  On every third model with an
    AR term, phi_1 = 1 - gap and the other AR coefficients are 0, so 1 - sum a
    is 0, about 1e-12 (under the 1e-10 cut) or about 1e-9 (over it)."""
    coefs = rng.normal(scale=0.5, size=orders.n_coefficients - 1)
    coefs[rng.random(coefs.size) < 0.2] = 0.0
    if orders.p and trial % 3 == 0:
        coefs[:orders.p] = 0.0
        coefs[0] = 1.0 - rng.choice([0.0, 1e-12, 1e-9])
        coefs[orders.p + orders.q:orders.p + orders.q + orders.P] = 0.0
    return coefs


def test_css_evaluator_matches_reference_composition():
    # The objective and the residual function it sums.  Both coordinate systems.  Optimizer coordinates mix exact zeros (tanh(0)
    # = 0 meets the zero skip) and coordinates past the clip; raw coefficients
    # mix exact zeros and AR parts with 1 - sum a at or near 0.
    rng = np.random.default_rng(39)
    for trial in range(1500):
        orders, z, x = _random_css_case(rng, trial)
        n_events = x.shape[1]
        u = rng.normal(scale=1.5, size=orders.n_coefficients - 1)
        u[rng.random(u.size) < 0.2] = 0.0
        far = rng.random(u.size) < 0.1
        u[far] = rng.choice([-1.0, 1.0], far.sum()) * rng.uniform(20.0, 40.0, far.sum())
        vec = np.concatenate((rng.normal(size=1 + n_events), u))
        raw_vec = np.concatenate((rng.normal(size=1 + n_events),
                                  _random_raw_arma(rng, orders, trial)))
        for raw, point in ((False, vec), (True, raw_vec)):
            got = arima._sum_of_squares(arima._css_residuals(z, x, orders, raw=raw))(point)
            want = reference_css_objective(z, x, orders, raw=raw)(point)
            assert type(got) is float
            assert got.hex() == want.hex(), (trial, raw, orders, n_events)
            eps = arima._css_residuals(z, x, orders, raw=raw)(point)
            want_eps = reference_css_residuals(z, x, orders, raw=raw)(point)
            assert (eps is None) == (want_eps is None) == (want == arima._PENALTY)
            if eps is not None:
                assert eps.tobytes() == want_eps.tobytes(), (trial, raw, orders, n_events)


def test_css_objective_matches_reference_composition():
    # Random parameters, stationary and invertible or not, through the public
    # objective and through the root check followed by the CSS rule alone.
    rng = np.random.default_rng(40)
    penalties = 0
    for trial in range(1500):
        orders, z, _ = _random_css_case(rng, trial)
        k = arima._LagLayout(orders).starts
        params = ArimaParams(float(rng.normal(scale=3.0)),
                             *np.split(_random_raw_arma(rng, orders, trial), k))
        got = css_objective(z, orders, params)
        want = reference_public_css(z, orders, params)
        assert type(got) is float
        assert got.hex() == want.hex(), (trial, orders)
        penalties += got == arima._PENALTY
    assert 0 < penalties < 1500


# --- simulate -----------------------------------------------------------------------

def test_simulate_pure_noise_moments():
    y = simulate(ArimaOrders(), ArimaParams(c=0.0, sigma2=1.0), 100_000, seed=36)
    assert abs(np.mean(y)) < 0.02
    assert abs(np.var(y) - 1.0) < 0.02


def test_simulate_ar1_autocorrelation():
    y = simulate(AR1, ar1_params(0.5), 10_000, seed=37)
    v = y - y.mean()
    r1 = float(v[1:] @ v[:-1]) / float(v @ v)
    assert abs(r1 - 0.5) < 0.05


def test_simulate_deterministic_per_seed():
    a = simulate(AR1, ar1_params(0.7), 200, seed=38)
    b = simulate(AR1, ar1_params(0.7), 200, seed=38)
    c = simulate(AR1, ar1_params(0.7), 200, seed=39)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulate_validates():
    with pytest.raises(ValueError):
        simulate(AR1, ar1_params(1.1), 10, seed=0)
    with pytest.raises(ValueError):
        simulate(AR1, ar1_params(0.5), 0, seed=0)
    with pytest.raises(ValueError):
        simulate(AR1, ArimaParams(c=0.0, phi=[0.5]), 10, seed=0)  # sigma2 unset


def test_simulate_integration_lengths():
    y = simulate(ArimaOrders(d=1), ArimaParams(c=0.0, sigma2=1.0), 150, seed=40)
    assert y.size == 150
    y2 = simulate(ArimaOrders(D=1, s=12), ArimaParams(c=0.0, sigma2=1.0), 150, seed=41)
    assert y2.size == 150


def _integrated_as_before(z, d, D, s):
    """The integration ``simulate`` used to write out: d cumulative sums,
    then D seasonal passes from zero history."""
    y = z
    for _ in range(d):
        y = np.cumsum(y)
    for _ in range(D):
        out = y.copy()
        for t in range(s, y.size):
            out[t] += out[t - s]
        y = out
    return y


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("D", [0, 1])
@pytest.mark.parametrize("s", [4, 12])
def test_simulate_integrates_bit_for_bit_as_cumulative_sums(d, D, s):
    params = ArimaParams(c=0.3, phi=[0.4], theta=[0.2], sigma2=2.0)
    for seed in range(5):
        z = simulate(ArimaOrders(p=1, q=1, s=s), params, 60, seed=seed)
        got = simulate(ArimaOrders(p=1, d=d, q=1, D=D, s=s), params, 60, seed=seed)
        want = _integrated_as_before(z, d, D, s)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


# --- adf ---------------------------------------------------------------------------

def test_adf_white_noise_rejects():
    rng = np.random.default_rng(42)
    stat, reject = adf_test(rng.normal(size=200))
    assert reject and stat < -5


def test_adf_random_walk_does_not_reject():
    rng = np.random.default_rng(43)
    stat, reject = adf_test(np.cumsum(rng.normal(size=200)))
    assert not reject


def test_adf_rejection_rates_over_100_seeds():
    wn_rejects = 0
    rw_rejects = 0
    for seed in range(100):
        rng = np.random.default_rng(1400 + seed)
        wn_rejects += adf_test(rng.normal(size=200)).reject_unit_root
        rw_rejects += adf_test(np.cumsum(rng.normal(size=200))).reject_unit_root
    assert wn_rejects >= 95       # white noise: reject in >= 95/100
    assert 100 - rw_rejects >= 90  # random walk: fail to reject in >= 90/100


def test_adf_constant_series_warns():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stat, reject = adf_test(np.full(50, 3.0))
    assert not reject
    assert math.isnan(stat)
    assert any("degenerate" in str(w.message) for w in caught)


def test_adf_white_noise_never_warns_for_any_length_from_20_to_400():
    # Covers the regressions near the lag cap n // 2 - 3, which every short
    # series reaches: each keeps at least 3 more rows than columns.
    rng = np.random.default_rng(20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in range(20, 401):
            assert math.isfinite(adf_test(rng.normal(size=n)).statistic), n


def test_adf_short_series_error():
    with pytest.raises(ValueError):
        adf_test(np.arange(10.0))


# --- select_differencing --------------------------------------------------------------

def test_select_differencing_cases():
    y = simulate(AR1, ar1_params(0.5), 200, seed=44)
    assert select_differencing(y) == (0, 0)
    rng = np.random.default_rng(45)
    assert select_differencing(np.cumsum(rng.normal(size=200)))[0] >= 1
    t = np.arange(240)
    seasonal = 10 * np.sin(2 * np.pi * t / 12) + rng.normal(size=240)
    assert select_differencing(seasonal)[1] == 1


def test_select_differencing_exact_linear_trend():
    # Every ADF regression of an exact trend, or of its differences, fits
    # exactly, so none rejects and d reaches its cap.
    with pytest.warns(UserWarning, match="degenerate"):
        stat, reject = adf_test(2 * np.arange(100) + 1.0)
    assert math.isnan(stat) and not reject
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for n in range(36, 201):
            assert select_differencing(2 * np.arange(n) + 1.0) == (2, 0), n


def test_select_differencing_length_guard():
    with pytest.raises(ValueError):
        select_differencing(np.arange(20.0), s=12)


# --- tentative orders ------------------------------------------------------------------

def test_tentative_orders_white_noise_modal_zero():
    hits = 0
    for seed in range(30):
        rng = np.random.default_rng(600 + seed)
        t = tentative_orders(rng.normal(size=300))
        hits += (t == (0, 0, 0, 0))
    assert hits >= 20


def test_tentative_orders_ar1_finds_p():
    hits = 0
    for seed in range(20):
        y = simulate(AR1, ar1_params(0.7), 300, seed=700 + seed)
        t = tentative_orders(y)
        table = arima._bic_grid(*arima._long_ar(y), arima._GRID_MAX, arima._GRID_MAX)
        hits += (t.p >= 1 and table[1, 0] < table[0, 0])
    assert hits >= 18


def test_minic_bic_matches_independent_regression():
    # recompute one BIC cell with a hand-rolled long-AR + least squares
    y = simulate(AR1, ar1_params(0.7), 240, seed=46)
    p_max = q_max = 3
    table = arima._bic_grid(*arima._long_ar(y), p_max, q_max)

    v = y - y.mean()
    n = v.size
    long_order = max(1, min(math.ceil(min(n / 10.0, 20.0)), n // 2 - 2))
    x_long = np.column_stack([v[long_order - j:n - j] for j in range(1, long_order + 1)])
    beta = np.linalg.lstsq(x_long, v[long_order:], rcond=None)[0]
    e = np.full(n, np.nan)
    e[long_order:] = v[long_order:] - x_long @ beta

    rows = np.arange(max(long_order + q_max, p_max), n)
    for (p, q) in ((0, 0), (1, 0), (2, 1), (3, 3)):
        cols = [v[rows - j] for j in range(1, p + 1)] + \
               [e[rows - j] for j in range(1, q + 1)]
        if cols:
            x = np.column_stack(cols)
            bhat = np.linalg.lstsq(x, v[rows], rcond=None)[0]
            rss = float(np.sum((v[rows] - x @ bhat) ** 2))
        else:
            rss = float(v[rows] @ v[rows])
        n_c = rows.size
        expected = n_c * math.log(rss / n_c) + (p + q) * math.log(n_c)
        assert table[p, q] == pytest.approx(expected, abs=1e-8)


# --- fit ----------------------------------------------------------------------------

def test_fit_white_noise_closed_form():
    rng = np.random.default_rng(47)
    y = rng.normal(3.0, 2.0, 400)
    f = fit(y, ArimaOrders())
    assert f.params.c == pytest.approx(float(np.mean(y)), rel=0.02)
    assert f.params.sigma2 == pytest.approx(float(np.var(y)), rel=0.02)
    assert f.n_effective == 400
    assert f.residuals.size == 400


def test_fit_ar1_recovery_single_seed():
    y = simulate(AR1, ar1_params(0.6), 500, seed=48)
    f = fit(y, AR1)
    assert 0.5 <= f.params.phi[0] <= 0.7
    assert f.params.is_stationary and f.params.is_invertible
    assert np.all(np.isfinite(f.std_errors))


def test_fit_ma1_recovery_single_seed():
    orders = ArimaOrders(d=1, q=1)
    y = simulate(orders, ArimaParams(c=0.0, theta=[0.5], sigma2=1.0), 500, seed=49)
    f = fit(y, orders)
    assert 0.35 <= f.params.theta[0] <= 0.65


def test_fit_bic_invariant():
    y = simulate(AR1, ar1_params(0.6), 300, seed=50)
    f = fit(y, AR1)
    k = 2  # constant + phi
    expected = f.n_effective * math.log(f.params.sigma2) + k * math.log(f.n_effective)
    assert f.bic == pytest.approx(expected, rel=1e-12)
    assert f.orders.n_coefficients == k


def test_fit_interpolates_missing():
    y = simulate(AR1, ar1_params(0.5), 120, seed=51)
    y[40] = np.nan
    f = fit(y, AR1)
    assert f.n_interpolated == 1


def test_auto_fit_reports_interpolated_count():
    # auto_fit fills the gaps once, before its grid of fits; the returned
    # fit must still carry that count, not the 0 of its filled input
    y = simulate(AR1, ar1_params(0.5), 60, seed=51)
    y[[10, 25, 40]] = np.nan
    f = auto_fit(y)
    assert f.n_interpolated == 3
    assert np.all(np.isfinite(f.y))


def test_fit_length_guard():
    with pytest.raises(ValueError):
        fit(np.arange(8.0), AR1)


@pytest.mark.parametrize("orders", [
    ArimaOrders(1, 0, 0, 1, 0, 0, s=1000),
    ArimaOrders(0, 0, 0, 0, 0, 1, s=95),
    ArimaOrders(1, 0, 0, 1, 0, 0, s=94),
    ArimaOrders(0, 1, 0, 1, 0, 0, s=94),
    ArimaOrders(0, 0, 0, 1, 1, 0, s=48),
])
def test_fit_rejects_a_lag_not_shorter_than_the_differenced_series(orders):
    # The length guard counted s*P and s*Q as P and Q: a seasonal AR lag of
    # 1000 on 95 months was fitted, with NaN standard errors.
    y = simulate(AR1, ar1_params(0.5), 95, seed=53) + 50.0
    with pytest.raises(ValueError, match="too short"):
        fit(y, orders)


def test_fit_accepts_a_lag_one_shorter_than_the_differenced_series():
    y = simulate(AR1, ar1_params(0.5), 95, seed=53) + 50.0
    try:
        fit(y, ArimaOrders(0, 1, 0, 1, 0, 0, s=93))
    except arima.FitError:
        pass  # an estimation failure, not the length guard


def test_fit_gradient_near_zero_at_optimum():
    # central finite differences of the objective at the reported optimum
    for seed, orders, params in [
        (52, AR1, ar1_params(0.6)),
        (53, ArimaOrders(p=1, q=1), ArimaParams(c=0.0, phi=[0.5], theta=[0.4],
                                                sigma2=1.0)),
    ]:
        y = simulate(orders, params, 400, seed=seed)
        f = fit(y, orders)
        z = difference(y, orders.d, orders.D, orders.s)
        vec0 = f.params.vector()

        def obj(vec):
            p = ArimaParams(c=vec[0], phi=vec[1:1 + orders.p],
                            theta=vec[1 + orders.p:1 + orders.p + orders.q])
            return css_objective(z, orders, p)

        f0 = obj(vec0)
        grad = []
        for i in range(vec0.size):
            h = 1e-5 * max(1.0, abs(vec0[i]))
            up, dn = vec0.copy(), vec0.copy()
            up[i] += h
            dn[i] -= h
            grad.append((obj(up) - obj(dn)) / (2 * h))
        assert max(abs(g) for g in grad) < 1e-4 * f0


def test_fit_root_check_after_estimation():
    for seed in range(5):
        y = simulate(ArimaOrders(p=2), ArimaParams(c=1.0, phi=[0.5, 0.3],
                                                   sigma2=1.0), 300, seed=seed)
        f = fit(y, ArimaOrders(p=2))
        assert f.params.is_stationary and f.params.is_invertible


def test_fit_seasonal_model_recovery():
    orders = ArimaOrders(p=1, P=1, s=12)
    params = ArimaParams(c=0.0, phi=[0.5], Phi=[0.4], sigma2=1.0)
    y = simulate(orders, params, 600, seed=640)
    f = fit(y, orders)
    assert f.params.phi[0] == pytest.approx(0.5, abs=0.12)
    assert f.params.Phi[0] == pytest.approx(0.4, abs=0.12)
    assert f.coefficient_names() == ["const", "ar1", "sar12"]


def test_fit_and_forecast_seasonally_differenced():
    orders = ArimaOrders(q=1, D=1, s=12)
    params = ArimaParams(c=0.0, theta=[0.4], sigma2=1.0)
    y = simulate(orders, params, 240, seed=641)
    f = fit(y, orders)
    assert f.n_effective == 240 - 12
    fc = forecast(f, 18)
    assert fc.point.size == 18
    widths = fc.upper - fc.lower
    assert np.all(np.diff(widths) >= -1e-9)


def test_bic_prefers_true_orders_over_fixed_wrong_ones():
    wins = {"true": 0, "under": 0, "over": 0}
    for seed in range(50):
        y = simulate(AR1, ar1_params(0.65), 200, seed=900 + seed)
        bics = {
            "true": fit(y, AR1).bic,
            "under": fit(y, ArimaOrders()).bic,
            "over": fit(y, ArimaOrders(p=2, q=1)).bic,
        }
        wins[min(bics, key=bics.get)] += 1
    assert wins["true"] > max(wins["under"], wins["over"])


# --- auto_fit -----------------------------------------------------------------------

def test_auto_fit_constant_series_degenerate():
    f = auto_fit(np.full(60, 4.2))
    assert f.degenerate
    assert (f.orders.p, f.orders.d, f.orders.q) == (0, 0, 0)
    assert f.params.c == 4.2


def test_auto_fit_deterministic():
    y = simulate(ArimaOrders(p=1, d=1), ar1_params(0.5), 150, seed=54)
    f1 = auto_fit(y)
    f2 = auto_fit(y)
    assert f1.orders == f2.orders
    assert np.array_equal(f1.params.vector(), f2.params.vector())
    assert f1.bic == f2.bic


def test_auto_fit_selects_differencing_and_beats_overfit():
    hits = 0
    for seed in range(10):
        y = simulate(ArimaOrders(p=1, d=1), ar1_params(0.6), 200, seed=1000 + seed)
        f = auto_fit(y)
        if f.orders.d < 1:
            continue
        over = fit(y, ArimaOrders(p=f.orders.p + 1, d=f.orders.d,
                                  q=f.orders.q + 1, s=f.orders.s))
        hits += (f.bic <= over.bic + 1e-9)
    assert hits >= 8


def test_auto_fit_length_guard():
    with pytest.raises(ValueError):
        auto_fit(np.arange(30.0), s=12)


# --- forecast -----------------------------------------------------------------------

def test_forecast_white_noise_flat():
    rng = np.random.default_rng(55)
    y = rng.normal(10.0, 1.0, 300)
    f = fit(y, ArimaOrders())
    fc = forecast(f, 8)
    assert np.allclose(fc.point, f.params.c)
    widths = fc.upper - fc.lower
    assert np.allclose(widths, widths[0])
    assert np.all(fc.lower <= fc.point) and np.all(fc.point <= fc.upper)


def test_forecast_ar1_geometric_decay():
    y = simulate(AR1, ar1_params(0.7, c=3.0), 400, seed=56)
    f = fit(y, AR1)
    fc = forecast(f, 10)
    mu = f.params.c / (1.0 - f.params.phi[0])
    dev = fc.point - mu
    ratios = dev[1:] / dev[:-1]
    assert np.allclose(ratios, f.params.phi[0], atol=1e-6)


def test_forecast_variance_monotone():
    for orders, params in [
        (AR1, ar1_params(0.6)),
        (ArimaOrders(d=1, q=1), ArimaParams(c=0.0, theta=[0.4], sigma2=1.0)),
    ]:
        y = simulate(orders, params, 300, seed=57)
        f = fit(y, orders)
        fc = forecast(f, 24)
        widths = fc.upper - fc.lower
        assert np.all(np.diff(widths) >= -1e-9)


def test_forecast_argument_guards():
    y = simulate(AR1, ar1_params(0.5), 100, seed=58)
    f = fit(y, AR1)
    with pytest.raises(ValueError):
        forecast(f, 0)
    with pytest.raises(ValueError):
        forecast(f, 5, level=1.2)


def test_forecast_coverage_against_simulated_futures():
    y = simulate(AR1, ar1_params(0.6, c=2.0), 300, seed=59)
    f = fit(y, AR1)
    fc = forecast(f, 12, level=0.95)
    paths = simulate_forecast_paths(f, 12, 500, seed=60)
    cov = float(np.mean((paths >= fc.lower) & (paths <= fc.upper)))
    assert 0.91 <= cov <= 0.99


@pytest.mark.parametrize("h", [1, 3])
def test_zero_shock_paths_equal_forecast_on_short_history(h):
    # 14 points against a 24-month AR lag span: the recursion must count the
    # lags before the first observation as zero, as forecast does.  fit
    # rejects a lag that no observation reaches, so the model is given.
    orders = ArimaOrders(P=2, s=12)
    params = ArimaParams(c=1.0, Phi=np.array([0.4, 0.2]), sigma2=1.0)
    y = simulate(orders, params, 14, seed=70)
    f = arima.ArimaFit(orders, params, std_errors=np.zeros(3), log_css=0.0, bic=0.0,
                       residuals=np.zeros(y.size), n_effective=y.size, y=y)
    mu = f.params.c / (1.0 - f.params.Phi.sum())
    expected = mu + f.params.Phi[0] * (f.y[2:2 + h] - mu)  # lag 24 adds nothing
    assert forecast(f, h).point == pytest.approx(expected, rel=1e-12)
    still = dataclasses.replace(f, params=dataclasses.replace(f.params, sigma2=0.0))
    paths = simulate_forecast_paths(still, h, 3, seed=71)
    assert np.array_equal(paths, np.tile(forecast(f, h).point, (3, 1)))


def test_forecast_integrates_differenced_models():
    orders = ArimaOrders(d=1)
    y = simulate(orders, ArimaParams(c=0.0, sigma2=1.0), 200, seed=61)
    f = fit(y, orders)
    fc = forecast(f, 6)
    # a random walk's forecast stays near the last observed level
    assert abs(fc.point[0] - y[-1]) < 3.0
    widths = fc.upper - fc.lower
    assert widths[-1] > widths[0]  # variance grows after integration


# --- ljung box ----------------------------------------------------------------------

def test_ljung_box_white_noise_calibration():
    rejections = 0
    for seed in range(200):
        rng = np.random.default_rng(1100 + seed)
        res = ljung_box(rng.normal(size=120), lag=12)
        rejections += (res.p_value < 0.05)
    assert 0.02 <= rejections / 200 <= 0.08


def test_ljung_box_detects_autocorrelation():
    y = simulate(AR1, ar1_params(0.9), 300, seed=62)
    res = ljung_box(y, lag=12)
    assert res.p_value < 0.01


def test_ljung_box_guards_and_nonnegative():
    rng = np.random.default_rng(63)
    res = ljung_box(rng.normal(size=50), lag=10, n_params=12)
    assert res.statistic >= 0.0
    assert res.df == (1.0,)  # floored
    with pytest.raises(ValueError):
        ljung_box(np.arange(5.0), lag=12)
