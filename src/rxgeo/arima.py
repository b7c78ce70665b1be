"""Seasonal ARIMA modeling with an automatic order-selection pipeline.

The model for the differenced series y'_t is

    y'_t = c + phi_1 y'_{t-1} + ... + phi_p y'_{t-p}
             + eps_t + theta_1 eps_{t-1} + ... + theta_q eps_{t-q}

with multiplicative seasonal AR/MA factors at lag ``s`` folded in by
polynomial multiplication.  Estimation minimizes the conditional sum of
squared one-step errors (CSS), with pre-sample errors and pre-sample
deviations from the process mean set to zero.  The automatic pipeline
mirrors classic Box-Jenkins practice: unit-root tests pick the differencing
orders, a Hannan-Rissanen / minimum-BIC grid picks tentative ARMA orders,
and an exhaustive search bounded by those tentative orders returns the
minimum-BIC fit.
"""

from __future__ import annotations

import itertools
import logging
import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ._optimize import MinimizeResult, levenberg_marquardt, nelder_mead
from ._special import chi2_sf, normal_ppf, normal_sf
from .stats import TestResult

logger = logging.getLogger(__name__)

_PENALTY = 1e300
_PACF_CLIP = 0.999999

# Fixed settings of the automatic procedure.
_GRID_MAX = 5  # nonseasonal p and q of the tentative-order grid
_SEASONAL_MAX = 2  # seasonal P and Q
_SEASONAL_THRESHOLD = 0.64  # lag-s autocorrelation above which D = 1
_D_MAX = 2
_FD_STEP = 1e-4  # Hessian step, relative to max(1, |x_i|)
_BURNIN = 200  # simulated values discarded before the returned series


# ---------------------------------------------------------------------------
# Orders / parameters / fit containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArimaOrders:
    p: int = 0
    d: int = 0
    q: int = 0
    P: int = 0
    D: int = 0
    Q: int = 0
    s: int = 12

    def __post_init__(self):
        for name in ("p", "d", "q", "P", "D", "Q"):
            if getattr(self, name) < 0:
                raise ValueError(f"order {name} must be nonnegative")
        if self.P > _SEASONAL_MAX or self.Q > _SEASONAL_MAX:
            raise ValueError(f"seasonal AR/MA orders are capped at {_SEASONAL_MAX}")
        if self.d + self.D > 3:
            raise ValueError("total differencing d + D must be at most 3")
        if (self.P or self.D or self.Q) and self.s < 2:
            raise ValueError("seasonal terms require season length s >= 2")

    @property
    def n_coefficients(self) -> int:
        """Estimated coefficients including the constant."""
        return 1 + self.p + self.q + self.P + self.Q

    def label(self) -> str:
        base = f"ARIMA({self.p},{self.d},{self.q})"
        if self.P or self.D or self.Q:
            base += f"({self.P},{self.D},{self.Q}){self.s}"
        return base


@dataclass
class ArimaParams:
    c: float = 0.0
    phi: np.ndarray = field(default_factory=lambda: np.zeros(0))
    theta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    Phi: np.ndarray = field(default_factory=lambda: np.zeros(0))
    Theta: np.ndarray = field(default_factory=lambda: np.zeros(0))
    sigma2: float = math.nan

    def __post_init__(self):
        self.phi = np.atleast_1d(np.asarray(self.phi, dtype=float))
        self.theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        self.Phi = np.atleast_1d(np.asarray(self.Phi, dtype=float))
        self.Theta = np.atleast_1d(np.asarray(self.Theta, dtype=float))

    def vector(self) -> np.ndarray:
        return _coefficient_vector(self)

    @property
    def is_stationary(self) -> bool:
        return _poly_stable(self.phi) and _poly_stable(self.Phi)

    @property
    def is_invertible(self) -> bool:
        return _poly_stable(-self.theta) and _poly_stable(-self.Theta)


def significance_stars(p: float) -> str:
    """Table-style significance stars for a p-value."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


class Coefficient(NamedTuple):
    name: str
    estimate: float
    std_error: float
    p_value: float

    @property
    def stars(self) -> str:
        if math.isnan(self.p_value):
            return ""
        return significance_stars(self.p_value)


@dataclass
class ArimaFit:
    """CSS fit of a seasonal ARIMA with zero or more event regressors."""

    orders: ArimaOrders
    params: ArimaParams
    std_errors: np.ndarray  # aligned with coefficient_names()
    log_css: float
    bic: float
    residuals: np.ndarray
    n_effective: int
    y: np.ndarray  # series actually fitted (missing values interpolated)
    n_interpolated: int = 0
    degenerate: bool = False
    betas: np.ndarray = field(default_factory=lambda: np.zeros(0))
    event_names: list[str] = field(default_factory=list)

    def coefficient_names(self) -> list[str]:
        o = self.orders
        return (["const"] + list(self.event_names)
                + [f"ar{i}" for i in range(1, o.p + 1)]
                + [f"ma{j}" for j in range(1, o.q + 1)]
                + [f"sar{o.s * i}" for i in range(1, o.P + 1)]
                + [f"sma{o.s * j}" for j in range(1, o.Q + 1)])

    def coefficients(self) -> list[Coefficient]:
        values = _coefficient_vector(self.params, self.betas)
        return [Coefficient(name, float(est), float(se),
                            _coef_p_value(float(est), float(se)))
                for name, est, se in zip(self.coefficient_names(), values,
                                         self.std_errors)]

    def event_coefficients(self) -> list[Coefficient]:
        return self.coefficients()[1:1 + len(self.event_names)]


@dataclass(frozen=True)
class Forecast:
    horizon: int
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float


class FitError(RuntimeError):
    """Estimation failed; carries the best parameters seen so far."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class TentativeOrders(NamedTuple):
    p: int
    q: int
    P: int
    Q: int


# ---------------------------------------------------------------------------
# Polynomial and transform helpers
# ---------------------------------------------------------------------------

def _poly_stable(coefs: np.ndarray) -> bool:
    """True when 1 - c_1 z - ... - c_k z^k has all roots outside the unit circle."""
    coefs = np.trim_zeros(np.asarray(coefs, dtype=float), "b")
    if coefs.size == 0:
        return True
    if not np.all(np.isfinite(coefs)):
        return False
    roots = np.roots(np.r_[-coefs[::-1], 1.0])
    return bool(np.all(np.abs(roots) > 1.0))


class _LagLayout:
    """
    Where the terms of phi(B) Phi(B^s) and theta(B) Theta(B^s) fall on the
    lag axis, built once per model so that each CSS evaluation only places
    coefficients.  Each product has a plain term at lag j, a seasonal term
    at lag s l and a cross term at lag s l + j (Box, Jenkins & Reinsel,
    ch. 9); with the sign convention of the defining equation,

        a[j] = phi_j,    a[s l] = Phi_l,    a[s l + j] = -phi_j Phi_l,
        m[j] = theta_j,  m[s l] = Theta_l,  m[s l + j] = theta_j Theta_l.

    When p >= s (or q >= s) with a seasonal factor, two terms can share a
    lag.  They are summed in one fixed order: the plain terms, then for
    each l in turn its seasonal term and its cross terms in ascending j.
    """

    def __init__(self, orders: ArimaOrders):
        s = orders.s
        self.a_size = orders.p + s * orders.P
        self.m_size = orders.q + s * orders.Q
        self.a_seasonal = [s * l - 1 for l in range(1, orders.P + 1)]
        self.m_seasonal = [s * l - 1 for l in range(1, orders.Q + 1)]
        # Where theta, Phi and Theta start in the ARMA part [phi, theta, Phi,
        # Theta] of a coefficient vector.
        q0 = orders.p
        self.starts = (q0, q0 + orders.q, q0 + orders.q + orders.P)

    def coefs(self, phi: list[float], theta: list[float], Phi: list[float],
              Theta: list[float]) -> tuple[np.ndarray, np.ndarray]:
        """Full-lag AR coefficients a_k and MA coefficients m_j."""
        return (_place(self.a_size, self.a_seasonal, phi, Phi, -1.0),
                _place(self.m_size, self.m_seasonal, theta, Theta, 1.0))

    def split(self, r: list[float]) -> tuple[list[float], ...]:
        """phi, theta, Phi and Theta from the ARMA part of a vector."""
        q0, P0, Q0 = self.starts
        return r[:q0], r[q0:P0], r[P0:Q0], r[Q0:]

    def arma_coefs(self, u: np.ndarray) -> tuple[list[float], ...]:
        """
        phi, theta, Phi and Theta at the unconstrained ARMA part ``u`` of an
        optimizer point: each part's partial autocorrelations are tanh(u),
        clipped, and Durbin-Levinson gives the coefficients.  The MA parts
        hold the negated coefficients.
        """
        C = _PACF_CLIP
        r = [C if v > C else -C if v < -C else v for v in np.tanh(u).tolist()]
        phi, theta, Phi, Theta = self.split(r)
        return (_pacf_to_coefs(phi), [-v for v in _pacf_to_coefs(theta)],
                _pacf_to_coefs(Phi), [-v for v in _pacf_to_coefs(Theta)])


def _place(size: int, seasonal_at: list[int], plain: list[float],
           seasonal: list[float], cross_sign: float) -> np.ndarray:
    """One product's full-lag coefficients, summed in the layout's order."""
    out = [0.0] * size
    out[:len(plain)] = plain
    for i, C in zip(seasonal_at, seasonal):
        out[i] += C
        for j, c in enumerate(plain, start=i + 1):
            out[j] += cross_sign * c * C
    return np.array(out)


def _ar_ma_lag_coefs(orders: ArimaOrders, params: ArimaParams) -> tuple[np.ndarray, np.ndarray]:
    """Full-lag AR coefficients a_k and MA coefficients m_j of the model."""
    return _LagLayout(orders).coefs(params.phi.tolist(), params.theta.tolist(),
                                    params.Phi.tolist(), params.Theta.tolist())


def _pacf_to_coefs(r: list[float]) -> list[float]:
    """Durbin-Levinson: partial autocorrelations -> AR coefficients."""
    cur: list[float] = []
    for k, rk in enumerate(r, start=1):
        cur = [cur[i] - rk * cur[k - 2 - i] for i in range(k - 1)] + [rk]
    return cur


def _coefs_to_pacf(coefs: np.ndarray) -> np.ndarray | None:
    """Inverse Durbin-Levinson; None when the coefficients are not stationary."""
    cur = [float(v) for v in coefs]
    p = len(cur)
    r = [0.0] * p
    for k in range(p, 0, -1):
        rk = cur[k - 1]
        if not math.isfinite(rk) or abs(rk) >= 1.0:
            return None
        r[k - 1] = rk
        if k > 1:
            denom = 1.0 - rk * rk
            cur = [(cur[i] + rk * cur[k - 2 - i]) / denom for i in range(k - 1)]
    return np.asarray(r)


def _unconstrained_from_coefs(coefs: np.ndarray) -> np.ndarray:
    """Map (possibly non-stationary) coefficients to the unconstrained space."""
    coefs = np.asarray(coefs, dtype=float)
    if coefs.size == 0:
        return coefs
    shrunk = coefs.copy()
    for _ in range(60):
        r = _coefs_to_pacf(shrunk)
        if r is not None and np.all(np.abs(r) < 0.98):
            return np.arctanh(np.clip(r, -0.97, 0.97))
        shrunk = shrunk * 0.9
    return np.zeros(coefs.size)


def _coef_p_value(est: float, se: float) -> float:
    if not math.isfinite(se) or se < 0:
        return math.nan
    if se == 0.0:
        return 1.0 if est == 0.0 else 0.0
    return 2.0 * normal_sf(abs(est / se))


# ---------------------------------------------------------------------------
# Differencing
# ---------------------------------------------------------------------------

def difference(y: Sequence[float] | np.ndarray, d: int, D: int, s: int = 12) -> np.ndarray:
    """Apply d simple differences then D seasonal differences at lag s."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("series must be one-dimensional")
    need = d + D * s
    if y.size <= need:
        raise ValueError(f"series of length {y.size} too short to difference "
                         f"(needs > {need})")
    return _difference_chain(y, d, D, s)[0][-1]


def _difference_chain(y: np.ndarray, d: int, D: int, s: int) -> tuple[list[np.ndarray], list[int]]:
    """All intermediate series plus the lag used at each step."""
    chain = [np.asarray(y, dtype=float)]
    lags: list[int] = []
    for _ in range(d):
        chain.append(chain[-1][1:] - chain[-1][:-1])
        lags.append(1)
    for _ in range(D):
        chain.append(chain[-1][s:] - chain[-1][:-s])
        lags.append(s)
    return chain, lags


def _integrate_extension(chain: list[np.ndarray], lags: list[int],
                         ext: np.ndarray) -> np.ndarray:
    """Carry an extension of the deepest differenced level back up to the
    original scale."""
    for parent, lag in zip(chain[-2::-1], lags[::-1]):
        buf = parent.tolist()
        for v in ext:
            buf.append(float(v) + buf[-lag])
        ext = np.asarray(buf[parent.size:])
    return ext


def fill_missing(y: Sequence[float] | np.ndarray) -> tuple[np.ndarray, int]:
    """Linearly interpolate interior NaNs; leading/trailing NaNs are errors."""
    y = np.asarray(y, dtype=float).copy()
    bad = ~np.isfinite(y)
    n_bad = int(bad.sum())
    if n_bad == 0:
        return y, 0
    if bad[0] or bad[-1]:
        raise ValueError("cannot interpolate missing values at the series edges")
    idx = np.arange(y.size)
    y[bad] = np.interp(idx[bad], idx[~bad], y[~bad])
    logger.info("interpolated %d missing values before fitting", n_bad)
    return y, n_bad


def _filled_differences(y: Sequence[float] | np.ndarray,
                        orders: ArimaOrders) -> tuple[np.ndarray, int, np.ndarray]:
    """The series with its interior gaps interpolated, how many values that
    filled, and the filled series differenced at ``orders``."""
    y, n_interp = fill_missing(y)
    return y, n_interp, difference(y, orders.d, orders.D, orders.s)


# ---------------------------------------------------------------------------
# Unit-root test and differencing selection
# ---------------------------------------------------------------------------

# Response-surface coefficients for the 5% Dickey-Fuller t critical value,
# constant-only regression: crit(n) = b0 + b1/n + b2/n^2 + b3/n^3.
# Source: MacKinnon (2010), "Critical Values for Cointegration Tests",
# Queen's Economics Department WP 1227, Table 2 (no trend, N=1).
_ADF_CRIT_5PCT = (-2.86154, -2.8903, -4.234, -40.040)
# An RSS below this share of dy's sum of squares is rounding error (an exact
# linear trend in y), so the regression's t statistic is degenerate.
_ADF_EXACT_FIT = 1e-20


class AdfResult(NamedTuple):
    statistic: float
    reject_unit_root: bool


def adf_critical_value(n_obs: int) -> float:
    b0, b1, b2, b3 = _ADF_CRIT_5PCT
    return b0 + b1 / n_obs + b2 / n_obs**2 + b3 / n_obs**3


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    beta, *_ = np.linalg.lstsq(x, y, rcond=None)
    resid = y - x @ beta
    return beta, float(resid @ resid)


def adf_test(y: Sequence[float] | np.ndarray) -> AdfResult:
    """
    Augmented Dickey-Fuller test with a constant.

    Regresses dy_t on [1, y_{t-1}, dy_{t-1} ... dy_{t-k}] with the lag count
    k <= ceil(12 (n/100)^(1/4)) chosen by AIC on a common sample, then
    refits at the chosen k on the maximal sample.  The unit root is
    rejected when the t statistic of the y_{t-1} coefficient falls below
    the embedded 5% critical value.  A constant series, or a final
    regression that fits exactly, is degenerate: it warns and does not
    reject.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 20:
        raise ValueError(f"ADF test needs at least 20 observations, got {y.size}")
    if np.ptp(y) == 0.0:
        warnings.warn("ADF on a constant series is degenerate; not rejecting")
        return AdfResult(math.nan, False)

    n = y.size
    max_lag = max(0, min(int(math.ceil(12.0 * (n / 100.0) ** 0.25)), n // 2 - 3))

    dy = np.diff(y)

    def design(k: int, start: int) -> tuple[np.ndarray, np.ndarray]:
        rows = np.arange(start, dy.size)
        cols = [np.ones(rows.size), y[rows]]
        for j in range(1, k + 1):
            cols.append(dy[rows - j])
        return np.column_stack(cols), dy[rows]

    # As n >= 20 and max_lag <= n // 2 - 3, every regression below has at
    # least 3 more rows than columns: n - 1 - start rows, k + 2 columns.
    best_k, best_aic = 0, math.inf
    for k in range(0, max_lag + 1):
        x, dep = design(k, max_lag)
        _, rss = _ols(x, dep)
        n_c = dep.size
        aic = n_c * math.log(max(rss / n_c, 1e-300)) + 2 * (k + 2)
        if aic < best_aic:
            best_aic, best_k = aic, k

    x, dep = design(best_k, best_k)
    beta, rss = _ols(x, dep)
    n_c, n_cols = x.shape
    sigma2 = rss / (n_c - n_cols)
    xtx_inv = np.linalg.pinv(x.T @ x)
    se = math.sqrt(max(sigma2 * xtx_inv[1, 1], 0.0))
    if se == 0.0 or not math.isfinite(se) or rss <= _ADF_EXACT_FIT * float(dep @ dep):
        warnings.warn("ADF regression is degenerate; not rejecting")
        return AdfResult(math.nan, False)
    stat = float(beta[1] / se)
    return AdfResult(stat, stat < adf_critical_value(n_c))


def _acf_at_lag(x: np.ndarray, lag: int) -> float:
    x = np.asarray(x, dtype=float)
    if x.size <= lag:
        return 0.0
    v = x - x.mean()
    denom = float(v @ v)
    if denom == 0.0:
        return 0.0
    return float(v[lag:] @ v[:-lag]) / denom


def select_differencing(y: Sequence[float] | np.ndarray, s: int = 12) -> tuple[int, int]:
    """
    Pick (d, D) for a monthly series.

    D in {0, 1} comes first, from a seasonal-strength check: D = 1 when the
    lag-s autocorrelation of the first-differenced series exceeds the
    threshold.  (Differencing first immunizes the check against ordinary
    unit roots, whose slowly decaying raw autocorrelations would otherwise
    masquerade as seasonality.)  Then d is the smallest order up to
    ``_D_MAX`` whose differenced series rejects the ADF unit root;
    ``_D_MAX`` if none does.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 3 * s:
        raise ValueError(f"need at least {3 * s} observations, got {y.size}")

    dy = np.diff(y)
    D = 1 if _acf_at_lag(dy, s) > _SEASONAL_THRESHOLD else 0
    work = difference(y, 0, D, s) if D else y

    for d in range(0, _D_MAX + 1):
        zd = difference(work, d, 0, s) if d else work
        if zd.size < 20:
            break
        if adf_test(zd).reject_unit_root:
            return d, D
    return _D_MAX, D


# ---------------------------------------------------------------------------
# Hannan-Rissanen regressions and tentative orders
# ---------------------------------------------------------------------------

def _long_ar(z: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """The centred series v = z - mean(z), and the order and residuals (NaN
    before the order) of a long AR fit to v; the residuals stand in for the
    innovations in the lagged regressions."""
    v = z - z.mean()
    n = v.size
    order = max(1, min(math.ceil(min(n / 10.0, 20.0)), n // 2 - 2))
    rows = np.arange(order, n)
    x = np.column_stack([v[rows - j] for j in range(1, order + 1)])
    beta, _ = _ols(x, v[rows])
    e = np.full(n, np.nan)
    e[rows] = v[rows] - x @ beta
    return v, order, e


def _lag_regression(v: np.ndarray, e: np.ndarray, rows: np.ndarray,
                    v_lags: Sequence[int], e_lags: Sequence[int]) -> tuple[np.ndarray, float]:
    """Least squares of v[rows] on the lagged values v[rows - j], j in
    ``v_lags``, then the lagged residuals e[rows - j], j in ``e_lags``: the
    coefficients in that order, and the RSS."""
    cols = [v[rows - j] for j in v_lags] + [e[rows - j] for j in e_lags]
    if not cols:
        return np.zeros(0), float(v[rows] @ v[rows])
    return _ols(np.column_stack(cols), v[rows])


def _bic_grid(v: np.ndarray, long_order: int, e: np.ndarray, p_max: int,
              q_max: int, step: int = 1) -> np.ndarray:
    """Regression BICs of every (p, q) cell, lags in multiples of ``step``,
    on the common sample that the largest cell allows."""
    rows = np.arange(max(long_order + step * q_max, step * p_max), v.size)
    n_c = rows.size
    table = np.empty((p_max + 1, q_max + 1))
    for p in range(p_max + 1):
        for q in range(q_max + 1):
            _, rss = _lag_regression(v, e, rows, range(step, step * p + 1, step),
                                     range(step, step * q + 1, step))
            table[p, q] = n_c * math.log(max(rss / n_c, 1e-300)) + (p + q) * math.log(n_c)
    return table


def _first_min_cell(table: np.ndarray) -> tuple[int, int]:
    """Row-major first cell whose BIC beats every earlier one by > 1e-12."""
    best = (math.inf, 0, 0)
    for (i, j), bic in np.ndenumerate(table):
        if bic < best[0] - 1e-12:
            best = (bic, i, j)
    return best[1], best[2]


def tentative_orders(z: Sequence[float] | np.ndarray, s: int = 12) -> TentativeOrders:
    """
    Minimum-BIC tentative ARMA orders for a stationary (differenced) series.

    A long AR fit supplies residual proxies; every (p, q) cell is then a
    least-squares regression on lagged values and lagged proxies, scored by
    BIC over a common sample.  Seasonal orders are picked the same way from
    lag-s terms, capped at ``_SEASONAL_MAX``.  Infeasibly short series
    shrink the grid with a warning.
    """
    z = np.asarray(z, dtype=float)
    n = z.size
    if n < 20:
        raise ValueError(f"need at least 20 observations, got {n}")
    v, long_order, e = _long_ar(z)
    if np.ptp(v) == 0.0:
        return TentativeOrders(0, 0, 0, 0)

    grid = _GRID_MAX
    while grid > 0 and n - (long_order + grid) < max(12, 4 * grid):
        warnings.warn("series too short for the full order grid; shrinking")
        grid -= 1
    p_star, q_star = _first_min_cell(_bic_grid(v, long_order, e, grid, grid))

    P_cap = _SEASONAL_MAX
    while P_cap > 0 and n - (long_order + P_cap * s) < 12:
        P_cap -= 1
    if P_cap == 0:
        if n >= 3 * s:
            warnings.warn("series too short for seasonal order detection")
        return TentativeOrders(p_star, q_star, 0, 0)

    P_star, Q_star = _first_min_cell(_bic_grid(v, long_order, e, P_cap, P_cap, step=s))
    return TentativeOrders(p_star, q_star, P_star, Q_star)


def hannan_rissanen_start(z: np.ndarray, orders: ArimaOrders) -> ArimaParams:
    """Least-squares starting values for CSS optimization."""
    o = orders
    lags_v = list(range(1, o.p + 1)) + [o.s * i for i in range(1, o.P + 1)]
    lags_e = list(range(1, o.q + 1)) + [o.s * j for j in range(1, o.Q + 1)]

    beta = np.zeros(len(lags_v) + len(lags_e))
    if lags_v or lags_e:
        v, long_order, e = _long_ar(z)
        start = max(long_order + max(lags_e, default=0), max(lags_v, default=0))
        rows = np.arange(start, v.size)
        if rows.size > beta.size + 2:
            beta, _ = _lag_regression(v, e, rows, lags_v, lags_e)
    phi, Phi, theta, Theta = np.split(beta, np.cumsum([o.p, o.P, o.q]))
    mu = float(np.mean(z))
    c = mu * float((1.0 - phi.sum()) * (1.0 - Phi.sum()))
    return ArimaParams(c=c, phi=phi, theta=theta, Phi=Phi, Theta=Theta)


# ---------------------------------------------------------------------------
# CSS objective
# ---------------------------------------------------------------------------

def _residuals_from_lags(v: np.ndarray, a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """
    One-step errors of the deviation series under full-lag coefficients.
    Both parts walk only the nonzero lags, in ascending order, so a zero
    coefficient never multiplies an infinite value into a NaN.
    """
    base = v.copy()
    for k, ak in enumerate(a.tolist(), start=1):
        if ak != 0.0:
            base[k:] -= ak * v[:-k]
    ma = [(j, mj) for j, mj in enumerate(m.tolist(), start=1) if mj != 0.0]
    if not ma:
        return base
    b = base.tolist()
    last = ma[-1][0]
    eps = []
    # Warm-up: lags past t reach before the series and are left out.
    for t, acc in enumerate(b[:last]):
        for j, mj in ma:
            if j > t:
                break
            acc -= mj * eps[t - j]
        eps.append(acc)
    # Steady state: every lag is in range.
    for t in range(last, len(b)):
        acc = b[t]
        for j, mj in ma:
            acc -= mj * eps[t - j]
        eps.append(acc)
    return np.asarray(eps)


def css_objective(z: Sequence[float] | np.ndarray, orders: ArimaOrders,
                  params: ArimaParams) -> float:
    """
    Conditional sum of squared one-step errors of ``params`` on the
    differenced series ``z``.  Non-stationary or non-invertible parameters
    return a large penalty value (the optimizer's rejection signal).
    """
    z = np.asarray(z, dtype=float)
    if params.phi.size != orders.p or params.theta.size != orders.q \
            or params.Phi.size != orders.P or params.Theta.size != orders.Q:
        raise ValueError("parameter lengths do not match the orders")
    if not (params.is_stationary and params.is_invertible):
        return _PENALTY
    no_events = np.zeros((z.size, 0))
    return _sum_of_squares(_css_residuals(z, no_events, orders, raw=True))(params.vector())


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

# Every coefficient vector, raw or in optimizer coordinates, is laid out
# [c, betas..., phi.., theta.., Phi.., Theta..]; the betas are the event
# regression coefficients, none for plain ARIMA.

def _coefficient_vector(params: ArimaParams, betas: Sequence[float] = ()) -> np.ndarray:
    return np.concatenate(([params.c], betas, params.phi, params.theta,
                           params.Phi, params.Theta))


def _pack(params: ArimaParams, betas: Sequence[float] = ()) -> np.ndarray:
    """Optimizer coordinates of ``params`` with event coefficients ``betas``."""
    return np.concatenate((
        [params.c],
        betas,
        _unconstrained_from_coefs(params.phi),
        _unconstrained_from_coefs(-params.theta),
        _unconstrained_from_coefs(params.Phi),
        _unconstrained_from_coefs(-params.Theta),
    ))


def _unpack(x: np.ndarray, orders: ArimaOrders, n_events: int = 0) -> ArimaParams:
    """Model parameters from optimizer coordinates [c, betas..., ARMA...]."""
    return ArimaParams(float(x[0]), *_LagLayout(orders).arma_coefs(x[1 + n_events:]))


def _fd_hessian(func, x0: np.ndarray, f0: float) -> np.ndarray:
    """Central finite-difference Hessian of ``func``, whose value at ``x0`` is ``f0``."""
    k = x0.size
    h = _FD_STEP * np.maximum(1.0, np.abs(x0))
    hess = np.empty((k, k))

    def at(*pairs) -> float:
        x = x0.copy()
        for i, sign in pairs:
            x[i] += sign * h[i]
        return func(x)

    for i in range(k):
        hess[i, i] = (at((i, 1)) - 2.0 * f0 + at((i, -1))) / h[i] ** 2
        for j in range(i + 1, k):
            val = (at((i, 1), (j, 1)) - at((i, 1), (j, -1))
                   - at((i, -1), (j, 1)) + at((i, -1), (j, -1))) / (4.0 * h[i] * h[j])
            hess[i, j] = hess[j, i] = val
    return hess


def _css_residuals(z: np.ndarray, x: np.ndarray, orders: ArimaOrders, raw: bool = False):
    """
    The one-step errors of regression with ARMA errors, z - x betas
    following the model, at a vector [c, betas..., ARMA...]; ``x`` has one
    differenced event regressor per column, none for ARIMA.  The ARMA part
    is raw coefficients with ``raw`` and optimizer coordinates otherwise.
    The errors are those of w - c / (1 - sum a), or None, the CSS penalty,
    when |1 - sum a| < 1e-10 or their sum of squares is not finite.  What
    does not depend on the point is fixed here, once per model.
    """
    n_events = x.shape[1]
    k = 1 + n_events
    if orders.n_coefficients == 1:
        # No ARMA part, so both coordinate systems agree: mu = c / (1 - 0) = c,
        # and the errors are w - c.
        def residuals(vec: np.ndarray) -> np.ndarray | None:
            eps = (z - x @ vec[1:k] if n_events else z) - float(vec[0])
            return eps if math.isfinite(float(eps @ eps)) else None
        return residuals

    layout = _LagLayout(orders)
    arma = (lambda u: layout.split(u.tolist())) if raw else layout.arma_coefs

    def residuals(vec: np.ndarray) -> np.ndarray | None:
        a, m = layout.coefs(*arma(vec[k:]))
        ar_at_one = 1.0 - a.sum()
        if abs(ar_at_one) < 1e-10:
            return None
        w = z - x @ vec[1:k] if n_events else z
        eps = _residuals_from_lags(w - float(vec[0]) / ar_at_one, a, m)
        return eps if math.isfinite(float(eps @ eps)) else None
    return residuals


def _sum_of_squares(residuals):
    """The CSS objective of a residual function: ``_PENALTY`` where it has none."""
    def objective(vec: np.ndarray) -> float:
        eps = residuals(vec)
        return _PENALTY if eps is None else float(eps @ eps)
    return objective


def _minimize_css(residuals, x0: np.ndarray, orders: ArimaOrders,
                  n_events: int = 0) -> MinimizeResult:
    """
    The CSS optimum from ``x0`` by Levenberg-Marquardt on the residuals.
    Where LM cannot finish, or ends with a partial autocorrelation on the
    transform's clip or at roots that fail the root check, the simplex from
    ``x0`` decides instead, as it did before LM.
    """
    result = levenberg_marquardt(residuals, x0)
    if result is not None:
        params = _unpack(result.x, orders, n_events)
        inside = np.all(np.abs(np.tanh(result.x[1 + n_events:])) < _PACF_CLIP)
        if inside and params.is_stationary and params.is_invertible:
            return result
    return nelder_mead(_sum_of_squares(residuals), x0)


def _css_finish(y: np.ndarray, n_interp: int, z: np.ndarray, x: np.ndarray,
                event_names: Sequence[str], orders: ArimaOrders,
                vec: np.ndarray) -> ArimaFit:
    """
    The fit of series ``y`` (``z`` differenced, ``x`` one differenced event
    regressor per column) at the optimizer point ``vec``: residuals, sigma2 =
    CSS/n, the BIC and standard errors from the finite-difference Hessian
    of the CSS in raw coefficient space, cov = 2 sigma2 H^{-1}.
    """
    o = orders
    n_events = x.shape[1]
    params = _unpack(vec, o, n_events)
    betas = vec[1:1 + n_events].copy()
    vec0 = _coefficient_vector(params, betas)
    raw_residuals = _css_residuals(z, x, o, raw=True)
    residuals = raw_residuals(vec0)
    if residuals is None:
        raise FitError(f"the CSS of {o.label()} is not finite at its optimum")
    css = float(residuals @ residuals)
    n_eff = z.size
    sigma2 = css / n_eff
    params.sigma2 = sigma2
    k = o.n_coefficients + n_events
    bic = n_eff * math.log(sigma2) + k * math.log(n_eff) if sigma2 > 0 else -math.inf

    std_errors = np.zeros(vec0.size)
    if sigma2 > 0:
        hess = _fd_hessian(_sum_of_squares(raw_residuals), vec0, css)
        diag = np.full(vec0.size, np.nan)
        if np.all(np.isfinite(hess)):
            diag = np.diag(2.0 * sigma2 * np.linalg.pinv(hess)).copy()
            diag[diag < 0] = np.nan
        std_errors = np.sqrt(diag)
    return ArimaFit(orders=o, params=params, std_errors=std_errors,
                    log_css=math.log(css) if css > 0 else -math.inf, bic=bic,
                    residuals=residuals, n_effective=n_eff, y=y,
                    n_interpolated=n_interp, betas=betas,
                    event_names=list(event_names))


def _degenerate_fit(y: np.ndarray, z: np.ndarray, orders: ArimaOrders,
                    n_interp: int) -> ArimaFit:
    """The fit of a series whose differenced series ``z`` is constant."""
    params = ArimaParams(c=float(z[0]), phi=np.zeros(orders.p),
                         theta=np.zeros(orders.q), Phi=np.zeros(orders.P),
                         Theta=np.zeros(orders.Q), sigma2=0.0)
    k = orders.n_coefficients
    return ArimaFit(orders=orders, params=params,
                    std_errors=np.zeros(k), log_css=-math.inf, bic=-math.inf,
                    residuals=np.zeros(z.size), n_effective=z.size, y=y,
                    n_interpolated=n_interp, degenerate=True)


def fit(y: Sequence[float] | np.ndarray, orders: ArimaOrders) -> ArimaFit:
    """
    Estimate a seasonal ARIMA by CSS minimization.

    Parameters
    ----------
    y : array_like, 1d
        The undifferenced series.  Interior missing values are linearly
        interpolated (the count is recorded on the returned fit).
    orders : ArimaOrders
        Model orders; differencing happens internally.

    Returns
    -------
    ArimaFit
        Estimated coefficients with standard errors from the finite-
        difference Hessian of the objective, residuals, sigma2 = CSS/n and
        the BIC.

    Notes
    -----
    The zero-event case of the CSS estimator behind ``fit_arimax``.
    Starting values come from Hannan-Rissanen least squares; coefficients
    are optimized through a partial-autocorrelation transform, so every
    point the optimizer visits is stationary and invertible.  The
    optimizer is Levenberg-Marquardt on the vector of one-step errors, with
    a forward-difference Jacobian.  A fit that it cannot finish, or that
    ends on the transform's clip (a unit root) or fails the root check,
    runs the Nelder-Mead simplex from the same start instead; its failure
    to converge or to pass the root check raises ``FitError``.  Standard
    errors come from the Hessian of the CSS at the optimum either way.
    """
    y = np.asarray(y, dtype=float)
    total_orders = orders.p + orders.q + orders.P + orders.Q + orders.d + orders.D * orders.s
    longest_lag = max(orders.p + orders.s * orders.P, orders.q + orders.s * orders.Q)
    if (y.size < 10 + total_orders
            or longest_lag >= y.size - orders.d - orders.D * orders.s):
        raise ValueError(f"series of length {y.size} too short for {orders.label()}")
    y, n_interp, z = _filled_differences(y, orders)
    if np.ptp(z) == 0.0:
        return _degenerate_fit(y, z, orders, n_interp)

    no_events = np.zeros((z.size, 0))
    residuals = _css_residuals(z, no_events, orders)
    x0 = _pack(hannan_rissanen_start(z, orders))
    result = _minimize_css(residuals, x0, orders)
    params = _unpack(result.x, orders)
    if not result.converged:
        raise FitError(
            f"CSS optimization did not converge for {orders.label()}",
            diagnostics={"best_objective": result.fun, "n_evals": result.n_evals,
                         "best_params": params})
    if not (params.is_stationary and params.is_invertible):
        raise FitError(f"optimum for {orders.label()} fails the root check")
    return _css_finish(y, n_interp, z, no_events, (), orders, result.x)


def auto_fit(y: Sequence[float] | np.ndarray, s: int = 12) -> ArimaFit:
    """
    Automatic pipeline: differencing selection, tentative orders, then an
    exhaustive minimum-BIC search bounded above by the tentative orders.
    Failed grid cells are skipped; the best feasible model is returned,
    with the count of values interpolated in ``y``.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 3 * s:
        raise ValueError(f"need at least {3 * s} observations, got {y.size}")
    y, n_interp = fill_missing(y)
    if np.ptp(y) == 0.0:
        return _degenerate_fit(y, y, ArimaOrders(0, 0, 0, 0, 0, 0, s), n_interp)

    d, D = select_differencing(y, s=s)
    z = difference(y, d, D, s)
    tentative = tentative_orders(z, s=s)

    best: ArimaFit | None = None
    failures: list[tuple[ArimaOrders, str]] = []
    for p, q, P, Q in itertools.product(*(range(bound + 1) for bound in tentative)):
        orders = ArimaOrders(p, d, q, P, D, Q, s)
        try:
            cand = fit(y, orders)
        except (FitError, ValueError) as exc:
            failures.append((orders, str(exc)))
            continue
        if best is None or cand.bic < best.bic - 1e-12:
            best = cand
    if best is None:
        raise FitError(f"all {len(failures)} candidate models failed",
                       diagnostics={"failures": failures})
    best.n_interpolated = n_interp
    return best


# ---------------------------------------------------------------------------
# Forecasting and simulation
# ---------------------------------------------------------------------------

def _psi_weights(a_full: np.ndarray, m_full: np.ndarray, h: int) -> np.ndarray:
    psi = np.zeros(h)
    psi[0] = 1.0
    for j in range(1, h):
        val = m_full[j - 1] if j - 1 < m_full.size else 0.0
        kmax = min(j, a_full.size)
        for k in range(1, kmax + 1):
            val += a_full[k - 1] * psi[j - k]
        psi[j] = val
    return psi


def _full_ar_with_differencing(orders: ArimaOrders, params: ArimaParams) -> np.ndarray:
    """AR lag coefficients of phi(B) Phi(B^s) (1-B)^d (1-B^s)^D."""
    poly = np.concatenate(([1.0], -_ar_ma_lag_coefs(orders, params)[0]))
    for lag in [1] * orders.d + [orders.s] * orders.D:
        poly = np.concatenate((poly, np.zeros(lag))) - np.concatenate((np.zeros(lag), poly))
    return -poly[1:]


def _arma_recursion(v: list[float], eps: list[float], a: list[float],
                    m: list[float]) -> list[float]:
    """
    Extend the deviation series ``v`` in place to the length of the shock
    series ``eps`` by v_t = eps_t + sum_k a_k v_{t-k} + sum_l m_l eps_{t-l},
    counting lags before index 0 as zero.
    """
    for t in range(len(v), len(eps)):
        acc = eps[t]
        for k in range(1, len(a) + 1):
            if a[k - 1] != 0.0 and t - k >= 0:
                acc += a[k - 1] * v[t - k]
        for l in range(1, len(m) + 1):
            if m[l - 1] != 0.0 and t - l >= 0:
                acc += m[l - 1] * eps[t - l]
        v.append(acc)
    return v


def _continuations(fit_result: ArimaFit, shocks: list[list[float]]) -> np.ndarray:
    """
    Continue the fitted series past its end on the original scale, one row
    per row of future shocks; zero shocks give the point forecast.
    """
    o = fit_result.orders
    params = fit_result.params
    chain, lags = _difference_chain(fit_result.y, o.d, o.D, o.s)
    a, m = _ar_ma_lag_coefs(o, params)
    ar_at_one = 1.0 - a.sum()
    mu = params.c / ar_at_one if ar_at_one != 0.0 else 0.0

    history = (chain[-1] - mu).tolist()
    residuals = fit_result.residuals.tolist()
    alist, mlist = a.tolist(), m.tolist()
    out = np.empty((len(shocks), len(shocks[0])))
    for i, row in enumerate(shocks):
        v = _arma_recursion(history.copy(), residuals + row, alist, mlist)
        out[i] = _integrate_extension(chain, lags, mu + np.asarray(v[len(history):]))
    return out


def forecast(fit_result: ArimaFit, h: int, level: float = 0.95) -> Forecast:
    """
    Iterated-expectation point forecasts with normal prediction intervals.

    The variance at horizon j is sigma2 * sum of the first j squared psi
    weights of the full (differenced) lag polynomial.
    """
    if h <= 0:
        raise ValueError(f"horizon must be positive, got {h}")
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    o = fit_result.orders
    params = fit_result.params
    point = _continuations(fit_result, [[0.0] * h])[0]

    a_full = _full_ar_with_differencing(o, params)
    psi = _psi_weights(a_full, _ar_ma_lag_coefs(o, params)[1], h)
    var = params.sigma2 * np.cumsum(psi**2)
    zq = normal_ppf(1.0 - (1.0 - level) / 2.0)
    half = zq * np.sqrt(np.maximum(var, 0.0))
    return Forecast(horizon=h, point=point, lower=point - half,
                    upper=point + half, level=level)


def simulate(orders: ArimaOrders, params: ArimaParams, n: int, seed: int) -> np.ndarray:
    """
    Draw a seeded realization of the model: ARMA recursion on Gaussian
    noise with a discarded burn-in, then d simple and D seasonal
    integrations from a zero history.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not (params.is_stationary and params.is_invertible):
        raise ValueError("simulation requires stationary/invertible parameters")
    if not math.isfinite(params.sigma2) or params.sigma2 < 0:
        raise ValueError("params.sigma2 must be set to a finite nonnegative value")
    sigma = math.sqrt(params.sigma2)
    a, m = _ar_ma_lag_coefs(orders, params)
    mu = params.c / (1.0 - a.sum())

    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, sigma, n + _BURNIN).tolist()
    v = _arma_recursion([], eps, a.tolist(), m.tolist())
    z = mu + np.asarray(v[_BURNIN:])
    lags = [orders.s] * orders.D + [1] * orders.d
    return _integrate_extension([*map(np.zeros, lags), z], lags, z)


def simulate_forecast_paths(fit_result: ArimaFit, h: int, n_paths: int,
                            seed: int) -> np.ndarray:
    """
    Conditional continuation paths from the end of the fitted series,
    shape (n_paths, h); used to check prediction-interval calibration.
    Paths drawn with zero shock variance equal ``forecast(...).point``.
    """
    if h <= 0 or n_paths <= 0:
        raise ValueError("h and n_paths must be positive")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(max(fit_result.params.sigma2, 0.0))
    return _continuations(fit_result, rng.normal(0.0, sigma, (n_paths, h)).tolist())


def ljung_box(residuals: Sequence[float] | np.ndarray, lag: int = 12,
              n_params: int = 0) -> TestResult:
    """Ljung-Box whiteness test of residual autocorrelations up to ``lag``."""
    x = np.asarray(residuals, dtype=float)
    if x.size <= lag:
        raise ValueError(f"need more than {lag} residuals, got {x.size}")
    n = x.size
    q = 0.0
    for k in range(1, lag + 1):
        rk = _acf_at_lag(x, k)
        q += rk * rk / (n - k)
    q *= n * (n + 2.0)
    df = max(lag - n_params, 1)
    return TestResult(statistic=q, df=(float(df),), p_value=chi2_sf(q, df),
                      alternative="greater")
