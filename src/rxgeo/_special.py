"""Tail probabilities and quantiles for the normal, t, F and chi-square laws.

Everything here is scalar float math built on the regularized incomplete
beta and gamma functions, evaluated with the classic series / continued
fraction split (Lentz's method, as in Numerical Recipes ch. 6).  Target
accuracy is 1e-12 relative, which the test suite checks against closed-form
values and an independent reference implementation.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_MAX_ITER = 300
_EPS = 1e-15
_TINY = 1e-300


def normal_cdf(x: float) -> float:
    """Standard normal lower-tail probability."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_sf(x: float) -> float:
    """Standard normal upper-tail probability."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


# Acklam's rational approximation of the normal quantile: central form in
# q = p - 0.5, lower-tail form in q = sqrt(-2 log p), switching at _P_LOW.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def _acklam_central(q):
    """Acklam's central form at q = p - 0.5 (a float or an array)."""
    r = q * q
    return (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
        (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)


def _acklam_tail(q):
    """Acklam's lower-tail form at q = sqrt(-2 log p) (a float or an array);
    the upper tail is its negation at q = sqrt(-2 log(1 - p))."""
    return (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
        ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)


def normal_ppf(p: float) -> float:
    """
    Standard normal quantile.

    Acklam's rational approximation refined with one Halley step against
    ``erfc``; accurate to ~1e-15 over (0, 1).
    """
    if not 0.0 < p < 1.0:
        if p == 0.0:
            return -math.inf
        if p == 1.0:
            return math.inf
        raise ValueError(f"p must be in [0, 1], got {p}")

    if p < _P_LOW:
        x = _acklam_tail(math.sqrt(-2.0 * math.log(p)))
    elif p <= 1.0 - _P_LOW:
        x = _acklam_central(p - 0.5)
    else:
        x = -_acklam_tail(math.sqrt(-2.0 * math.log(1.0 - p)))

    # One Halley refinement step.
    e = normal_cdf(x) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    x = x - u / (1.0 + x * u / 2.0)
    return x


def normal_ppf_vec(p):
    """
    Vectorized Acklam approximation of the normal quantile (~1e-9 absolute).

    Used for bulk inverse-CDF sampling, where that precision is far below
    sampling noise; inference code uses the refined scalar ``normal_ppf``.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("all probabilities must lie strictly inside (0, 1)")

    out = np.empty_like(p)
    lo = p < _P_LOW
    hi = p > 1.0 - _P_LOW
    mid = ~(lo | hi)

    if np.any(lo):
        out[lo] = _acklam_tail(np.sqrt(-2.0 * np.log(p[lo])))
    if np.any(hi):
        out[hi] = -_acklam_tail(np.sqrt(-2.0 * np.log(1.0 - p[hi])))
    if np.any(mid):
        out[mid] = _acklam_central(p[mid] - 0.5)
    return out


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise RuntimeError(f"incomplete beta CF failed to converge (a={a}, b={b}, x={x})")


def betainc(a: float, b: float, x: float) -> float:
    """
    Regularized incomplete beta function I_x(a, b).

    Parameters
    ----------
    a, b : float
        Positive shape parameters.
    x : float
        Evaluation point in [0, 1].
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _gamma_series(a: float, x: float) -> float:
    """Lower regularized incomplete gamma P(a, x) by series, for x < a + 1."""
    ap = a
    total = 1.0 / a
    delta = total
    for _ in range(_MAX_ITER):
        ap += 1.0
        delta *= x / ap
        total += delta
        if abs(delta) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise RuntimeError(f"incomplete gamma series failed to converge (a={a}, x={x})")


def _gamma_cf(a: float, x: float) -> float:
    """Upper regularized incomplete gamma Q(a, x) by CF, for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise RuntimeError(f"incomplete gamma CF failed to converge (a={a}, x={x})")


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x)."""
    if a <= 0.0:
        raise ValueError("a must be positive")
    if x < 0.0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def t_sf(t: float, df: float) -> float:
    """Student-t upper-tail probability P(T > t) with ``df`` degrees of freedom."""
    if df <= 0.0:
        raise ValueError("df must be positive")
    if math.isnan(t):
        return math.nan
    if math.isinf(t):
        return 0.0 if t > 0 else 1.0
    if t < 0.0:
        return 1.0 - t_sf(-t, df)
    x = df / (df + t * t)
    return 0.5 * betainc(df / 2.0, 0.5, x)


def t_cdf(t: float, df: float) -> float:
    """Student-t lower-tail probability."""
    return 1.0 - t_sf(t, df)


@lru_cache(maxsize=None, typed=True)
def t_ppf(p: float, df: float) -> float:
    """
    Student-t quantile: the t with P(T <= t) = p.

    Bracketing bisection on the monotone CDF, refined until the bracket
    width falls below 1e-13 relative.  The function is pure, so each
    ``(p, df)`` is solved once per process and then read from a cache, by
    argument type too: a numpy ``df`` gives a numpy float, a Python one a
    Python float, as uncached.
    """
    if df <= 0.0:
        raise ValueError("df must be positive")
    if not 0.0 < p < 1.0:
        if p == 0.0:
            return -math.inf
        if p == 1.0:
            return math.inf
        raise ValueError(f"p must be in [0, 1], got {p}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_ppf(1.0 - p, df)

    lo = 0.0
    hi = max(1.0, normal_ppf(p) * (1.0 + 8.0 / df) + 1.0)
    while t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError("t quantile bracket expansion failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def f_sf(f: float, df1: float, df2: float) -> float:
    """F-distribution upper-tail probability P(F > f)."""
    if df1 <= 0.0 or df2 <= 0.0:
        raise ValueError("degrees of freedom must be positive")
    if f <= 0.0:
        return 1.0
    if math.isinf(f):
        return 0.0
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def chi2_sf(x: float, df: float) -> float:
    """Chi-square upper-tail probability P(X > x)."""
    if df <= 0.0:
        raise ValueError("df must be positive")
    if x <= 0.0:
        return 1.0
    return gammainc_upper(df / 2.0, x / 2.0)
