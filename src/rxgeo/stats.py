"""Classical inference: t-based confidence intervals, one-way ANOVA,
one-sided t-tests against dose thresholds, and pre/post percent change."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._special import f_sf, t_ppf, t_sf


@dataclass(frozen=True)
class MeanCI:
    """Sample mean with a two-sided t confidence interval."""

    mean: float
    lo: float
    hi: float
    level: float
    n: int


@dataclass(frozen=True)
class TestResult:
    statistic: float
    df: tuple[float, ...]
    p_value: float
    alternative: str  # "greater" | "two_sided"


def _sample(values) -> tuple[int, float, float]:
    """The size, mean and sample SD of ``values``: at least 2 finite numbers."""
    x = np.asarray(values, dtype=float)
    if x.size < 2:
        raise ValueError(f"need at least 2 values, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ValueError("values must be finite")
    return int(x.size), float(np.mean(x)), float(np.std(x, ddof=1))


def mean_ci(values, level: float = 0.95) -> MeanCI:
    """
    Mean of ``values`` with a t-distribution CI: mean +/- t_{1-a/2, n-1} * sd/sqrt(n).
    """
    n, m, sd = _sample(values)
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be in (0, 1), got {level}")
    half = t_ppf(1.0 - (1.0 - level) / 2.0, n - 1) * sd / math.sqrt(n)
    return MeanCI(mean=m, lo=m - half, hi=m + half, level=level, n=n)


def one_way_anova(groups) -> TestResult:
    """
    One-way ANOVA across ``groups`` (each a sequence of >= 2 finite values).

    F = MS_between / MS_within with (k-1, N-k) degrees of freedom; the
    p-value is the upper F tail.  A completely constant data set yields
    F = 0, p = 1.
    """
    arrays = [np.asarray(g, dtype=float) for g in groups]
    if len(arrays) < 2:
        raise ValueError(f"need at least 2 groups, got {len(arrays)}")
    sizes, means, _ = zip(*map(_sample, arrays))

    k = len(arrays)
    n_total = sum(sizes)
    grand = sum(float(np.sum(g)) for g in arrays) / n_total
    ss_between = sum(n * (m - grand) ** 2 for n, m in zip(sizes, means))
    ss_within = sum(float(np.sum((g - m) ** 2)) for g, m in zip(arrays, means))
    df = (float(k - 1), float(n_total - k))

    if ss_within == 0.0:
        if ss_between == 0.0:
            return TestResult(statistic=0.0, df=df, p_value=1.0, alternative="greater")
        return TestResult(statistic=math.inf, df=df, p_value=0.0, alternative="greater")
    f = (ss_between / df[0]) / (ss_within / df[1])
    return TestResult(statistic=f, df=df, p_value=f_sf(f, df[0], df[1]), alternative="greater")


def t_test_greater(values, mu0: float) -> TestResult:
    """
    One-sample, one-sided t-test of H1: mean > ``mu0``.

    With zero sample SD the statistic degenerates: the p-value is set to
    0.5 when the mean equals ``mu0`` (no evidence either way), and to 0 or
    1 according to the sign of the difference otherwise.
    """
    n, m, sd = _sample(values)
    df = (float(n - 1),)
    if sd == 0.0:
        if m == mu0:
            return TestResult(statistic=0.0, df=df, p_value=0.5, alternative="greater")
        stat = math.inf if m > mu0 else -math.inf
        return TestResult(statistic=stat, df=df, p_value=0.0 if m > mu0 else 1.0,
                          alternative="greater")
    t = (m - mu0) / (sd / math.sqrt(n))
    return TestResult(statistic=t, df=df, p_value=t_sf(t, n - 1), alternative="greater")


def pct_change(pre_mean: float, post_mean: float) -> float:
    """Percent reduction from ``pre_mean`` to ``post_mean``."""
    if pre_mean == 0:
        raise ValueError("pre_mean must be nonzero")
    return 100.0 * (pre_mean - post_mean) / pre_mean
