"""Reference checks for the internal tail-probability routines.

Closed-form cases pin the math; scipy runs alongside as an independent
cross-implementation oracle on dense grids.
"""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from rxgeo._special import (betainc, chi2_sf, f_sf, gammainc_upper, normal_cdf,
                            normal_ppf, normal_ppf_vec, normal_sf, t_cdf, t_ppf, t_sf)

# Hand-derivable reference values (exact closed forms):
#  - t with 1 df is Cauchy: P(T > 1) = 1/2 - arctan(1)/pi = 1/4
#  - t with 2 df: P(T > t) = 1/2 - t / (2 sqrt(2 + t^2))
#  - chi-square with 2 df: P(X > x) = exp(-x/2)
#  - F(2, d2): P(F > f) = (1 + 2 f / d2)^(-d2/2)
#  - chi-square with 1 df: P(X > x) = erfc(sqrt(x/2))
HAND_CASES = [
    ("t_sf(1, 1)", t_sf(1.0, 1.0), 0.25),
    ("t_sf(sqrt2, 2)", t_sf(math.sqrt(2.0), 2.0), 0.5 - math.sqrt(2.0) / 4.0),
    ("chi2_sf(3, 2)", chi2_sf(3.0, 2.0), math.exp(-1.5)),
    ("f_sf(3, 2, 4)", f_sf(3.0, 2.0, 4.0), 2.5 ** -2),
    ("chi2_sf(4, 1)", chi2_sf(4.0, 1.0), math.erfc(math.sqrt(2.0))),
    ("normal_sf(0)", normal_sf(0.0), 0.5),
]


@pytest.mark.parametrize("label,got,expected", HAND_CASES)
def test_hand_computed_tails(label, got, expected):
    assert abs(got - expected) < 1e-6, label
    assert abs(got - expected) < 1e-13, label  # documented accuracy target


def test_normal_against_reference():
    for x in np.linspace(-8, 8, 81):
        assert abs(normal_cdf(x) - scipy.stats.norm.cdf(x)) < 1e-14
        assert abs(normal_sf(x) - scipy.stats.norm.sf(x)) < 1e-14


def test_normal_ppf_roundtrip_and_reference():
    for p in [1e-12, 1e-6, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 1 - 1e-9]:
        x = normal_ppf(p)
        assert abs(normal_cdf(x) - p) < 1e-12 * max(1.0, abs(x))
        assert abs(x - scipy.stats.norm.ppf(p)) < 1e-9
    assert normal_ppf(0.5) == pytest.approx(0.0, abs=1e-15)


def test_normal_ppf_vec_matches_reference():
    p = np.linspace(1e-6, 1 - 1e-6, 20011)
    vec = normal_ppf_vec(p)
    ref = scipy.stats.norm.ppf(p)
    assert np.max(np.abs(vec - ref)) < 1e-8  # documented sampling-grade accuracy


def test_betainc_grid_against_scipy():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = rng.uniform(0.1, 50)
        b = rng.uniform(0.1, 50)
        x = rng.uniform(0, 1)
        assert abs(betainc(a, b, x) - scipy.special.betainc(a, b, x)) < 1e-12


def test_betainc_symmetry_and_bounds():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a, b = rng.uniform(0.2, 20, 2)
        x = rng.uniform(0, 1)
        assert abs(betainc(a, b, x) + betainc(b, a, 1 - x) - 1.0) < 1e-12
    assert betainc(2.0, 3.0, 0.0) == 0.0
    assert betainc(2.0, 3.0, 1.0) == 1.0


def test_gammainc_against_scipy():
    rng = np.random.default_rng(2)
    for _ in range(200):
        a = rng.uniform(0.1, 60)
        x = rng.uniform(0, 100)
        assert abs(gammainc_upper(a, x) - scipy.special.gammaincc(a, x)) < 1e-12


def test_t_and_f_tails_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(200):
        df = rng.uniform(1, 200)
        t = rng.normal(0, 3)
        assert abs(t_sf(t, df) - scipy.stats.t.sf(t, df)) < 1e-12
        d1, d2 = rng.uniform(1, 50, 2)
        f = rng.uniform(0, 10)
        assert abs(f_sf(f, d1, d2) - scipy.stats.f.sf(f, d1, d2)) < 1e-12


def test_t_ppf_against_scipy():
    for df in (1, 2, 5, 30, 120):
        for p in (0.6, 0.9, 0.95, 0.975, 0.995):
            assert abs(t_ppf(p, df) - scipy.stats.t.ppf(p, df)) < 1e-8
    assert t_ppf(0.5, 7) == 0.0
    assert t_ppf(0.25, 9) == pytest.approx(-t_ppf(0.75, 9), abs=1e-12)


def test_t_ppf_solves_each_argument_pair_once(monkeypatch):
    from rxgeo import _special
    t_ppf.cache_clear()
    calls = []

    def counted(t, df):
        calls.append(t)
        return t_cdf(t, df)
    monkeypatch.setattr(_special, "t_cdf", counted)
    first = t_ppf(0.975, 17)
    solved = len(calls)
    assert solved > 10
    assert t_ppf(0.975, 17) == first and len(calls) == solved
    assert t_ppf.__wrapped__(0.975, 17) == first and len(calls) == 2 * solved
    assert t_ppf(0.975, 17.0) == first and len(calls) == 3 * solved  # typed: solved again


def test_t_sf_handles_extremes():
    assert t_sf(math.inf, 5) == 0.0
    assert t_sf(-math.inf, 5) == 1.0
    assert t_cdf(0.0, 3) == pytest.approx(0.5, abs=1e-15)


def test_domain_errors():
    with pytest.raises(ValueError):
        betainc(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        betainc(1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0.0)
    with pytest.raises(ValueError):
        normal_ppf(1.5)
    with pytest.raises(ValueError):
        t_ppf(0.5, -1)
