"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Every tolerance is pinned here; the simulation-based
criteria use fixed seed blocks so the suite is fully deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from rxgeo import arima, geo, syngen
from rxgeo.arima import ArimaOrders, ArimaParams
from rxgeo.cli import main
from rxgeo.intervention import EventInput, fit_arimax, its_analysis
from rxgeo.records import clean
from rxgeo.series import aggregate_monthly
from rxgeo.stats import one_way_anova, pct_change
from rxgeo._special import chi2_sf, f_sf, normal_sf, t_sf


def report_line(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_classification_partition():
    t0 = time.time()
    cfg = syngen.default_config()
    records = syngen.generate(cfg, 100_000, seed=101)
    classified = geo.classify_records(records)
    counts = classified.class_counts()
    partition_ok = (sum(counts.values()) == len(classified) == len(records)
                    and set(counts) == set(geo.ALL_CLASS_CODES))
    agree = sum(code == syngen.intended_class_code(r) for code, r
                in zip(classified.class_codes().tolist(), records.to_records()))
    elapsed = time.time() - t0
    ok = partition_ok and agree == len(records) and elapsed < 10.0
    report_line(1, ok, f"{len(records)} records, one of 16 codes each, "
                       f"intended==assigned {agree}/{len(records)}, "
                       f"runtime {elapsed:.1f}s < 10s")


def test_criterion_2_headline_arithmetic_and_risk_levels():
    change = pct_change(53.68, 51.09)
    arithmetic_ok = abs(change - 4.82) <= 0.01
    hr = [geo.risk_level(v).hazard_ratio for v in (0.0, 19.99, 20.0, 49.99,
                                                   50.0, 99.99, 100.0, 250.0)]
    hr_ok = hr == [1.0, 1.0, 1.44, 1.44, 3.73, 3.73, 8.87, 8.87]
    levels_ok = [geo.risk_level(v).level for v in (10, 45, 75, 120)] == [1, 2, 3, 4]
    ok = arithmetic_ok and hr_ok and levels_ok
    report_line(2, ok, f"pct_change(53.68, 51.09)={change:.4f}% (4.82 +- 0.01); "
                       "hazard ratios {1, 1.44, 3.73, 8.87} exact at boundaries")


def test_criterion_3_arima_recovery():
    t0 = time.time()
    ar = ArimaOrders(p=1)
    phis = []
    for seed in range(50):
        y = arima.simulate(ar, ArimaParams(c=0.0, phi=[0.6], sigma2=1.0),
                           500, seed=300 + seed)
        phis.append(arima.fit(y, ar).params.phi[0])
    phis = np.asarray(phis)
    mae = float(np.mean(np.abs(phis - 0.6)))
    share_phi = float(np.mean((phis >= 0.5) & (phis <= 0.7)))

    ma = ArimaOrders(d=1, q=1)
    thetas = []
    for seed in range(50):
        y = arima.simulate(ma, ArimaParams(c=0.0, theta=[0.5], sigma2=1.0),
                           500, seed=400 + seed)
        thetas.append(arima.fit(y, ma).params.theta[0])
    thetas = np.asarray(thetas)
    share_theta = float(np.mean((thetas >= 0.35) & (thetas <= 0.65)))
    elapsed = time.time() - t0
    ok = mae < 0.05 and share_phi >= 0.90 and share_theta >= 0.90 and elapsed < 60.0
    report_line(3, ok, f"AR(1): MAE={mae:.4f}<0.05, {share_phi:.0%} in [0.5,0.7]; "
                       f"MA(1): {share_theta:.0%} in [0.35,0.65]; "
                       f"runtime {elapsed:.1f}s < 60s")


def test_criterion_4_differencing_selection():
    rw_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(500 + seed)
        d, _ = arima.select_differencing(np.cumsum(rng.normal(size=200)))
        rw_hits += (d >= 1)
    ar_hits = 0
    ar = ArimaOrders(p=1)
    for seed in range(100):
        y = arima.simulate(ar, ArimaParams(c=0.0, phi=[0.5], sigma2=1.0),
                           200, seed=600 + seed)
        d, _ = arima.select_differencing(y)
        ar_hits += (d == 0)
    seasonal_hits = 0
    t = np.arange(240)
    for seed in range(10):
        rng = np.random.default_rng(700 + seed)
        y = 10.0 * np.sin(2 * np.pi * t / 12) + rng.normal(size=240)
        _, D = arima.select_differencing(y)
        seasonal_hits += (D == 1)
    ok = rw_hits >= 90 and ar_hits >= 90 and seasonal_hits == 10
    report_line(4, ok, f"random walk d>=1: {rw_hits}/100 (>=90); "
                       f"AR(1) d=0: {ar_hits}/100 (>=90); "
                       f"seasonal D=1: {seasonal_hits}/10 (deterministic)")


def test_criterion_5_forecast_calibration():
    ar = ArimaOrders(p=1)
    y = arima.simulate(ar, ArimaParams(c=2.0, phi=[0.6], sigma2=1.0),
                       300, seed=800)
    f = arima.fit(y, ar)
    h = 12
    fc = arima.forecast(f, h, level=0.95)
    paths = arima.simulate_forecast_paths(f, h, 1000, seed=801)
    coverage = float(np.mean((paths >= fc.lower) & (paths <= fc.upper)))
    ok = abs(coverage - 0.95) <= 0.04
    report_line(5, ok, f"95% interval coverage over 1000 simulated futures: "
                       f"{coverage:.1%} (95% +- 4pp)")


def test_criterion_6_intervention_power_and_size():
    power_hits = 0
    for seed in range(100):
        rng = np.random.default_rng(900 + seed)
        y = rng.normal(size=200)
        y[100:] += 5.0  # 5 sigma level shift
        fx = fit_arimax(y, ArimaOrders(), [EventInput("level_shift", 100)])
        c = fx.event_coefficients()[0]
        power_hits += (abs(c.estimate - 5.0) <= 1.0 and c.p_value < 0.001)

    false_pos = 0
    for seed in range(200):
        rng = np.random.default_rng(1100 + seed)
        fx = fit_arimax(rng.normal(size=200), ArimaOrders(),
                        [EventInput("level_shift", 100)])
        false_pos += (fx.event_coefficients()[0].p_value < 0.05)
    rate = false_pos / 200
    ok = power_hits >= 95 and abs(rate - 0.05) <= 0.04
    report_line(6, ok, f"5-sigma shift recovered within +-20% at p<0.001: "
                       f"{power_hits}/100 (>=95); null false-positive rate "
                       f"{rate:.1%} (5% +- 4pp)")


def test_criterion_7_end_to_end_its():
    t0 = time.time()
    cfg = syngen.default_config()
    joint_hits = 0
    n_seeds = 20
    for seed in range(n_seeds):
        records = syngen.generate(cfg, 100_000, seed=seed)
        kept, _ = clean(records)
        sig = {}
        for family in ("opioid", "benzodiazepine"):
            (series,) = aggregate_monthly(kept, group_by="overall", family=family)
            sig[family] = its_analysis(series).significant_events()
        opioid_ok = any(c.estimate < 0 for c in sig["opioid"])
        benzo_ok = len(sig["benzodiazepine"]) == 0
        joint_hits += (opioid_ok and benzo_ok)
    elapsed = time.time() - t0
    ok = joint_hits >= 18 and elapsed < 300.0
    report_line(7, ok, f"opioid negative effect detected AND control clean in "
                       f"{joint_hits}/{n_seeds} seeds (>=18); "
                       f"runtime {elapsed:.0f}s < 300s")


def test_criterion_8_statistics_oracles():
    res = one_way_anova([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    anova_ok = abs(res.statistic - 13.5) < 1e-9 and res.df == (1.0, 4.0)

    rng = np.random.default_rng(1300)
    t2_ok = True
    for _ in range(10):
        a = rng.normal(0, 1, 12)
        b = rng.normal(0.8, 1, 15)
        f = one_way_anova([a, b]).statistic
        na, nb = a.size, b.size
        sp2 = ((na - 1) * np.var(a, ddof=1) + (nb - 1) * np.var(b, ddof=1)) \
            / (na + nb - 2)
        t = (np.mean(a) - np.mean(b)) / math.sqrt(sp2 * (1 / na + 1 / nb))
        t2_ok &= abs(f - t * t) < 1e-9

    # five hand-computed tail references (closed forms)
    refs = [
        (t_sf(1.0, 1.0), 0.25),
        (t_sf(math.sqrt(2.0), 2.0), 0.5 - math.sqrt(2.0) / 4.0),
        (chi2_sf(3.0, 2.0), math.exp(-1.5)),
        (f_sf(3.0, 2.0, 4.0), 0.16),
        (normal_sf(0.0), 0.5),
    ]
    tails_ok = all(abs(got - want) < 1e-6 for got, want in refs)
    ok = anova_ok and t2_ok and tails_ok
    report_line(8, ok, "ANOVA F=13.5 df=(1,4) within 1e-9; k=2 F=t^2 within "
                       "1e-9; 5 hand-computed tails within 1e-6")


def test_criterion_9_pipeline_determinism(tmp_path):
    def run_pipeline(root):
        root.mkdir()
        steps = [
            ["simulate", "--n", "12000", "--seed", "42",
             "--out", str(root / "data.csv")],
            ["ingest", "--input", str(root / "data.csv"),
             "--out", str(root / "clean.csv"),
             "--report", str(root / "filter.json")],
            ["classify", "--input", str(root / "clean.csv"),
             "--out", str(root / "classified.csv")],
            ["aggregate", "--input", str(root / "classified.csv"),
             "--outdir", str(root / "series")],
            ["summary-table", "--input", str(root / "classified.csv"),
             "--outdir", str(root / "results")],
            ["its", "--input", str(root / "classified.csv"),
             "--outdir", str(root / "results")],
            ["report", "--results-dir", str(root / "results"),
             "--outdir", str(root / "report")],
        ]
        for argv in steps:
            assert main(argv) == 0, argv

    t0 = time.time()
    a, b = tmp_path / "runA", tmp_path / "runB"
    run_pipeline(a)
    run_pipeline(b)

    analytical = []
    for path in sorted(a.rglob("*")):
        if path.is_file() and "manifest" not in path.name:
            analytical.append(path.relative_to(a))
    assert analytical, "pipeline produced no outputs"
    diffs = [str(rel) for rel in analytical
             if (a / rel).read_bytes() != (b / rel).read_bytes()]
    ok = not diffs
    report_line(9, ok, f"two seed-42 pipeline runs byte-identical across "
                       f"{len(analytical)} analytical output files "
                       f"({time.time() - t0:.0f}s)"
                       + (f"; diffs: {diffs[:3]}" if diffs else ""))
