import dataclasses
import io
import math
from datetime import date

import numpy as np
import pytest

import syngen_reference
from rxgeo import geo, syngen
from rxgeo._special import chi2_sf
from rxgeo.records import CSV_COLUMNS, parse_csv, write_csv
from rxgeo.series import MonthKey, RecordTable


def single_class_config(profile, **overrides):
    cfg = syngen.ScenarioConfig(trend_slope=0.0, seasonal_amplitude=0.0,
                                noise_sd=0.0)
    for k, v in overrides.items():
        setattr(cfg, k, v)
    cfg.families = {"opioid": syngen.FamilySettings(1.0, 1.0, [profile])}
    return cfg


# --- default config -----------------------------------------------------------------

def test_default_config_profiles():
    cfg = syngen.default_config()
    opioid = cfg.families["opioid"]
    benzo = cfg.families["benzodiazepine"]
    by_code = {p.class_code: p for p in opioid.profiles}
    assert len(opioid.profiles) == 16
    assert by_code["32"].sd_mme == 1153.52
    assert by_code["00"].mean_days == 14.89
    assert all(p.post_policy_multiplier == 1.0 for p in benzo.profiles)
    expected_mult = syngen.DEFAULT_POST_MEAN / syngen.DEFAULT_PRE_MEAN
    assert all(p.post_policy_multiplier == pytest.approx(expected_mult)
               for p in opioid.profiles)
    assert opioid.shares().sum() == pytest.approx(1.0, abs=1e-9)


def test_default_config_pre_mean_calibration():
    cfg = syngen.default_config()
    t = RecordTable.from_table(syngen.generate(cfg, 150_000, seed=3))
    pre = t.mme_day[(t.drug_family == "opioid")
                    & (t.month_index < cfg.policy_month.index)]
    assert np.mean(pre) == pytest.approx(syngen.DEFAULT_PRE_MEAN, rel=0.02)


def test_config_json_roundtrip():
    cfg = syngen.default_config()
    d = syngen.config_to_dict(cfg)
    back = syngen.config_from_dict(d)
    assert back.start == cfg.start and back.end == cfg.end
    assert back.families["opioid"].profiles == cfg.families["opioid"].profiles
    assert syngen.config_to_dict(back) == d


def test_omitted_month_factor_knobs_read_as_the_dataclass_defaults():
    # config_from_dict used to restate 0.0 for each omitted knob, while
    # ScenarioConfig declared 0.02 and 0.01; the built-in scenario sets those.
    knobs = ("trend_slope", "seasonal_amplitude", "noise_sd")
    d = {k: v for k, v in syngen.config_to_dict(syngen.default_config()).items()
         if k not in knobs}
    back, default = syngen.config_from_dict(d), syngen.ScenarioConfig()
    assert [getattr(back, k) for k in knobs] == [getattr(default, k) for k in knobs]
    assert [getattr(syngen.default_config(), k) for k in knobs] == [0.0, 0.02, 0.01]


def test_config_validation():
    cfg = syngen.default_config()
    cfg.policy_month = MonthKey(2030, 1)
    with pytest.raises(ValueError):
        cfg.validate()


# --- generate -----------------------------------------------------------------------

def test_generate_deterministic_per_seed():
    cfg = syngen.default_config()
    a = syngen.generate(cfg, 500, seed=4)
    b = syngen.generate(cfg, 500, seed=4)
    assert a.to_records() == b.to_records()
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_csv(a, buf_a)
    write_csv(b, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()
    c = syngen.generate(cfg, 500, seed=5)
    assert a.to_records() != c.to_records()


def test_generate_classify_agreement_1e4():
    cfg = syngen.default_config()
    table = syngen.generate(cfg, 10_000, seed=6)
    classified = geo.classify_records(table)
    agree = sum(code == syngen.intended_class_code(r) for code, r
                in zip(classified.class_codes().tolist(), table.to_records()))
    assert agree == len(classified)


def test_generate_days_supply_calibration():
    prof = syngen.ClassProfile("00", 1.0, 14.89, 4.87, 310.46, 48.88, 1.0)
    table = syngen.generate(single_class_config(prof), 100_000, seed=7)
    days = table.days_supply.astype(float)
    assert np.mean(days) == pytest.approx(14.89, rel=0.02)
    assert np.min(days) >= 1


def test_generate_mme_day_hits_target():
    prof = syngen.ClassProfile("32", 1.0, 20.06, 7.51, 1153.52, 96.50, 1.0)
    table = syngen.generate(single_class_config(prof), 100_000, seed=8)
    vals = table.mme_per_day()
    assert np.mean(vals) == pytest.approx(96.50, rel=0.02)
    assert np.min(table.mme_total) >= 0.0


def test_generate_post_policy_multiplier_ratio():
    prof = syngen.ClassProfile("00", 1.0, 14.89, 4.87, 310.46, 48.88, 0.9)
    t = RecordTable.from_table(syngen.generate(single_class_config(prof), 100_000, seed=9))
    post = t.month_index >= MonthKey(2018, 5).index
    ratio = np.mean(t.mme_day[post]) / np.mean(t.mme_day[~post])
    assert ratio == pytest.approx(0.9, rel=0.03)


def test_generate_class_share_chi_square():
    cfg = syngen.default_config()
    shares = cfg.families["opioid"].shares()
    for seed in (10, 11, 12):
        table = syngen.generate(cfg, 130_000, seed=seed)
        recs = table.take(table.drug_family == "opioid").to_records()
        codes = [syngen.intended_class_code(r) for r in recs]
        n = len(codes)
        stat = 0.0
        for p, prof in zip(shares, cfg.families["opioid"].profiles):
            observed = sum(1 for c in codes if c == prof.class_code)
            expected = n * p
            stat += (observed - expected) ** 2 / expected
        p_value = chi2_sf(stat, 15)
        assert p_value > 0.01, f"seed {seed}: chi2={stat:.1f}"


def test_generate_records_are_clean_and_monthly_poisson():
    cfg = syngen.default_config()
    recs = syngen.generate(cfg, 30_000, seed=13).to_records()
    assert all(r.days_supply >= 1 for r in recs)
    assert all(r.mme_total >= 0 for r in recs)
    assert all(r.patient.is_valid and r.prescriber.is_valid and r.dispenser.is_valid
               for r in recs)
    months = {MonthKey.from_date(r.fill_date).index for r in recs}
    assert min(months) >= cfg.start.index and max(months) <= cfg.end.index
    # counts fluctuate around the mean (Poisson), not fixed
    counts = {}
    for r in recs:
        counts[MonthKey.from_date(r.fill_date).index] = \
            counts.get(MonthKey.from_date(r.fill_date).index, 0) + 1
    assert len(set(counts.values())) > 1


def test_generate_families_and_serialization():
    cfg = syngen.default_config()
    table = syngen.generate(cfg, 2000, seed=14)
    assert set(table.drug_family.tolist()) == {"opioid", "benzodiazepine"}
    first5 = table.take(np.arange(len(table)) < 5)
    buf = io.StringIO()
    write_csv(first5, buf)
    text = buf.getvalue()
    assert "opioid" in text or "benzodiazepine" in text
    parsed, errors = parse_csv(io.StringIO(text))
    assert not errors and parsed.to_records() == first5.to_records()


def test_generate_rejects_bad_input():
    cfg = syngen.default_config()
    with pytest.raises(ValueError):
        syngen.generate(cfg, 0, seed=1)


def test_class32_summary_ci_and_threshold_test():
    # a scenario calibrated to the highest-dose class profile: the summary
    # row's CI lower bound clears 90 MME/day and the one-sided test against
    # 90 is significant on monthly means
    prof = syngen.ClassProfile("32", 1.0, 20.06, 7.51, 1153.52, 96.50, 1.0)
    cfg = single_class_config(prof)
    classified = geo.classify_records(syngen.generate(cfg, 30_000, seed=16))

    from rxgeo.series import aggregate_monthly, summarize_classes
    from rxgeo.stats import t_test_greater

    rows = {r.class_code: r for r in summarize_classes(classified)}
    ci = rows["32"].mean_mme_day
    assert ci is not None
    assert ci.lo > 90.0

    (series,) = aggregate_monthly(classified, group_by="class")
    monthly = [p.mean_mme_day for p in series.points if p.n_records > 0]
    assert t_test_greater(monthly, 90.0).p_value < 0.05


def test_class00_post_drop_outside_pre_ci():
    # configured -10% post effect: the post window mean falls below the pre
    # mean and outside the pre CI
    prof = syngen.ClassProfile("00", 1.0, 14.89, 4.87, 310.46, 48.88, 0.9)
    cfg = single_class_config(prof)
    classified = geo.classify_records(syngen.generate(cfg, 40_000, seed=17))

    from rxgeo.series import pre_post_table

    table = pre_post_table(classified)
    pre, post = table["00"]
    assert post.mean < pre.mean
    assert post.mean < pre.lo
    assert len(table) == 16


def test_truncnorm_location_solver():
    # solved location reproduces the requested truncated mean
    for target, sigma in ((50.0, 30.0), (800.0, 310.0), (10.0, 40.0)):
        mu = syngen._solve_truncnorm_location(target, sigma)
        got = syngen._truncnorm_mean(mu, sigma, 0.0)
        assert got == pytest.approx(target, rel=1e-8)


def test_mean_inverse_days_against_monte_carlo():
    rng = np.random.default_rng(15)
    mean, sd = 14.89, 4.87
    analytic = syngen._mean_inverse_days(mean, sd)
    # simulate the same rounded truncated draw
    p_lo = 0.5 * math.erfc(-(0.5 - mean) / sd / math.sqrt(2))
    u = rng.uniform(p_lo, 1.0, 400_000)
    from rxgeo._special import normal_ppf_vec
    draws = np.maximum(1, np.floor(mean + sd * normal_ppf_vec(u) + 0.5).astype(int))
    assert analytic == pytest.approx(float(np.mean(1.0 / draws)), rel=5e-3)


# --- oracle: the month-at-a-time generator against the block-by-block loop ---------

def _assert_bit_identical(got, want):
    assert got.record_id.dtype == object and got.record_id.tolist() == list(want.record_id)
    for col in CSV_COLUMNS[1:]:
        a, b = getattr(got, col), getattr(want, col)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), col
        assert a.tobytes() == b.tobytes(), col


def _scenario(**changes):
    """The default scenario with top-level fields, class fields (a dict per
    class code, both families) or families (a list of names) changed."""
    cfg = syngen.default_config()
    for code, fields in changes.pop("classes", {}).items():
        for fam in cfg.families.values():
            fam.profiles = [dataclasses.replace(p, **fields) if p.class_code == code else p
                            for p in fam.profiles]
    if "families" in changes:
        cfg.families = {name: cfg.families[name] for name in changes.pop("families")}
    return dataclasses.replace(cfg, **changes)


@pytest.mark.parametrize("n", [1_000, 25_000, 100_000])
@pytest.mark.parametrize("seed", [42, 1234, 7])
def test_generate_matches_block_by_block_loop_on_default_config(n, seed):
    cfg = syngen.default_config()
    _assert_bit_identical(syngen.generate(cfg, n, seed), syngen_reference.generate(cfg, n, seed))


# The seed each scenario below is drawn with.
_SCENARIO_SEEDS = {"noise-trend-season-multipliers": 3, "zero-share-class-and-empty-months": 11,
                   "no-records-at-all": 2, "benzodiazepine-only": 9, "opioid-only-late-policy": 2}


@pytest.mark.parametrize("name,cfg,n", [
    ("noise-trend-season-multipliers",
     _scenario(noise_sd=0.2, trend_slope=-0.004, seasonal_amplitude=0.3,
               classes={"30": {"post_policy_multiplier": 1.6},
                        "33": {"post_policy_multiplier": 2.5},
                        "01": {"post_policy_multiplier": 0.0}}), 20_000),
    ("zero-share-class-and-empty-months",
     _scenario(classes={"03": {"record_share": 0.0}, "12": {"record_share": 0.0}}),
     150),
    ("no-records-at-all", _scenario(), 1),
    ("benzodiazepine-only", _scenario(families=["benzodiazepine"]), 5_000),
    ("opioid-only-late-policy", _scenario(families=["opioid"],
                                          policy_month=MonthKey(2021, 11)), 5_000),
])
def test_generate_matches_block_by_block_loop_on_scenarios(name, cfg, n):
    seed = _SCENARIO_SEEDS[name]
    got, want = syngen.generate(cfg, n, seed), syngen_reference.generate(cfg, n, seed)
    _assert_bit_identical(got, want)
    if name == "zero-share-class-and-empty-months":
        months = {MonthKey.from_date(d).index for d in map(date.fromordinal, got.fill_date)}
        assert 0 < len(months) < cfg.n_months()
        assert not any(i.endswith(("-03", "-12")) for i in got.record_id)
    if name == "no-records-at-all":
        assert len(got) == 0


# --- the days-supply distribution vs. its reference -------------------------------

def _hex(value):
    """Every float in a nest of tuples, lists and arrays as float.hex."""
    if isinstance(value, (tuple, list)):
        return [_hex(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_hex(v) for v in value.tolist()]
    return float(value).hex()


_DEFAULT_DAYS = [(p.mean_days, p.sd_days) for fam in syngen.default_config().families.values()
                 for p in fam.profiles]


@pytest.mark.parametrize("mean,sd", _DEFAULT_DAYS + [
    (mean, sd) for mean in (-3.0, 0.0, 0.5, 1.0, 2.7, 7.66, 15.0, 30.0, 90.0)
    for sd in (0.05, 0.3, 1.0, 3.15, 7.51, 20.0)])
def test_days_distribution_matches_its_reference(mean, sd):
    # syngen_reference keeps the loop that took each edge's CDF twice; the
    # generator oracle cannot see a change here, as both of its sides call
    # class_draws.
    assert len(_DEFAULT_DAYS) == 32

    def outcome(module):
        try:
            ks, probs = module._rounded_days_distribution(mean, sd)
            return ks.tolist(), _hex(probs), float.hex(module._mean_inverse_days(mean, sd))
        except ValueError as exc:  # a distribution with no mass at 1 day or more
            return str(exc)
    assert outcome(syngen) == outcome(syngen_reference)


@pytest.mark.parametrize("cfg", [syngen.default_config(),
                                 _scenario(classes={"32": {"sd_days": 0.2},
                                                    "10": {"mean_days": 1.0}})])
def test_class_draws_match_the_reference_days_distribution(cfg, monkeypatch):
    got = {name: _hex(draws) for name, draws in cfg.class_draws().items()}
    monkeypatch.setattr(syngen, "_mean_inverse_days", syngen_reference._mean_inverse_days)
    assert got == {name: _hex(draws) for name, draws in cfg.class_draws().items()}
