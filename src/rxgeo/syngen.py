"""Seeded synthetic prescription-record generator.

Scenarios are calibrated per class: days of supply and total MME are drawn
from truncated normals whose location is solved so that each class's mean
MME/day lands on its configured target, stakeholder coordinates are placed
on the sphere so the geometric classifier reproduces the intended class
code exactly, and a per-class post-policy multiplier supplies the ground-
truth intervention effect for end-to-end verification.
"""

from __future__ import annotations

import calendar
import math
from dataclasses import dataclass, field, fields, asdict
from datetime import date
from typing import Iterator

import numpy as np

from ._special import normal_cdf, normal_ppf_vec
from .geo import ALL_CLASS_CODES, EARTH_RADIUS_MILES
from .records import FAMILIES, PrescriptionRecord, TransactionTable
from .series import MonthKey, DEFAULT_POLICY_MONTH

# Per-class defaults: record share, days-supply moments, the spread of the
# total-MME draw, and the mean MME/day the generator is calibrated to
# reproduce (the total-MME location is solved from it).
_DEFAULT_CLASS_TABLE = (
    # code, share,  mean_days, sd_days, sd_mme,  target_mme_day
    ("00", 12.05, 14.89, 4.87, 310.46, 48.88),
    ("01", 35.76, 15.05, 5.09, 292.38, 46.90),
    ("02", 3.87, 16.04, 4.91, 304.97, 48.66),
    ("03", 40.65, 15.40, 5.15, 302.02, 47.96),
    ("10", 0.19, 8.84, 3.74, 362.17, 44.00),
    ("11", 1.29, 14.89, 5.95, 395.73, 47.51),
    ("12", 0.08, 19.37, 7.62, 994.58, 55.26),
    ("13", 1.66, 14.06, 5.20, 357.95, 49.08),
    ("20", 0.16, 7.56, 3.38, 219.66, 37.84),
    ("21", 0.80, 13.42, 6.25, 411.89, 46.40),
    ("22", 0.07, 18.93, 6.97, 746.99, 91.71),
    ("23", 1.17, 12.69, 5.09, 384.68, 52.46),
    ("30", 0.19, 7.66, 3.15, 230.59, 37.78),
    ("31", 1.22, 12.69, 5.03, 1336.44, 47.50),
    ("32", 0.14, 20.06, 7.51, 1153.52, 96.50),
    ("33", 1.87, 12.81, 4.67, 375.38, 56.00),
)

# Overall mean MME/day the default opioid scenario is scaled to hit in the
# pre-policy window, and the post/pre ratio applied after the policy month.
DEFAULT_PRE_MEAN = 53.68
DEFAULT_POST_MEAN = 51.09

_PI_RANGES = ((130.0, 248.0), (252.0, 498.0), (505.0, 995.0), (1010.0, 2400.0))


@dataclass(frozen=True)
class ClassProfile:
    class_code: str
    record_share: float
    mean_days: float
    sd_days: float
    sd_mme: float
    target_mme_day: float
    post_policy_multiplier: float = 1.0


@dataclass
class FamilySettings:
    """Per-family knobs: volume share, level scaling and class profiles."""

    record_share: float
    level_scale: float
    profiles: list[ClassProfile]

    def shares(self) -> np.ndarray:
        raw = np.array([p.record_share for p in self.profiles], dtype=float)
        if np.any(raw < 0) or raw.sum() <= 0:
            raise ValueError("class shares must be nonnegative with positive sum")
        return raw / raw.sum()


@dataclass
class ScenarioConfig:
    start: MonthKey = MonthKey(2014, 1)
    end: MonthKey = MonthKey(2021, 11)
    policy_month: MonthKey = DEFAULT_POLICY_MONTH
    trend_slope: float = 0.0          # relative level drift per month
    seasonal_amplitude: float = 0.0   # relative, period 12
    noise_sd: float = 0.0             # relative month-level disturbance
    families: dict[str, FamilySettings] = field(default_factory=dict)

    def n_months(self) -> int:
        return self.end.index - self.start.index + 1

    def month_keys(self) -> list[MonthKey]:
        return [MonthKey.from_index(i)
                for i in range(self.start.index, self.end.index + 1)]

    def validate(self) -> None:
        """ValueError unless :func:`generate` can draw from this scenario."""
        self.class_draws()

    def class_draws(self) -> dict[str, tuple[np.ndarray, list[tuple]]]:
        """Per family, the class shares and, per class, the location and scale
        of its total-MME draw, the mean and sd of its days-supply draw and its
        post-policy multiplier; ValueError for a value out of range."""
        if self.end < self.start:
            raise ValueError("end month precedes start month")
        if not self.start <= self.policy_month <= self.end:
            raise ValueError("policy month outside the scenario range")
        _require("scenario", self, trend_slope="", seasonal_amplitude="", noise_sd=">= 0")
        draws = {}
        for name, fam in self.families.items():
            if name not in FAMILIES:
                raise ValueError(f"unknown drug family {name!r}")
            _require(name, fam, record_share=">= 0", level_scale="> 0")
            classes = []
            for p in fam.profiles:
                if p.class_code not in ALL_CLASS_CODES:
                    raise ValueError(f"{name} class {p.class_code!r}: not a class code")
                _require(f"{name} class {p.class_code}", p, mean_days="", record_share=">= 0",
                         post_policy_multiplier=">= 0", sd_days="> 0", sd_mme="> 0",
                         target_mme_day="> 0")
                inv_days = _mean_inverse_days(p.mean_days, p.sd_days)
                target_total = p.target_mme_day * fam.level_scale / inv_days
                classes.append((_solve_truncnorm_location(target_total, p.sd_mme), p.sd_mme,
                                p.mean_days, p.sd_days, p.post_policy_multiplier))
            draws[name] = fam.shares(), classes
        return draws


def _require(where: str, obj, **bounds: str) -> None:
    """ValueError unless each named attribute of ``obj`` is a finite number
    within its bound: "" (none), ">= 0" or "> 0"."""
    for name, bound in bounds.items():
        value = getattr(obj, name)
        try:
            ok = math.isfinite(value) and {"": True, ">= 0": value >= 0,
                                           "> 0": value > 0}[bound]
        except (OverflowError, TypeError):
            ok = False
        if not ok:
            raise ValueError(f"{where}: {name} must be finite{' ' * bool(bound)}{bound}, "
                             f"got {value!r}")


def _truncnorm_mean(mu: float, sigma: float, lower: float) -> float:
    alpha = (lower - mu) / sigma
    tail = 1.0 - normal_cdf(alpha)
    if tail <= 0.0:
        return lower
    pdf = math.exp(-0.5 * alpha * alpha) / math.sqrt(2.0 * math.pi)
    return mu + sigma * pdf / tail


def _solve_truncnorm_location(target: float, sigma: float, lower: float = 0.0) -> float:
    """Location mu with E[TN(mu, sigma, >= lower)] = target (bisection)."""
    if target <= lower:
        raise ValueError(f"target mean {target} must exceed the bound {lower}")
    lo, hi = target - 10.0 * sigma, target + sigma
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _truncnorm_mean(mid, sigma, lower) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, abs(target)):
            break
    return 0.5 * (lo + hi)


def _rounded_days_distribution(mean: float, sd: float) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of each integer day count under the rounded, >=1 draw."""
    k_max = max(2, int(math.ceil(mean + 10.0 * sd)))
    ks = np.arange(1, k_max + 1)
    # the CDF at each bin edge k - 0.5, for k = 1 .. k_max + 1
    edges = np.array([normal_cdf((k + 0.5 - mean) / sd) for k in range(k_max + 1)])
    probs = edges[1:] - edges[:-1]
    total = probs.sum()
    if total <= 0:
        raise ValueError("degenerate days-supply distribution")
    return ks, probs / total


def _mean_inverse_days(mean: float, sd: float) -> float:
    ks, probs = _rounded_days_distribution(mean, sd)
    return float((probs / ks).sum())


def default_config() -> ScenarioConfig:
    """
    Default two-family scenario over 2014-01..2021-11.

    Opioid class targets are scaled so that the pre-policy overall mean
    MME/day is 53.68, and every opioid class carries the same post-policy
    multiplier 51.09 / 53.68; the control family has no policy effect.
    """
    cfg = ScenarioConfig(seasonal_amplitude=0.02, noise_sd=0.01)
    months = cfg.month_keys()
    pre_factors = [_month_factor(cfg, m) for m in months if m < cfg.policy_month]
    mean_factor = sum(pre_factors) / len(pre_factors)

    shares_raw = np.array([row[1] for row in _DEFAULT_CLASS_TABLE])
    shares = shares_raw / shares_raw.sum()
    base_mean = float(sum(s * row[5] for s, row in zip(shares, _DEFAULT_CLASS_TABLE)))
    scale = DEFAULT_PRE_MEAN / (base_mean * mean_factor)
    opioid_mult = DEFAULT_POST_MEAN / DEFAULT_PRE_MEAN

    def build(mult: float) -> list[ClassProfile]:
        return [ClassProfile(*row, post_policy_multiplier=mult) for row in _DEFAULT_CLASS_TABLE]

    cfg.families = {
        "opioid": FamilySettings(record_share=0.75, level_scale=scale,
                                 profiles=build(opioid_mult)),
        "benzodiazepine": FamilySettings(record_share=0.25, level_scale=scale,
                                         profiles=build(1.0)),
    }
    return cfg


def _month_factor(cfg: ScenarioConfig, month: MonthKey) -> float:
    t = month.index - cfg.start.index
    seasonal = math.sin(2.0 * math.pi * (month.month - 1) / 12.0)
    return (1.0 + cfg.trend_slope * t) * (1.0 + cfg.seasonal_amplitude * seasonal)


def _geodesic(lat: np.ndarray, lon: np.ndarray, bearing: np.ndarray,
              miles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct great-circle step: endpoint after ``miles`` along ``bearing``."""
    delta = miles / EARTH_RADIUS_MILES
    lat2 = np.arcsin(np.sin(lat) * np.cos(delta)
                     + np.cos(lat) * np.sin(delta) * np.cos(bearing))
    lon2 = lon + np.arctan2(np.sin(bearing) * np.sin(delta) * np.cos(lat),
                            np.cos(delta) - np.sin(lat) * np.sin(lat2))
    lon2 = (lon2 + math.pi) % (2.0 * math.pi) - math.pi
    return lat2, lon2


def _truncnorm(r: np.ndarray, mu: np.ndarray, sigma: np.ndarray,
               p_lo: np.ndarray) -> np.ndarray:
    """Inverse-CDF truncated-normal draws, one uniform ``r`` in [0, 1) per
    draw; ``p_lo`` is the normal CDF at the lower bound."""
    u = np.clip(p_lo + (1.0 - p_lo) * r, 1e-12, 1.0 - 1e-12)
    return mu + sigma * normal_ppf_vec(u)


def _triangles(r: np.ndarray, pi_lo: np.ndarray, pi_hi: np.ndarray,
               disparity: np.ndarray) -> list[np.ndarray]:
    """
    Stakeholder placements with exact target side lengths, from four uniform
    rows (PI total, apex latitude, apex longitude, bearing); returns the six
    coordinate columns (patient, prescriber, dispenser; lat, lon each).

    Side lengths (a, b, c): a and b are the apex's two edges, c joins the
    remaining pair.  Isolation patterns use a short base far from the apex;
    the "otherwise" pattern (disparity 3) is mildly scalene so no vertex can
    satisfy the isolation rule.
    """
    pi_total = pi_lo + (pi_hi - pi_lo) * r[0]
    other = disparity == 3
    base = np.minimum(40.0, pi_total / 15.0)
    far = (pi_total - base) / 2.0
    a = np.where(other, 0.33 * pi_total, far)
    b = np.where(other, 0.37 * pi_total, far)
    c = np.where(other, 0.30 * pi_total, base)

    lat1 = np.radians(-60.0 + 120.0 * r[1])
    lon1 = np.radians(-180.0 + 360.0 * r[2])
    bearing = 2.0 * math.pi * r[3]

    ah, bh, ch = (a / EARTH_RADIUS_MILES, b / EARTH_RADIUS_MILES,
                  c / EARTH_RADIUS_MILES)
    cos_gamma = (np.cos(ch) - np.cos(ah) * np.cos(bh)) / (np.sin(ah) * np.sin(bh))
    gamma = np.arccos(np.clip(cos_gamma, -1.0, 1.0))

    lat23, lon23 = _geodesic(lat1, lon1, np.array([bearing, bearing + gamma]),
                             np.array([a, b]))
    apex = np.degrees([lat1, lon1])
    v2, v3 = np.degrees([lat23, lon23]).transpose(1, 0, 2)
    # The isolated stakeholder is the apex: patient (0), prescriber (1) or
    # dispenser (2); "otherwise" puts the patient there.
    patient = np.where((disparity == 0) | other, apex, v2)
    prescriber = np.where(disparity == 1, apex, np.where(disparity == 2, v3, v2))
    dispenser = np.where(disparity == 2, apex, v3)
    return [*patient, *prescriber, *dispenser]


def generate(config: ScenarioConfig, n_records: int, seed: int) -> TransactionTable:
    """
    Draw a synthetic transaction set: the blocks of :func:`generate_blocks`
    as one table.
    """
    return TransactionTable.concat(list(generate_blocks(config, n_records, seed)))


def generate_blocks(config: ScenarioConfig, n_records: int, seed: int
                    ) -> Iterator[TransactionTable]:
    """
    Draw a synthetic transaction set one (family, month) block at a time;
    the scenario and ``n_records`` are checked before the first block.

    Record counts per month are Poisson around the family's share of
    ``n_records``; each record gets a class by share, a rounded truncated-
    normal days supply, a truncated-normal total MME calibrated so the
    class mean MME/day matches its target (times trend/seasonal/noise
    month factors, times the class multiplier after the policy month), and
    coordinates constructed to reproduce the intended class code exactly.
    Records come in family, month and class order; ids number them in that
    order across blocks and end in the intended class code.  A month without
    records gives no block, and a scenario without records one empty block.

    The random stream, per family: ``normal`` (month noise) and ``poisson``
    (month counts); then per month with records: ``choice`` (classes),
    ``integers`` (day of month) and one ``random(6 * count)``.  The six
    uniforms are class-major: class c, with ``n_c`` records starting at
    record ``s_c`` of the month, owns ``[6 s_c, 6 (s_c + n_c))``, and draw k
    of its j-th record (days, MME, PI total, latitude, longitude, bearing)
    is at ``6 s_c + k n_c + j``.
    """
    draws = config.class_draws()
    if n_records <= 0:
        raise ValueError("n_records must be positive")
    return _blocks(config, draws, n_records, seed)


def _blocks(config: ScenarioConfig, draws: dict, n_records: int, seed: int
            ) -> Iterator[TransactionTable]:
    rng = np.random.default_rng(seed)
    months = config.month_keys()
    n_months = len(months)
    serial = 1  # the number in the next record's id
    for family in FAMILIES:
        if family not in config.families:
            continue
        fam = config.families[family]
        codes = [p.class_code for p in fam.profiles]
        shares, classes = draws[family]
        # Per-class constants, indexed by each record's class below; loc,
        # scale and p_lo have a row for the days draw and one for the MME draw.
        mme_loc, mme_sd, mean_days, sd_days, mult = map(np.array, zip(*classes))
        loc, scale = np.array([mean_days, mme_loc]), np.array([sd_days, mme_sd])
        p_lo = np.array([[normal_cdf((lower - m) / s) for m, s in zip(mu, sigma)]
                         for lower, mu, sigma in zip((0.5, 0.0), loc, scale)])
        pi_lo, pi_hi = np.array([_PI_RANGES[int(code[0])] for code in codes]).T
        disparity = np.array([int(code[1]) for code in codes])

        per_month = n_records * fam.record_share / n_months
        month_noise = rng.normal(0.0, config.noise_sd, n_months)
        counts = rng.poisson(per_month, n_months)

        for mi, month in enumerate(months):
            count = int(counts[mi])
            if count == 0:
                continue
            factor = _month_factor(config, month) * (1.0 + month_noise[mi])
            class_idx = rng.choice(len(codes), size=count, p=shares)
            days_in_month = calendar.monthrange(month.year, month.month)[1]
            days_of_month = rng.integers(1, days_in_month + 1, count)
            day_zero = date(month.year, month.month, 1).toordinal() - 1

            order = np.argsort(class_idx, kind="stable")
            cls = class_idx[order]
            n_c = np.bincount(class_idx, minlength=len(codes))
            start = (np.cumsum(n_c) - n_c)[cls]  # s_c of each record's class
            # Row k holds draw k of every record: the record at position p of
            # the month is record j = p - s_c of its class, so the draw is at
            # 6 s_c + k n_c + j.
            at = 5 * start + np.arange(count) + np.arange(6)[:, None] * n_c[cls]
            r = rng.random(6 * count)[at]

            raw_days, mme = _truncnorm(r[:2], loc[:, cls], scale[:, cls], p_lo[:, cls])
            days = np.maximum(1, np.floor(raw_days + 0.5).astype(int))
            mme = mme * factor
            if month >= config.policy_month:
                mme = mme * mult[cls]

            ids = np.array([f"r{s:07d}-{codes[c]}"
                            for s, c in zip(range(serial, serial + count), cls.tolist())],
                           dtype=object)
            serial += count
            yield TransactionTable(
                ids, day_zero + days_of_month[order],
                *_triangles(r[2:], pi_lo[cls], pi_hi[cls], disparity[cls]),
                mme, days, np.full(count, family))
    if serial == 1:
        yield TransactionTable.from_records([])


def intended_class_code(record: PrescriptionRecord) -> str:
    """The class a generated record was drawn for (encoded in its id)."""
    return record.record_id.rsplit("-", 1)[-1]


# --- JSON round-trip for scenario files ------------------------------------

def config_to_dict(config: ScenarioConfig) -> dict:
    """The JSON form of a scenario: its fields, with months as ``YYYY-MM``."""
    return {**asdict(config), "start": str(config.start), "end": str(config.end),
            "policy_month": str(config.policy_month)}


def _check_keys(section: dict, settings, where: str) -> None:
    """ValueError naming any key of ``section`` that is not a field of ``settings``."""
    unknown = sorted(set(section) - {f.name for f in fields(settings)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def config_from_dict(d: dict) -> ScenarioConfig:
    """The scenario of a JSON object; ValueError, or KeyError for a missing
    key, unless :func:`generate` can draw from it.  A month-factor knob it
    omits takes the :class:`ScenarioConfig` default.  An unknown key, at the
    top level or in a family or class section, is a ValueError naming it."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    try:
        _check_keys(d, ScenarioConfig, "scenario")
        cfg = ScenarioConfig(
            start=MonthKey.parse(d["start"]),
            end=MonthKey.parse(d["end"]),
            policy_month=MonthKey.parse(d["policy_month"]),
            **{k: float(d[k]) for k in ("trend_slope", "seasonal_amplitude", "noise_sd")
               if k in d})
        for name, fam in d.get("families", {}).items():
            _check_keys(fam, FamilySettings, f"{name} family")
            cfg.families[name] = FamilySettings(
                record_share=float(fam["record_share"]),
                level_scale=float(fam["level_scale"]),
                profiles=[ClassProfile(**p) for p in fam["profiles"]],
            )
        cfg.validate()
    except (AttributeError, OverflowError, TypeError) as exc:  # a value of the wrong type
        raise ValueError(exc) from None
    return cfg
