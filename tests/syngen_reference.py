"""The record generator as it was before it drew a month at a time, for the
oracle test of ``syngen.generate``, and the days-supply distribution as it
was before it took each bin edge's CDF once, for the oracle test of
``syngen._mean_inverse_days``.

``generate`` is the block-by-block loop the library used up to version 0.8.0:
one block of uniform draws per (family, month, class), with the six
uniforms of a class drawn by six ``Generator.uniform`` calls.
``_rounded_days_distribution`` and ``_mean_inverse_days`` are those of
version 0.9.0.  Each is copied unchanged, except that ``generate`` takes
its seed only as an argument, as the library's does since 0.15.0; the
helpers that stayed in ``syngen`` are imported from it.
"""

import calendar
import math
from datetime import date

import numpy as np

from rxgeo._special import normal_cdf, normal_ppf_vec
from rxgeo.geo import EARTH_RADIUS_MILES
from rxgeo.records import FAMILIES, TransactionTable
from rxgeo.syngen import ScenarioConfig, _PI_RANGES, _geodesic, _month_factor


def _rounded_days_distribution(mean: float, sd: float) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of each integer day count under the rounded, >=1 draw."""
    k_max = max(2, int(math.ceil(mean + 10.0 * sd)))
    ks = np.arange(1, k_max + 1)
    upper = np.array([normal_cdf((k + 0.5 - mean) / sd) for k in ks])
    lower = np.array([normal_cdf((k - 0.5 - mean) / sd) for k in ks])
    probs = upper - lower
    probs[0] = upper[0] - normal_cdf((0.5 - mean) / sd)
    total = probs.sum()
    if total <= 0:
        raise ValueError("degenerate days-supply distribution")
    return ks, probs / total


def _mean_inverse_days(mean: float, sd: float) -> float:
    ks, probs = _rounded_days_distribution(mean, sd)
    return float((probs / ks).sum())


def _triangle_sides(pi_total: np.ndarray,
                    disparity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """
    Side lengths (a, b, c) of the stakeholder triangle: a and b are the
    apex's two edges, c joins the remaining pair.  Isolation patterns use a
    short base far from the apex; the "otherwise" pattern is mildly scalene
    so no vertex can satisfy the isolation rule.
    """
    if disparity == 3:
        return 0.33 * pi_total, 0.37 * pi_total, 0.30 * pi_total
    base = np.minimum(40.0, pi_total / 15.0)
    far = (pi_total - base) / 2.0
    return far, far, base


def _place_triangles(n: int, pi_lo: float, pi_hi: float, disparity: int,
                     rng: np.random.Generator):
    """Random placements with exact target side lengths; returns the three
    stakeholder coordinate arrays ordered (patient, prescriber, dispenser)."""
    pi_total = rng.uniform(pi_lo, pi_hi, n)
    a, b, c = _triangle_sides(pi_total, disparity)

    lat1 = np.radians(rng.uniform(-60.0, 60.0, n))
    lon1 = np.radians(rng.uniform(-180.0, 180.0, n))
    bearing = rng.uniform(0.0, 2.0 * math.pi, n)

    ah, bh, ch = (a / EARTH_RADIUS_MILES, b / EARTH_RADIUS_MILES,
                  c / EARTH_RADIUS_MILES)
    cos_gamma = (np.cos(ch) - np.cos(ah) * np.cos(bh)) / (np.sin(ah) * np.sin(bh))
    gamma = np.arccos(np.clip(cos_gamma, -1.0, 1.0))

    lat2, lon2 = _geodesic(lat1, lon1, bearing, a)
    lat3, lon3 = _geodesic(lat1, lon1, bearing + gamma, b)

    apex = np.degrees([lat1, lon1])
    v2 = np.degrees([lat2, lon2])
    v3 = np.degrees([lat3, lon3])
    if disparity == 0:    # patient isolated: apex=patient, base=prescriber+dispenser
        return apex, v2, v3
    if disparity == 1:    # prescriber isolated
        return v2, apex, v3
    if disparity == 2:    # dispenser isolated
        return v2, v3, apex
    return apex, v2, v3   # otherwise: apex edges 0.33/0.37, base 0.30


def _truncnorm_draws(rng: np.random.Generator, mu: float, sigma: float,
                     lower: float, size: int) -> np.ndarray:
    """Inverse-CDF truncated-normal draws (one uniform per record)."""
    p_lo = normal_cdf((lower - mu) / sigma)
    u = rng.uniform(p_lo, 1.0, size)
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    return mu + sigma * normal_ppf_vec(u)


def generate(config: ScenarioConfig, n_records: int, seed: int) -> TransactionTable:
    """
    Draw a synthetic transaction set.

    Record counts per month are Poisson around the family's share of
    ``n_records``; each record gets a class by share, a rounded truncated-
    normal days supply, a truncated-normal total MME calibrated so the
    class mean MME/day matches its target (times trend/seasonal/noise
    month factors, times the class multiplier after the policy month), and
    coordinates constructed to reproduce the intended class code exactly.
    Records come in family, month and class order; ids number them in that
    order and end in the intended class code.
    """
    draws = config.class_draws()
    if n_records <= 0:
        raise ValueError("n_records must be positive")
    rng = np.random.default_rng(seed)
    months = config.month_keys()
    n_months = len(months)

    ids: list[str] = []
    blocks: list[list[np.ndarray]] = []  # one list of columns per (month, class)
    for family in FAMILIES:
        if family not in config.families:
            continue
        fam = config.families[family]
        profiles = fam.profiles
        shares, classes = draws[family]

        per_month = n_records * fam.record_share / n_months
        month_noise = rng.normal(0.0, config.noise_sd, n_months)
        counts = rng.poisson(per_month, n_months)

        for mi, month in enumerate(months):
            count = int(counts[mi])
            if count == 0:
                continue
            factor = _month_factor(config, month) * (1.0 + month_noise[mi])
            post = month >= config.policy_month
            class_idx = rng.choice(len(profiles), size=count, p=shares)
            days_in_month = calendar.monthrange(month.year, month.month)[1]
            days_of_month = rng.integers(1, days_in_month + 1, count)
            day_zero = date(month.year, month.month, 1).toordinal() - 1

            for ci in range(len(profiles)):
                sel = np.where(class_idx == ci)[0]
                if sel.size == 0:
                    continue
                prof = profiles[ci]
                mme_loc, mme_sd, mean_days, sd_days, mult = classes[ci]
                raw_days = _truncnorm_draws(rng, mean_days, sd_days, 0.5, sel.size)
                days = np.maximum(1, np.floor(raw_days + 0.5).astype(int))
                mme = _truncnorm_draws(rng, mme_loc, mme_sd, 0.0, sel.size)
                mme = mme * factor * (mult if post else 1.0)

                level = int(prof.class_code[0])
                disp = int(prof.class_code[1])
                pi_lo, pi_hi = _PI_RANGES[level]
                patient, prescriber, dispenser = _place_triangles(
                    sel.size, pi_lo, pi_hi, disp, rng)

                first = len(ids) + 1
                ids += [f"r{serial:07d}-{prof.class_code}"
                        for serial in range(first, first + sel.size)]
                blocks.append([day_zero + days_of_month[sel], *patient, *prescriber,
                               *dispenser, mme, days, np.full(sel.size, family)])
    if not blocks:
        return TransactionTable.from_records([])
    return TransactionTable(ids, *(np.concatenate(cols) for cols in zip(*blocks)))
