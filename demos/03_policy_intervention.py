"""End-to-end interrupted-time-series run on a synthetic scenario.

The built-in scenario generates dispensing records for two drug families
over 2014-01..2021-11.  The treated family's daily dose drops by a known
multiplier at the 2018-05 policy month; the control family is untouched.
The analysis fits a pre-policy model, forecasts across the policy, and then
quantifies the intervention with level-shift / ramp / inverse-trend event
inputs, keeping only the ones that stay significant.
"""

import numpy as np

from rxgeo import default_config, generate, its_analysis, pct_change
from rxgeo.records import clean
from rxgeo.series import aggregate_monthly, split_pre_post

cfg = default_config()
records, _ = clean(generate(cfg, 60_000, seed=11))
print(f"generated {len(records)} records "
      f"({np.count_nonzero(records.drug_family == 'opioid')} treated family)\n")

for family in ("opioid", "benzodiazepine"):
    (series,) = aggregate_monthly(records, group_by="overall", family=family)
    pre, post = split_pre_post(series)
    pre_mean = float(np.nanmean(pre.values()))
    post_mean = float(np.nanmean(post.values()))

    result = its_analysis(series)
    outside = sum(m.outside_interval for m in result.mismatch)
    print(f"--- {family} overall ---")
    print(f"pre mean {pre_mean:.2f}, post mean {post_mean:.2f}, "
          f"change {pct_change(pre_mean, post_mean):+.2f}%")
    print(f"pre-policy model: {result.pre_fit.orders.label()}; "
          f"{outside}/{len(result.mismatch)} post months left the 95% band")
    kept = result.significant_events()
    if kept:
        for c in kept:
            print(f"kept event: {c.name} = {c.estimate:+.2f} "
                  f"(se {c.std_error:.2f}, p {c.p_value:.2g}) {c.stars}")
    else:
        print("kept event: none (no significant intervention effect)")
    print(f"dropped events: {result.dropped_events or 'none'}\n")
