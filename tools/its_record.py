"""A record of the its stage's model outcomes per series, and a comparison of two.

    PYTHONPATH=src python3 tools/its_record.py --records 50000 --seed 42 \
        --seed 1 --out record.json
    python3 tools/its_record.py --compare A.json B.json

For each (records, seed) pair, the record runs ``syngen.generate`` on the
default scenario, ``records.clean``, ``geo.classify_records``,
``series.aggregate_monthly`` and ``intervention.its_batch`` in this process,
as the ``its`` stage does on the CSV that ``simulate``, ``ingest`` and
``classify`` write.  Each series' entry holds the orders of the pre-window
and ARIMAX fits, their coefficients with standard errors and BIC values, the
kept and dropped events, or the failure message.  The rxgeo on ``PYTHONPATH``
is the one recorded, so one copy of this tool records any checkout.

``--compare A B`` prints every order, event or failure that differs between
the two records, the largest |B - A| / SE over the coefficients that both
hold (SE from A), the largest BIC rise from A to B, and each coefficient
whose SE is not finite on either side.  It exits 1 when an order, event or
failure differs, or when a (records, seed) run or a series is in only one
record.  Standard library only, apart from rxgeo itself when recording.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def _fit_entry(fit) -> dict:
    return {"orders": fit.orders.label(), "bic": fit.bic,
            "coefficients": {c.name: [c.estimate, c.std_error] for c in fit.coefficients()}}


def record(n_records: int, seed: int) -> dict:
    """Every series' outcome of the its stage on one simulated corpus."""
    from rxgeo import geo, syngen
    from rxgeo.intervention import its_batch
    from rxgeo.records import clean
    from rxgeo.series import aggregate_monthly

    kept, _ = clean(syngen.generate(syngen.default_config(), n_records, seed=seed))
    table = geo.classify_records(kept)
    overall = [s for family in ("opioid", "benzodiazepine")
               for s in aggregate_monthly(table, group_by="overall", family=family)]
    all_series = overall + [c for s in overall for c in aggregate_monthly(
        table, group_by="class", family=s.drug_family,
        span=(s.points[0].month, s.points[-1].month))]
    batch = its_batch(all_series)
    series = {key: {"failure": message} for key, message in batch.failures.items()}
    for r in batch.results:
        series[f"{r.drug_family}/{r.class_code}"] = {
            "pre_fit": _fit_entry(r.pre_fit), "arimax": _fit_entry(r.arimax),
            "kept_events": [c.name for c in r.arimax.event_coefficients()],
            "dropped_events": r.dropped_events}
    return dict(sorted(series.items()))


def compare(a: dict, b: dict) -> tuple[list[str], list[str]]:
    """(differences in orders, events or failures; notes on the estimates)."""
    diffs: list[str] = []
    worst_z = (0.0, "none")
    worst_bic = (-math.inf, "none")
    unresolved: list[str] = []
    for run in sorted(a.keys() | b.keys()):
        if run not in a or run not in b:
            diffs.append(f"{run}: in one record only")
            continue
        for key in sorted(a[run].keys() | b[run].keys()):
            sa, sb = a[run].get(key), b[run].get(key)
            label = f"{run} {key}"
            if sa is None or sb is None:
                diffs.append(f"{label}: in one record only")
                continue
            if "failure" in sa or "failure" in sb:
                if sa.get("failure") != sb.get("failure"):
                    diffs.append(f"{label}: failure {sa.get('failure')!r} -> {sb.get('failure')!r}")
                continue
            for field in ("kept_events", "dropped_events"):
                if sa[field] != sb[field]:
                    diffs.append(f"{label}: {field} {sa[field]} -> {sb[field]}")
            for part in ("pre_fit", "arimax"):
                fa, fb = sa[part], sb[part]
                if fa["orders"] != fb["orders"]:
                    diffs.append(f"{label}: {part} orders {fa['orders']} -> {fb['orders']}")
                    continue
                if fb["bic"] - fa["bic"] > worst_bic[0]:
                    worst_bic = (fb["bic"] - fa["bic"], f"{label} {part}")
                for name in fa["coefficients"].keys() & fb["coefficients"].keys():
                    (ea, se_a), (eb, se_b) = fa["coefficients"][name], fb["coefficients"][name]
                    where = f"{label} {part} {name}"
                    if not (math.isfinite(se_a) and math.isfinite(se_b)):
                        unresolved.append(f"{where}: estimate {ea!r} -> {eb!r}, "
                                          f"SE {se_a!r} -> {se_b!r}")
                    elif se_a > 0 and abs(eb - ea) / se_a > worst_z[0]:
                        worst_z = (abs(eb - ea) / se_a, where)
    notes = [f"largest |delta estimate| / SE: {worst_z[0]:.3g} ({worst_z[1]})",
             f"largest BIC rise: {worst_bic[0]:.3g} ({worst_bic[1]})"]
    notes += [f"SE not finite: {line}" for line in unresolved]
    return diffs, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--records", type=int, action="append", default=[])
    ap.add_argument("--seed", type=int, action="append", default=[])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"))
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(path.read_text()) for path in args.compare)
        diffs, notes = compare(a, b)
        print("\n".join(diffs + notes))
        print(f"{len(diffs)} differing orders, events or failures")
        return 1 if diffs else 0
    if not (args.records and args.seed and args.out):
        ap.error("give --records, --seed and --out, or --compare A B")
    runs = {f"{n}/{seed}": record(n, seed) for n in args.records for seed in args.seed}
    args.out.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
