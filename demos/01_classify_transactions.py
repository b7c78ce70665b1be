"""Walk through the geometric transaction classifier on a handful of
hand-built dispensing records.

Each record carries three stakeholder locations (patient, prescriber,
dispenser).  The classifier computes the great-circle triangle, buckets the
total traveled distance, works out which stakeholder (if any) is isolated
from the other two, and attaches the dose-hazard tier implied by MME/day.
"""

import math
from datetime import date

from rxgeo import (DisparityLabel, GeoPoint, PrescriptionRecord, TransactionTable,
                   classify_records)
from rxgeo.geo import EARTH_RADIUS_MILES


def east_of(origin: GeoPoint, miles: float) -> GeoPoint:
    """A point ``miles`` due east of ``origin`` along its parallel."""
    dlon = math.degrees(miles / (EARTH_RADIUS_MILES * math.cos(math.radians(origin.lat))))
    return GeoPoint(origin.lat, origin.lon + dlon)


home = GeoPoint(34.0, -81.0)

records = [
    # Everyone in the same town: short loop, nobody isolated.
    PrescriptionRecord("local", date(2019, 3, 1), home, east_of(home, 8),
                       east_of(home, 15), mme_total=450.0, days_supply=10,
                       drug_family="opioid"),
    # Patient lives far from a prescriber/dispenser pair that sit together.
    PrescriptionRecord("far-patient", date(2019, 3, 1), east_of(home, 400),
                       home, east_of(home, 12), mme_total=900.0, days_supply=9,
                       drug_family="opioid"),
    # Distant pharmacy: patient and prescriber together, dispenser far away.
    PrescriptionRecord("far-pharmacy", date(2019, 3, 1), home, east_of(home, 10),
                       east_of(home, 700), mme_total=2400.0, days_supply=20,
                       drug_family="opioid"),
    # Long triangle with no clear isolate.
    PrescriptionRecord("spread-out", date(2019, 3, 1), home, east_of(home, 420),
                       east_of(home, 800), mme_total=600.0, days_supply=5,
                       drug_family="opioid"),
]

print(f"{'record':<12} {'pi (mi)':>9} {'class':>5} {'disparity':<20} "
      f"{'MME/day':>8} {'risk':>4}")
table = TransactionTable.from_records(records)
classified = classify_records(table)
for rid, pi_total, code, disparity, mme_day, risk in zip(
        table.record_id, classified.pi_total.tolist(), classified.class_codes().tolist(),
        (classified.code % 4).tolist(), table.mme_per_day().tolist(),
        classified.risk_level.tolist()):
    print(f"{rid:<12} {pi_total:>9.1f} {code:>5} {DisparityLabel(disparity).name:<20} "
          f"{mme_day:>8.1f} {risk:>4}")

print("""
Reading the class code: first digit is the distance bucket of the loop
patient -> prescriber -> dispenser -> patient (0: <=250 mi, 1: 250-500,
2: 500-1000, 3: >1000); second digit is the isolation pattern (0 patient,
1 prescriber, 2 dispenser, 3 nobody).""")
