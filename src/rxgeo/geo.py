"""Stakeholder triangle geometry and the 16-way distance/disparity classes.

Each transaction involves three locations: patient, prescriber, dispenser.
The total traveled distance is the closed loop over the three pairwise
great-circle legs; its bucket (<=250, 250-500, 500-1000, >1000 miles) forms
the first digit of the class code and the isolation pattern (which single
stakeholder, if any, sits far from the other two) forms the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable, Sequence

import numpy as np

from .records import GeoPoint, PrescriptionRecord, mme_per_day

# Mean Earth radius; fixed so distances are bit-reproducible.
EARTH_RADIUS_MILES = 3958.7613

DISTANCE_EDGES = (250.0, 500.0, 1000.0)

ALL_CLASS_CODES = tuple(f"{d}{p}" for d in range(4) for p in range(4))

# Hazard ratios for daily-dose tiers <20, 20-49, 50-99, >=100 MME/day.
RISK_HAZARD_RATIOS = {1: 1.0, 2: 1.44, 3: 3.73, 4: 8.87}
RISK_EDGES = (20.0, 50.0, 100.0)


class DisparityLabel(IntEnum):
    patient_isolated = 0
    prescriber_isolated = 1
    dispenser_isolated = 2
    otherwise = 3


@dataclass(frozen=True)
class ClassThresholds:
    """Tunable knobs of the isolation rule."""

    near_miles: float = 50.0
    isolation_ratio: float = 3.0


@dataclass(frozen=True)
class TriangleGeometry:
    """Pairwise stakeholder distances in miles; ``pi_total`` is their sum."""

    d_pp: float  # patient <-> prescriber
    d_pd: float  # patient <-> dispenser
    d_rd: float  # prescriber <-> dispenser

    @property
    def pi_total(self) -> float:
        return self.d_pp + self.d_rd + self.d_pd


@dataclass(frozen=True)
class ClassCode:
    distance_level: int
    disparity: DisparityLabel

    @property
    def code(self) -> str:
        return f"{self.distance_level}{self.disparity.value}"


@dataclass(frozen=True)
class RiskLevel:
    level: int

    @property
    def hazard_ratio(self) -> float:
        return RISK_HAZARD_RATIOS[self.level]


@dataclass(frozen=True)
class ClassifiedRecord:
    record: PrescriptionRecord
    geometry: TriangleGeometry
    class_code: ClassCode
    risk: RiskLevel

    @property
    def mme_day(self) -> float:
        return mme_per_day(self.record)


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in miles between two points, equal to the one
    :func:`classify_records` computes.  The points go in as one-element
    arrays: on numpy scalars ``**`` calls ``pow``, which can differ from the
    array loop's square in the last bit."""
    return float(_pairwise_miles([a.lat], [a.lon], [b.lat], [b.lon])[0])


def geometry(record: PrescriptionRecord) -> TriangleGeometry:
    """Three pairwise distances of the stakeholder triangle."""
    return TriangleGeometry(
        d_pp=haversine(record.patient, record.prescriber),
        d_pd=haversine(record.patient, record.dispenser),
        d_rd=haversine(record.prescriber, record.dispenser),
    )


def distance_level(pi_total: float) -> int:
    """Bucket of the total traveled distance (0..3)."""
    if pi_total < 0:
        raise ValueError(f"total distance must be nonnegative, got {pi_total}")
    for level, edge in enumerate(DISTANCE_EDGES):
        if pi_total <= edge:
            return level
    return 3


def disparity(g: TriangleGeometry, thresholds: ClassThresholds = ClassThresholds()) -> DisparityLabel:
    """
    Which stakeholder, if any, is isolated from the other two.

    The shortest edge designates the two "near" stakeholders; the remaining
    vertex is the isolation candidate.  The candidate is isolated iff the
    shortest edge is at most ``near_miles`` and both of the candidate's own
    edges exceed ``max(near_miles, isolation_ratio * shortest)``.  When two
    edges tie for shortest, the candidate is chosen by the fixed priority
    patient > prescriber > dispenser.
    """
    # Edge list with the vertex opposite each edge as the candidate isolate.
    edges = (
        (g.d_rd, DisparityLabel.patient_isolated, g.d_pp, g.d_pd),
        (g.d_pd, DisparityLabel.prescriber_isolated, g.d_pp, g.d_rd),
        (g.d_pp, DisparityLabel.dispenser_isolated, g.d_pd, g.d_rd),
    )
    e_min = min(e[0] for e in edges)
    for edge, candidate, inc_a, inc_b in edges:
        if edge == e_min:
            cut = max(thresholds.near_miles, thresholds.isolation_ratio * e_min)
            if e_min <= thresholds.near_miles and inc_a > cut and inc_b > cut:
                return candidate
            return DisparityLabel.otherwise
    raise AssertionError("unreachable")


def class_code(record: PrescriptionRecord,
               thresholds: ClassThresholds = ClassThresholds()) -> ClassCode:
    """Two-digit class of one record: distance level then disparity."""
    g = geometry(record)
    return ClassCode(distance_level(g.pi_total), disparity(g, thresholds))


def risk_level(mme_day: float) -> RiskLevel:
    """CDC dose-hazard tier for a daily MME value."""
    if mme_day < 0:
        raise ValueError(f"MME/day must be nonnegative, got {mme_day}")
    for level, edge in enumerate(RISK_EDGES, start=1):
        if mme_day < edge:
            return RiskLevel(level)
    return RiskLevel(4)


def _pairwise_miles(lat1, lon1, lat2, lon2) -> np.ndarray:
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(v, dtype=float))
                              for v in (lat1, lon1, lat2, lon2))
    s_lat = np.sin((lat2 - lat1) / 2.0)
    s_lon = np.sin((lon2 - lon1) / 2.0)
    h = s_lat**2 + np.cos(lat1) * np.cos(lat2) * s_lon**2
    return 2.0 * EARTH_RADIUS_MILES * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def classify_records(
    records: Sequence[PrescriptionRecord],
    thresholds: ClassThresholds = ClassThresholds(),
) -> list[ClassifiedRecord]:
    """Classify records in bulk (vectorized distance math)."""
    if not records:
        return []
    plat = [r.patient.lat for r in records]
    plon = [r.patient.lon for r in records]
    rlat = [r.prescriber.lat for r in records]
    rlon = [r.prescriber.lon for r in records]
    dlat = [r.dispenser.lat for r in records]
    dlon = [r.dispenser.lon for r in records]
    d_pp = _pairwise_miles(plat, plon, rlat, rlon)
    d_pd = _pairwise_miles(plat, plon, dlat, dlon)
    d_rd = _pairwise_miles(rlat, rlon, dlat, dlon)

    out: list[ClassifiedRecord] = []
    for i, r in enumerate(records):
        g = TriangleGeometry(float(d_pp[i]), float(d_pd[i]), float(d_rd[i]))
        code = ClassCode(distance_level(g.pi_total), disparity(g, thresholds))
        out.append(ClassifiedRecord(r, g, code, risk_level(mme_per_day(r))))
    return out


def class_counts(classified: Iterable[ClassifiedRecord]) -> dict[str, int]:
    """Record count per class code, including zero-count classes."""
    counts = {code: 0 for code in ALL_CLASS_CODES}
    for c in classified:
        counts[c.class_code.code] += 1
    return counts
