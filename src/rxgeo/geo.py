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

import numpy as np

from .records import (GeoPoint, PrescriptionRecord, TransactionTable, _require_days_supply,
                      _valid_coordinates)

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
class ClassifiedTable:
    """The classification of a table's records, as columns: the records'
    table, the three distances and their sum, the class (its index in
    ``ALL_CLASS_CODES``, 4 * distance level + disparity) and the risk tier."""

    records: TransactionTable
    d_pp: np.ndarray  # float64
    d_pd: np.ndarray
    d_rd: np.ndarray
    pi_total: np.ndarray
    code: np.ndarray  # int64
    risk_level: np.ndarray  # int64

    def __len__(self) -> int:
        return len(self.records)

    def class_codes(self) -> np.ndarray:
        """The two-digit class code of each record."""
        return np.array(ALL_CLASS_CODES)[self.code]

    def class_counts(self) -> dict[str, int]:
        """Record count per class code, including zero-count classes."""
        counts = np.bincount(self.code, minlength=len(ALL_CLASS_CODES))
        return dict(zip(ALL_CLASS_CODES, counts.tolist()))


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
    return int(_distance_levels(np.array([pi_total], dtype=float))[0])


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
    d_pp, d_pd, d_rd = (np.array([d], dtype=float) for d in (g.d_pp, g.d_pd, g.d_rd))
    return DisparityLabel(int(_disparities(d_pp, d_pd, d_rd, thresholds)[0]))


def class_code(record: PrescriptionRecord,
               thresholds: ClassThresholds = ClassThresholds()) -> ClassCode:
    """Two-digit class of one record: distance level then disparity."""
    g = geometry(record)
    return ClassCode(distance_level(g.pi_total), disparity(g, thresholds))


def risk_level(mme_day: float) -> RiskLevel:
    """CDC dose-hazard tier for a daily MME value."""
    if mme_day < 0:
        raise ValueError(f"MME/day must be nonnegative, got {mme_day}")
    return RiskLevel(int(_risk_levels(np.array([mme_day], dtype=float))[0]))


def _pairwise_miles(lat1, lon1, lat2, lon2) -> np.ndarray:
    lat1, lon1, lat2, lon2 = (np.radians(np.asarray(v, dtype=float))
                              for v in (lat1, lon1, lat2, lon2))
    s_lat = np.sin((lat2 - lat1) / 2.0)
    s_lon = np.sin((lon2 - lon1) / 2.0)
    h = s_lat**2 + np.cos(lat1) * np.cos(lat2) * s_lon**2
    return 2.0 * EARTH_RADIUS_MILES * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def _distance_levels(pi_total: np.ndarray) -> np.ndarray:
    """Level of each total: the number of ``DISTANCE_EDGES`` it exceeds."""
    return np.searchsorted(DISTANCE_EDGES, pi_total, side="left")


def _disparities(d_pp: np.ndarray, d_pd: np.ndarray, d_rd: np.ndarray,
                 thresholds: ClassThresholds) -> np.ndarray:
    """:func:`disparity` of each triangle, as a ``DisparityLabel`` value."""
    # Column k is the edge opposite candidate k: patient, prescriber, dispenser.
    edges = np.column_stack([d_rd, d_pd, d_pp])
    candidate = np.argmin(edges, axis=1)  # the first minimum wins a tie
    # The candidate's own edges are the other two, so the shorter of them is
    # the second smallest edge.
    ordered = np.sort(edges, axis=1)
    shortest, second = ordered[:, 0], ordered[:, 1]
    cut = np.maximum(thresholds.near_miles, thresholds.isolation_ratio * shortest)
    isolated = (shortest <= thresholds.near_miles) & (second > cut)
    return np.where(isolated, candidate, DisparityLabel.otherwise.value)


def _risk_levels(mme_day: np.ndarray) -> np.ndarray:
    """Tier of each daily dose: 1 plus the number of ``RISK_EDGES`` it
    reaches."""
    return 1 + np.searchsorted(RISK_EDGES, mme_day, side="right")


def classify_records(table: TransactionTable,
                     thresholds: ClassThresholds = ClassThresholds()) -> ClassifiedTable:
    """Classify every record of a table.  ``ValueError`` names the first
    record that :func:`records.clean` would drop for its ``days_supply < 1``
    or for a latitude beyond 90 or a longitude beyond 180 degrees (either
    sign), or one that is not finite, whose distances are undefined."""
    points = {name: (getattr(table, f"{name}_lat"), getattr(table, f"{name}_lon"))
              for name in ("patient", "prescriber", "dispenser")}
    valid = {name: _valid_coordinates(*point) for name, point in points.items()}
    outside = np.flatnonzero(~np.logical_and.reduce(list(valid.values())))
    if outside.size:
        i = outside[0]
        _require_days_supply(table.record_id[:i + 1], table.days_supply[:i + 1])
        name = next(name for name, ok in valid.items() if not ok[i])
        lat, lon = (column[i] for column in points[name])
        raise ValueError(f"record {table.record_id[i]}: {name} coordinates out of range, "
                         f"got ({lat}, {lon}); run clean() first")
    patient, prescriber, dispenser = points.values()
    mme_day = table.mme_per_day()
    d_pp = _pairwise_miles(*patient, *prescriber)
    d_pd = _pairwise_miles(*patient, *dispenser)
    d_rd = _pairwise_miles(*prescriber, *dispenser)
    pi_total = d_pp + d_rd + d_pd  # the order of TriangleGeometry.pi_total
    code = 4 * _distance_levels(pi_total) + _disparities(d_pp, d_pd, d_rd, thresholds)
    return ClassifiedTable(table, d_pp, d_pd, d_rd, pi_total, code,
                           _risk_levels(mme_day))
