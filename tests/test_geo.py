import math
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rxgeo import geo
from rxgeo.geo import (ALL_CLASS_CODES, EARTH_RADIUS_MILES, ClassCode,
                       ClassThresholds, DisparityLabel, TriangleGeometry,
                       class_code, classify_records, disparity, distance_level,
                       geometry, haversine, risk_level)
from rxgeo.records import GeoPoint, PrescriptionRecord, TransactionTable

coord = st.tuples(st.floats(min_value=-89.0, max_value=89.0),
                  st.floats(min_value=-180.0, max_value=180.0))


def point_at(lon_miles: float) -> GeoPoint:
    """Point on the equator ``lon_miles`` east of the origin."""
    return GeoPoint(0.0, math.degrees(lon_miles / EARTH_RADIUS_MILES))


def make_record(patient, prescriber, dispenser, mme=100.0, days=2):
    return PrescriptionRecord("r", date(2019, 1, 1), patient, prescriber,
                              dispenser, mme, days, "opioid")


# --- haversine -----------------------------------------------------------------

def test_haversine_identity():
    p = GeoPoint(34.2, -81.7)
    assert haversine(p, p) == 0.0


def test_haversine_antipodal_half_circumference():
    d = haversine(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
    assert d == pytest.approx(math.pi * EARTH_RADIUS_MILES, abs=1e-9)
    assert d == pytest.approx(12436.8, abs=0.1)


def test_haversine_against_law_of_cosines_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        lat1, lat2 = np.radians(rng.uniform(-80, 80, 2))
        lon1, lon2 = np.radians(rng.uniform(-180, 180, 2))
        cos_angle = (math.sin(lat1) * math.sin(lat2)
                     + math.cos(lat1) * math.cos(lat2) * math.cos(lon2 - lon1))
        oracle = EARTH_RADIUS_MILES * math.acos(max(-1.0, min(1.0, cos_angle)))
        got = haversine(GeoPoint(math.degrees(lat1), math.degrees(lon1)),
                        GeoPoint(math.degrees(lat2), math.degrees(lon2)))
        assert got == pytest.approx(oracle, abs=1e-3)


@settings(max_examples=100, deadline=None)
@given(coord, coord)
def test_haversine_symmetry_property(a, b):
    pa, pb = GeoPoint(*a), GeoPoint(*b)
    assert haversine(pa, pb) == pytest.approx(haversine(pb, pa), abs=1e-9)
    assert haversine(pa, pb) >= 0.0


# --- geometry ------------------------------------------------------------------

def test_geometry_degenerate_all_same():
    p = GeoPoint(33.0, -80.0)
    g = geometry(make_record(p, p, p))
    assert g.d_pp == g.d_pd == g.d_rd == 0.0
    assert g.pi_total == 0.0


def test_geometry_collapsed_vertex():
    p = GeoPoint(0.0, 0.0)
    d = point_at(100.0)
    g = geometry(make_record(p, p, d))
    assert g.d_pp == 0.0
    assert g.d_pd == pytest.approx(100.0, abs=1e-6)
    assert g.d_rd == pytest.approx(100.0, abs=1e-6)
    assert g.pi_total == pytest.approx(200.0, abs=1e-6)


def test_geometry_compositional_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        pts = [GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
               for _ in range(3)]
        rec = make_record(*pts)
        g = geometry(rec)
        total = (haversine(pts[0], pts[1]) + haversine(pts[1], pts[2])
                 + haversine(pts[0], pts[2]))
        assert g.pi_total == pytest.approx(total, abs=1e-9)


def test_geometry_triangle_inequality():
    rng = np.random.default_rng(6)
    for _ in range(100):
        pts = [GeoPoint(rng.uniform(-80, 80), rng.uniform(-180, 180))
               for _ in range(3)]
        g = geometry(make_record(*pts))
        assert g.d_pp <= g.d_pd + g.d_rd + 1e-6
        assert g.d_pd <= g.d_pp + g.d_rd + 1e-6
        assert g.d_rd <= g.d_pp + g.d_pd + 1e-6


def test_pi_total_monotone_as_one_vertex_moves_away():
    # Patient slides along the equator away from the other two stakeholders.
    prescriber, dispenser = point_at(0.0), point_at(30.0)
    totals = [geometry(make_record(point_at(-x), prescriber, dispenser)).pi_total
              for x in np.linspace(0.0, 2000.0, 40)]
    assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))


# --- distance level ------------------------------------------------------------

@pytest.mark.parametrize("pi,expected", [
    (250.0, 0), (600.0, 2), (1000.0001, 3),
    (0.0, 0), (250.0000001, 1), (500.0, 1), (1000.0, 2), (1e6, 3),
])
def test_distance_level_boundaries(pi, expected):
    assert distance_level(pi) == expected


def test_distance_level_negative_rejected():
    with pytest.raises(ValueError):
        distance_level(-1.0)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0, max_value=5e3), st.floats(min_value=0, max_value=5e3))
def test_distance_level_monotone_property(a, b):
    lo, hi = sorted((a, b))
    assert distance_level(lo) <= distance_level(hi)


# --- disparity ------------------------------------------------------------------

def brute_force_disparity(g: TriangleGeometry, near=50.0, ratio=3.0) -> DisparityLabel:
    """Independent reimplementation: check every vertex's isolation directly."""
    edges = {"pp": g.d_pp, "pd": g.d_pd, "rd": g.d_rd}
    opposite = {"rd": DisparityLabel.patient_isolated,
                "pd": DisparityLabel.prescriber_isolated,
                "pp": DisparityLabel.dispenser_isolated}
    incident = {"rd": ("pp", "pd"), "pd": ("pp", "rd"), "pp": ("pd", "rd")}
    shortest = min(edges.values())
    # candidates in priority order patient > prescriber > dispenser
    for name in ("rd", "pd", "pp"):
        if edges[name] == shortest:
            e1, e2 = incident[name]
            cut = max(near, ratio * shortest)
            if shortest <= near and edges[e1] > cut and edges[e2] > cut:
                return opposite[name]
            return DisparityLabel.otherwise
    raise AssertionError


def test_disparity_patient_isolated_example():
    g = TriangleGeometry(d_pp=200.0, d_pd=200.0, d_rd=5.0)
    assert disparity(g) == DisparityLabel.patient_isolated


def test_disparity_all_close_is_otherwise():
    g = TriangleGeometry(d_pp=8.0, d_pd=10.0, d_rd=9.0)
    assert disparity(g) == DisparityLabel.otherwise


def test_disparity_tie_priority():
    # Two shortest edges tie; the patient outranks the prescriber as candidate.
    g = TriangleGeometry(d_pp=10.0, d_pd=200.0, d_rd=10.0)
    assert disparity(g) == brute_force_disparity(g)


def test_disparity_brute_force_agreement_1000():
    rng = np.random.default_rng(7)
    n_checked = 0
    while n_checked < 1000:
        # Random triangles at mixed scales, biased toward short edges so
        # every label occurs.
        scale = rng.choice([5.0, 30.0, 80.0, 400.0, 1500.0])
        pts = []
        base_lat = rng.uniform(-60, 60)
        base_lon = rng.uniform(-170, 170)
        for _ in range(3):
            dlat = rng.normal(0, scale / EARTH_RADIUS_MILES) * 57.29578
            dlon = rng.normal(0, scale / EARTH_RADIUS_MILES) * 57.29578
            pts.append(GeoPoint(min(89.0, max(-89.0, base_lat + dlat)),
                                base_lon + dlon))
        g = geometry(make_record(*pts))
        assert disparity(g) == brute_force_disparity(g)
        n_checked += 1


def _tie_triangles(near, ratio):
    """Triangles whose edges tie with each other or sit exactly on a threshold."""
    s = near / 2.0
    out = [(0.0, 0.0, 0.0), (7.0, 7.0, 7.0), (near, near, near),
           (2 * near, 2 * near, 2 * near)]
    for a, b in ((10.0, 200.0), (near, 500.0), (s, ratio * s), (near, ratio * near)):
        out += [(a, a, b), (a, b, a), (b, a, a)]  # two edges tied for shortest
    for shortest in (near, s):
        cut = max(near, ratio * shortest)
        for far in (cut, np.nextafter(cut, np.inf)):
            for other in (cut, far, 2 * far):
                # each vertex as the candidate, each incident edge on the cut
                out += [(far, other, shortest), (other, far, shortest),
                        (far, shortest, other), (shortest, far, other),
                        (shortest, other, far), (other, shortest, far)]
    return out


@pytest.mark.parametrize("near,ratio", [(50.0, 3.0), (10.0, 2.0), (50.0, 0.5)])
def test_disparity_kernel_matches_brute_force_on_exact_ties(near, ratio):
    thresholds = ClassThresholds(near_miles=near, isolation_ratio=ratio)
    triangles = _tie_triangles(near, ratio)
    d_pp, d_pd, d_rd = (np.array(col) for col in zip(*triangles))
    bulk = geo._disparities(d_pp, d_pd, d_rd, thresholds)
    labels = set()
    for (pp, pd, rd), got in zip(triangles, bulk.tolist()):
        g = TriangleGeometry(d_pp=pp, d_pd=pd, d_rd=rd)
        expected = brute_force_disparity(g, near, ratio)
        assert got == expected == disparity(g, thresholds), (pp, pd, rd)
        labels.add(expected)
    assert labels == set(DisparityLabel)


def test_classify_records_on_exact_edges():
    # all three points identical: every edge ties at 0
    p = GeoPoint(33.0, -80.0)
    c = classify_records(TransactionTable.from_records([make_record(p, p, p)]))
    assert c.class_codes().tolist() == ["03"]
    # totals and daily doses exactly on the level edges
    pi = np.array([0.0, 250.0, np.nextafter(250.0, 1e9), 500.0, 1000.0,
                   np.nextafter(1000.0, 1e9)])
    assert geo._distance_levels(pi).tolist() == [0, 0, 1, 1, 2, 3] == \
        [distance_level(x) for x in pi.tolist()]
    mme_day = np.array([0.0, np.nextafter(20.0, 0), 20.0, 50.0, 100.0, 1e6])
    assert geo._risk_levels(mme_day).tolist() == [1, 1, 2, 3, 4, 4] == \
        [risk_level(x).level for x in mme_day.tolist()]
    # MME/day of exactly 20, 50 and 100 through the table's own division
    recs = [make_record(p, p, point_at(1.0), mme=mme, days=days)
            for mme, days in ((140.0, 7), (150.0, 3), (3000.0, 30))]
    table = TransactionTable.from_records(recs)
    assert table.mme_per_day().tolist() == [20.0, 50.0, 100.0]
    assert classify_records(table).risk_level.tolist() == [2, 3, 4]


def test_disparity_respects_thresholds():
    g = TriangleGeometry(d_pp=40.0, d_pd=40.0, d_rd=5.0)
    assert disparity(g) == DisparityLabel.otherwise  # 40 <= max(50, 15)
    loose = ClassThresholds(near_miles=10.0, isolation_ratio=2.0)
    assert disparity(g, loose) == DisparityLabel.patient_isolated


# --- class code / risk level ----------------------------------------------------

def test_class_code_composition_examples():
    assert ClassCode(distance_level(100.0), DisparityLabel.patient_isolated).code == "00"
    assert ClassCode(distance_level(600.0), DisparityLabel.dispenser_isolated).code == "22"
    assert ClassCode(distance_level(1200.0), DisparityLabel.otherwise).code == "33"


def test_class_code_full_record():
    # prescriber/dispenser 5 miles apart, patient ~600 miles from both
    patient = point_at(-600.0)
    rec = make_record(patient, point_at(0.0), point_at(5.0))
    code = class_code(rec)
    assert code.code == "30"  # pi ~ 1205 miles, patient isolated


@pytest.mark.parametrize("mme_day,level,hr", [
    (45.0, 2, 1.44), (120.0, 4, 8.87), (0.0, 1, 1.0),
    (19.999, 1, 1.0), (20.0, 2, 1.44), (50.0, 3, 3.73), (99.999, 3, 3.73),
    (100.0, 4, 8.87),
])
def test_risk_level_boundaries(mme_day, level, hr):
    r = risk_level(mme_day)
    assert r.level == level
    assert r.hazard_ratio == hr


def test_risk_level_monotone():
    values = np.linspace(0, 200, 400)
    levels = [risk_level(v).level for v in values]
    assert all(b >= a for a, b in zip(levels, levels[1:]))


def test_risk_level_negative_rejected():
    with pytest.raises(ValueError):
        risk_level(-0.1)


def test_classification_partition_totality():
    rng = np.random.default_rng(8)
    records = []
    for _ in range(500):
        pts = [GeoPoint(rng.uniform(-60, 60), rng.uniform(-120, 120))
               for _ in range(3)]
        records.append(make_record(*pts, mme=rng.uniform(1, 1000),
                                   days=int(rng.integers(1, 30))))
    classified = classify_records(TransactionTable.from_records(records))
    counts = classified.class_counts()
    assert set(counts) == set(ALL_CLASS_CODES)
    assert sum(counts.values()) == len(classified) == len(records)
    assert set(classified.class_codes().tolist()) <= set(ALL_CLASS_CODES)


def test_classify_records_matches_scalar_path():
    rng = np.random.default_rng(9)
    records = []
    for _ in range(300):
        pts = [GeoPoint(rng.uniform(-60, 60), rng.uniform(-120, 120))
               for _ in range(3)]
        records.append(make_record(*pts))
    bulk = classify_records(TransactionTable.from_records(records))
    for rec, code, d_pp, d_pd, d_rd, pi_total in zip(
            records, bulk.class_codes().tolist(), bulk.d_pp.tolist(), bulk.d_pd.tolist(),
            bulk.d_rd.tolist(), bulk.pi_total.tolist()):
        assert class_code(rec).code == code
        g = geometry(rec)
        # equal to the last bit, so both paths bucket a record alike at an edge
        assert (d_pp, d_pd, d_rd) == (g.d_pp, g.d_pd, g.d_rd)
        assert pi_total == g.pi_total


def test_classify_records_refuses_the_first_record_clean_would_drop():
    inside, outside = GeoPoint(34.0, -81.0), GeoPoint(34.0, 181.0)
    recs = [make_record(inside, inside, inside),
            make_record(inside, inside, outside),
            make_record(inside, inside, inside, days=0)]
    table = TransactionTable.from_records(
        [replace(r, record_id=f"r{i}") for i, r in enumerate(recs)])
    with pytest.raises(ValueError, match=r"^record r1: dispenser coordinates out of range, "
                                         r"got \(34\.0, 181\.0\); run clean\(\) first$"):
        classify_records(table)
    with pytest.raises(ValueError, match=r"^record r2: days_supply must be >= 1"):
        classify_records(table.take(np.array([True, False, True])))
    nan = TransactionTable.from_records([make_record(GeoPoint(math.nan, 0.0), inside, inside)])
    with pytest.raises(ValueError, match="patient coordinates out of range, got \\(nan, 0.0\\)"):
        classify_records(nan)
