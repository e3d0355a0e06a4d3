from __future__ import annotations

import io
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regimpute.records import EnterpriseRecord
from regimpute.spatial import (
    KCurve,
    PointSet,
    Rect,
    export_geojson,
    project_equirectangular,
    ripley_k,
)
from record_forms import ingest_result_of


def brute_force_k(points, area, radii):
    """O(n^2) double loop. Distance comparison and the (A / n^2) * count
    scaling follow the estimator definition term for term, so agreement
    with the implementation is exact, not approximate."""
    n = len(points)
    scale = area / (n * n)
    out = []
    for r in radii:
        r2 = r * r
        count = 0
        for i in range(n):
            xi, yi = points[i]
            for j in range(n):
                if i == j:
                    continue
                dx = xi - points[j][0]
                dy = yi - points[j][1]
                if dx * dx + dy * dy <= r2:
                    count += 1
        out.append(scale * count)
    return out


def test_two_points_hand_computed():
    ps = PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]), Rect(0.0, 0.0, 1.0, 1.0))
    curve = ripley_k(ps, [0.5, 2.0])
    assert curve.k[0] == 0.0
    assert curve.k[1] == pytest.approx(0.5)  # area 1 * 2 ordered pairs / 4


def test_coincident_points_formula():
    n = 7
    pts = np.tile([[0.25, 0.75]], (n, 1))
    ps = PointSet(pts, Rect(0.0, 0.0, 2.0, 1.0))  # area 2
    curve = ripley_k(ps, [0.1, 1.0])
    expected = 2.0 * (n * n - n) / (n * n)
    assert curve.k == (pytest.approx(expected), pytest.approx(expected))


def test_matches_double_loop_exactly_up_to_200_points():
    rng = random.Random(77)
    for n in (2, 17, 200):
        pts = [(rng.random() * 3, rng.random() * 2) for _ in range(n)]
        ps = PointSet(np.array(pts), Rect(0.0, 0.0, 3.0, 2.0))
        radii = [0.05, 0.2, 0.5, 1.0, 3.5]
        curve = ripley_k(ps, radii)
        expected = brute_force_k(pts, 6.0, radii)
        assert list(curve.k) == expected  # exact float equality


def row_block_counts(pts, radii):
    """Ordered-pair counts (i != j, d^2 <= r^2) by a numpy double loop over
    row blocks; the same comparison as brute_force_k, fast enough for 10k
    points."""
    n, block = pts.shape[0], 256
    counts = [0] * len(radii)
    for start in range(0, n, block):
        rows = pts[start : start + block]
        dx = rows[:, 0, None] - pts[None, :, 0]
        dy = rows[:, 1, None] - pts[None, :, 1]
        d2 = dx * dx + dy * dy
        for k, r in enumerate(radii):
            counts[k] += int(np.count_nonzero(d2 <= r * r))
    return [c - n for c in counts]  # drop the i == j pairs, d = 0


def test_large_input_uses_grid_and_matches_brute_force_counts():
    rng = np.random.default_rng(8)
    pts = rng.random((10_050, 2))
    ps = PointSet(pts, Rect(0.0, 0.0, 1.0, 1.0))
    radii = [0.01, 0.02]
    curve = ripley_k(ps, radii)
    scale = 1.0 / (ps.n * ps.n)
    assert list(curve.k) == [scale * c for c in row_block_counts(pts, radii)]


def test_clustered_points_with_duplicates_match_row_block_counts():
    # registrations cluster at shared addresses: Gaussian clusters of
    # distinct sizes, and every fourth point repeated exactly
    rng = np.random.default_rng(21)
    centres = rng.random((12, 2)) * 100
    sizes = rng.integers(50, 600, size=12)
    spreads = rng.random(12) * 3
    pts = np.concatenate([c + rng.normal(scale=s, size=(n, 2)) for c, n, s in zip(centres, sizes, spreads)])
    pts = np.concatenate([pts, pts[::4]])
    pts = pts[rng.permutation(len(pts))]
    assert 4_000 <= len(pts) <= 6_000
    ps = PointSet.from_points(pts)
    radii = [0.01, 0.5, 2.0, 10.0, 40.0]
    curve = ripley_k(ps, radii)
    scale = ps.region.area / (ps.n * ps.n)
    assert list(curve.k) == [scale * c for c in row_block_counts(ps.points, radii)]


# Integer radii, which lattice pair distances hit exactly (5 for a 3-4
# offset), and sqrt(k) radii, whose square may round to either side of k.
_LATTICE_RADII = st.one_of(
    st.integers(1, 8).map(float),
    st.integers(1, 72).map(math.sqrt),
)


@settings(max_examples=200, deadline=None)
@given(
    pts=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=40),
    radii=st.sets(_LATTICE_RADII, min_size=1, max_size=6),
)
def test_lattice_points_match_double_loop_exactly(pts, radii):
    points = [(float(x), float(y)) for x, y in pts]
    radii = sorted(radii)
    curve = ripley_k(PointSet(np.array(points), Rect(0.0, 0.0, 6.0, 6.0)), radii)
    assert list(curve.k) == brute_force_k(points, 36.0, radii)


def test_monotone_in_radius():
    rng = np.random.default_rng(3)
    ps = PointSet(rng.random((300, 2)), Rect(0.0, 0.0, 1.0, 1.0))
    curve = ripley_k(ps, [0.01, 0.05, 0.1, 0.2, 0.5, 1.5])
    assert all(a <= b for a, b in zip(curve.k, curve.k[1:]))


def test_relabeling_invariance():
    rng = np.random.default_rng(4)
    pts = rng.random((120, 2))
    shuffled = pts[rng.permutation(120)]
    region = Rect(0.0, 0.0, 1.0, 1.0)
    radii = [0.05, 0.3]
    a = ripley_k(PointSet(pts, region), radii)
    b = ripley_k(PointSet(shuffled, region), radii)
    assert a.k == b.k


def test_csr_ratio_near_unity():
    # uniform points: K(r)/(pi r^2) close to 1, modulo edge bias
    rng = np.random.default_rng(123)
    r = 0.05
    for _ in range(5):
        ps = PointSet(rng.random((2000, 2)), Rect(0.0, 0.0, 1.0, 1.0))
        k = ripley_k(ps, [r]).k[0]
        assert 0.85 <= k / (math.pi * r * r) <= 1.15


def test_input_validation():
    ps = PointSet(np.array([[0.0, 0.0], [1.0, 1.0]]), Rect(0.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        ripley_k(PointSet(np.array([[0.5, 0.5]]), Rect(0, 0, 1, 1)), [0.1])
    with pytest.raises(ValueError):
        ripley_k(ps, [])
    with pytest.raises(ValueError):
        ripley_k(ps, [0.2, 0.1])
    with pytest.raises(ValueError):
        ripley_k(ps, [0.0, 0.1])
    with pytest.raises(ValueError):
        PointSet(np.array([[2.0, 0.0]]), Rect(0.0, 0.0, 1.0, 1.0))


@pytest.mark.parametrize("radii", [[math.nan], [25.0, math.nan], [math.nan, 25.0], [25.0, math.inf]])
def test_radii_must_be_finite(radii):
    ps = PointSet(np.array([[0.0, 0.0], [1.0, 1.0]]), Rect(0.0, 0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="finite"):
        ripley_k(ps, radii)


def test_cli_import_does_not_load_scipy_spatial():
    # the k-d tree is imported on first use, so CLI start-up does not pay for it
    code = "import sys, regimpute.cli; print('scipy.spatial' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_projection_scales_longitude_by_latitude():
    coords = [(114.0, 30.0), (115.0, 30.0), (114.0, 31.0)]
    xy = project_equirectangular(coords)
    dx = xy[1, 0] - xy[0, 0]  # one degree of longitude
    dy = xy[2, 1] - xy[0, 1]  # one degree of latitude
    assert dy == pytest.approx(111.2, abs=0.5)
    assert dx == pytest.approx(dy * math.cos(math.radians(30.333)), rel=0.01)


def test_kcurve_tsv(tmp_path):
    curve = KCurve((0.5, 1.0), (0.1, 0.4))
    path = tmp_path / "k.tsv"
    curve.write(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "r\tK\tpi_r2"
    assert len(lines) == 3
    r, k, pi_r2 = lines[1].split("\t")
    assert float(pi_r2) == pytest.approx(math.pi * 0.25)


def sample_result():
    return ingest_result_of([
        EnterpriseRecord(id="a", category="SRTS", reg_year=1995, coordinates=(114.0, 30.0)),
        EnterpriseRecord(id="b", category="RE", reg_year=2005, coordinates=(115.0, 31.0)),
        EnterpriseRecord(id="c", category="SRTS", reg_year=2015, coordinates=None),
        EnterpriseRecord(id="d", category="SRTS", reg_year=2016, coordinates=(116.0, 32.0)),
    ])


def test_export_filter_by_category(tmp_path):
    path = tmp_path / "x.geojson"
    report = export_geojson(sample_result(), path, category="SRTS")
    assert report.written == 2  # a and d; c has no coordinates
    assert report.skipped_no_coordinates == 1
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["type"] == "FeatureCollection"
    ids = [f["properties"]["id"] for f in doc["features"]]
    assert ids == ["a", "d"]
    assert doc["features"][0]["geometry"] == {"type": "Point", "coordinates": [114.0, 30.0]}


def test_export_year_window(tmp_path):
    path = tmp_path / "x.geojson"
    report = export_geojson(sample_result(), path, year_range=(1995, 2015))
    assert report.written == 2  # a, b; c filtered only by coordinates
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert {f["properties"]["year"] for f in doc["features"]} == {1995, 2005}


def test_export_no_filter_takes_all_coordinate_bearing(tmp_path):
    path = tmp_path / "x.geojson"
    report = export_geojson(sample_result(), path)
    assert report.written == 3
    assert report.skipped_no_coordinates == 1


def test_export_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "1.geojson", tmp_path / "2.geojson"
    export_geojson(sample_result(), p1)
    export_geojson(sample_result(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_rejects_an_inverted_year_range(tmp_path):
    path = tmp_path / "x.geojson"
    with pytest.raises(ValueError, match="year range"):
        export_geojson(sample_result(), path, year_range=(2015, 1995))
    assert not path.exists()


def test_export_bytes_equal_a_json_dump_reference(tmp_path):
    inputs = [
        [
            EnterpriseRecord(id="武汉-01", category="RE", reg_year=None, coordinates=(114.25, 30.5)),
            EnterpriseRecord(id="é\u2028\"q\"", category=None, reg_year=1999, coordinates=(-0.0, 1e-7)),
            EnterpriseRecord(id="c", category=None, reg_year=None, coordinates=(1 / 3, 2e22)),
        ],
        [
            EnterpriseRecord(id="back\\slash", category="SRTS", reg_year=2004, coordinates=(-0.0, -1e-7)),
            EnterpriseRecord(id='say "hi"', category=None, reg_year=None, coordinates=(2e22, 1e-7)),
            EnterpriseRecord(id="bell\x07\x1f", category="RE", reg_year=None, coordinates=(114.5, -30.25)),
            EnterpriseRecord(id="line\u2028para\u2029", category=None, reg_year=1995, coordinates=(1e16, 5e-324)),
            EnterpriseRecord(id="湖北省武汉市企业", category="M", reg_year=2015, coordinates=(114, 30)),
            EnterpriseRecord(id="no-point", category=None, reg_year=None, coordinates=None),
        ],
        [EnterpriseRecord(id="none-located", category="RE", reg_year=2000, coordinates=None)],
        [],
    ]
    for i, records in enumerate(inputs):
        path = tmp_path / f"x{i}.geojson"
        export_geojson(ingest_result_of(records), path)
        features = [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": list(r.coordinates)},
                "properties": {"id": r.id, "category": r.category, "year": r.reg_year},
            }
            for r in records
            if r.coordinates is not None
        ]
        reference = io.StringIO()
        json.dump({"type": "FeatureCollection", "features": features}, reference,
                  ensure_ascii=False, sort_keys=True, separators=(",", ":"))
        assert path.read_bytes() == reference.getvalue().encode("utf-8"), i
