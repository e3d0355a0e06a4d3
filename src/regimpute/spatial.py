"""Spatial concentration analysis: Ripley's K and GeoJSON point export.

The K estimate is K(r) = (A / n^2) * #{ordered pairs (i, j), i != j, with
d_ij <= r} over a rectangular study area of area A, without edge
correction (a known downward bias near the boundary; the CSR acceptance
band is widened accordingly). Distances are Euclidean in projected planar
units; geographic coordinates are projected with an equirectangular
approximation about the mean latitude before analysis.

Pairs are counted by scipy's k-d tree (cKDTree.count_neighbors), which
holds no array of pair distances. The tree splits at sliding midpoints
(balanced_tree=False) and keeps each node's cell rather than shrinking it
to the node's points (compact_nodes=False). Registrations cluster at shared
addresses; on such points the dual-tree count then takes whole node pairs
at once, several times faster than on the default tree; on uniform points
the two builds take about the same time.

The count is exact under either build. For Euclidean distance the tree
compares squared distances with squared radii, as a naive double loop
does, and the two agree pair for pair. A node pair is counted or skipped
whole only when the bounds from its two rectangles decide it; the
rectangles contain their points under both builds, and correctly rounded
-, * and + are monotone, so the rounded lower bound never exceeds, and the
rounded upper bound never falls below, the rounded distance of a pair
inside them. Tests pin this with brute-force double loops on random points
and on clustered points with exact duplicates, and with a property on
integer-lattice points whose pair distances land exactly on the radii.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .records import EnterpriseRecord, IngestResult, atomic_writer, write_tsv

EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True)
class Rect:
    min_x: float
    min_y: float
    max_x: float
    max_y: float

    @property
    def area(self) -> float:
        return (self.max_x - self.min_x) * (self.max_y - self.min_y)


@dataclass(frozen=True)
class PointSet:
    points: np.ndarray  # (n, 2) float64
    region: Rect

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or (pts.size and pts.shape[1] != 2):
            raise ValueError("points must be an (n, 2) array")
        object.__setattr__(self, "points", pts)
        if pts.size:
            r = self.region
            if (
                pts[:, 0].min() < r.min_x
                or pts[:, 0].max() > r.max_x
                or pts[:, 1].min() < r.min_y
                or pts[:, 1].max() > r.max_y
            ):
                raise ValueError("points fall outside the study area")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_points(cls, points) -> "PointSet":
        """Bounding-box study area."""
        pts = np.asarray(points, dtype=np.float64)
        rect = Rect(pts[:, 0].min(), pts[:, 1].min(), pts[:, 0].max(), pts[:, 1].max())
        return cls(pts, rect)


@dataclass(frozen=True)
class KCurve:
    radii: tuple[float, ...]
    k: tuple[float, ...]

    def write(self, path: str | Path) -> None:
        rows = ((repr(r), repr(k), repr(math.pi * r * r)) for r, k in zip(self.radii, self.k))
        write_tsv(path, ("r", "K", "pi_r2"), rows)


def check_radii(radii: Sequence[float]) -> np.ndarray:
    """The radii as an array; ValueError unless they are finite, positive
    and strictly increasing."""
    arr = np.asarray(radii, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("radii must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise ValueError("radii must be finite")
    if arr[0] <= 0 or np.any(np.diff(arr) <= 0):
        raise ValueError("radii must be positive and strictly increasing")
    return arr


def ripley_k(points: PointSet, radii: Sequence[float]) -> KCurve:
    """K estimates at the given radii; fatal for fewer than two points."""
    # imported here: scipy.spatial takes ~0.25 s to load and the CLI imports this module at start-up
    from scipy.spatial import cKDTree

    if points.n < 2:
        raise ValueError("ripley_k needs at least two points")
    arr = check_radii(radii)
    tree = cKDTree(points.points, compact_nodes=False, balanced_tree=False)
    # ordered pairs within r, less the n self-pairs (i == j, d = 0)
    counts = tree.count_neighbors(tree, arr) - points.n
    scale = points.region.area / (points.n**2)
    return KCurve(tuple(float(r) for r in arr), tuple(float(scale * c) for c in counts))


def project_equirectangular(coords: Sequence[tuple[float, float]]) -> np.ndarray:
    """(lon, lat) degrees -> planar km about the mean latitude."""
    arr = np.asarray(coords, dtype=np.float64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    lat0 = math.radians(arr[:, 1].mean())
    x = EARTH_RADIUS_KM * math.cos(lat0) * np.radians(arr[:, 0])
    y = EARTH_RADIUS_KM * np.radians(arr[:, 1])
    return np.column_stack([x, y])


@dataclass(frozen=True)
class ExportReport:
    written: int
    skipped_no_coordinates: int


def export_geojson(
    records: IngestResult | Sequence[EnterpriseRecord],
    path: str | Path,
    category: str | None = None,
    year_range: tuple[int | None, int | None] | None = None,
) -> ExportReport:
    """Write a GeoJSON FeatureCollection of record points, optionally
    filtered by category and registration-year range (inclusive). An
    IngestResult is read from its columns, without building records."""
    lo, hi = year_range if year_range else (None, None)
    if lo is not None and hi is not None and lo > hi:
        raise ValueError(f"empty year range: {lo} > {hi}")
    if isinstance(records, IngestResult):
        rows = zip(*map(records.columns.__getitem__, ("id", "category", "reg_year", "lon", "lat")))
    else:
        rows = ((r.id, r.category, r.reg_year, *(r.coordinates or (None, None))) for r in records)
    features = []
    skipped = 0
    for rec_id, rec_category, year, lon, lat in rows:
        if category is not None and rec_category != category:
            continue
        if lo is not None and (year is None or year < lo):
            continue
        if hi is not None and (year is None or year > hi):
            continue
        if lon is None:
            skipped += 1
            continue
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [lon, lat]},
                "properties": {"id": rec_id, "category": rec_category, "year": year},
            }
        )
    doc = {"type": "FeatureCollection", "features": features}
    with atomic_writer(path) as fh:
        # dumps, not dump: only dumps takes the C encoder; the text is the same
        fh.write(json.dumps(doc, ensure_ascii=False, sort_keys=True, separators=(",", ":")))
    return ExportReport(len(features), skipped)
