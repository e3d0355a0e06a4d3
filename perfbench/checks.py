"""Output checks: scores the record files a workload wrote against its
input corpus and ground truth, and recomputes Ripley's K independently.

These readers parse the TSV files directly rather than through regimpute,
so a defect in the program's own reader cannot hide one in its writer.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree

# Fields a record can lack (regimpute.records.TRACKED_FIELDS).
TRACKED_FIELDS = ("name", "category", "address", "postcode", "data_source", "coordinates")
EARTH_RADIUS_KM = 6371.0088
K_RTOL = 1e-9
_YEAR_RE = re.compile(r"(?<![0-9])([0-9]{4})(?![0-9])")


def read_records(path: Path) -> list[dict[str, str]]:
    """Record TSV rows as dicts; empty cells become ""."""
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        return [dict(zip(header, line.rstrip("\n").split("\t"))) for line in fh if line.strip("\n")]


def read_truth(path: Path, fields=("category", "postcode")) -> dict[tuple[str, str], str]:
    truth = {}
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        for line in fh:
            rec_id, field_name, value = line.rstrip("\n").split("\t")
            if field_name in fields:
                truth[(rec_id, field_name)] = value
    return truth


def _value(row: dict[str, str], field_name: str) -> str:
    if field_name == "coordinates":
        lon, lat = row.get("lon", ""), row.get("lat", "")
        return f"{lon},{lat}" if lon or lat else ""
    return row.get(field_name, "")


def _imputed(row: dict[str, str]) -> set[str]:
    return {part.partition("=")[0] for part in row.get("provenance", "").split(";") if part.endswith("=imputed")}


def _is_ad_completion(before: str, after: str, imputed: set[str]) -> bool:
    """AD imputation may prefix a street-only address with its province/
    city/county, keeping the original text and flagging provenance `ad`."""
    return ("ad" in imputed and "address" not in imputed
            and after.endswith(" " + before) and len(after) > len(before) + 1)


@dataclass
class Score:
    category_correct: int = 0
    category_total: int = 0
    postcode_correct: int = 0
    postcode_total: int = 0
    absent_in: int = 0
    still_absent: int = 0
    present_in: int = 0
    originals_changed: int = 0

    def metrics(self) -> dict[str, float]:
        return {
            "category_accuracy": self.category_correct / self.category_total,
            "postcode_accuracy": self.postcode_correct / self.postcode_total,
            "unfilled_ratio": self.still_absent / self.absent_in,
            "originals_kept_ratio": 1.0 - self.originals_changed / self.present_in,
        }


def score(inputs: list[dict], outputs: list[dict], truth: dict[tuple[str, str], str]) -> Score:
    """Compare a workload's output records with its input and the truth.

    Accuracy is over every record: the true value is the input's when
    present, else the truth sidecar's; an absent output counts as wrong.
    Raises ValueError when the outputs are not the inputs' rows in order."""
    if len(inputs) != len(outputs):
        raise ValueError(f"row count changed: {len(inputs)} in, {len(outputs)} out")
    s = Score()
    for before, after in zip(inputs, outputs):
        rec_id = before["id"]
        if after.get("id") != rec_id:
            raise ValueError(f"record order changed at id {rec_id}")
        imputed = _imputed(after)
        for field_name in TRACKED_FIELDS:
            old, new = _value(before, field_name), _value(after, field_name)
            if not old:
                s.absent_in += 1
                s.still_absent += not new
            else:
                s.present_in += 1
                if field_name in imputed or (
                    new != old and not (field_name == "address" and _is_ad_completion(old, new, imputed))
                ):
                    s.originals_changed += 1
        for field_name in ("category", "postcode"):
            true = _value(before, field_name) or truth.get((rec_id, field_name))
            if true:
                correct = _value(after, field_name) == true
                if field_name == "category":
                    s.category_total += 1
                    s.category_correct += correct
                else:
                    s.postcode_total += 1
                    s.postcode_correct += correct
    return s


def reference_k(rows: list[dict], radii: list[float]) -> list[float]:
    """Ripley's K of the rows' coordinates, counted with a k-d tree:
    equirectangular projection about the mean latitude, bounding-box area,
    ordered pairs i != j with distance <= r, no edge correction."""
    lonlat = np.array([(float(r["lon"]), float(r["lat"])) for r in rows if r.get("lon")], dtype=np.float64)
    n = lonlat.shape[0]
    lat0 = math.radians(lonlat[:, 1].mean())
    pts = np.column_stack([
        EARTH_RADIUS_KM * math.cos(lat0) * np.radians(lonlat[:, 0]),
        EARTH_RADIUS_KM * np.radians(lonlat[:, 1]),
    ])
    area = float(np.ptp(pts[:, 0]) * np.ptp(pts[:, 1]))
    tree = cKDTree(pts)
    pairs = tree.count_neighbors(tree, np.asarray(radii, dtype=np.float64)) - n  # drop i == j
    return [area / n**2 * float(c) for c in pairs]


def check_k_curve(path: Path, rows: list[dict], radii: list[float]) -> None:
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        curve = [tuple(float(x) for x in line.split("\t")[:2]) for line in fh if line.strip()]
    if [r for r, _ in curve] != radii:
        raise ValueError(f"K curve radii {[r for r, _ in curve]}, expected {radii}")
    for (r, k), ref in zip(curve, reference_k(rows, radii)):
        if not math.isclose(k, ref, rel_tol=K_RTOL):
            raise ValueError(f"K({r}) = {k!r}, reference {ref!r}")


def registration_year(data_source: str) -> int | None:
    for m in _YEAR_RE.finditer(data_source):
        if 1900 <= int(m.group(1)) <= 2100:
            return int(m.group(1))
    return None


def check_export(path: Path, rows: list[dict], years: tuple[int, int]) -> None:
    """The GeoJSON holds exactly the located records registered in years."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    got = [f["properties"]["id"] for f in doc["features"]]
    want = [
        r["id"] for r in rows
        if r.get("lon") and (y := registration_year(r.get("data_source", ""))) is not None
        and years[0] <= y <= years[1]
    ]
    if got != want:
        raise ValueError(f"export wrote {len(got)} features, expected {len(want)}")


def digest_outputs(out: Path) -> dict[str, str]:
    """SHA-256 of every output file except the stage timings."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "timings.tsv"
    }
