"""Record data model, missingness statistics, and the package's file I/O.

Every file the package writes goes through atomic_writer (TSV tables through
write_tsv, which refuses a cell holding a tab or a line break), so a failed
write leaves any previous file whole and no partial one. Every TSV file it
reads goes through read_tsv, which accepts a UTF-8 byte-order mark.

The record file is UTF-8 tab-separated text with a header row. The six
core columns are id, name, category, address, postcode, data_source; lon,
lat and provenance columns are written by downstream stages and read back
when present. Empty cells mean "absent".

ingest parses each distinct repeating cell once per file: it memoises the
category symbol of each category cell, each validated postcode cell and
the (cell, reg_year) pair of each data_source cell, so the records share
those values. A bad cell is never memoised: each row holding one gets its
own diagnostic, from checks run in the order id, category, postcode,
coordinates. A lon or lat that is not a finite number makes the row bad.
Each record gets its own provenance dict.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .categories import normalize_category

POSTCODE_RE = re.compile(r"^[0-9]{6}$")
_YEAR_RE = re.compile(r"(?<![0-9])([0-9]{4})(?![0-9])")

ORIGINAL = "original"
IMPUTED = "imputed"

# Fields whose absence is tracked and that imputation stages may fill.
TRACKED_FIELDS = ("name", "category", "address", "postcode", "data_source", "coordinates")

_CORE_COLUMNS = ("id", "name", "category", "address", "postcode", "data_source")
_ALL_COLUMNS = _CORE_COLUMNS + ("lon", "lat", "provenance")


@dataclass(slots=True)
class EnterpriseRecord:
    """One registration row; optional fields are None when absent."""

    id: str
    name: str | None = None
    category: str | None = None
    address: str | None = None
    postcode: str | None = None
    data_source: str | None = None
    reg_year: int | None = None
    coordinates: tuple[float, float] | None = None  # (lon, lat) degrees
    provenance: dict[str, str] = field(default_factory=dict)

    def mark_imputed(self, field_name: str) -> None:
        self.provenance[field_name] = IMPUTED

    def provenance_of(self, field_name: str) -> str:
        return self.provenance.get(field_name, ORIGINAL)


@dataclass(frozen=True)
class RowDiagnostic:
    line_no: int
    message: str


@dataclass
class IngestResult:
    records: list[EnterpriseRecord]
    diagnostics: list[RowDiagnostic]

    @property
    def error_count(self) -> int:
        return len(self.diagnostics)


@dataclass(frozen=True)
class MissingnessReport:
    total: int
    missing: dict[str, float]  # field -> fraction absent, in [0, 1]


def parse_reg_year(data_source: str | None) -> int | None:
    """First standalone 4-digit number in [1900, 2100], if any."""
    if not data_source:
        return None
    for m in _YEAR_RE.finditer(data_source):
        year = int(m.group(1))
        if 1900 <= year <= 2100:
            return year
    return None


def _is_missing(record: EnterpriseRecord, field_name: str):
    value = getattr(record, "coordinates" if field_name == "coordinates" else field_name)
    return value is None or value == ""


def missingness(records: Sequence[EnterpriseRecord]) -> MissingnessReport:
    """Per-field fraction of absent values; all zeros for empty input."""
    total = len(records)
    if total == 0:
        return MissingnessReport(0, {f: 0.0 for f in TRACKED_FIELDS})
    counts = {f: 0 for f in TRACKED_FIELDS}
    for rec in records:
        for f in TRACKED_FIELDS:
            if _is_missing(rec, f):
                counts[f] += 1
    return MissingnessReport(total, {f: counts[f] / total for f in TRACKED_FIELDS})


class GroundTruth:
    """Pre-masking values keyed by (record id, field). Sidecar to a
    synthetic corpus; used to score imputation results."""

    def __init__(self, values: dict[tuple[str, str], str] | None = None):
        self.values: dict[tuple[str, str], str] = dict(values or {})

    def set(self, rec_id: str, field_name: str, value: str) -> None:
        self.values[(rec_id, field_name)] = value

    def get(self, rec_id: str, field_name: str) -> str | None:
        return self.values.get((rec_id, field_name))

    def ids_for(self, field_name: str) -> list[str]:
        return [rid for (rid, f) in self.values if f == field_name]

    def __len__(self) -> int:
        return len(self.values)

    def write(self, path: str | Path) -> None:
        write_tsv(path, ("id", "field", "value"), ((rid, f, v) for (rid, f), v in self.values.items()))

    @classmethod
    def read(cls, path: str | Path) -> "GroundTruth":
        truth = cls()
        rows = read_tsv(path)
        if next(rows, (1, []))[1] != ["id", "field", "value"]:
            raise ValueError(f"{path}: not a ground-truth sidecar")
        for line_no, cells in rows:
            if len(cells) != 3:
                raise ValueError(f"{path}:{line_no}: expected id<TAB>field<TAB>value")
            truth.set(*cells)
        return truth


def _parse_provenance(cell: str) -> dict[str, str]:
    prov: dict[str, str] = {}
    for part in cell.split(";"):
        if not part:
            continue
        name, _, flag = part.partition("=")
        prov[name] = flag
    return prov


def _format_provenance(prov: dict[str, str]) -> str:
    if not prov:
        return ""
    imputed = sorted(name for name, flag in prov.items() if flag == IMPUTED)
    return ";".join(f"{name}={IMPUTED}" for name in imputed)


def _parse_row(
    cells: Sequence[str],
    categories: dict[str, str],
    postcodes: dict[str, str],
    sources: dict[str, tuple[str | None, int | None]],
) -> EnterpriseRecord:
    """A record from its cells in _ALL_COLUMNS order; an empty cell is absent.
    The dicts are one file's memos (see the module docstring); a bad cell
    is never stored, so it raises on every row it appears in."""
    rec_id, name, category, address, postcode, data_source, lon_cell, lat_cell, prov_cell = cells
    if not rec_id:
        raise ValueError("empty id")

    if category:
        symbol = categories.get(category)
        if symbol is None:
            symbol = normalize_category(category)
            if symbol is None:
                raise ValueError(f"unknown category {category!r}")
            categories[category] = symbol
        category = symbol

    if postcode:
        valid = postcodes.get(postcode)
        if valid is None:
            if not POSTCODE_RE.match(postcode):
                raise ValueError(f"invalid postcode {postcode!r}")
            valid = postcodes[postcode] = postcode
        postcode = valid

    coordinates = None
    if lon_cell or lat_cell:
        if not (lon_cell and lat_cell):
            raise ValueError("lon/lat must both be present")
        try:
            lon, lat = float(lon_cell), float(lat_cell)
        except ValueError:
            lon = lat = math.nan
        # float() also parses nan and inf, which are no place on a map
        if not (math.isfinite(lon) and math.isfinite(lat)):
            raise ValueError(f"invalid coordinates {lon_cell!r}, {lat_cell!r}")
        coordinates = (lon, lat)

    source = sources.get(data_source)
    if source is None:
        source = sources[data_source] = (data_source or None, parse_reg_year(data_source))

    return EnterpriseRecord(
        id=rec_id,
        name=name or None,
        category=category or None,
        address=address or None,
        postcode=postcode or None,
        data_source=source[0],
        reg_year=source[1],
        coordinates=coordinates,
        provenance=_parse_provenance(prov_cell) if prov_cell else {},
    )


def ingest(path: str | Path) -> IngestResult:
    """Read a record TSV. Malformed rows are skipped with a diagnostic;
    an unreadable file or a header missing core columns is fatal."""
    records: list[EnterpriseRecord] = []
    diagnostics: list[RowDiagnostic] = []
    rows = read_tsv(path)
    _, names = next(rows, (1, []))
    columns = {name: i for i, name in enumerate(names)}
    missing_cols = [c for c in _CORE_COLUMNS if c not in columns]
    if missing_cols:
        raise ValueError(f"{path}: header lacks columns {missing_cols}")
    # an optional column the file lacks reads the empty cell appended to each row
    take = itemgetter(*(columns.get(c, len(names)) for c in _ALL_COLUMNS))
    memos: tuple[dict, dict, dict] = ({}, {}, {})
    for line_no, cells in rows:
        if len(cells) != len(names):
            diagnostics.append(RowDiagnostic(line_no, f"expected {len(names)} cells, got {len(cells)}"))
            continue
        cells.append("")
        try:
            records.append(_parse_row(take(cells), *memos))
        except ValueError as exc:
            diagnostics.append(RowDiagnostic(line_no, str(exc)))
    return IngestResult(records, diagnostics)


def read_tsv(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(line number, cells) for each non-empty line of a UTF-8 TSV file,
    header included. A leading byte-order mark and CRLF line ends are
    accepted; cells are not stripped."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if line:
                yield line_no, line.split("\t")


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """A text handle on a temporary file beside `path`, renamed over `path`
    when the block ends cleanly. On any failure the temporary file is
    removed, so a previous file at `path` stays whole and no partial one
    is left."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def tsv_line(row: Sequence[str | None]) -> str:
    """One TSV line, newline included. A None cell is written empty; a
    cell holding a tab or a line break raises ValueError."""
    if None in row:
        row = ["" if cell is None else cell for cell in row]
    line = "\t".join(row)
    if line.count("\t") != len(row) - 1 or "\n" in line or "\r" in line:
        raise ValueError(f"a cell contains a tab or line break: {row!r}")
    return line + "\n"


def write_tsv(
    path: str | Path, header: Sequence[str] | None, rows: Iterable[Sequence[str | None]]
) -> None:
    """Write an optional header row, then `rows`, through atomic_writer, each
    line checked by tsv_line; a bad cell leaves any previous file at `path`
    as it was."""
    with atomic_writer(path) as fh:
        for row in rows if header is None else chain((header,), rows):
            fh.write(tsv_line(row))


def write_records(records: Iterable[EnterpriseRecord], path: str | Path) -> None:
    """Write records as TSV, atomically; ingest() of the result reproduces them."""
    write_tsv(path, _ALL_COLUMNS, (
        (rec.id, rec.name, rec.category, rec.address, rec.postcode, rec.data_source,
         repr(rec.coordinates[0]) if rec.coordinates else None,
         repr(rec.coordinates[1]) if rec.coordinates else None,
         _format_provenance(rec.provenance))
        for rec in records
    ))
