"""Record data model, missingness statistics, and the package's file I/O.

Every file the package writes goes through atomic_writer (TSV tables through
write_tsv, which refuses a cell holding a tab or a line break), so a failed
write leaves any previous file whole and no partial one. Every TSV file it
reads is opened as read_tsv opens it, which accepts a UTF-8 byte-order mark;
ingest reads the same handle in blocks of lines, split exactly as read_tsv
splits them.

The record file is UTF-8 tab-separated text with a header row. The six
core columns are id, name, category, address, postcode, data_source; lon,
lat and provenance columns are written by downstream stages and read back
when present. Empty cells mean "absent".

ingest checks each block of rows column by column. A row with the wrong
cell count is set aside first; then come the id, category, postcode and
coordinate checks, in that order, and a bad row keeps the message of its
first failed check. Each distinct category, postcode and data_source cell
is parsed once per file: ingest memoises the category symbol of each
category cell, each validated postcode cell and the (cell, reg_year) pair
of each data_source cell, so the records share those values. A bad cell is
never memoised: each row holding one gets its own diagnostic. A lon or lat
that is not a finite number makes the row bad.

IngestResult keeps the good rows as columns, which every command and the
pipeline read and change in place; name and address are "" where absent,
category, postcode and data_source None. A run records its fills as one
imputed flag per row for each field in FLAGGED_FIELDS (new_flags), never
as per-row objects. A row's field counts as imputed when its provenance
cell or the run's flag says so (imputed_rows); missingness counts and
write_columns writes that union, so a written cell is the parsed ingest
cell plus the run's flags, names outside TRACKED_FIELDS included.
IngestResult builds EnterpriseRecords from the columns only on first
access, for the tests and for callers of the record API; each record gets
its own provenance dict, a copy of the one parsed for its cell.
write_columns writes the columns as write_records writes those records.
"""

from __future__ import annotations

import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, compress, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .categories import normalize_category

POSTCODE_RE = re.compile(r"^[0-9]{6}$")
_YEAR_RE = re.compile(r"(?<![0-9])([0-9]{4})(?![0-9])")

ORIGINAL = "original"
IMPUTED = "imputed"

# Fields whose absence is tracked and that imputation stages may fill.
TRACKED_FIELDS = ("name", "category", "address", "postcode", "data_source", "coordinates")
# Fields a stage marks imputed: "ad" marks an address AD rewrote, which was present.
FLAGGED_FIELDS = ("category", "postcode", "address", "ad", "coordinates")

_CORE_COLUMNS = ("id", "name", "category", "address", "postcode", "data_source")
_ALL_COLUMNS = _CORE_COLUMNS + ("lon", "lat", "provenance")
# IngestResult's columns: a record's fields, with its coordinates as lon and lat
_FIELDS = _CORE_COLUMNS + ("reg_year", "lon", "lat", "provenance")


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
    """An ingested file: its good rows as row-aligned columns, one list for
    each name in _FIELDS, and a diagnostic for each bad row. The records
    are built from the columns on first access."""

    columns: dict[str, list]
    diagnostics: list[RowDiagnostic]

    @cached_property
    def records(self) -> list[EnterpriseRecord]:
        provenance = {cell: _parse_provenance(cell) for cell in set(self.columns["provenance"])}
        return [
            EnterpriseRecord(rec_id, name or None, category, address or None, postcode, source, year,
                             None if lon is None else (lon, lat), provenance[prov].copy())
            for rec_id, name, category, address, postcode, source, year, lon, lat, prov
            in zip(*map(self.columns.__getitem__, _FIELDS))
        ]

    @property
    def error_count(self) -> int:
        return len(self.diagnostics)


@dataclass(frozen=True)
class MissingnessReport:
    total: int
    missing: dict[str, float]  # field -> fraction absent, in [0, 1]
    absent: dict[str, int]  # field -> records with the value absent
    imputed: dict[str, int]  # field -> records with the value marked imputed


def parse_reg_year(data_source: str | None) -> int | None:
    """First standalone 4-digit number in [1900, 2100], if any."""
    if not data_source:
        return None
    for m in _YEAR_RE.finditer(data_source):
        year = int(m.group(1))
        if 1900 <= year <= 2100:
            return year
    return None


def new_flags(n: int) -> dict[str, bytearray]:
    """A run's imputed flags for n rows, none set: one byte per row for
    each field in FLAGGED_FIELDS."""
    return {name: bytearray(n) for name in FLAGGED_FIELDS}


def imputed_rows(columns: dict[str, list], flags: dict[str, bytearray], field_name: str) -> np.ndarray:
    """Each row's imputed mark for a field, as a bool array: set by the
    row's provenance cell or by the run's flag. Each distinct cell is
    parsed once."""
    cells = columns["provenance"]
    marked = {cell for cell in set(cells) if _parse_provenance(cell).get(field_name) == IMPUTED}
    rows = (np.fromiter(map(marked.__contains__, cells), dtype=bool, count=len(cells)) if marked
            else np.zeros(len(cells), dtype=bool))
    if field_name in flags:
        rows |= np.frombuffer(flags[field_name], dtype=bool)
    return rows


def missingness(columns: dict[str, list], flags: dict[str, bytearray]) -> MissingnessReport:
    """Per-field absent and imputed counts and the fraction absent, from
    ingest columns and a run's flags; a value is absent when it is None or
    the empty string, and a row's coordinates are absent when its lon is.
    Fractions are zero for empty input."""
    total = len(columns["id"])
    absent = {f: columns[f].count(None) + columns[f].count("") for f in TRACKED_FIELDS if f != "coordinates"}
    absent["coordinates"] = columns["lon"].count(None)
    imputed = {f: int(np.count_nonzero(imputed_rows(columns, flags, f))) for f in TRACKED_FIELDS}
    fractions = {f: absent[f] / total if total else 0.0 for f in TRACKED_FIELDS}
    return MissingnessReport(total, fractions, absent, imputed)


class GroundTruth:
    """Pre-masking values keyed by (record id, field). Sidecar to a
    synthetic corpus; used to score imputation results."""

    def __init__(self, values: dict[tuple[str, str], str] | None = None):
        self.values: dict[tuple[str, str], str] = dict(values or {})

    def set(self, rec_id: str, field_name: str, value: str) -> None:
        self.values[(rec_id, field_name)] = value

    def get(self, rec_id: str, field_name: str) -> str | None:
        return self.values.get((rec_id, field_name))

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


@lru_cache(maxsize=256)
def _format_provenance(items: tuple[tuple[str, str], ...]) -> str:
    """The provenance cell of a record's provenance items. Memoised: a
    file holds few distinct provenances."""
    imputed = sorted(name for name, flag in items if flag == IMPUTED)
    return ";".join(f"{name}={IMPUTED}" for name in imputed)


def _check_distinct(cells: list[str], memo: dict[str, str], check) -> set[str]:
    """Memoise check(cell) for each distinct cell not in `memo` yet, and
    return the cells check rejects (returns None for); those are never
    memoised."""
    rejected = set()
    for cell in set(cells).difference(memo):
        if (value := check(cell)) is None:
            rejected.add(cell)
        else:
            memo[cell] = value
    return rejected


def _coordinates(
    line_nos: Sequence[int], lon_cells: list[str], lat_cells: list[str], bad: dict[int, str]
) -> tuple[list[float | None], list[float | None]]:
    """Row-aligned lon and lat, None where a row has no coordinates or bad
    ones; a bad row gets its message in `bad` unless it has one already."""
    lons: list[float | None] = [None] * len(lon_cells)
    lats = lons.copy()
    for i, (x, y) in enumerate(zip(lon_cells, lat_cells)):
        if not (x or y):
            continue
        if not (x and y):
            bad.setdefault(line_nos[i], "lon/lat must both be present")
            continue
        try:
            lon, lat = float(x), float(y)
        except ValueError:
            lon = lat = math.nan
        # float() also parses nan and inf, which are no place on a map
        if math.isfinite(lon) and math.isfinite(lat):
            lons[i], lats[i] = lon, lat
        else:
            bad.setdefault(line_nos[i], f"invalid coordinates {x!r}, {y!r}")
    return lons, lats


def _ingest_block(
    lines: list[str], line_nos: Sequence[int], width: int, take: list[int | None],
    memos: dict[str, dict], columns: dict[str, list], diagnostics: list[RowDiagnostic],
) -> None:
    """Check the rows of `lines` column by column, as the module docstring
    says, and append the good ones to `columns`."""
    rows = [line.rstrip("\r\n") for line in lines]
    tabs = [row.count("\t") for row in rows]
    bad: dict[int, str] = {}  # line number -> message of the row's first failed check
    if tabs.count(width - 1) != len(rows):  # blank lines, which are skipped, or rows of the wrong width
        bad = {n: f"expected {width} cells, got {t + 1}"
               for n, row, t in zip(line_nos, rows, tabs) if row and t != width - 1}
        keep = [t == width - 1 for t in tabs]
        line_nos, rows = list(compress(line_nos, keep)), list(compress(rows, keep))
    cells = "\t".join(rows).split("\t") if rows else []
    # an optional column the file lacks reads as empty cells
    block = {name: cells[i::width] if i is not None else [""] * len(rows) for name, i in zip(_ALL_COLUMNS, take)}
    for column, rejected, message in (
        (block["id"], {""} if "" in block["id"] else (), "empty id"),
        (block["category"], _check_distinct(block["category"], memos["category"], normalize_category),
         "unknown category {!r}"),
        (block["postcode"], _check_distinct(block["postcode"], memos["postcode"],
                                            lambda cell: cell if POSTCODE_RE.match(cell) else None),
         "invalid postcode {!r}"),
    ):
        if rejected:
            for n, cell in zip(line_nos, column):
                if cell in rejected:
                    bad.setdefault(n, message.format(cell))
    block["lon"], block["lat"] = _coordinates(line_nos, block["lon"], block["lat"], bad)
    if bad:
        keep = [n not in bad for n in line_nos]
        block = {name: list(compress(column, keep)) for name, column in block.items()}
        diagnostics += (RowDiagnostic(n, bad[n]) for n in sorted(bad))
    for cell in set(block["data_source"]).difference(memos["reg_year"]):
        memos["data_source"][cell], memos["reg_year"][cell] = cell or None, parse_reg_year(cell)
    block["reg_year"] = map(memos["reg_year"].__getitem__, block["data_source"])
    for name in ("category", "postcode", "data_source"):
        block[name] = map(memos[name].__getitem__, block[name])
    for name in _FIELDS:
        columns[name] += block[name]


# characters of lines read per block: about a thousand rows of a record file
_BLOCK_CHARS = 1 << 16


def ingest(path: str | Path) -> IngestResult:
    """Read a record TSV. Malformed rows are skipped with a diagnostic;
    an unreadable file or a header missing core columns is fatal."""
    columns: dict[str, list] = {name: [] for name in _FIELDS}
    diagnostics: list[RowDiagnostic] = []
    # the handle and line ends of read_tsv; readlines splits lines as iterating does
    with open(path, encoding="utf-8-sig", newline="") as fh:
        line_no, names = 0, []
        for line in iter(fh.readline, ""):  # the header is the first non-empty line
            line_no += 1
            if line := line.rstrip("\r\n"):
                names = line.split("\t")
                break
        index = {name: i for i, name in enumerate(names)}
        missing_cols = [c for c in _CORE_COLUMNS if c not in index]
        if missing_cols:
            raise ValueError(f"{path}: header lacks columns {missing_cols}")
        take = [index.get(c) for c in _ALL_COLUMNS]
        # per-file memos of the cells that passed their check; the empty cell is absent
        memos: dict[str, dict] = {"category": {"": None}, "postcode": {"": None}, "data_source": {}, "reg_year": {}}
        while lines := fh.readlines(_BLOCK_CHARS):
            _ingest_block(lines, range(line_no + 1, line_no + 1 + len(lines)), len(names), take,
                          memos, columns, diagnostics)
            line_no += len(lines)
    return IngestResult(columns, diagnostics)


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


# rows joined, checked and written at once by write_tsv
_WRITE_ROWS = 256


def write_tsv(
    path: str | Path, header: Sequence[str] | None, rows: Iterable[Sequence[str | None]]
) -> None:
    """Write an optional header row, then `rows`, through atomic_writer; a
    bad cell leaves any previous file at `path` as it was. Each block of
    rows is joined at once. A block whose tab and line-break counts are
    the ones its row widths imply holds no bad cell; any other block, or
    one with a None cell, is joined again row by row through tsv_line,
    which raises for the first bad row."""
    rows = iter(rows if header is None else chain((header,), rows))
    with atomic_writer(path) as fh:
        while block := list(islice(rows, _WRITE_ROWS)):
            try:
                text = "\n".join(map("\t".join, block)) + "\n"
                exact = (text.count("\t") == sum(map(len, block)) - len(block)
                         and text.count("\n") == len(block) and "\r" not in text)
            except TypeError:  # a None cell
                exact = False
            fh.write(text if exact else "".join(map(tsv_line, block)))


def format_coordinates(values: Sequence[float | None]) -> list[str]:
    """The text write_records gives each coordinate: its repr, "" for None."""
    text = repr
    return ["" if value is None else text(value) for value in values]


def write_columns(
    columns: dict[str, list], flags: dict[str, bytearray], path: str | Path,
    lon_text: Sequence[str] | None = None, lat_text: Sequence[str] | None = None,
) -> None:
    """Write ingest columns as write_records writes the records IngestResult
    builds from them, with each row's provenance cell plus the fields its
    flags mark imputed, and the coordinates as format_coordinates gives
    them, unless the caller formatted them already. Absent values are
    written as empty cells. Each distinct (provenance cell, flags) pair is
    formatted once."""
    cells, n = columns["provenance"], len(columns["id"])
    flagged = [(name, np.frombuffer(flags[name], dtype=np.uint8)) for name in FLAGGED_FIELDS if 1 in flags[name]]
    mask_of_row = np.zeros(n, np.int64)  # bit k: the row's flag of flagged[k]
    for k, (_, flag) in enumerate(flagged):
        mask_of_row |= flag.astype(np.int64) << k
    bits = mask_of_row.tolist()
    marked = {}
    for cell, mask in set(zip(cells, bits)):
        prov = _parse_provenance(cell)
        prov.update((name, IMPUTED) for k, (name, _) in enumerate(flagged) if mask >> k & 1)
        marked[cell, mask] = _format_provenance(tuple(prov.items()))
    category, postcode, source = ([value or "" for value in columns[name]]
                                  for name in ("category", "postcode", "data_source"))
    write_tsv(path, _ALL_COLUMNS, zip(
        columns["id"], columns["name"], category, columns["address"], postcode, source,
        format_coordinates(columns["lon"]) if lon_text is None else lon_text,
        format_coordinates(columns["lat"]) if lat_text is None else lat_text,
        map(marked.__getitem__, zip(cells, bits)),
    ))


def write_records(records: Iterable[EnterpriseRecord], path: str | Path) -> None:
    """Write records as TSV, atomically; ingest() of the result reproduces them."""
    write_tsv(path, _ALL_COLUMNS, (
        (rec.id, rec.name or "", rec.category or "", rec.address or "", rec.postcode or "",
         rec.data_source or "",
         repr(rec.coordinates[0]) if rec.coordinates else "",
         repr(rec.coordinates[1]) if rec.coordinates else "",
         _format_provenance(tuple(rec.provenance.items())))
        for rec in records
    ))
