from __future__ import annotations

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from regimpute.categories import CATEGORIES, normalize_category
from regimpute.records import (
    TRACKED_FIELDS,
    EnterpriseRecord,
    GroundTruth,
    ingest,
    missingness,
    parse_reg_year,
    write_records,
)

HEADER = "id\tname\tcategory\taddress\tpostcode\tdata_source"


def write_corpus(path, rows):
    path.write_text(HEADER + "\n" + "".join(r + "\n" for r in rows), encoding="utf-8")


def test_ingest_chinese_category_row(tmp_path):
    # Category cells may be Chinese names; they normalize to the symbol.
    path = tmp_path / "c.tsv"
    write_corpus(path, ["1\t武汉物业管理有限公司\t房地产业\t南京路16号\t430014\t2004年注册_湖北"])
    result = ingest(path)
    assert result.error_count == 0
    rec = result.records[0]
    assert rec.category == "RE"
    assert rec.postcode == "430014"
    assert rec.reg_year == 2004


def test_ingest_accepts_symbol_and_english_labels(tmp_path):
    path = tmp_path / "c.tsv"
    write_corpus(path, ["1\tx\tRE\t\t\t", "2\ty\tReal estate\t\t\t"])
    result = ingest(path)
    assert [r.category for r in result.records] == ["RE", "RE"]


def test_ingest_empty_optionals(tmp_path):
    path = tmp_path / "c.tsv"
    write_corpus(path, ["7\t\t\t\t\t"])
    result = ingest(path)
    assert result.error_count == 0
    rec = result.records[0]
    assert rec.name is None
    assert rec.category is None
    assert rec.address is None
    assert rec.postcode is None
    assert rec.data_source is None
    assert rec.reg_year is None


def test_ingest_skips_malformed_rows(tmp_path):
    path = tmp_path / "c.tsv"
    write_corpus(
        path,
        [
            "1\ta\tRE\t\t430014\t",
            "2\tb\tnot-a-category\t\t\t",
            "3\tc\t\t\t\t",
            "4\td\t\t\t12345\t",  # postcode must be 6 digits
        ],
    )
    result = ingest(path)
    assert len(result.records) == 2
    assert result.error_count == 2
    assert {d.line_no for d in result.diagnostics} == {3, 5}


def test_ingest_four_rows_one_malformed(tmp_path):
    path = tmp_path / "c.tsv"
    write_corpus(
        path,
        [
            "1\ta\t\t\t\t",
            "2\tb\t\t\t\t",
            "too\tfew",  # wrong cell count
            "4\td\t\t\t\t",
        ],
    )
    result = ingest(path)
    assert len(result.records) == 3
    assert result.error_count == 1


def test_ingest_reads_columns_by_header_name(tmp_path):
    # any column order; an unknown column is ignored
    path = tmp_path / "c.tsv"
    path.write_text(
        "provenance\tlat\tpostcode\tnote\tdata_source\tname\taddress\tlon\tcategory\tid\n"
        "category=imputed\t30.5\t430014\tignored\t2004年注册_湖北\t武汉物业\t南京路16号\t114.25\tRE\t9\n"
        "\t\t\tx\t\t\t\t\t\t10\n"
        "\t30.5\t\tx\t\t\t\t\t\t11\n",
        encoding="utf-8",
    )
    result = ingest(path)
    assert result.records == [
        EnterpriseRecord(
            id="9", name="武汉物业", category="RE", address="南京路16号", postcode="430014",
            data_source="2004年注册_湖北", reg_year=2004, coordinates=(114.25, 30.5),
            provenance={"category": "imputed"},
        ),
        EnterpriseRecord(id="10"),
    ]
    assert [(d.line_no, d.message) for d in result.diagnostics] == [(4, "lon/lat must both be present")]


def test_ingest_six_column_header_has_no_coordinates_or_provenance(tmp_path):
    path = tmp_path / "c.tsv"
    write_corpus(path, ["1\tx\tRE\t南京路16号\t430014\t2004年注册_湖北", "\ty\t\t\t\t"])
    result = ingest(path)
    assert result.records == [
        EnterpriseRecord(
            id="1", name="x", category="RE", address="南京路16号", postcode="430014",
            data_source="2004年注册_湖北", reg_year=2004,
        )
    ]
    assert [(d.line_no, d.message) for d in result.diagnostics] == [(3, "empty id")]


def test_ingest_skips_rows_with_non_finite_coordinates(tmp_path):
    # float() parses all of these; none is a place on a map
    path = tmp_path / "c.tsv"
    path.write_text(
        "id\tname\tcategory\taddress\tpostcode\tdata_source\tlon\tlat\n"
        "1\t\t\t\t\t\tnan\t30.5\n"
        "2\t\t\t\t\t\t114.25\tinf\n"
        "3\t\t\t\t\t\t-Infinity\tNaN\n"
        "4\t\t\t\t\t\t1e400\t30.5\n"
        "5\t\t\t\t\t\t114.25\t30.5\n",
        encoding="utf-8",
    )
    result = ingest(path)
    assert result.records == [EnterpriseRecord(id="5", coordinates=(114.25, 30.5))]
    assert [(d.line_no, d.message) for d in result.diagnostics] == [
        (2, "invalid coordinates 'nan', '30.5'"),
        (3, "invalid coordinates '114.25', 'inf'"),
        (4, "invalid coordinates '-Infinity', 'NaN'"),
        (5, "invalid coordinates '1e400', '30.5'"),
    ]


def test_each_record_owns_its_provenance(tmp_path):
    path = tmp_path / "c.tsv"
    cells = ["coordinates=imputed"] * 3 + [""] * 3
    path.write_text(
        HEADER + "\tprovenance\n" + "".join(f"{i}\t\t\t\t\t\t{cell}\n" for i, cell in enumerate(cells)),
        encoding="utf-8",
    )
    records = ingest(path).records
    records[0].mark_imputed("category")
    records[3].mark_imputed("category")
    assert [r.provenance for r in records] == [
        {"coordinates": "imputed", "category": "imputed"},
        {"coordinates": "imputed"},
        {"coordinates": "imputed"},
        {"category": "imputed"},
        {},
        {},
    ]


def reference_parse(cells):
    """One row parsed on its own, with no memo: the record, or the message
    of its first failed check (id, category, postcode, coordinates)."""
    rec_id, name, category, address, postcode, data_source, lon, lat, prov = (c or None for c in cells)
    if rec_id is None:
        return "empty id"
    if category is not None:
        symbol = normalize_category(category)
        if symbol is None:
            return f"unknown category {category!r}"
        category = symbol
    if postcode is not None and not re.fullmatch("[0-9]{6}", postcode):
        return f"invalid postcode {postcode!r}"
    coordinates = None
    if lon is not None or lat is not None:
        if lon is None or lat is None:
            return "lon/lat must both be present"
        try:
            coordinates = (float(lon), float(lat))
        except ValueError:
            return f"invalid coordinates {lon!r}, {lat!r}"
        if not (math.isfinite(coordinates[0]) and math.isfinite(coordinates[1])):
            return f"invalid coordinates {lon!r}, {lat!r}"
    provenance = {}
    for part in (prov or "").split(";"):
        if part:
            key, _, flag = part.partition("=")
            provenance[key] = flag
    return EnterpriseRecord(
        id=rec_id, name=name, category=category, address=address, postcode=postcode,
        data_source=data_source, reg_year=parse_reg_year(data_source),
        coordinates=coordinates, provenance=provenance,
    )


# Small pools, so cells repeat within a file. A cell comes from its bad
# pool one time in ten, so most rows parse and bad cells recur too.
_CATEGORIES = (
    ("", "RE", "re", "Real estate", "real estate", "Finance, insurance", "finance insurance",
     "房地产业", "金融保险业", " M "),
    ("bogus", "RE!", "未知"),
)
_POSTCODES = (("", "430014", "100000"), ("12345", "4300140", "43001a", "４３００１４"))
_COORDINATES = (
    (("", ""), ("114.25", "30.5"), ("-0.0", "1e-3")),
    (("114.25", ""), ("", "30.5"), ("nan", "30.5"), ("114.25", "inf"), ("-Infinity", "NaN"),
     ("abc", "30.5"), ("1e400", "30.5")),
)
_SOURCES = ("", "2004年注册_湖北", "2015_2016", "1980_fyc", "year 1899", "no year")
_PROVENANCES = ("", "coordinates=imputed", "category=imputed;postcode=imputed", "x=original")


@st.composite
def _rows(draw):
    """A row's nine cells, and whether it carries one cell too many."""

    def cell(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 9)) == 0 else good))

    lon, lat = cell(*_COORDINATES)
    cells = [
        cell(("1", "a", "企业7"), ("",)),
        draw(st.sampled_from(("", "武汉物业"))),
        cell(*_CATEGORIES),
        draw(st.sampled_from(("", "南京路16号"))),
        cell(*_POSTCODES),
        draw(st.sampled_from(_SOURCES)),
        lon,
        lat,
        draw(st.sampled_from(_PROVENANCES)),
    ]
    return cells, draw(st.integers(0, 9)) == 0


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_rows(), min_size=1, max_size=30))
def test_ingest_equals_a_reference_per_row_parser(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("ingest") / "c.tsv"
    lines = [HEADER + "\tlon\tlat\tprovenance"]
    records, diagnostics = [], []
    for line_no, (cells, extra) in enumerate(rows, start=2):
        lines.append("\t".join(cells + ["x"] * extra))
        if extra:
            diagnostics.append((line_no, "expected 9 cells, got 10"))
        elif isinstance(parsed := reference_parse(cells), str):
            diagnostics.append((line_no, parsed))
        else:
            records.append(parsed)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = ingest(path)
    assert result.records == records
    assert [(d.line_no, d.message) for d in result.diagnostics] == diagnostics


def test_ingest_missing_file_is_fatal(tmp_path):
    with pytest.raises(OSError):
        ingest(tmp_path / "absent.tsv")


def test_ingest_header_must_name_core_fields(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("id\tname\n1\tx\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        ingest(path)


@pytest.mark.parametrize(
    "source,expected",
    [
        ("2004年注册_湖北", 2004),
        ("1960_abc", 1960),
        ("no year here", None),
        ("12345", None),  # five digits, not a standalone year
        ("year 1899", None),  # outside [1900, 2100]
        ("2101", None),
        (None, None),
        ("late 2015 entry 1999", 2015),  # first qualifying match wins
    ],
)
def test_parse_reg_year(source, expected):
    assert parse_reg_year(source) == expected


def test_missingness_hand_counted():
    records = [EnterpriseRecord(id=str(i), name="x", postcode="100000") for i in range(7)]
    records += [EnterpriseRecord(id=str(i + 7), name="x") for i in range(3)]
    report = missingness(records)
    assert report.total == 10
    assert report.missing["postcode"] == pytest.approx(0.3)
    assert report.missing["name"] == 0.0
    assert report.missing["category"] == 1.0


def test_missingness_counts_absent_and_imputed_values():
    records = [
        EnterpriseRecord(id="1", name="", category="RE", provenance={"category": "imputed", "ad": "imputed"}),
        EnterpriseRecord(id="2", name="x", postcode="100000", provenance={"postcode": "imputed"}),
        EnterpriseRecord(id="3", name="y", coordinates=(100.0, 30.0)),
    ]
    report = missingness(records)
    assert report.absent["name"] == 1  # the empty string is absent too
    assert report.absent["category"] == 2
    assert report.absent["coordinates"] == 2
    assert report.imputed == {**dict.fromkeys(report.imputed, 0), "category": 1, "postcode": 1}
    assert report.missing["category"] == pytest.approx(2 / 3)


def test_missingness_empty_input():
    report = missingness([])
    assert report.total == 0
    assert all(v == 0.0 for v in report.missing.values())


def test_missingness_complete_data():
    rec = EnterpriseRecord(
        id="1", name="n", category="RE", address="a", postcode="123456",
        data_source="2000", coordinates=(100.0, 30.0),
    )
    assert all(v == 0.0 for v in missingness([rec]).missing.values())


def test_roundtrip_field_for_field(tmp_path, small_corpus):
    records, _ = small_corpus
    some = records[:500]
    some[0].coordinates = (114.3, 30.6)
    some[0].mark_imputed("coordinates")
    some[1].mark_imputed("category")
    path = tmp_path / "out.tsv"
    write_records(some, path)
    back = ingest(path)
    assert back.error_count == 0
    assert len(back.records) == len(some)
    for a, b in zip(some, back.records):
        assert (a.id, a.name, a.category, a.address, a.postcode, a.data_source) == (
            b.id, b.name, b.category, b.address, b.postcode, b.data_source,
        )
        assert a.reg_year == b.reg_year
        assert a.coordinates == b.coordinates
        imputed_a = {k for k, v in a.provenance.items() if v == "imputed"}
        imputed_b = {k for k, v in b.provenance.items() if v == "imputed"}
        assert imputed_a == imputed_b


# Values ingest can produce: non-empty text without the TSV separators,
# known category symbols, 6-digit postcodes, finite coordinates, the
# reg_year parsed from data_source, and provenance that lists imputed fields.
_TEXT = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\t\r\n"), min_size=1, max_size=12
)


@st.composite
def _records(draw):
    data_source = draw(st.none() | _TEXT | st.integers(1890, 2110).map(lambda y: f"{y}年注册"))
    coordinate = st.floats(allow_nan=False, allow_infinity=False)
    imputed = draw(st.sets(st.sampled_from(TRACKED_FIELDS)))
    return EnterpriseRecord(
        id=draw(_TEXT),
        name=draw(st.none() | _TEXT),
        category=draw(st.none() | st.sampled_from(CATEGORIES)),
        address=draw(st.none() | _TEXT),
        postcode=draw(st.none() | st.from_regex(r"[0-9]{6}", fullmatch=True)),
        data_source=data_source,
        reg_year=parse_reg_year(data_source),
        coordinates=draw(st.none() | st.tuples(coordinate, coordinate)),
        provenance={name: "imputed" for name in imputed},
    )


@settings(max_examples=200, deadline=None)
@given(records=st.lists(_records(), max_size=5))
def test_write_then_ingest_is_identity(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("roundtrip") / "records.tsv"
    write_records(records, path)
    back = ingest(path)
    assert back.diagnostics == []
    assert back.records == records


def test_write_rejects_embedded_tabs(tmp_path):
    rec = EnterpriseRecord(id="1", name="bad\tname")
    with pytest.raises(ValueError, match="tab"):
        write_records([rec], tmp_path / "x.tsv")


def test_failed_write_keeps_previous_file_and_leaves_no_temporary(tmp_path):
    path = tmp_path / "records.tsv"
    write_records([EnterpriseRecord(id="1", name="old"), EnterpriseRecord(id="2", name="old")], path)
    before = path.read_bytes()
    bad = [EnterpriseRecord(id="1", name="new"), EnterpriseRecord(id="2", name="bad\tname")]
    with pytest.raises(ValueError, match="tab"):
        write_records(bad, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["records.tsv"]


def test_ground_truth_roundtrip(tmp_path):
    truth = GroundTruth()
    truth.set("E1", "category", "RE")
    truth.set("E2", "postcode", "430014")
    path = tmp_path / "truth.tsv"
    truth.write(path)
    back = GroundTruth.read(path)
    assert back.get("E1", "category") == "RE"
    assert back.get("E2", "postcode") == "430014"
    assert back.get("E1", "postcode") is None
    assert sorted(back.ids_for("category")) == ["E1"]


def test_ground_truth_read_rejects_malformed_row(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_text("id\tfield\tvalue\nE1\tcategory\tRE\nE2\tpostcode\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"truth\.tsv:3: expected id<TAB>field<TAB>value"):
        GroundTruth.read(path)
