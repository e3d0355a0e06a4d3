"""The stages' column forms against their per-record references, on corpora
with duplicate ids, provenance cells out of order or naming unknown
fields, byte-order marks and absent cells."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from regimpute.gazetteer import build
from regimpute.locimpute import impute_locations
from regimpute.records import (
    _ALL_COLUMNS, FLAGGED_FIELDS, ingest, missingness, new_flags, write_columns, write_records,
)
from regimpute.synth import SynthConfig, synth, synth_world
from record_forms import records_of, reference_missingness
from test_locimpute import reference_impute_locations

CONFIG = SynthConfig(n=120, seed=19)
WORLD = synth_world(CONFIG)
RECORDS, _ = synth(CONFIG)
# one tree with a postcode per entry, one whose postcodes tie and have several AD paths
TREES = (build(WORLD.gazetteer), build([replace(e, postcode=f"{i % 40:06d}") for i, e in enumerate(WORLD.gazetteer)]))
SHARED = {old.postcode: f"{i % 40:06d}" for i, old in enumerate(WORLD.gazetteer)}
PROVENANCE = ("", "postcode=imputed;category=imputed", "coordinates=original", "ad=imputed;address=imputed",
              "foo=imputed", "category=original;zeta=imputed;address=imputed", "coordinates=imputed;coordinates=original")


def _cells(rec):
    lon, lat = (repr(v) for v in rec.coordinates) if rec.coordinates else ("", "")
    return [rec.id, rec.name or "", rec.category or "", rec.address or "", rec.postcode or "",
            rec.data_source or "", lon, lat, ""]


@st.composite
def corpora(draw):
    """A record file's text: synth rows, some with another row's id or
    their postcode in TREES[1], cells blanked, a provenance cell from
    PROVENANCE, and a BOM or CRLF ends."""
    picks = draw(st.lists(st.integers(0, len(RECORDS) - 1), min_size=1, max_size=40))
    rows = []
    for pick in picks:
        cells = _cells(RECORDS[pick])
        if cells[4] and draw(st.booleans()):  # its entry's postcode in the second tree, unknown to the first
            cells[4] = SHARED[cells[4]]
        if rows and draw(st.booleans()):
            cells[0] = draw(st.sampled_from(rows))[0]  # a duplicate id
        for column in draw(st.sets(st.sampled_from((1, 2, 3, 4, 5, 6)))):
            cells[column] = ""
            if column == 6:
                cells[7] = ""
        cells[8] = draw(st.sampled_from(PROVENANCE))
        rows.append(cells)
    end = draw(st.sampled_from(("\n", "\r\n")))
    text = end.join("\t".join(row) for row in [list(_ALL_COLUMNS), *rows]) + end
    return ("\ufeff" if draw(st.booleans()) else "") + text


def write(tmp_path, text):
    path = tmp_path / "corpus.tsv"
    path.write_bytes(text.encode("utf-8"))
    return path


@settings(max_examples=30, deadline=None)
@given(text=corpora(), seed=st.integers(0, 2**32 - 1))
def test_missingness_and_write_columns_equal_the_record_forms(tmp_path_factory, text, seed):
    tmp_path = tmp_path_factory.mktemp("forms")
    columns = ingest(write(tmp_path, text)).columns
    rng = np.random.default_rng(seed)
    flags = {name: bytearray(rng.integers(0, 2, len(columns["id"]), dtype=np.uint8).tobytes())
             for name in FLAGGED_FIELDS}
    records = records_of(columns, flags)
    assert missingness(columns, flags) == reference_missingness(records)
    write_columns(columns, flags, tmp_path / "columns.tsv")
    write_records(records, tmp_path / "records.tsv")
    assert (tmp_path / "columns.tsv").read_bytes() == (tmp_path / "records.tsv").read_bytes()


@settings(max_examples=30, deadline=None)
@given(text=corpora(), shared=st.booleans())
def test_impute_locations_equals_the_per_record_loop(tmp_path_factory, text, shared):
    tmp_path = tmp_path_factory.mktemp("locations")
    path = write(tmp_path, text)
    tree = TREES[shared]
    records = ingest(path).records
    filled = reference_impute_locations(records, tree, WORLD.lexicon)
    columns = ingest(path).columns
    absent = {name: [not value for value in columns[name]] for name in ("postcode", "address")}
    flags = new_flags(len(columns["id"]))
    report = impute_locations(columns, flags, tree, WORLD.lexicon)
    assert report.postcode_filled == filled
    # only absent cells are flagged as filled; ad marks a rewritten address that was present
    for name in ("postcode", "address"):
        assert all(a for a, flag in zip(absent[name], flags[name]) if flag)
    assert not any(a for a, flag in zip(absent["address"], flags["ad"]) if flag)
    assert missingness(columns, flags) == reference_missingness(records)
    write_columns(columns, flags, tmp_path / "columns.tsv")
    write_records(records, tmp_path / "records.tsv")
    assert (tmp_path / "columns.tsv").read_bytes() == (tmp_path / "records.tsv").read_bytes()
