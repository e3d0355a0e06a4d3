"""Records and ingest columns side by side: conversions between
EnterpriseRecord lists and the column form the stages work on, and the
per-record references the column forms are checked against."""

from __future__ import annotations

from regimpute.geocode import STATUS_ORIGINAL, GeocodeResult, geocode_batch, shard
from regimpute.records import (
    IMPUTED, TRACKED_FIELDS, IngestResult, MissingnessReport, _FIELDS, _format_provenance, new_flags, write_tsv,
)
from regimpute.segmenter import ADDRESS_TAGS, word_lists
from regimpute.vectorizer import build_labeled


def columns_of(records) -> tuple[dict[str, list], dict[str, bytearray]]:
    """The ingest columns of records, as ingest reads write_records' file of
    them, and no flags set."""
    cells = {
        "id": [r.id for r in records],
        "name": [r.name or "" for r in records],
        "category": [r.category for r in records],
        "address": [r.address or "" for r in records],
        "postcode": [r.postcode for r in records],
        "data_source": [r.data_source for r in records],
        "reg_year": [r.reg_year for r in records],
        "lon": [r.coordinates[0] if r.coordinates else None for r in records],
        "lat": [r.coordinates[1] if r.coordinates else None for r in records],
        "provenance": [_format_provenance(tuple(r.provenance.items())) for r in records],
    }
    return {name: cells[name] for name in _FIELDS}, new_flags(len(records))


def ingest_result_of(records) -> IngestResult:
    """The IngestResult of records' columns (columns_of), with no bad rows."""
    return IngestResult(columns_of(records)[0], [])


def records_of(columns, flags) -> list:
    """The records IngestResult builds from the columns, each field marked
    imputed where its flag is set."""
    records = IngestResult(columns, []).records
    for name, flag in flags.items():
        for rec, marked in zip(records, flag):
            if marked:
                rec.mark_imputed(name)
    return records


def reference_missingness(records) -> MissingnessReport:
    """missingness as one pass over records: a value is absent when it is
    None or "", imputed when the record's provenance says so."""
    absent = dict.fromkeys(TRACKED_FIELDS, 0)
    imputed = dict.fromkeys(TRACKED_FIELDS, 0)
    for rec in records:
        for f in TRACKED_FIELDS:
            value = getattr(rec, f)
            if value is None or value == "":
                absent[f] += 1
        for f, how in rec.provenance.items():
            if how == IMPUTED and f in imputed:
                imputed[f] += 1
    total = len(records)
    fractions = {f: absent[f] / total if total else 0.0 for f in TRACKED_FIELDS}
    return MissingnessReport(total, fractions, absent, imputed)


def reference_geocode_missing(records, provider, keys, rate=None) -> list[GeocodeResult]:
    """One result per record, in input order: the records without
    coordinates are sharded and requested, the others get a
    STATUS_ORIGINAL result carrying theirs."""
    pending = [rec for rec in records if rec.coordinates is None]
    fetched = iter(geocode_batch(shard([rec.id for rec in pending], [rec.address or "" for rec in pending], keys),
                                 provider, keys, rate=rate))
    return [
        next(fetched) if rec.coordinates is None
        else GeocodeResult(rec.id, *rec.coordinates, STATUS_ORIGINAL, 0)
        for rec in records
    ]


def reference_write_results(results, path) -> None:
    """coordinates.tsv written from GeocodeResults."""
    write_tsv(path, ("id", "lon", "lat", "status"), (
        (r.record_id, "" if r.lon is None else repr(r.lon), "" if r.lat is None else repr(r.lat), r.status)
        for r in results
    ))


def labeled_of(records, lexicon, dim):
    """build_labeled on the name and category columns of records."""
    return build_labeled([r.name for r in records], [r.category for r in records], lexicon, dim)


def reference_query_nouns(record, lexicon) -> list[str]:
    """A record's postcode query nouns, each field segmented on its own:
    the address nouns of data_source, address and name, in that order,
    de-duplicated."""
    texts = [getattr(record, name) or "" for name in ("data_source", "address", "name")]
    return list(dict.fromkeys(noun for nouns in word_lists(texts, lexicon, ADDRESS_TAGS) for noun in nouns))
