"""Postcode and administrative-division imputation.

Postcode imputation extracts address nouns from the data source, address
and name fields, matches them against the gazetteer tree, and takes the
unique best match. When several postcodes tie at the maximum matching
degree, the tie is broken by the appearance probability of each candidate
postcode among corpus records that carry a postcode and contain the query
nouns: P(i) = N_i / sum(N). Probabilities are exact rationals. If no
corpus evidence exists the smallest tied postcode is chosen and flagged
low-confidence.

AD imputation looks the (possibly just imputed) postcode up in the tree
and combines the resulting province/city/county prefix with the record's
street-level address; the assembled full address is "<prefix> <street
part>" with a single space between the two parts.

A batch is filled by impute_locations: one tokenize call gives every
record's query nouns, which also make up the tie-break evidence, and then
fill_postcode and fill_ad run record by record, each applied as soon as it
has a result and counted in a LocationReport. The single-step commands
run the same batch code with one of the two steps.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from .gazetteer import AddressTree, best_postcodes, match
from .records import EnterpriseRecord, write_tsv
from .segmenter import ADDRESS_TAGS, Lexicon, tokenize
# Unused here: perfbench's tracer patches these names when it installs
# (ROADMAP item 1), so they stay importable until the tracer drops them.
from .parallel import map_partitions  # noqa: F401
from .segmenter import segment  # noqa: F401

SOURCE_ORIGINAL = "original"
SOURCE_POSTCODE_LOOKUP = "postcode-lookup"
SOURCE_VSM = "vsm-match"
SOURCE_TIEBREAK = "tiebreak"


@dataclass(frozen=True, slots=True)
class ImputedLocation:
    province: str
    city: str
    county: str
    street: str
    full_address: str
    source: str


@dataclass(frozen=True)
class PostcodeImputation:
    postcode: str
    source: str
    low_confidence: bool = False


def extract_query_nouns(record: EnterpriseRecord, lexicon: Lexicon) -> list[str]:
    """Address nouns from data_source, address and name, de-duplicated."""
    return list(dict.fromkeys(lexicon.words[w] for w in _noun_tokens([record], lexicon)[1].tolist()))


def _noun_tokens(records: Sequence[EnterpriseRecord], lexicon: Lexicon) -> tuple[np.ndarray, np.ndarray]:
    """(record index, word id) arrays of every address noun occurrence in
    the records' data_source, address and name, in record order and then
    text order, from one tokenize call. A record may repeat a noun."""
    text_ids, word_ids, _ = tokenize(
        [text or "" for rec in records for text in (rec.data_source, rec.address, rec.name)], lexicon, ADDRESS_TAGS
    )
    return text_ids // 3, word_ids


class PostcodeEvidence:
    """Address nouns of postcode-bearing records, grouped by postcode.

    Built once, from the (record index, word id) pairs of _noun_tokens: the
    distinct pairs, ordered by the record's postcode and then by record.
    Each postcode's pairs are one slice, and count_with is a reduction over
    that slice."""

    def __init__(self, postcodes: Sequence[str | None], rec_ids: np.ndarray, word_ids: np.ndarray,
                 lexicon: Lexicon):
        rows = Counter(p for p in postcodes if p)
        codes = sorted(rows)
        code_of = {p: i for i, p in enumerate(codes)}
        # each record's rank in postcode order (records with none last), so
        # one sort orders the pairs by postcode and record
        rank = np.empty(len(postcodes), dtype=np.int64)
        rank[np.argsort([code_of.get(p, len(codes)) for p in postcodes], kind="stable")] = np.arange(len(postcodes))
        n_words = max(len(lexicon.words), 1)
        pairs = np.sort(rank[rec_ids] * n_words + word_ids)
        pairs = pairs[np.diff(pairs, prepend=-1) != 0]  # each pair once
        self._rec, self._word = (pairs // n_words).astype(np.int32), (pairs % n_words).astype(np.int32)
        first_rank = np.cumsum([0] + [rows[p] for p in codes])
        bounds = np.searchsorted(self._rec, first_rank).tolist()
        # postcode -> (row count, start and end of its pairs)
        self._spans = {p: (rows[p], bounds[i], bounds[i + 1]) for i, p in enumerate(codes)}
        self._words = lexicon.words

    @classmethod
    def from_records(cls, records: Sequence[EnterpriseRecord], lexicon: Lexicon) -> "PostcodeEvidence":
        with_postcode = [rec for rec in records if rec.postcode]
        return cls([rec.postcode for rec in with_postcode], *_noun_tokens(with_postcode, lexicon), lexicon)

    def count_with(self, postcode: str, query: frozenset[str]) -> int:
        """Records carrying this postcode whose nouns include the query's."""
        n_rows, start, end = self._spans.get(postcode, (0, 0, 0))
        words = self._words
        ids = [bisect_left(words, noun) for noun in query]
        if not n_rows or not all(i < len(words) and words[i] == noun for i, noun in zip(ids, query)):
            return 0
        if not ids:
            return n_rows
        word = self._word[start:end]
        hit = word == ids[0]
        for i in ids[1:]:
            hit |= word == i
        # the records holding query nouns, ascending, each once per noun it
        # holds: a record holds all k nouns iff it is still there k - 1
        # places after its first place
        held, k = self._rec[start:end][hit], len(ids)
        return int(np.count_nonzero(held[k - 1:] == held[: held.size - k + 1])) if held.size >= k else 0


def tie_break_probabilities(counts: Sequence[int]) -> list[Fraction]:
    """Appearance probability of each candidate: N_i over the total."""
    total = sum(counts)
    if total <= 0:
        raise ValueError("tie-break requires a positive total count")
    return [Fraction(c, total) for c in counts]


def select_tied_postcode(counts: Mapping[str, int]) -> str:
    """Maximum-probability postcode; ties by postcode value, not position."""
    return min(counts, key=lambda p: (-counts[p], p))


def impute_postcode(
    record: EnterpriseRecord,
    tree: AddressTree,
    evidence: PostcodeEvidence,
    lexicon: Lexicon,
) -> PostcodeImputation | None:
    """Infer a missing postcode; None when nothing matches. A tie is broken
    by the corpus evidence (PostcodeEvidence.from_records)."""
    if record.postcode:
        raise ValueError(f"record {record.id} already has a postcode")
    return _postcode_for(extract_query_nouns(record, lexicon), tree, evidence)


def _postcode_for(nouns: Sequence[str], tree: AddressTree, evidence: PostcodeEvidence) -> PostcodeImputation | None:
    if not nouns:
        return None
    tied_postcodes = best_postcodes(nouns, tree)
    if not tied_postcodes:
        return None
    if len(tied_postcodes) == 1:
        return PostcodeImputation(tied_postcodes[0], SOURCE_VSM)
    query = frozenset(nouns)
    counts = {p: evidence.count_with(p, query) for p in tied_postcodes}
    if sum(counts.values()) == 0:
        return PostcodeImputation(tied_postcodes[0], SOURCE_TIEBREAK, low_confidence=True)
    return PostcodeImputation(select_tied_postcode(counts), SOURCE_TIEBREAK)


def impute_ad(
    record: EnterpriseRecord,
    tree: AddressTree,
    nouns: Sequence[str] = (),
) -> ImputedLocation | None:
    """AD levels for a record's postcode; None when the postcode is unknown
    to the tree (caller flags the record). When the postcode has several AD
    paths, the record's query nouns (extract_query_nouns) pick one; with
    none, the first path."""
    if not record.postcode:
        raise ValueError(f"record {record.id} has no postcode")
    entries = tree.entries_for_postcode(record.postcode)
    if not entries:
        return None
    chosen = entries[0]
    if len(entries) > 1 and nouns:
        # Best own-noun degree wins, ties to the first path: match orders
        # one postcode's entries that way, and an entry it does not return
        # matches no noun, so path-sorted entries[0] is the fallback.
        ranked = match(nouns, tree, postcode=record.postcode)
        if ranked:
            chosen = ranked[0].entry
    address = record.address
    # an empty level is named by any address
    if address and chosen.province in address and chosen.city in address and chosen.county in address:
        full_address, source = address, SOURCE_ORIGINAL
    else:
        full_address = f"{chosen.province}{chosen.city}{chosen.county} {address or chosen.street}"
        source = SOURCE_POSTCODE_LOOKUP
    return ImputedLocation(chosen.province, chosen.city, chosen.county, chosen.street, full_address, source)


@dataclass
class LocationReport:
    total: int = 0
    postcode_missing: int = 0
    postcode_filled: int = 0
    postcode_failed: int = 0
    low_confidence: int = 0
    postcode_sources: dict[str, int] = field(default_factory=dict)
    ad_assigned: int = 0
    ad_original: int = 0
    ad_failed: int = 0
    address_filled: int = 0

    def rows(self) -> list[tuple[str, str]]:
        out = [
            ("total", str(self.total)),
            ("postcode_missing", str(self.postcode_missing)),
            ("postcode_filled", str(self.postcode_filled)),
            ("postcode_failed", str(self.postcode_failed)),
            ("postcode_low_confidence", str(self.low_confidence)),
            ("ad_assigned", str(self.ad_assigned)),
            ("ad_original", str(self.ad_original)),
            ("ad_failed", str(self.ad_failed)),
            ("address_filled", str(self.address_filled)),
        ]
        for source in sorted(self.postcode_sources):
            out.append((f"postcode_source_{source}", str(self.postcode_sources[source])))
        return out

    def write(self, path: str | Path) -> None:
        write_tsv(path, ("metric", "value"), self.rows())


def fill_postcode(
    rec: EnterpriseRecord,
    nouns: Sequence[str],
    tree: AddressTree,
    evidence: PostcodeEvidence,
    report: LocationReport,
) -> None:
    """Impute rec's postcode in place from its query nouns if it has none;
    count the outcome."""
    if rec.postcode:
        return
    report.postcode_missing += 1
    imputation = _postcode_for(nouns, tree, evidence)
    if imputation is None:
        report.postcode_failed += 1
        return
    rec.postcode = imputation.postcode
    rec.mark_imputed("postcode")
    report.postcode_filled += 1
    report.postcode_sources[imputation.source] = report.postcode_sources.get(imputation.source, 0) + 1
    if imputation.low_confidence:
        report.low_confidence += 1


def fill_ad(rec: EnterpriseRecord, nouns: Sequence[str], tree: AddressTree, report: LocationReport) -> None:
    """Give rec, in place, the full address impute_ad assembles from its
    postcode and query nouns, unless the address already names those AD
    levels; skip a record with no postcode; count the outcome."""
    if not rec.postcode:
        return
    loc = impute_ad(rec, tree, nouns=nouns)
    if loc is None:
        report.ad_failed += 1
    elif loc.source == SOURCE_ORIGINAL:
        report.ad_original += 1
    else:
        if rec.address is None:
            report.address_filled += 1
            rec.mark_imputed("address")
        else:
            rec.mark_imputed("ad")
        rec.address = loc.full_address
        report.ad_assigned += 1


def impute_locations(
    records: Sequence[EnterpriseRecord],
    tree: AddressTree,
    lexicon: Lexicon,
    steps: Collection[str] = ("postcode", "ad"),
) -> LocationReport:
    """Fill postcodes then AD info for a whole batch, in place; only the
    steps named, for the single-step commands. Per-record failures are
    counted, never raised.

    One tokenize call gives the nouns of every record that needs them
    (a repeated noun is harmless: matching reads the set of nouns):
    all records when postcodes are filled, as queries and as tie-break
    evidence, else only those whose postcode has several AD paths. Nouns
    and evidence are taken before any record changes, and a record's
    steps read only its own fields, so filling a record cannot change
    another record's result."""
    fill_postcodes, fill_ads = "postcode" in steps, "ad" in steps
    if fill_postcodes:
        segmented: Sequence[int] = range(len(records))
    else:
        segmented = [i for i, rec in enumerate(records) if len(tree.entries_for_postcode(rec.postcode or "")) > 1]
    rec_ids, word_ids = _noun_tokens([records[i] for i in segmented], lexicon)
    rec_ids = np.asarray(segmented, dtype=np.int32)[rec_ids]
    evidence = PostcodeEvidence([r.postcode for r in records], rec_ids, word_ids, lexicon) if fill_postcodes else None
    nouns = np.array(lexicon.words, dtype=object)[word_ids].tolist()
    ends = np.cumsum(np.bincount(rec_ids, minlength=len(records))).tolist()
    report = LocationReport(total=len(records))
    for rec, start, end in zip(records, [0, *ends], ends):
        if fill_postcodes:
            fill_postcode(rec, nouns[start:end], tree, evidence, report)
        if fill_ads:
            fill_ad(rec, nouns[start:end], tree, report)
    return report
