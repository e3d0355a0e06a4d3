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

A batch is filled in one pass, record by record: fill_postcode, then
fill_ad, each applied as soon as it has a result and counted in a
LocationReport. The single-step commands call the same two steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from .gazetteer import AddressTree, best_postcodes, match
# Unused here: perfbench's tracer patches this name when it installs
# (ROADMAP item 6), so it stays importable until the tracer drops it.
from .parallel import map_partitions  # noqa: F401
from .records import EnterpriseRecord, write_tsv
from .segmenter import Lexicon, address_nouns, segment

SOURCE_ORIGINAL = "original"
SOURCE_POSTCODE_LOOKUP = "postcode-lookup"
SOURCE_VSM = "vsm-match"
SOURCE_TIEBREAK = "tiebreak"


@dataclass(frozen=True)
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
    return _query_nouns((record.data_source, record.address, record.name), lexicon)


def _query_nouns(texts: Sequence[str | None], lexicon: Lexicon) -> list[str]:
    seen: set[str] = set()
    nouns: list[str] = []
    for text in texts:
        if not text:
            continue
        for noun in address_nouns(segment(text, lexicon)):
            if noun not in seen:
                seen.add(noun)
                nouns.append(noun)
    return nouns


class PostcodeEvidence:
    """Noun sets of postcode-bearing records, indexed by postcode.

    Construction only groups each record's (data_source, address, name)
    under its postcode. A postcode's records are segmented on the first
    count_with for that postcode and their noun sets cached, since only
    tie-breaks read the evidence and they ask about few postcodes."""

    def __init__(self, texts: Mapping[str, list[tuple[str | None, ...]]], lexicon: Lexicon):
        self._texts = dict(texts)
        self._lexicon = lexicon
        self._sets: dict[str, list[frozenset[str]]] = {}

    @classmethod
    def from_records(cls, records: Sequence[EnterpriseRecord], lexicon: Lexicon) -> "PostcodeEvidence":
        texts: dict[str, list[tuple[str | None, ...]]] = {}
        for rec in records:
            if rec.postcode:
                texts.setdefault(rec.postcode, []).append((rec.data_source, rec.address, rec.name))
        return cls(texts, lexicon)

    def count_with(self, postcode: str, query: frozenset[str]) -> int:
        """Records carrying this postcode whose nouns include the query's."""
        sets = self._sets.get(postcode)
        if sets is None:
            sets = self._sets[postcode] = [
                frozenset(_query_nouns(t, self._lexicon)) for t in self._texts.get(postcode, ())
            ]
        return sum(1 for nouns in sets if query <= nouns)


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
    corpus: Sequence[EnterpriseRecord] | PostcodeEvidence,
    lexicon: Lexicon,
) -> PostcodeImputation | None:
    """Infer a missing postcode; None when nothing matches."""
    if record.postcode:
        raise ValueError(f"record {record.id} already has a postcode")
    nouns = extract_query_nouns(record, lexicon)
    if not nouns:
        return None
    tied_postcodes = best_postcodes(nouns, tree)
    if not tied_postcodes:
        return None
    if len(tied_postcodes) == 1:
        return PostcodeImputation(tied_postcodes[0], SOURCE_VSM)
    evidence = (
        corpus
        if isinstance(corpus, PostcodeEvidence)
        else PostcodeEvidence.from_records(corpus, lexicon)
    )
    query = frozenset(nouns)
    counts = {p: evidence.count_with(p, query) for p in tied_postcodes}
    if sum(counts.values()) == 0:
        return PostcodeImputation(tied_postcodes[0], SOURCE_TIEBREAK, low_confidence=True)
    return PostcodeImputation(select_tied_postcode(counts), SOURCE_TIEBREAK)


def impute_ad(
    record: EnterpriseRecord, tree: AddressTree, lexicon: Lexicon | None = None
) -> ImputedLocation | None:
    """AD levels for a record's postcode; None when the postcode is unknown
    to the tree (caller flags the record)."""
    if not record.postcode:
        raise ValueError(f"record {record.id} has no postcode")
    entries = tree.entries_for_postcode(record.postcode)
    if not entries:
        return None
    chosen = entries[0]
    if len(entries) > 1 and lexicon is not None:
        # Best own-noun degree wins, ties to the first path: match orders
        # one postcode's entries that way, and an entry it does not return
        # matches no noun, so path-sorted entries[0] is the fallback.
        ranked = match(extract_query_nouns(record, lexicon), tree, postcode=record.postcode)
        if ranked:
            chosen = ranked[0].entry
    prefix = chosen.province + chosen.city + chosen.county
    ad_names = [n for n in (chosen.province, chosen.city, chosen.county) if n]
    if record.address and all(n in record.address for n in ad_names):
        return ImputedLocation(
            chosen.province, chosen.city, chosen.county, chosen.street,
            record.address, SOURCE_ORIGINAL,
        )
    street_part = record.address if record.address else chosen.street
    return ImputedLocation(
        chosen.province, chosen.city, chosen.county, chosen.street,
        f"{prefix} {street_part}", SOURCE_POSTCODE_LOOKUP,
    )


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
    tree: AddressTree,
    evidence: PostcodeEvidence,
    lexicon: Lexicon,
    report: LocationReport,
) -> None:
    """Impute rec's postcode in place if it has none; count the outcome."""
    if rec.postcode:
        return
    report.postcode_missing += 1
    imputation = impute_postcode(rec, tree, evidence, lexicon)
    if imputation is None:
        report.postcode_failed += 1
        return
    rec.postcode = imputation.postcode
    rec.mark_imputed("postcode")
    report.postcode_filled += 1
    report.postcode_sources[imputation.source] = report.postcode_sources.get(imputation.source, 0) + 1
    if imputation.low_confidence:
        report.low_confidence += 1


def fill_ad(rec: EnterpriseRecord, tree: AddressTree, lexicon: Lexicon, report: LocationReport) -> None:
    """Give rec, in place, the full address impute_ad assembles from its
    postcode, unless the address already names those AD levels; skip a
    record with no postcode; count the outcome."""
    if not rec.postcode:
        return
    loc = impute_ad(rec, tree, lexicon)
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
    records: Sequence[EnterpriseRecord], tree: AddressTree, lexicon: Lexicon
) -> LocationReport:
    """Fill postcodes then AD info for a whole batch, in place, one record
    at a time; per-record failures are counted, never raised.

    Tie-break evidence is taken from the batch before any record changes
    and keeps its own copy of the texts, so filling a record cannot change
    a later record's result."""
    evidence = PostcodeEvidence.from_records(records, lexicon)
    report = LocationReport(total=len(records))
    for rec in records:
        fill_postcode(rec, tree, evidence, lexicon, report)
        fill_ad(rec, tree, lexicon, report)
    return report
