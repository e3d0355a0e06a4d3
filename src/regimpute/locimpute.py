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

A batch is the ingest columns, filled in place by impute_locations: the
query rows' nouns come from one tokenize call and the tie-break evidence
from a second, over only the rows that carry a postcode some query ties
on (its docstring gives the exactness argument). Every fill sets the
row's imputed flag and is counted in a LocationReport. The single-step
commands run the same batch code with one of the two steps, and
impute_locations is the one postcode and the one AD implementation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from .gazetteer import AddressTree, PostcodeEntry, best_postcodes, match
from .records import EnterpriseRecord, write_tsv
from .segmenter import ADDRESS_TAGS, Lexicon, tokenize
# Unused here: perfbench's tracer patches these names when it installs
# (ROADMAP item 1), so they stay importable until the tracer drops them.
from .parallel import map_partitions  # noqa: F401
from .segmenter import segment  # noqa: F401

SOURCE_VSM = "vsm-match"
SOURCE_TIEBREAK = "tiebreak"


def _noun_tokens(columns: Mapping[str, Sequence[str | None]], rows: Sequence[int],
                 lexicon: Lexicon) -> tuple[np.ndarray, np.ndarray]:
    """(row, word id) arrays of every address noun occurrence in the
    data_source, address and name cells of `rows`, in the order of rows and
    then text order, from one tokenize call, and none for no rows. A row
    may repeat a noun."""
    if not rows:
        return np.zeros(0, np.int64), np.zeros(0, np.int32)
    sources, addresses, names = columns["data_source"], columns["address"], columns["name"]
    text_ids, word_ids, _ = tokenize(
        [text or "" for i in rows for text in (sources[i], addresses[i], names[i])], lexicon, ADDRESS_TAGS
    )
    return np.asarray(rows, dtype=np.int64)[text_ids // 3], word_ids


class PostcodeEvidence:
    """Address nouns of postcode-bearing records, grouped by postcode.

    Built once, from (row, word id) pairs as _noun_tokens gives them, each
    row an index into `postcodes`: the distinct pairs, ordered by the
    row's postcode and then by row.
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
        """The evidence of every postcode-bearing record. No stage uses it:
        the tests check count_with with it, and perfbench's tracer wraps
        this name."""
        with_postcode = [rec for rec in records if rec.postcode]
        fields = {name: [getattr(rec, name) for rec in with_postcode] for name in ("data_source", "address", "name")}
        return cls([rec.postcode for rec in with_postcode],
                   *_noun_tokens(fields, range(len(with_postcode)), lexicon), lexicon)

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


def _postcode_for(tied: Sequence[str], nouns: Sequence[str],
                  evidence: PostcodeEvidence) -> tuple[str, str, bool] | None:
    """(postcode, source, low confidence) of a query whose best-matching
    postcodes are `tied`; None when there are none."""
    if not tied:
        return None
    if len(tied) == 1:
        return tied[0], SOURCE_VSM, False
    query = frozenset(nouns)
    counts = {p: evidence.count_with(p, query) for p in tied}
    if sum(counts.values()) == 0:
        return tied[0], SOURCE_TIEBREAK, True
    return select_tied_postcode(counts), SOURCE_TIEBREAK, False


def _ad_entry(postcode: str, tree: AddressTree, nouns: Sequence[str]) -> PostcodeEntry | None:
    """The AD path of a postcode, None when the tree does not know it. When
    the postcode has several, the query nouns pick one; with none, the
    first path."""
    entries = tree.entries_for_postcode(postcode)
    if len(entries) > 1 and nouns:
        # Best own-noun degree wins, ties to the first path: match orders
        # one postcode's entries that way, and an entry it does not return
        # matches no noun, so path-sorted entries[0] is the fallback.
        ranked = match(nouns, tree, postcode=postcode)
        if ranked:
            return ranked[0].entry
    return entries[0] if entries else None


def _full_address(entry: PostcodeEntry, address: str | None) -> str | None:
    """"<prefix> <street part>" for an address ("" or None when absent);
    None when the address already names the entry's AD levels (an empty
    level is named by any address)."""
    if address and entry.province in address and entry.city in address and entry.county in address:
        return None
    return f"{entry.province}{entry.city}{entry.county} {address or entry.street}"


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


def impute_locations(
    columns: dict[str, list],
    flags: dict[str, bytearray],
    tree: AddressTree,
    lexicon: Lexicon,
    steps: Collection[str] = ("postcode", "ad"),
) -> LocationReport:
    """Fill absent postcodes, then AD info, of ingest columns in place,
    setting the postcode, address and ad flags of each fill; only the steps
    named, for the single-step commands. Per-row failures are counted,
    never raised.

    Two tokenize calls give the nouns that are read (a repeated noun is
    harmless: matching reads the set of nouns). The first takes the query
    rows: rows without a postcode, when postcodes are filled, and rows
    whose postcode has several AD paths, when AD is. Their best-matching
    postcodes are found next, and the second call takes the rows that carry
    a postcode some query ties on and were not queries: their nouns are
    the tie-break evidence. That is exact: PostcodeEvidence.count_with(p, q)
    reads only the rows carrying p, and every row carrying a tied postcode
    is in the evidence. Nouns and evidence are taken before any row
    changes, and a row's steps read only its own cells, the tree and the
    evidence, so filling a row cannot change another row's result."""
    postcodes, addresses = columns["postcode"], columns["address"]
    fill_postcodes, fill_ads = "postcode" in steps, "ad" in steps
    several = {p for p in set(postcodes) if p and len(tree.entries_for_postcode(p)) > 1} if fill_ads else set()
    queries = [i for i, p in enumerate(postcodes) if (not p and fill_postcodes) or p in several]
    rows, word_ids = _noun_tokens(columns, queries, lexicon)
    words = np.array(lexicon.words, dtype=object)
    nouns = words[word_ids].tolist()
    ends = np.searchsorted(rows, queries, side="right").tolist()
    query_nouns = dict(zip(queries, (nouns[start:end] for start, end in zip([0, *ends], ends))))
    tied = {i: best_postcodes(query_nouns[i], tree) if query_nouns[i] else ()
            for i in queries if not postcodes[i]}
    evidence = None
    contested = {p for candidates in tied.values() if len(candidates) > 1 for p in candidates}
    if contested:
        carriers = [i for i, p in enumerate(postcodes) if p in contested]
        more_rows, more_words = _noun_tokens(columns, [i for i in carriers if i not in query_nouns], lexicon)
        queried = np.isin(rows, carriers)
        at = np.searchsorted(carriers, np.concatenate((rows[queried], more_rows)))
        evidence = PostcodeEvidence([postcodes[i] for i in carriers], at,
                                    np.concatenate((word_ids[queried], more_words)), lexicon)
    report = LocationReport(total=len(postcodes))
    imputed, entry_of = flags["postcode"], {}
    for i, candidates in tied.items():
        report.postcode_missing += 1
        imputation = _postcode_for(candidates, query_nouns[i], evidence)
        if imputation is None:
            report.postcode_failed += 1
            continue
        postcodes[i], source, low_confidence = imputation
        imputed[i] = 1
        report.postcode_filled += 1
        report.postcode_sources[source] = report.postcode_sources.get(source, 0) + 1
        report.low_confidence += low_confidence
    if not fill_ads:
        return report
    address_flags, ad_flags = flags["address"], flags["ad"]
    for i, postcode in enumerate(postcodes):
        if not postcode:
            continue
        if i in query_nouns:
            entry = _ad_entry(postcode, tree, query_nouns[i])
        elif postcode in entry_of:
            entry = entry_of[postcode]
        else:  # one AD path or none: the same for every row holding it
            entry = entry_of[postcode] = _ad_entry(postcode, tree, ())
        if entry is None:
            report.ad_failed += 1
            continue
        address = addresses[i]
        full_address = _full_address(entry, address)
        if full_address is None:
            report.ad_original += 1
            continue
        if address:
            ad_flags[i] = 1
        else:
            report.address_filled += 1
            address_flags[i] = 1
        addresses[i] = full_address
        report.ad_assigned += 1
    return report
