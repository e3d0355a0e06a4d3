"""Postcode gazetteer: hierarchical address tree and weighted name matching.

Entries are (province, city, county, street, postcode) rows. Matching
scores a set of query address nouns against each candidate entry: a level
counts as matched when its name contains, or is contained by, any query
noun, and the matching degree is the weight sum of matched levels over the
weight sum of levels present in the entry. Level weights are 8/4/2/1 from
province down to street, so a match at any level outweighs all matches
below it combined. Degrees are compared as integers, so ties are detected
exactly: each degree is scaled by a common multiple of every possible
present weight, which leaves no remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .records import POSTCODE_RE, EnterpriseRecord, RowDiagnostic, read_tsv, write_tsv
from .segmenter import Lexicon, address_nouns, segment

LEVELS = ("province", "city", "county", "street")
LEVEL_WEIGHTS = {"province": 8, "city": 4, "county": 2, "street": 1}
# Every present weight is an integer in 1..15, so matched * _DEGREE_SCALE
# // present is the degree scaled exactly, with no rounding.
_DEGREE_SCALE = math.lcm(*range(1, sum(LEVEL_WEIGHTS.values()) + 1))


def _degree_key(matched: int, present: int) -> int:
    """The matching degree as an exact integer: equal degrees, equal keys."""
    return matched * _DEGREE_SCALE // present


@dataclass(frozen=True, slots=True)
class PostcodeEntry:
    province: str
    city: str
    county: str
    street: str
    postcode: str

    def levels(self) -> tuple[tuple[str, str], ...]:
        """(level, name) pairs for the non-empty levels."""
        return tuple(
            (level, name)
            for level, name in zip(LEVELS, (self.province, self.city, self.county, self.street))
            if name
        )

    def path(self) -> tuple[str, str, str, str]:
        return (self.province, self.city, self.county, self.street)

    def check(self) -> str | None:
        """Reason this entry is invalid, or None."""
        if not POSTCODE_RE.match(self.postcode):
            return f"invalid postcode {self.postcode!r}"
        if not self.province:
            return "empty province"
        return None


@dataclass(frozen=True)
class MatchResult:
    entry: PostcodeEntry
    matched_levels: tuple[str, ...]
    matched_weight: int
    present_weight: int

    @property
    def degree(self) -> float:
        return self.matched_weight / self.present_weight

    @property
    def degree_exact(self) -> Fraction:
        return Fraction(self.matched_weight, self.present_weight)


class AddressTree:
    """Immutable four-level index over validated, de-duplicated entries."""

    def __init__(self, entries: Sequence[PostcodeEntry]):
        self.entries: tuple[PostcodeEntry, ...] = tuple(
            sorted(set(entries), key=lambda e: (e.path(), e.postcode))
        )
        self._by_postcode: dict[str, list[int]] = {}
        self._by_name: dict[str, set[int]] = {}
        # per entry: its (weight, level, name) triples and their weight sum
        self._scoring: list[tuple[tuple[tuple[int, str, str], ...], int]] = []
        for idx, entry in enumerate(self.entries):
            self._by_postcode.setdefault(entry.postcode, []).append(idx)
            for _, name in entry.levels():
                self._by_name.setdefault(name, set()).add(idx)
            levels = tuple((LEVEL_WEIGHTS[level], level, name) for level, name in entry.levels())
            self._scoring.append((levels, sum(w for w, _, _ in levels)))
        self._names = tuple(self._by_name)
        self._noun_cache: dict[str, frozenset[str]] = {}
        self._best_cache: dict[frozenset[str], tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def postcodes(self) -> set[str]:
        return set(self._by_postcode)

    def entries_for_postcode(self, postcode: str) -> tuple[PostcodeEntry, ...]:
        return tuple(self.entries[i] for i in self._by_postcode.get(postcode, ()))

    def _names_for_noun(self, noun: str) -> frozenset[str]:
        """Level names that contain, or are contained by, the noun."""
        cached = self._noun_cache.get(noun)
        if cached is None:
            cached = frozenset(name for name in self._names if noun in name or name in noun)
            self._noun_cache[noun] = cached
        return cached


def build(entries: Iterable[PostcodeEntry]) -> AddressTree:
    """Build the tree; invalid entries are rejected (fatal here, because
    callers are expected to have run read_gazetteer, which screens them)."""
    checked = []
    for entry in entries:
        reason = entry.check()
        if reason:
            raise ValueError(f"invalid gazetteer entry {entry}: {reason}")
        checked.append(entry)
    return AddressTree(checked)


def _score(
    nouns: frozenset[str], tree: AddressTree, within: Iterable[int] | None = None
) -> Iterator[tuple[int, tuple[str, ...], int, int]]:
    """(entry index, matched levels, matched weight, present weight) of
    every entry with at least one matched level, for non-empty nouns;
    only the entries indexed by `within` when it is given."""
    names: set[str] = set()
    for noun in nouns:
        names |= tree._names_for_noun(noun)
    if within is None:
        candidates: set[int] = set()
        for name in names:
            candidates |= tree._by_name[name]
        within = candidates
    for idx in within:
        levels, present = tree._scoring[idx]
        matched = [(w, level) for w, level, name in levels if name in names]
        if matched:
            yield idx, tuple(level for _, level in matched), sum(w for w, _ in matched), present


def match(nouns: Sequence[str], tree: AddressTree, postcode: str | None = None) -> list[MatchResult]:
    """Candidates scored by weighted level overlap, best first; only the
    entries of `postcode` when it is given.

    Ordering is degree descending, then postcode ascending, then path."""
    within = None if postcode is None else tree._by_postcode.get(postcode, ())
    results = [
        MatchResult(tree.entries[idx], levels, matched, present)
        for idx, levels, matched, present in _score(frozenset(n for n in nouns if n), tree, within)
    ]
    results.sort(key=lambda r: (
        -_degree_key(r.matched_weight, r.present_weight), r.entry.postcode, r.entry.path()
    ))
    return results


def best_postcodes(nouns: Iterable[str], tree: AddressTree) -> tuple[str, ...]:
    """Sorted postcodes of the entries tied at the best matching degree;
    () when nothing matches. Memoised on the tree per set of non-empty
    nouns, which is all the result depends on."""
    query = frozenset(n for n in nouns if n)
    cached = tree._best_cache.get(query)
    if cached is not None:
        return cached
    best, tied = 0, set()
    for idx, _, matched, present in _score(query, tree):
        key = _degree_key(matched, present)
        if key > best:
            best, tied = key, {tree.entries[idx].postcode}
        elif key == best:
            tied.add(tree.entries[idx].postcode)
    result = tuple(sorted(tied))
    tree._best_cache[query] = result
    return result


@dataclass(frozen=True)
class CoverageReport:
    evaluated: int
    match_rate: float  # best match's postcode equals the record's
    presence_rate: float  # record postcode exists anywhere in the tree


def validate(
    tree: AddressTree, records: Sequence[EnterpriseRecord], lexicon: Lexicon
) -> CoverageReport:
    """Check the tree against records that carry both AD text and postcode."""
    evaluated = matched = present = 0
    known = tree.postcodes()
    for rec in records:
        if not rec.address or not rec.postcode:
            continue
        evaluated += 1
        if rec.postcode in known:
            present += 1
        best = best_postcodes(address_nouns(segment(rec.address, lexicon)), tree)
        if best and best[0] == rec.postcode:
            matched += 1
    if evaluated == 0:
        return CoverageReport(0, 0.0, 0.0)
    return CoverageReport(evaluated, matched / evaluated, present / evaluated)


def read_gazetteer(path: str | Path) -> tuple[list[PostcodeEntry], list[RowDiagnostic]]:
    """Parse a gazetteer TSV; malformed rows become diagnostics."""
    entries: list[PostcodeEntry] = []
    diagnostics: list[RowDiagnostic] = []
    rows = read_tsv(path)
    if next(rows, (1, []))[1] != list(LEVELS) + ["postcode"]:
        raise ValueError(f"{path}: expected columns {LEVELS + ('postcode',)}")
    for line_no, cells in rows:
        if len(cells) != 5:
            diagnostics.append(RowDiagnostic(line_no, f"expected 5 cells, got {len(cells)}"))
            continue
        entry = PostcodeEntry(*cells)
        reason = entry.check()
        if reason:
            diagnostics.append(RowDiagnostic(line_no, reason))
            continue
        entries.append(entry)
    return entries, diagnostics


def write_gazetteer(entries: Iterable[PostcodeEntry], path: str | Path) -> None:
    rows = ((e.province, e.city, e.county, e.street, e.postcode) for e in entries)
    write_tsv(path, LEVELS + ("postcode",), rows)
