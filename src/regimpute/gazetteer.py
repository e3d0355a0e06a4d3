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

The tree keeps, per query noun, the entries it matches and a level-bit
mask for each: the OR of the weights of that entry's levels whose name
the noun matches. An entry's matched weight for a set of nouns is the OR
of those masks. That equals the sum the definition asks for: the
weights 8/4/2/1 are distinct bits, so the OR of a level set's weights is
their sum, and a level matched by several nouns sets its bit once, as it
counts once. match and best_postcodes both read these masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .records import POSTCODE_RE, RowDiagnostic, read_tsv, write_tsv
from .segmenter import ADDRESS_TAGS, Lexicon, word_lists

LEVELS = ("province", "city", "county", "street")
LEVEL_WEIGHTS = {"province": 8, "city": 4, "county": 2, "street": 1}
# Every present weight is an integer in 1..15, so matched * _DEGREE_SCALE
# // present is the degree scaled exactly, with no rounding.
_DEGREE_SCALE = math.lcm(*range(1, sum(LEVEL_WEIGHTS.values()) + 1))
# the levels, in LEVELS order, whose bits a level mask sets
_MASK_LEVELS = tuple(
    tuple(level for level in LEVELS if mask & LEVEL_WEIGHTS[level]) for mask in range(16)
)


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
        by_postcode: dict[str, list[int]] = {}
        # level name -> (entry index, level bit) of each level carrying it
        self._by_name: dict[str, list[tuple[int, int]]] = {}
        present = []
        for idx, entry in enumerate(self.entries):
            by_postcode.setdefault(entry.postcode, []).append(idx)
            for level, name in entry.levels():
                self._by_name.setdefault(name, []).append((idx, LEVEL_WEIGHTS[level]))
            present.append(sum(LEVEL_WEIGHTS[level] for level, _ in entry.levels()))
        self._by_postcode = {p: tuple(self.entries[i] for i in group) for p, group in by_postcode.items()}
        self._postcode_idx = {p: np.array(group, dtype=np.int64) for p, group in by_postcode.items()}
        self._present = np.array(present, dtype=np.int64)
        self._noun_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._best_cache: dict[frozenset[str], tuple[str, ...]] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def postcodes(self) -> set[str]:
        return set(self._by_postcode)

    def entries_for_postcode(self, postcode: str) -> tuple[PostcodeEntry, ...]:
        return self._by_postcode.get(postcode, ())

    def _noun_masks(self, noun: str) -> tuple[np.ndarray, np.ndarray]:
        """Ascending indices of the entries with a level name that contains,
        or is contained by, the noun, and the level-bit mask of those levels."""
        cached = self._noun_cache.get(noun)
        if cached is None:
            masks: dict[int, int] = {}
            for name, levels in self._by_name.items():
                if noun in name or name in noun:
                    for idx, bit in levels:
                        masks[idx] = masks.get(idx, 0) | bit
            order = sorted(masks)
            cached = self._noun_cache[noun] = (
                np.array(order, dtype=np.int64), np.array([masks[i] for i in order], dtype=np.int64)
            )
        return cached

    def _matched(self, nouns: frozenset[str], among: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Ascending indices of the entries that the nouns, all non-empty,
        match, and each one's matched weight: the OR of the nouns' masks.
        Only entries in among (ascending, non-empty) when it is given."""
        weight = np.zeros(len(self.entries) if among is None else among.size, dtype=np.int64)
        for noun in nouns:
            idx, mask = self._noun_masks(noun)
            if among is not None:  # positions in among of the entries it holds
                at = np.searchsorted(among, idx)
                inside = among[np.minimum(at, among.size - 1)] == idx
                idx, mask = at[inside], mask[inside]
            weight[idx] |= mask
        at = np.flatnonzero(weight)
        return (at if among is None else among[at]), weight[at]


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


def match(nouns: Sequence[str], tree: AddressTree, postcode: str | None = None) -> list[MatchResult]:
    """Candidates scored by weighted level overlap, best first; only the
    entries of `postcode` when it is given.

    Ordering is degree descending, then postcode ascending, then path."""
    among = None if postcode is None else tree._postcode_idx.get(postcode)
    if postcode is not None and among is None:
        return []
    idx, weight = tree._matched(frozenset(n for n in nouns if n), among)
    present = tree._present
    results = [
        MatchResult(tree.entries[i], _MASK_LEVELS[w], w, int(present[i]))
        for i, w in zip(idx.tolist(), weight.tolist())
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
    idx, weight = tree._matched(query)
    result: tuple[str, ...] = ()
    if idx.size:
        key = weight * _DEGREE_SCALE // tree._present[idx]
        result = tuple(sorted({tree.entries[i].postcode for i in idx[key == key.max()].tolist()}))
    tree._best_cache[query] = result
    return result


@dataclass(frozen=True)
class CoverageReport:
    evaluated: int
    match_rate: float  # best match's postcode equals the record's
    presence_rate: float  # record postcode exists anywhere in the tree


def validate(
    tree: AddressTree, addresses: Sequence[str | None], postcodes: Sequence[str | None], lexicon: Lexicon
) -> CoverageReport:
    """Coverage of the tree on complete rows of row-aligned address and
    postcode columns: rows with a postcode and an address that yields at
    least three distinct address nouns. An address with fewer is
    street-only or coarser and is not evaluated."""
    located = [(address, postcode) for address, postcode in zip(addresses, postcodes) if address and postcode]
    evaluated, matched, present = 0, 0, 0
    known = tree.postcodes()
    for (_, postcode), nouns in zip(located, word_lists([address for address, _ in located], lexicon, ADDRESS_TAGS)):
        if len(set(nouns)) < 3:
            continue
        evaluated += 1
        if postcode in known:
            present += 1
        best = best_postcodes(nouns, tree)
        if best and best[0] == postcode:
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
