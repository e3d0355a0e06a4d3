"""Lexicon-driven word segmentation with part-of-speech tags.

Forward maximum matching: at each position the longest lexicon entry wins;
characters not covered by any entry become single-character tokens tagged
``x``. Tags are n (noun), v (verb), vn (gerund), ns (address noun), x
(unknown). Feature extraction keeps n/v/vn words; address-noun extraction
keeps ns words.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from .records import read_tsv, write_tsv

POS_TAGS = ("n", "v", "vn", "ns", "x")
FEATURE_TAGS = frozenset({"n", "v", "vn"})


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    pos: str
    span: tuple[int, int]


class Lexicon:
    """Immutable word -> POS-tag map with the longest entry length cached."""

    __slots__ = ("entries", "max_len")

    def __init__(self, entries: Mapping[str, str]):
        for word, tag in entries.items():
            if not word:
                raise ValueError("lexicon contains an empty word")
            if tag not in POS_TAGS:
                raise ValueError(f"unknown POS tag {tag!r} for word {word!r}")
        self.entries = dict(entries)
        self.max_len = max((len(w) for w in self.entries), default=1)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    @classmethod
    def from_tsv(cls, path: str | Path) -> "Lexicon":
        entries: dict[str, str] = {}
        for line_no, cells in read_tsv(path):
            if len(cells) != 2:
                raise ValueError(f"{path}:{line_no}: expected word<TAB>pos")
            word, tag = cells
            if word in entries and entries[word] != tag:
                raise ValueError(f"{path}:{line_no}: conflicting tags for {word!r}")
            entries[word] = tag
        return cls(entries)

    def to_tsv(self, path: str | Path) -> None:
        write_tsv(path, None, ((word, self.entries[word]) for word in sorted(self.entries)))


def segment(text: str, lexicon: Lexicon) -> list[Token]:
    """Tokenize by forward maximum matching; token spans tile the input."""
    tokens: list[Token] = []
    entries = lexicon.entries
    n = len(text)
    pos = 0
    while pos < n:
        length = min(lexicon.max_len, n - pos)
        while length > 1 and text[pos : pos + length] not in entries:
            length -= 1
        surface = text[pos : pos + length]
        tag = entries.get(surface, "x")
        tokens.append(Token(surface, tag, (pos, pos + length)))
        pos += length
    return tokens


def feature_words(tokens: Iterable[Token]) -> list[str]:
    """Surfaces of n/v/vn tokens, input order, duplicates kept."""
    return [t.surface for t in tokens if t.pos in FEATURE_TAGS]


def address_nouns(tokens: Iterable[Token]) -> list[str]:
    """Surfaces of ns tokens, input order, de-duplicated."""
    seen: set[str] = set()
    out: list[str] = []
    for t in tokens:
        if t.pos == "ns" and t.surface not in seen:
            seen.add(t.surface)
            out.append(t.surface)
    return out
