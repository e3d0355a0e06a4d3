"""Lexicon-driven word segmentation with part-of-speech tags.

Forward maximum matching (FMM): at each position the longest lexicon entry
wins; characters not covered by any entry become single-character tokens
tagged ``x``. Tags are n (noun), v (verb), vn (gerund), ns (address noun),
x (unknown). Feature extraction keeps n/v/vn words; address-noun extraction
keeps ns words.

fmm holds the matching loop and returns surfaces only. feature_words and
address_nouns filter its surfaces by lexicon tag, which is all the category
and location tracks read; segment builds Token objects (with tag and span)
from the same surfaces for the ``segment`` command.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .records import read_tsv, write_tsv

POS_TAGS = ("n", "v", "vn", "ns", "x")
FEATURE_TAGS = frozenset({"n", "v", "vn"})


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    pos: str
    span: tuple[int, int]


class Lexicon:
    """Immutable word -> POS-tag map with the longest entry length and the
    first characters of the multi-character words cached."""

    __slots__ = ("entries", "max_len", "starts")

    def __init__(self, entries: Mapping[str, str]):
        for word, tag in entries.items():
            if not word:
                raise ValueError("lexicon contains an empty word")
            if tag not in POS_TAGS:
                raise ValueError(f"unknown POS tag {tag!r} for word {word!r}")
        self.entries = dict(entries)
        self.max_len = max((len(w) for w in self.entries), default=1)
        self.starts = frozenset(w[0] for w in self.entries if len(w) > 1)

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


def fmm(text: str, lexicon: Lexicon) -> list[str]:
    """Surfaces of text's tokens by forward maximum matching, in order;
    they concatenate to text. A character that starts no multi-character
    word is a token of its own, with no lookups."""
    surfaces: list[str] = []
    entries, max_len, starts = lexicon.entries, lexicon.max_len, lexicon.starts
    n = len(text)
    pos = 0
    while pos < n:
        length = min(max_len, n - pos) if text[pos] in starts else 1
        while length > 1 and text[pos : pos + length] not in entries:
            length -= 1
        surfaces.append(text[pos : pos + length])
        pos += length
    return surfaces


def segment(text: str, lexicon: Lexicon) -> list[Token]:
    """Tokenize by forward maximum matching; token spans tile the input."""
    tokens: list[Token] = []
    entries = lexicon.entries
    pos = 0
    for surface in fmm(text, lexicon):
        end = pos + len(surface)
        tokens.append(Token(surface, entries.get(surface, "x"), (pos, end)))
        pos = end
    return tokens


def feature_words(text: str, lexicon: Lexicon) -> list[str]:
    """Surfaces of text's n/v/vn tokens, input order, duplicates kept."""
    entries = lexicon.entries
    return [w for w in fmm(text, lexicon) if entries.get(w) in FEATURE_TAGS]


def address_nouns(text: str, lexicon: Lexicon) -> list[str]:
    """Surfaces of text's ns tokens, input order, de-duplicated."""
    entries = lexicon.entries
    return list(dict.fromkeys([w for w in fmm(text, lexicon) if entries.get(w) == "ns"]))
