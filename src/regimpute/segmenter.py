"""Lexicon-driven word segmentation with part-of-speech tags.

Forward maximum matching (FMM): at each position the longest lexicon entry
wins; characters not covered by any entry become single-character tokens
tagged ``x``. Tags are n (noun), v (verb), vn (gerund), ns (address noun),
x (unknown). Feature extraction keeps n/v/vn words; address-noun extraction
keeps ns words.

tokenize is the one FMM implementation. It segments a batch of texts with
numpy and gives, for each token, the index of its text, its word id (an
index into Lexicon.words, -1 for a character that is no word) and its
start in the text. It works on runs of whole texts of about CHUNK code
points at a time, and keeps from each run only the tokens whose tag the
caller asked for. Within a run:

1. The texts are laid end to end, one separator after each, and every code
   point becomes a code: 1..A for the A characters that lexicon words use,
   0 for any other character and for the separators.
2. The longest word at every position is found by walking the trie of the
   lexicon's words from all positions at once, one character per numpy
   step. The root's children come from a table; the child of any other
   node u on code c is looked up with searchsorted among the trie's
   sorted edge keys u * (A + 1) + c. A position's longest word is the
   last word node its walk passes; its length is 1 if none.
3. Every text's cursor starts at the text's first position. Each numpy
   step marks the cursors and moves each one on by the length of the
   longest word at it, until it reaches its text's end. The marked
   positions are the token starts.

This is FMM text by text, exactly:
- No word spans a text boundary. Words are made of codes 1..A, a
  separator is 0, and no trie edge reads a 0.
- The longest word at a position is the first hit of FMM's loop, which
  tries lengths from the longest down. The walk reads the text from that
  position until no word continues it, so its last word node is the
  longest word the text continues with. With none, both take one
  character, which is a word if the lexicon has it.
- The walk marks exactly the positions FMM reaches. Both start at the
  text's first position, both move from a position by the same length,
  and both stop at the text's end.

segment, feature_words and address_nouns are one-text calls into the
kernel. A caller that segments a whole corpus makes one batch call, to
tokenize, segment_texts or word_lists, since a call costs ~0.1 ms of
numpy set-up however short its texts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Mapping, Sequence

import numpy as np

from .records import read_tsv, write_tsv

POS_TAGS = ("n", "v", "vn", "ns", "x")
FEATURE_TAGS = frozenset({"n", "v", "vn"})
ADDRESS_TAGS = frozenset({"ns"})

# Code points per tokenize run (a longer text is a run of its own). It
# bounds the kernel's working arrays to about 1 MB whatever the batch size.
CHUNK = 1 << 14


@dataclass(frozen=True, slots=True)
class Token:
    surface: str
    pos: str
    span: tuple[int, int]


@dataclass(frozen=True, slots=True)
class _Tables:
    """A lexicon's tokenize tables, as numpy arrays."""

    code: np.ndarray  # code of each code point up to the largest word character's, then 0
    root_child: np.ndarray  # trie node of each code's one-character prefix, 0 if none
    edge_keys: np.ndarray  # sorted node * base + code of every trie edge, then a sentinel
    edge_child: np.ndarray  # the node each edge leads to
    node_word: np.ndarray  # word id ending at each trie node, or -1
    word_tag: np.ndarray  # POS_TAGS index of each word id, then that of x (for -1)
    base: int  # A + 1


class Lexicon:
    """Immutable word -> POS-tag map. words lists the entries sorted, and a
    word's id is its index there. The tokenize tables are built on first
    use and kept."""

    __slots__ = ("entries", "max_len", "words", "_tables")

    def __init__(self, entries: Mapping[str, str]):
        for word, tag in entries.items():
            if not word:
                raise ValueError("lexicon contains an empty word")
            if tag not in POS_TAGS:
                raise ValueError(f"unknown POS tag {tag!r} for word {word!r}")
        self.entries = dict(entries)
        self.max_len = max((len(w) for w in self.entries), default=1)
        self.words = tuple(sorted(self.entries))
        self._tables: _Tables | None = None

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
        write_tsv(path, None, ((word, self.entries[word]) for word in self.words))

    def tables(self) -> _Tables:
        """The tokenize tables, built on first use."""
        if self._tables is None:
            alphabet = sorted({ch for word in self.words for ch in word})
            code = {ch: i + 1 for i, ch in enumerate(alphabet)}
            base = len(alphabet) + 1
            edges: dict[int, int] = {}
            node_word = [-1]
            for wid, word in enumerate(self.words):
                node = 0
                for ch in word:
                    key = node * base + code[ch]
                    node = edges.get(key, 0)
                    if not node:
                        node = edges[key] = len(node_word)
                        node_word.append(-1)
                node_word[node] = wid
            points = [ord(ch) for ch in alphabet]
            code_table = np.zeros(max(points, default=0) + 2, dtype=np.int32)
            code_table[points] = np.arange(1, base)
            keys = sorted(edges) + [2**63 - 1]  # a sentinel above every key
            self._tables = _Tables(
                code_table,
                np.array([0] + [edges.get(c, 0) for c in range(1, base)], dtype=np.int64),
                np.array(keys, dtype=np.int64),
                np.array([edges.get(k, 0) for k in keys], dtype=np.int64),
                np.array(node_word, dtype=np.int64),
                np.array([POS_TAGS.index(self.entries[w]) for w in self.words] + [POS_TAGS.index("x")],
                         dtype=np.int8),
                base,
            )
        return self._tables


def tokenize(texts: Sequence[str], lexicon: Lexicon, tags: Collection[str] | None = None):
    """(text index, word id, start) int32 arrays, one entry per token of
    texts by forward maximum matching, in text order and then position
    order. Word ids index lexicon.words; -1 is a character that is no word,
    tagged x. Only tokens whose tag is in tags are kept, all when tags is
    None."""
    tables = lexicon.tables()
    keep = None if tags is None else np.isin(tables.word_tag, [POS_TAGS.index(t) for t in tags])
    # layout offset just past each text's separator, batch-wide, for the
    # runs' bounds only: it is freed before the runs start, so the runs'
    # arrays reuse its memory instead of leaving it a hole under their results
    run_ends = np.cumsum(np.fromiter(map(len, texts), dtype=np.int64, count=len(texts)) + 1)
    bounds = [0]
    while bounds[-1] < len(texts):
        first = bounds[-1]
        offset = int(run_ends[first - 1]) if first else 0
        bounds.append(max(first + 1, int(np.searchsorted(run_ends, offset + CHUNK, side="right"))))
    del run_ends
    parts = [
        _tokenize_run(texts[first:last], first, lexicon.max_len, tables, keep)
        for first, last in zip(bounds, bounds[1:])
    ]
    if not parts:
        return np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0, np.int32)
    return tuple(np.concatenate(column) for column in zip(*parts))


def _tokenize_run(texts, first: int, max_len: int, tables: _Tables, keep) -> tuple:
    """tokenize's arrays for texts, the batch's texts from index first on."""
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    # 1. codes, a separator after each text and max_len - 1 more as padding,
    #    so the trie walk can read max_len codes from any position
    starts = np.cumsum(lengths + 1) - lengths - 1
    ends = starts + lengths
    joined = "\x00".join(texts) + "\x00" * max_len
    points = np.frombuffer(joined.encode("utf-32-le", "surrogatepass"), dtype=np.uint32)
    codes = tables.code[np.minimum(points, tables.code.size - 1)]
    codes[ends] = 0
    codes[ends[-1]:] = 0
    # 2. the longest word at each position: one-character prefixes by table,
    #    longer ones by searchsorted among the edge keys
    node = tables.root_child[codes]
    word_id = tables.node_word[node]
    word_len = np.ones(codes.size, dtype=np.int64)
    pos = np.flatnonzero(node)
    node = node[pos]
    edge_keys = tables.edge_keys
    for k in range(2, max_len + 1):
        key = node * tables.base + codes[pos + (k - 1)]
        at = np.searchsorted(edge_keys, key)
        hit = edge_keys[at] == key
        pos, node = pos[hit], tables.edge_child[at[hit]]
        if not pos.size:
            break
        wid = tables.node_word[node]
        ended = wid >= 0
        word_len[pos[ended]] = k
        word_id[pos[ended]] = wid[ended]
    # 3. every text's FMM walk at once
    reached = np.zeros(codes.size, dtype=bool)
    cursor, stop = starts[lengths > 0], ends[lengths > 0]
    while cursor.size:
        reached[cursor] = True
        cursor = cursor + word_len[cursor]
        alive = cursor < stop
        cursor, stop = cursor[alive], stop[alive]
    pos = np.flatnonzero(reached)
    wid = word_id[pos]
    if keep is not None:
        kept = keep[wid]
        pos, wid = pos[kept], wid[kept]
    text = np.searchsorted(starts, pos, side="right") - 1
    return (text + first).astype(np.int32), wid.astype(np.int32), (pos - starts[text]).astype(np.int32)


def segment_texts(texts: Sequence[str], lexicon: Lexicon) -> list[list[Token]]:
    """Each text's tokens by forward maximum matching; spans tile the text."""
    text_ids, word_ids, starts = tokenize(texts, lexicon)
    words, entries = lexicon.words, lexicon.entries
    out: list[list[Token]] = [[] for _ in texts]
    for t, w, s in zip(text_ids.tolist(), word_ids.tolist(), starts.tolist()):
        surface = words[w] if w >= 0 else texts[t][s]
        out[t].append(Token(surface, entries[surface] if w >= 0 else "x", (s, s + len(surface))))
    return out


def word_lists(texts: Sequence[str], lexicon: Lexicon, tags: Collection[str]) -> list[list[str]]:
    """Each text's lexicon words tagged in tags, in order, duplicates kept."""
    text_ids, word_ids, _ = tokenize(texts, lexicon, tags)
    is_word = word_ids >= 0
    words = lexicon.words
    flat = [words[w] for w in word_ids[is_word].tolist()]
    ends = np.cumsum(np.bincount(text_ids[is_word], minlength=len(texts))).tolist()
    return [flat[a:b] for a, b in zip([0, *ends], ends)]


def segment(text: str, lexicon: Lexicon) -> list[Token]:
    """Tokenize by forward maximum matching; token spans tile the input."""
    return segment_texts([text], lexicon)[0]


def feature_words(text: str, lexicon: Lexicon) -> list[str]:
    """Surfaces of text's n/v/vn tokens, input order, duplicates kept."""
    return word_lists([text], lexicon, FEATURE_TAGS)[0]


def address_nouns(text: str, lexicon: Lexicon) -> list[str]:
    """Surfaces of text's ns tokens, input order, de-duplicated."""
    return list(dict.fromkeys(word_lists([text], lexicon, ADDRESS_TAGS)[0]))
