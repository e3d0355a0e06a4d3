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
   step. The trie is a double array (J. Aoe, IEEE TSE 15(9), 1989): state
   0 is the root, and the child of state s on code c is t = base[s] + c
   when check[t] == s; otherwise s has no child on c. A step is two
   gathers and a compare per walking position. The root's children come
   from a table, 0 where there is none. A position's longest word is the
   last word state its walk passes; its length is 1 if none.
3. Every text's cursor starts at the text's first position. Each numpy
   step marks the cursors and moves each one on by the length of the
   longest word at it, until it reaches its text's end. The marked
   positions are the token starts.

This is FMM text by text, exactly:
- The double array holds exactly the trie's edges. Every node gets a
  base >= 1 such that the slots base + c of all nodes' children are
  distinct; a child's state is its slot, and its check is its parent's
  state. If check[base[s] + c] == s, that slot holds a child of s on some
  code c' with base[s] + c' = base[s] + c, so c' = c: a hit is s's child
  on c. No child lands on state 0, since every base is >= 1 and every
  edge's code too, so 0 can also mean "no node". A free slot's check is
  -1, and the arrays are padded so base[s] + c is in range for every code.
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

segment is a one-text call into the kernel that no stage makes; it stays
because perfbench's tracer wraps it. A caller that segments a whole corpus
makes one batch call, to tokenize, segment_texts or word_lists, since a
call costs ~0.1 ms of numpy set-up however short its texts.
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
    """A lexicon's tokenize tables, as numpy arrays. The trie is a double
    array of states: state 0 is the root, and the child of state s on code
    c is base[s] + c when check[base[s] + c] == s."""

    code: np.ndarray  # code of each code point up to the largest word character's, then 0
    root_child: np.ndarray  # state of each code's one-character prefix, 0 if none
    base: np.ndarray  # each state's base, >= 1; padded so base[s] + c is in range for every code
    check: np.ndarray  # each state's parent state, -1 for a slot that holds no state
    node_word: np.ndarray  # word id ending at each state, or -1
    word_tag: np.ndarray  # POS_TAGS index of each word id, then that of x (for -1)


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
            self._tables = _build_tables(self)
        return self._tables


def _build_tables(lexicon: Lexicon) -> _Tables:
    alphabet = sorted({ch for word in lexicon.words for ch in word})
    code = {ch: i + 1 for i, ch in enumerate(alphabet)}
    # the trie, nodes numbered from the root (0) in creation order: words
    # are sorted, so each word leaves the previous one's path after their
    # common prefix, and each node's children are made in code order
    parent, label, word_node = [0], [0], []
    path, prev = [0], ""
    for word in lexicon.words:
        k = 0
        while k < len(prev) and prev[k] == word[k]:
            k += 1
        del path[k + 1:]
        for ch in word[k:]:
            parent.append(path[-1])
            label.append(code[ch])
            path.append(len(label) - 1)
        word_node.append(path[-1])
        prev = word
    parent, label = np.array(parent, dtype=np.int64), np.array(label, dtype=np.int64)
    node_base = _place(parent, label, len(alphabet))
    # a node's state is its parent's base plus its code; the root's is 0.
    # int32 holds every state: next fit keeps the table near the node
    # count (174,834 slots for the 97,033 nodes of 50,000 CJK words)
    state = node_base[parent] + label
    state[0] = 0
    size = int(max(state.max(), node_base.max())) + len(alphabet) + 1
    base = np.ones(size, dtype=np.int32)
    base[state] = node_base
    check = np.full(size, -1, dtype=np.int32)
    check[state[1:]] = state[parent[1:]]
    node_word = np.full(size, -1, dtype=np.int32)
    node_word[state[word_node]] = np.arange(len(word_node))
    points = [ord(ch) for ch in alphabet]
    code_table = np.zeros(max(points, default=0) + 2, dtype=np.int32)
    code_table[points] = np.arange(1, len(alphabet) + 1)
    root_child = base[0] + np.arange(len(alphabet) + 1, dtype=np.int32)
    root_child[check[root_child] != 0] = 0
    word_tag = [POS_TAGS.index(lexicon.entries[w]) for w in lexicon.words] + [POS_TAGS.index("x")]
    return _Tables(code_table, root_child, base, check, node_word, np.array(word_tag, dtype=np.int8))


def _place(parent: np.ndarray, label: np.ndarray, codes: int) -> np.ndarray:
    """A base >= 1 for each trie node, such that the slots base + c of all
    nodes' children are distinct and none is slot 0, the root's. parent
    and label give each node but the root (0) its parent and its code; the
    codes run 1..codes."""
    count = np.bincount(parent[1:], minlength=parent.size)
    kids = np.argsort(parent[1:], kind="stable") + 1  # each node's children together, in code order
    first = np.cumsum(count) - count  # where a node's children start in kids
    kid_code = label[kids]
    base = np.ones(parent.size, dtype=np.int64)
    used = bytearray(2 * (parent.size + codes + 1))
    used[0] = 1
    # nodes with children, the largest first, by next fit: a node's search
    # starts at the slot the previous node's first child took, so no search
    # rescans the full slots below it
    start = 1
    nodes = np.flatnonzero(count)
    nodes = nodes[np.argsort(-count[nodes], kind="stable")]
    kid_codes, firsts, counts = kid_code.tolist(), first[nodes].tolist(), count[nodes].tolist()
    for n, f, m in zip(nodes.tolist(), firsts, counts):
        low, *rest = cs = kid_codes[f:f + m]
        at = max(start, low + 1)
        while True:
            at = used.find(0, at)
            if at < 0 or at - low + cs[-1] >= len(used):
                used.extend(bytes(len(used)))
                at = max(start, low + 1)
                continue
            b = at - low
            if not any(used[b + c] for c in rest):
                break
            at += 1
        base[n] = b
        for c in cs:
            used[b + c] = 1
        start = at
    return base


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
    #    longer ones by a step of the double array
    node = tables.root_child[codes]
    word_id = tables.node_word[node]
    word_len = np.ones(codes.size, dtype=np.int64)
    pos = np.flatnonzero(node)
    node = node[pos]
    base, check = tables.base, tables.check
    for k in range(2, max_len + 1):
        child = base[node] + codes[pos + (k - 1)]
        hit = check[child] == node
        pos, node = pos[hit], child[hit]
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
