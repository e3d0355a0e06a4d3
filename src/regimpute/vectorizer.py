"""Feature hashing of word lists into one sparse count matrix.

The hash is FNV-1a (32-bit) over the UTF-8 bytes of each word, reduced
modulo the matrix width dim. hash_rows turns a batch of word lists into a
scipy CSR matrix with one row per list: float64 counts, strictly
increasing column indices within each row and no stored zeros, so an
empty list is an empty row. Collisions add up silently. The default
dimension is 15,000.

This matrix is the only form category data takes: build_labeled gives the
training matrix and its labels, and every classifier trains and predicts
on it. Word hashes are memoised: names reuse a small vocabulary, and the
byte loop of fnv1a_32, the reference implementation, is slow in pure
Python. scipy is imported by the function that builds a matrix, so
importing this module does not load it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .records import write_tsv
from .segmenter import FEATURE_TAGS, Lexicon, tokenize
# Unused here: perfbench's tracer patches this name when it installs
# (ROADMAP item 1), so it stays importable until the tracer drops it.
from .segmenter import segment  # noqa: F401

DEFAULT_DIM = 15_000

_FNV32_OFFSET = 0x811C9DC5
_FNV32_PRIME = 0x01000193
_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x00000100000001B3


def fnv1a_32(data: bytes) -> int:
    h = _FNV32_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV32_PRIME) & 0xFFFFFFFF
    return h


def fnv1a_64(data: bytes) -> int:
    h = _FNV64_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV64_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


@lru_cache(maxsize=1 << 16)
def _word_hash(word: str) -> int:
    return fnv1a_32(word.encode("utf-8"))


def hash_index(word: str, dim: int) -> int:
    return _word_hash(word) % dim


def count_rows(column_lists: Iterable[Iterable[int]], dim: int):
    """CSR matrix whose row r counts each column index of column_lists[r]:
    float64 counts, sorted indices, duplicates summed."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    columns: list[int] = []
    ends = [0]
    for row in column_lists:
        columns.extend(row)
        ends.append(len(columns))
    return _count_matrix(np.array(columns, dtype=np.int64), ends, dim)


def _count_matrix(columns, indptr, dim: int):
    from scipy import sparse

    X = sparse.csr_matrix((np.ones(len(columns)), columns, indptr), shape=(len(indptr) - 1, dim))
    X.sum_duplicates()  # sorts each row's indices, then adds up repeats
    return X


def hash_rows(word_lists: Iterable[Iterable[str]], dim: int = DEFAULT_DIM):
    """Feature-hash a batch of word lists, one matrix row each."""
    return count_rows(([hash_index(w, dim) for w in words] for words in word_lists), dim)


def vectorize_names(names: Sequence[str], lexicon: Lexicon, dim: int = DEFAULT_DIM):
    """hash_rows of each name's feature_words, from one tokenize call and
    one hash_index per distinct word id."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    text_ids, word_ids, _ = tokenize(names, lexicon, FEATURE_TAGS)
    used, inverse = np.unique(word_ids, return_inverse=True)
    table = np.array([hash_index(lexicon.words[w], dim) for w in used.tolist()], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(text_ids, minlength=len(names)))))
    return _count_matrix(table[inverse], indptr, dim)


def vectorize_name(name: str, lexicon: Lexicon, dim: int = DEFAULT_DIM):
    """One-row matrix of a name's feature words."""
    return vectorize_names([name], lexicon, dim)


def row_entries(X) -> list[list[tuple[int, int]]]:
    """Each row's (column, count) pairs, as Python ints in column order."""
    ends = X.indptr.tolist()
    columns, counts = X.indices.tolist(), X.data.astype("int64").tolist()
    return [list(zip(columns[s:e], counts[s:e])) for s, e in zip(ends, ends[1:])]


def build_labeled(
    names: Sequence[str | None], categories: Sequence[str | None], lexicon: Lexicon, dim: int = DEFAULT_DIM
):
    """(X, labels, skipped): one row per record with a name and a category,
    in record order, those records' categories, and the count of records
    skipped for having no name. names and categories are row-aligned
    columns; an absent name is "" or None, an absent category None."""
    labeled = [i for i, (name, category) in enumerate(zip(names, categories)) if name and category is not None]
    X = vectorize_names([names[i] for i in labeled], lexicon, dim)
    return X, [categories[i] for i in labeled], sum(1 for name in names if not name)


def write_vectors(ids: Sequence[str], labels: Sequence[str], X, path) -> None:
    """Dump one line per row as id<TAB>label<TAB>idx:count,... with integer
    counts."""
    write_tsv(path, None, (
        (rec_id, label, ",".join(f"{i}:{c}" for i, c in entries))
        for rec_id, label, entries in zip(ids, labels, row_entries(X))
    ))
