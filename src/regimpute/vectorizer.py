"""Feature hashing of word lists to fixed-dimension sparse count vectors.

The hash is FNV-1a (32-bit) over the UTF-8 bytes of each word, reduced
modulo the vector dimension. Counts accumulate per index; collisions are
accepted silently. The default dimension is 15,000. Word hashes are
memoised: names reuse a small vocabulary, and the byte loop of fnv1a_32,
the reference implementation, is slow in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .records import EnterpriseRecord, write_tsv
from .segmenter import Lexicon, feature_words, segment

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


@dataclass(frozen=True, slots=True)
class SparseVector:
    """Fixed-dimension count vector stored as sorted (index, count) pairs."""

    dim: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        prev = -1
        for index, count in self.entries:
            if index <= prev:
                raise ValueError("entry indices must be strictly increasing")
            if not 0 <= index < self.dim:
                raise ValueError(f"index {index} out of range for dim {self.dim}")
            if count <= 0:
                raise ValueError("entry counts must be positive")
            prev = index

    @property
    def total(self) -> int:
        return sum(count for _, count in self.entries)


@dataclass(frozen=True, slots=True)
class LabeledPoint:
    label: str
    vector: SparseVector


def hash_vector(words: Iterable[str], dim: int = DEFAULT_DIM) -> SparseVector:
    """Feature-hash a word list; empty input gives the zero vector."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    counts: dict[int, int] = {}
    for word in words:
        index = hash_index(word, dim)
        counts[index] = counts.get(index, 0) + 1
    return SparseVector(dim, tuple(sorted(counts.items())))


def vectorize_name(name: str, lexicon: Lexicon, dim: int = DEFAULT_DIM) -> SparseVector:
    return hash_vector(feature_words(segment(name, lexicon)), dim)


def to_labeled(
    record: EnterpriseRecord, lexicon: Lexicon, dim: int = DEFAULT_DIM
) -> LabeledPoint | None:
    """LabeledPoint for a record with a category; None when unlabeled.

    Records without a name cannot be vectorized at all; callers should
    screen those out (see build_labeled)."""
    if not record.name:
        raise ValueError(f"record {record.id} has no name")
    if record.category is None:
        return None
    return LabeledPoint(record.category, vectorize_name(record.name, lexicon, dim))


def build_labeled(
    records: Sequence[EnterpriseRecord], lexicon: Lexicon, dim: int = DEFAULT_DIM
) -> tuple[list[LabeledPoint], int]:
    """Labeled points for all named+labeled records, and the count of
    records skipped for having no name."""
    points: list[LabeledPoint] = []
    skipped = 0
    for rec in records:
        if not rec.name:
            skipped += 1
            continue
        point = to_labeled(rec, lexicon, dim)
        if point is not None:
            points.append(point)
    return points, skipped


def write_vectors(
    rows: Iterable[tuple[str, str, SparseVector]], path
) -> None:
    """Dump (id, label, vector) rows as id<TAB>label<TAB>idx:count,..."""
    write_tsv(path, None, (
        (rec_id, label, ",".join(f"{i}:{c}" for i, c in vec.entries)) for rec_id, label, vec in rows
    ))
