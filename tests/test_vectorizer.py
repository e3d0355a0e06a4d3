from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from regimpute import vectorizer
from regimpute.records import EnterpriseRecord
from regimpute.segmenter import Lexicon
from regimpute.vectorizer import (
    SparseVector,
    build_labeled,
    fnv1a_32,
    fnv1a_64,
    hash_index,
    hash_vector,
    to_labeled,
    vectorize_name,
    write_vectors,
)


def reference_fnv1a_32(data: bytes) -> int:
    # Independent byte-by-byte restatement of the hash, kept separate from
    # the implementation on purpose.
    h = 2166136261
    for b in data:
        h = ((h ^ b) * 16777619) % 2**32
    return h


# Published FNV-1a test vectors.
KNOWN_32 = [(b"", 0x811C9DC5), (b"a", 0xE40C292C), (b"foobar", 0xBF9CF968)]
KNOWN_64 = [
    (b"", 0xCBF29CE484222325),
    (b"a", 0xAF63DC4C8601EC8C),
    (b"foobar", 0x85944171F73967E8),
]


@pytest.mark.parametrize("data,expected", KNOWN_32)
def test_fnv1a_32_known_vectors(data, expected):
    assert fnv1a_32(data) == expected
    assert reference_fnv1a_32(data) == expected


@pytest.mark.parametrize("data,expected", KNOWN_64)
def test_fnv1a_64_known_vectors(data, expected):
    assert fnv1a_64(data) == expected


@given(st.binary(max_size=64))
def test_fnv1a_32_matches_reference(data):
    assert fnv1a_32(data) == reference_fnv1a_32(data)


def test_hash_vector_empty():
    vec = hash_vector([], dim=10)
    assert vec.entries == ()
    assert vec.dim == 10


def test_repeated_word_accumulates():
    word = "estate"
    expected_index = reference_fnv1a_32(word.encode("utf-8")) % 50
    vec = hash_vector([word, word], dim=50)
    assert vec.entries == ((expected_index, 2),)


def test_multibyte_words_hash_on_utf8_bytes():
    word = "物业"
    assert hash_index(word, 15000) == reference_fnv1a_32(word.encode("utf-8")) % 15000


def test_word_hash_is_computed_once_per_word(monkeypatch):
    calls = []
    real = vectorizer.fnv1a_32
    monkeypatch.setattr(vectorizer, "fnv1a_32", lambda data: calls.append(data) or real(data))
    words = ["哈希缓存甲", "哈希缓存乙", "哈希缓存甲", "哈希缓存甲"]
    vec = hash_vector(words, 97)
    assert hash_index("哈希缓存乙", 13) == real("哈希缓存乙".encode("utf-8")) % 13
    assert sorted(calls) == sorted(w.encode("utf-8") for w in set(words))
    assert vec.total == 4


def test_indices_bounded_by_dim():
    words = [f"w{i}" for i in range(500)]
    vec = hash_vector(words, dim=15000)
    assert all(0 <= i < 15000 for i, _ in vec.entries)


@given(st.lists(st.sampled_from(["a", "bb", "ccc", "物业", "管理"]), max_size=30))
def test_count_sum_and_order_independence(words):
    vec = hash_vector(words, dim=64)
    assert vec.total == len(words)
    assert hash_vector(list(reversed(words)), dim=64) == vec
    assert all(i1 < i2 for (i1, _), (i2, _) in zip(vec.entries, vec.entries[1:]))


def test_sparse_vector_invariants_enforced():
    with pytest.raises(ValueError):
        SparseVector(10, ((3, 1), (3, 1)))  # not strictly increasing
    with pytest.raises(ValueError):
        SparseVector(10, ((11, 1),))  # out of range
    with pytest.raises(ValueError):
        SparseVector(10, ((1, 0),))  # zero count
    with pytest.raises(ValueError):
        SparseVector(0, ())


def test_to_labeled_composes_segment_and_hash(demo_lexicon):
    rec = EnterpriseRecord(id="1", name="武汉物业管理有限公司", category="RE")
    point = to_labeled(rec, demo_lexicon, dim=128)
    assert point is not None
    assert point.label == "RE"
    assert point.vector == hash_vector(["物业", "管理"], dim=128)
    assert point.vector.total == 2


def test_to_labeled_unlabeled_record_returns_none(demo_lexicon):
    rec = EnterpriseRecord(id="1", name="武汉物业管理有限公司")
    assert to_labeled(rec, demo_lexicon, dim=128) is None


def test_to_labeled_requires_name(demo_lexicon):
    with pytest.raises(ValueError, match="no name"):
        to_labeled(EnterpriseRecord(id="1", category="RE"), demo_lexicon)


def test_unknown_only_name_gives_zero_vector(demo_lexicon):
    rec = EnterpriseRecord(id="1", name="???", category="RE")
    point = to_labeled(rec, demo_lexicon, dim=128)
    assert point.vector.entries == ()


def test_build_labeled_counts_nameless(demo_lexicon):
    records = [
        EnterpriseRecord(id="1", name="武汉物业管理", category="RE"),
        EnterpriseRecord(id="2", category="RE"),
        EnterpriseRecord(id="3", name="武汉金融", category=None),
    ]
    points, skipped = build_labeled(records, demo_lexicon, dim=64)
    assert len(points) == 1
    assert skipped == 1


def test_compositional_equivalence(small_world, small_corpus):
    records, _ = small_corpus
    named = [r for r in records if r.name and r.category][:100]
    points, _ = build_labeled(named, small_world.lexicon, dim=512)
    assert len(points) == len(named)
    for rec, point in zip(named, points):
        assert point.vector == vectorize_name(rec.name, small_world.lexicon, 512)


def test_write_vectors_format(tmp_path):
    vec = hash_vector(["a", "b", "a"], dim=32)
    path = tmp_path / "v.tsv"
    write_vectors([("E1", "RE", vec)], path)
    line = path.read_text(encoding="utf-8").strip()
    rec_id, label, body = line.split("\t")
    assert (rec_id, label) == ("E1", "RE")
    parsed = tuple(tuple(int(x) for x in pair.split(":")) for pair in body.split(","))
    assert parsed == vec.entries
