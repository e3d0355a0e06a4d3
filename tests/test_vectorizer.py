from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from matrices import pairs
from regimpute import vectorizer
from regimpute.records import EnterpriseRecord
from regimpute.vectorizer import (
    build_labeled,
    fnv1a_32,
    fnv1a_64,
    hash_index,
    hash_rows,
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
    X = hash_rows([[]], dim=10)
    assert pairs(X, 0) == ()
    assert X.shape == (1, 10)


def test_repeated_word_accumulates():
    word = "estate"
    expected_index = reference_fnv1a_32(word.encode("utf-8")) % 50
    X = hash_rows([[word, word]], dim=50)
    assert pairs(X, 0) == ((expected_index, 2),)


def test_multibyte_words_hash_on_utf8_bytes():
    word = "物业"
    assert hash_index(word, 15000) == reference_fnv1a_32(word.encode("utf-8")) % 15000


def test_word_hash_is_computed_once_per_word(monkeypatch):
    calls = []
    real = vectorizer.fnv1a_32
    monkeypatch.setattr(vectorizer, "fnv1a_32", lambda data: calls.append(data) or real(data))
    words = ["哈希缓存甲", "哈希缓存乙", "哈希缓存甲", "哈希缓存甲"]
    X = hash_rows([words], 97)
    assert hash_index("哈希缓存乙", 13) == real("哈希缓存乙".encode("utf-8")) % 13
    assert sorted(calls) == sorted(w.encode("utf-8") for w in set(words))
    assert X.sum() == 4


def test_indices_bounded_by_dim():
    words = [f"w{i}" for i in range(500)]
    X = hash_rows([words], dim=15000)
    assert all(0 <= i < 15000 for i, _ in pairs(X, 0))


@given(st.lists(st.sampled_from(["a", "bb", "ccc", "物业", "管理"]), max_size=30))
def test_count_sum_and_order_independence(words):
    X = hash_rows([words, list(reversed(words))], dim=64)
    row = pairs(X, 0)
    assert sum(c for _, c in row) == len(words)
    assert pairs(X, 1) == row
    assert all(i1 < i2 for (i1, _), (i2, _) in zip(row, row[1:]))


_WORDS = st.one_of(
    st.sampled_from(["物业", "管理", "a", "é", "𝄞音", ""]),
    st.text(st.characters(codec="utf-8"), max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(word_lists=st.lists(st.lists(_WORDS, max_size=12), max_size=8), dim=st.integers(1, 50))
def test_hash_rows_equal_counts_of_reference_hashes(word_lists, dim):
    # the one hashing path: row r counts the byte-loop reference hash of
    # each word of list r, on strictly increasing columns with positive counts
    X = hash_rows(word_lists, dim)
    assert X.shape == (len(word_lists), dim)
    for r, words in enumerate(word_lists):
        row = pairs(X, r)
        assert dict(row) == Counter(reference_fnv1a_32(w.encode("utf-8")) % dim for w in words)
        assert all(i1 < i2 for (i1, _), (i2, _) in zip(row, row[1:]))
        assert all(c > 0 for _, c in row)


def test_to_labeled_composes_segment_and_hash(demo_lexicon):
    rec = EnterpriseRecord(id="1", name="武汉物业管理有限公司", category="RE")
    X, labels, _ = build_labeled([rec], demo_lexicon, dim=128)
    assert labels == ["RE"]
    assert pairs(X, 0) == pairs(hash_rows([["物业", "管理"]], dim=128), 0)
    assert X.sum() == 2


def test_to_labeled_unlabeled_record_returns_none(demo_lexicon):
    rec = EnterpriseRecord(id="1", name="武汉物业管理有限公司")
    X, labels, skipped = build_labeled([rec], demo_lexicon, dim=128)
    assert (X.shape[0], labels, skipped) == (0, [], 0)


def test_unknown_only_name_gives_zero_vector(demo_lexicon):
    rec = EnterpriseRecord(id="1", name="???", category="RE")
    X, _, _ = build_labeled([rec], demo_lexicon, dim=128)
    assert pairs(X, 0) == ()


def test_build_labeled_counts_nameless(demo_lexicon):
    records = [
        EnterpriseRecord(id="1", name="武汉物业管理", category="RE"),
        EnterpriseRecord(id="2", category="RE"),
        EnterpriseRecord(id="3", name="武汉金融", category=None),
    ]
    X, labels, skipped = build_labeled(records, demo_lexicon, dim=64)
    assert len(labels) == X.shape[0] == 1
    assert skipped == 1


def test_compositional_equivalence(small_world, small_corpus):
    records, _ = small_corpus
    named = [r for r in records if r.name and r.category][:100]
    X, labels, _ = build_labeled(named, small_world.lexicon, dim=512)
    assert X.shape[0] == len(labels) == len(named)
    for row, rec in enumerate(named):
        assert pairs(X, row) == pairs(vectorize_name(rec.name, small_world.lexicon, 512), 0)


def test_write_vectors_format(tmp_path):
    X = hash_rows([["a", "b", "a"]], dim=32)
    path = tmp_path / "v.tsv"
    write_vectors(["E1"], ["RE"], X, path)
    line = path.read_text(encoding="utf-8").strip()
    rec_id, label, body = line.split("\t")
    assert (rec_id, label) == ("E1", "RE")
    parsed = tuple(tuple(int(x) for x in pair.split(":")) for pair in body.split(","))
    assert parsed == pairs(X, 0)
