from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from regimpute import segmenter
from regimpute.segmenter import (
    ADDRESS_TAGS,
    FEATURE_TAGS,
    POS_TAGS,
    Lexicon,
    segment,
    segment_texts,
    tokenize,
    word_lists,
)


@pytest.fixture()
def toy_lexicon():
    return Lexicon({"ab": "n", "abc": "ns", "c": "v"})


def test_company_name_tagging(demo_lexicon):
    tokens = segment("武汉***物业管理有限公司", demo_lexicon)
    tagged = [(t.surface, t.pos) for t in tokens if t.pos != "x"]
    assert tagged == [("武汉", "ns"), ("物业", "n"), ("管理", "vn")]
    assert word_lists(["武汉***物业管理有限公司"], demo_lexicon, FEATURE_TAGS) == [["物业", "管理"]]
    assert word_lists(["武汉***物业管理有限公司"], demo_lexicon, ADDRESS_TAGS) == [["武汉"]]


def test_empty_input(demo_lexicon):
    assert segment("", demo_lexicon) == []


def test_longest_match_wins(toy_lexicon):
    tokens = segment("abc", toy_lexicon)
    assert [(t.surface, t.pos) for t in tokens] == [("abc", "ns")]


def test_unknown_chars_become_x(toy_lexicon):
    tokens = segment("zab!", toy_lexicon)
    assert [(t.surface, t.pos) for t in tokens] == [("z", "x"), ("ab", "n"), ("!", "x")]


def test_spans_tile_input(demo_lexicon):
    text = "湖北省武汉市江岸区南京路16号"
    tokens = segment(text, demo_lexicon)
    assert "".join(t.surface for t in tokens) == text
    pos = 0
    for t in tokens:
        assert t.span == (pos, pos + len(t.surface))
        pos = t.span[1]
    assert pos == len(text)
    assert word_lists([text], demo_lexicon, ADDRESS_TAGS) == [["湖北省", "武汉市", "江岸区", "南京路"]]


@given(st.text(alphabet="abcxyz武汉市物业1", max_size=40))
def test_tiling_holds_for_arbitrary_text(text):
    lexicon = Lexicon({"ab": "n", "abc": "ns", "c": "v", "武汉": "ns", "武汉市": "ns", "物业": "n"})
    tokens = segment(text, lexicon)
    assert "".join(t.surface for t in tokens) == text
    spans = [t.span for t in tokens]
    assert all(s1[1] == s2[0] for s1, s2 in zip(spans, spans[1:]))


def reference_fmm(text, entries):
    """(surface, tag, span) triples by forward maximum matching, written
    independently of the kernel: at each position the longest word that
    the text continues with, else the single character tagged x."""
    triples = []
    pos = 0
    while pos < len(text):
        word = max((w for w in entries if text.startswith(w, pos)), key=len, default=text[pos])
        triples.append((word, entries.get(word, "x"), (pos, pos + len(word))))
        pos += len(word)
    return triples


# regex metacharacters, Latin letters, CJK, NUL and a code point past the
# BMP; z, 1, 号 and the emoji are in no word
ALPHABET = "ab.*|()[]\\^$+?武汉市\x00𝄞"
TEXT_ALPHABET = ALPHABET + "z1号😀"


@st.composite
def lexicons(draw, alphabet=ALPHABET, max_words=10):
    words = set(draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=4), min_size=1, max_size=max_words)))
    for word in list(words):
        if draw(st.booleans()):  # every prefix of this word is a word too
            words.update(word[:i] for i in range(1, len(word)))
    words.update(draw(st.lists(st.sampled_from(alphabet), max_size=3)))  # single characters
    return {word: draw(st.sampled_from(POS_TAGS)) for word in sorted(words)}


@settings(max_examples=300)
@given(lexicons(), st.text(alphabet=TEXT_ALPHABET, max_size=40))
def test_kernel_and_its_callers_match_reference_fmm(entries, text):
    lexicon = Lexicon(entries)
    want = reference_fmm(text, entries)
    tokens = segment(text, lexicon)
    assert [(t.surface, t.pos, t.span) for t in tokens] == want
    assert "".join(t.surface for t in tokens) == text
    assert [t.span[0] for t in tokens] == [0, *(t.span[1] for t in tokens)][: len(tokens)]
    assert word_lists([text], lexicon, FEATURE_TAGS) == [[s for s, tag, _ in want if tag in ("n", "v", "vn")]]
    assert word_lists([text], lexicon, ADDRESS_TAGS) == [[s for s, tag, _ in want if tag == "ns"]]


# Latin letters, CJK ideographs spread over their block and code points
# past the BMP, so nodes have children on codes far apart
WIDE_ALPHABET = "ab" + "".join(chr(0x4E00 + 97 * i) for i in range(12)) + "".join(chr(0x20000 + 5 * i) for i in range(6))


@settings(max_examples=300, deadline=None)
@given(lexicons(WIDE_ALPHABET, max_words=30))
@example({"a": "n"})
# 兩 has three children; where its first two fit, the third's slot is taken
@example({"a": "v", "兩兩": "ns", "兩\U00020000": "n", "兩\U0002000f": "n", "\U00020014": "n"})
def test_double_array_holds_exactly_the_trie_edges(entries):
    lexicon = Lexicon(entries)
    tables = lexicon.tables()
    alphabet = sorted({ch for word in entries for ch in word})
    assert [int(tables.code[ord(ch)]) for ch in alphabet] == list(range(1, len(alphabet) + 1))
    prefixes = {word[:i] for word in entries for i in range(len(word) + 1)}
    # every trie node's state, reached by its edges from the root, state 0
    state = {"": 0}
    for prefix in sorted(prefixes, key=len)[1:]:
        parent = state[prefix[:-1]]
        child = int(tables.base[parent] + tables.code[ord(prefix[-1])])
        assert tables.check[child] == parent
        state[prefix] = child
    assert len(set(state.values())) == len(state)
    assert int((tables.check >= 0).sum()) == len(state) - 1  # no other slot names a parent
    for prefix, s in state.items():
        assert tables.base[s] >= 1 and tables.base[s] + len(alphabet) < tables.base.size
        assert tables.node_word[s] == (lexicon.words.index(prefix) if prefix in entries else -1)
        # code 0, codes between and past its children, and a childless node miss
        hits = [c for c in range(len(alphabet) + 1) if tables.check[tables.base[s] + c] == s]
        assert hits == [c for c, ch in enumerate(alphabet, 1) if prefix + ch in prefixes]
    assert tables.root_child.tolist() == [0] + [state.get(ch, 0) for ch in alphabet]


def tokens_by_text(texts, lexicon, tags=None):
    """tokenize's output as each text's (surface, is a word, start) triples."""
    out = [[] for _ in texts]
    for t, w, s in zip(*(a.tolist() for a in tokenize(texts, lexicon, tags))):
        out[t].append((lexicon.words[w] if w >= 0 else texts[t][s], w >= 0, s))
    return out


@settings(max_examples=300, deadline=None)
@given(
    lexicons(),
    st.lists(st.one_of(st.just(""), st.text(alphabet=TEXT_ALPHABET, max_size=30)), max_size=8),
    st.one_of(st.none(), st.sets(st.sampled_from(POS_TAGS))),
)
# a word with NUL in it, and texts that would spell it across their boundary
@example({"a\x00b": "n", "a": "ns"}, ["a", "b", "a\x00b", ""], None)
def test_batch_tokenize_equals_reference_fmm_text_by_text(entries, texts, tags):
    lexicon = Lexicon(entries)
    want = [
        [(surface, surface in entries, span[0]) for surface, tag, span in reference_fmm(text, entries)
         if tags is None or tag in tags]
        for text in texts
    ]
    assert tokens_by_text(texts, lexicon, tags) == want
    if tags is not None:
        assert word_lists(texts, lexicon, tags) == [[s for s, is_word, _ in ts if is_word] for ts in want]


def test_tokenize_packed_keys_past_63_bits():
    # 4,096 word characters (past the BMP) take 13 bits each, so a packed
    # 6-character key would need 78 bits
    chars = [chr(0x20000 + i) for i in range(4096)]
    rng = random.Random(5)
    words = {"".join(chars[i:i + 6]) for i in range(0, 4096, 6)}
    words |= {w[:k] for w in rng.sample(sorted(words), 40) for k in (1, 3, 5)}
    words.add("".join(chars[:7]))
    entries = {w: rng.choice(POS_TAGS) for w in words}
    lexicon = Lexicon(entries)
    pieces = sorted(words) + chars[:50] + ["\x00", "z"]
    texts = ["".join(rng.choice(pieces) for _ in range(rng.randrange(12))) for _ in range(30)]
    want = [[(s, s in entries, span[0]) for s, _, span in reference_fmm(text, entries)] for text in texts]
    assert tokens_by_text(texts, lexicon) == want
    assert any(len(s) >= 6 for ts in want for s, _, _ in ts)


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunk_size_leaves_tokens_unchanged(demo_lexicon, monkeypatch, chunk):
    texts = ["", "湖北省武汉市江岸区南京路16号", "武汉物业管理有限公司", "", "x", "武汉", "南京路物业管理武汉市"] * 3
    want = [[a.tolist() for a in tokenize(texts, demo_lexicon, tags)] for tags in (None, {"ns"})]
    monkeypatch.setattr(segmenter, "CHUNK", chunk)
    assert [[a.tolist() for a in tokenize(texts, demo_lexicon, tags)] for tags in (None, {"ns"})] == want


def test_segment_texts_is_segment_per_text(demo_lexicon):
    texts = ["武汉***物业管理有限公司", "", "湖北省武汉市江岸区南京路16号"]
    assert segment_texts(texts, demo_lexicon) == [segment(text, demo_lexicon) for text in texts]


def test_determinism(demo_lexicon):
    text = "武汉物业管理有限公司"
    assert segment(text, demo_lexicon) == segment(text, demo_lexicon)


def test_feature_words_keeps_duplicates():
    lexicon = Lexicon({"aa": "n", "bb": "v"})
    assert word_lists(["aabbaa"], lexicon, FEATURE_TAGS) == [["aa", "bb", "aa"]]


def test_feature_words_empty_when_all_x():
    lexicon = Lexicon({"aa": "ns"})
    assert word_lists(["zzz"], lexicon, FEATURE_TAGS) == [[]]


def test_address_nouns_deduplicated():
    lexicon = Lexicon({"wu": "ns", "xx": "n"})
    nouns = word_lists(["wuxxwu"], lexicon, ADDRESS_TAGS)[0]
    assert nouns == ["wu", "wu"]
    assert list(dict.fromkeys(nouns)) == ["wu"]


def test_extractors_are_subsets_of_surfaces(demo_lexicon):
    text = "湖北省武汉市物业管理"
    tokens = segment(text, demo_lexicon)
    surfaces = {t.surface for t in tokens}
    for tags in (FEATURE_TAGS, ADDRESS_TAGS):
        assert set(word_lists([text], demo_lexicon, tags)[0]) <= surfaces


def test_lexicon_rejects_empty_word():
    with pytest.raises(ValueError, match="empty word"):
        Lexicon({"": "n"})


def test_lexicon_rejects_unknown_tag():
    with pytest.raises(ValueError, match="POS tag"):
        Lexicon({"aa": "adj"})


def test_lexicon_tsv_roundtrip(tmp_path):
    lexicon = Lexicon({"武汉": "ns", "物业": "n", "管理": "vn"})
    path = tmp_path / "lex.tsv"
    lexicon.to_tsv(path)
    back = Lexicon.from_tsv(path)
    assert back.entries == lexicon.entries
    assert back.max_len == lexicon.max_len


def test_lexicon_tsv_conflicting_tags(tmp_path):
    path = tmp_path / "lex.tsv"
    path.write_text("aa\tn\naa\tv\n", encoding="utf-8")
    with pytest.raises(ValueError, match="conflicting"):
        Lexicon.from_tsv(path)
