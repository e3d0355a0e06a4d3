from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from regimpute.segmenter import POS_TAGS, Lexicon, address_nouns, feature_words, fmm, segment


@pytest.fixture()
def toy_lexicon():
    return Lexicon({"ab": "n", "abc": "ns", "c": "v"})


def test_company_name_tagging(demo_lexicon):
    tokens = segment("武汉***物业管理有限公司", demo_lexicon)
    tagged = [(t.surface, t.pos) for t in tokens if t.pos != "x"]
    assert tagged == [("武汉", "ns"), ("物业", "n"), ("管理", "vn")]
    assert feature_words("武汉***物业管理有限公司", demo_lexicon) == ["物业", "管理"]
    assert address_nouns("武汉***物业管理有限公司", demo_lexicon) == ["武汉"]


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
    assert address_nouns(text, demo_lexicon) == ["湖北省", "武汉市", "江岸区", "南京路"]


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


# regex metacharacters, Latin letters and CJK; z, 1 and 号 are in no word
ALPHABET = "ab.*|()[]\\^$+?武汉市"


@st.composite
def lexicons(draw):
    words = set(draw(st.lists(st.text(alphabet=ALPHABET, min_size=1, max_size=4), min_size=1, max_size=10)))
    for word in list(words):
        if draw(st.booleans()):  # every prefix of this word is a word too
            words.update(word[:i] for i in range(1, len(word)))
    words.update(draw(st.lists(st.sampled_from(ALPHABET), max_size=3)))  # single characters
    return {word: draw(st.sampled_from(POS_TAGS)) for word in sorted(words)}


@settings(max_examples=300)
@given(lexicons(), st.text(alphabet=ALPHABET + "z1号", max_size=40))
def test_kernel_and_its_callers_match_reference_fmm(entries, text):
    lexicon = Lexicon(entries)
    want = reference_fmm(text, entries)
    assert fmm(text, lexicon) == [surface for surface, _, _ in want]
    tokens = segment(text, lexicon)
    assert [(t.surface, t.pos, t.span) for t in tokens] == want
    assert "".join(t.surface for t in tokens) == text
    assert [t.span[0] for t in tokens] == [0, *(t.span[1] for t in tokens)][: len(tokens)]
    assert feature_words(text, lexicon) == [s for s, tag, _ in want if tag in ("n", "v", "vn")]
    assert address_nouns(text, lexicon) == list(dict.fromkeys(s for s, tag, _ in want if tag == "ns"))


def test_determinism(demo_lexicon):
    text = "武汉物业管理有限公司"
    assert segment(text, demo_lexicon) == segment(text, demo_lexicon)


def test_feature_words_keeps_duplicates():
    lexicon = Lexicon({"aa": "n", "bb": "v"})
    assert feature_words("aabbaa", lexicon) == ["aa", "bb", "aa"]


def test_feature_words_empty_when_all_x():
    lexicon = Lexicon({"aa": "ns"})
    assert feature_words("zzz", lexicon) == []


def test_address_nouns_deduplicated():
    lexicon = Lexicon({"wu": "ns", "xx": "n"})
    assert address_nouns("wuxxwu", lexicon) == ["wu"]


def test_extractors_are_subsets_of_surfaces(demo_lexicon):
    text = "湖北省武汉市物业管理"
    tokens = segment(text, demo_lexicon)
    surfaces = {t.surface for t in tokens}
    assert set(feature_words(text, demo_lexicon)) <= surfaces
    assert set(address_nouns(text, demo_lexicon)) <= surfaces


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
