from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from regimpute.segmenter import Lexicon, address_nouns, feature_words, segment


@pytest.fixture()
def toy_lexicon():
    return Lexicon({"ab": "n", "abc": "ns", "c": "v"})


def test_company_name_tagging(demo_lexicon):
    tokens = segment("武汉***物业管理有限公司", demo_lexicon)
    tagged = [(t.surface, t.pos) for t in tokens if t.pos != "x"]
    assert tagged == [("武汉", "ns"), ("物业", "n"), ("管理", "vn")]
    assert feature_words(tokens) == ["物业", "管理"]
    assert address_nouns(tokens) == ["武汉"]


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
    assert address_nouns(tokens) == ["湖北省", "武汉市", "江岸区", "南京路"]


@given(st.text(alphabet="abcxyz武汉市物业1", max_size=40))
def test_tiling_holds_for_arbitrary_text(text):
    lexicon = Lexicon({"ab": "n", "abc": "ns", "c": "v", "武汉": "ns", "武汉市": "ns", "物业": "n"})
    tokens = segment(text, lexicon)
    assert "".join(t.surface for t in tokens) == text
    spans = [t.span for t in tokens]
    assert all(s1[1] == s2[0] for s1, s2 in zip(spans, spans[1:]))


def test_determinism(demo_lexicon):
    text = "武汉物业管理有限公司"
    assert segment(text, demo_lexicon) == segment(text, demo_lexicon)


def test_feature_words_keeps_duplicates():
    lexicon = Lexicon({"aa": "n", "bb": "v"})
    tokens = segment("aabbaa", lexicon)
    assert feature_words(tokens) == ["aa", "bb", "aa"]


def test_feature_words_empty_when_all_x():
    lexicon = Lexicon({"aa": "ns"})
    tokens = segment("zzz", lexicon)
    assert feature_words(tokens) == []


def test_address_nouns_deduplicated():
    lexicon = Lexicon({"wu": "ns", "xx": "n"})
    tokens = segment("wuxxwu", lexicon)
    assert address_nouns(tokens) == ["wu"]


def test_extractors_are_subsets_of_surfaces(demo_lexicon):
    text = "湖北省武汉市物业管理"
    tokens = segment(text, demo_lexicon)
    surfaces = {t.surface for t in tokens}
    assert set(feature_words(tokens)) <= surfaces
    assert set(address_nouns(tokens)) <= surfaces


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
