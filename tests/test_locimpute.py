from __future__ import annotations

import copy
import itertools
import random
from fractions import Fraction

import pytest

from regimpute import locimpute
from regimpute.gazetteer import PostcodeEntry, build
from regimpute.locimpute import (
    PostcodeEvidence,
    extract_query_nouns,
    impute_ad,
    impute_locations,
    impute_postcode,
    select_tied_postcode,
    tie_break_probabilities,
)
from regimpute.records import EnterpriseRecord
from regimpute.segmenter import Lexicon

WUHAN = PostcodeEntry("湖北省", "武汉市", "江岸区", "南京路", "430014")
WUCHANG = PostcodeEntry("湖北省", "武汉市", "武昌区", "中山路", "430060")
GUANGZHOU = PostcodeEntry("广东省", "广州市", "越秀区", "南京路", "510030")
DONGGUAN = PostcodeEntry("广东省", "东莞市", "莞城区", "中山路", "523000")


@pytest.fixture()
def demo_tree():
    return build([WUHAN, WUCHANG, GUANGZHOU, DONGGUAN])


def test_tie_break_probabilities_direct():
    probs = tie_break_probabilities([3, 1])
    assert probs == [Fraction(3, 4), Fraction(1, 4)]
    assert float(probs[0]) == 0.75
    assert sum(probs) == 1


def test_tie_break_probabilities_always_normalize():
    rng = random.Random(0)
    for _ in range(200):
        counts = [rng.randint(0, 9) for _ in range(rng.randint(1, 6))]
        if sum(counts) == 0:
            with pytest.raises(ValueError):
                tie_break_probabilities(counts)
            continue
        assert sum(tie_break_probabilities(counts)) == 1


def test_selection_invariant_under_permutation():
    base = {"430014": 3, "510030": 3, "430060": 1}
    for perm in itertools.permutations(base.items()):
        assert select_tied_postcode(dict(perm)) == "430014"  # max count, then min postcode


def test_single_candidate_probability_one():
    assert tie_break_probabilities([5]) == [Fraction(1)]


def test_extract_query_nouns_spans_three_fields(demo_lexicon):
    rec = EnterpriseRecord(
        id="1",
        name="武汉物业管理有限公司",
        address="南京路16号",
        data_source="2004年注册_湖北",
    )
    assert extract_query_nouns(rec, demo_lexicon) == ["湖北", "南京路", "武汉"]


def test_unique_match_source_vsm(demo_tree, demo_lexicon):
    rec = EnterpriseRecord(id="1", name="武汉物业管理有限公司", address="江岸区南京路16号")
    result = impute_postcode(rec, demo_tree, [], demo_lexicon)
    assert result.postcode == "430014"
    assert result.source == "vsm-match"
    assert not result.low_confidence


def test_street_only_tie_uses_corpus_evidence(demo_tree, demo_lexicon):
    # "南京路" exists in Wuhan and Guangzhou; corpus evidence favors Guangzhou.
    corpus = [
        EnterpriseRecord(id="c1", address="南京路1号", postcode="510030"),
        EnterpriseRecord(id="c2", address="南京路2号", postcode="510030"),
        EnterpriseRecord(id="c3", address="南京路3号", postcode="430014"),
    ]
    rec = EnterpriseRecord(id="q", address="南京路99号")
    result = impute_postcode(rec, demo_tree, corpus, demo_lexicon)
    assert result.source == "tiebreak"
    assert result.postcode == "510030"


def test_tie_with_counts_three_one(demo_tree, demo_lexicon):
    corpus = [
        EnterpriseRecord(id="c1", address="南京路1号", postcode="430014"),
        EnterpriseRecord(id="c2", address="南京路2号", postcode="430014"),
        EnterpriseRecord(id="c3", address="南京路3号", postcode="430014"),
        EnterpriseRecord(id="c4", address="南京路4号", postcode="510030"),
    ]
    evidence = PostcodeEvidence.from_records(corpus, demo_lexicon)
    assert evidence.count_with("430014", frozenset({"南京路"})) == 3
    assert evidence.count_with("510030", frozenset({"南京路"})) == 1
    rec = EnterpriseRecord(id="q", address="南京路9号")
    result = impute_postcode(rec, demo_tree, evidence, demo_lexicon)
    assert result.postcode == "430014"  # P = 3/4 wins


def test_lazy_evidence_matches_eager_counts(small_corpus, small_world):
    records, _ = small_corpus
    lexicon = small_world.lexicon
    eager: dict[str, list[frozenset[str]]] = {}
    for rec in records:
        if rec.postcode:
            eager.setdefault(rec.postcode, []).append(frozenset(extract_query_nouns(rec, lexicon)))
    queries = {frozenset(extract_query_nouns(rec, lexicon)) for rec in records}
    queries |= {frozenset({noun}) for q in queries for noun in q}
    evidence = PostcodeEvidence.from_records(records, lexicon)
    for postcode in sorted(eager) + ["000000"]:
        for query in queries:
            want = sum(1 for nouns in eager.get(postcode, ()) if query <= nouns)
            assert evidence.count_with(postcode, query) == want, (postcode, query)


def test_evidence_segments_only_postcodes_asked_about(demo_lexicon, monkeypatch):
    corpus = [
        EnterpriseRecord(id="c1", address="南京路1号", name="武汉", postcode="430014"),
        EnterpriseRecord(id="c2", address="南京路2号", postcode="430014"),
        EnterpriseRecord(id="c3", address="中山路3号", data_source="广东", postcode="510030"),
        EnterpriseRecord(id="c4", address="南京路4号"),
    ]
    segmented = []
    real = locimpute.segment
    monkeypatch.setattr(locimpute, "segment", lambda text, lex: segmented.append(text) or real(text, lex))
    evidence = PostcodeEvidence.from_records(corpus, demo_lexicon)
    assert segmented == []
    assert evidence.count_with("430014", frozenset({"南京路"})) == 2
    assert segmented == ["南京路1号", "武汉", "南京路2号"]
    assert evidence.count_with("430014", frozenset({"武汉"})) == 1
    assert evidence.count_with("999999", frozenset({"南京路"})) == 0
    assert len(segmented) == 3  # cached per postcode; 510030 never segmented


def test_tie_without_evidence_low_confidence(demo_tree, demo_lexicon):
    rec = EnterpriseRecord(id="q", address="南京路9号")
    result = impute_postcode(rec, demo_tree, [], demo_lexicon)
    assert result.postcode == "430014"  # smallest tied postcode
    assert result.source == "tiebreak"
    assert result.low_confidence


def test_no_nouns_no_match(demo_tree, demo_lexicon):
    rec = EnterpriseRecord(id="q", address="12345")
    assert impute_postcode(rec, demo_tree, [], demo_lexicon) is None


def test_present_postcode_is_a_precondition(demo_tree, demo_lexicon):
    rec = EnterpriseRecord(id="q", postcode="430014")
    with pytest.raises(ValueError):
        impute_postcode(rec, demo_tree, [], demo_lexicon)


def test_impute_ad_table_fixture(demo_tree):
    rec = EnterpriseRecord(id="1", address="南京路16号", postcode="430014")
    loc = impute_ad(rec, demo_tree)
    assert (loc.province, loc.city, loc.county) == ("湖北省", "武汉市", "江岸区")
    assert loc.full_address == "湖北省武汉市江岸区 南京路16号"
    assert loc.source == "postcode-lookup"


def test_impute_ad_existing_full_address_is_original(demo_tree):
    rec = EnterpriseRecord(id="1", address="湖北省武汉市江岸区南京路16号", postcode="430014")
    loc = impute_ad(rec, demo_tree)
    assert loc.source == "original"
    assert loc.full_address == rec.address


def test_impute_ad_missing_address_uses_street_name(demo_tree):
    rec = EnterpriseRecord(id="1", postcode="430014")
    loc = impute_ad(rec, demo_tree)
    assert loc.full_address == "湖北省武汉市江岸区 南京路"


def test_impute_ad_unknown_postcode(demo_tree):
    rec = EnterpriseRecord(id="1", address="x", postcode="999999")
    assert impute_ad(rec, demo_tree) is None


def test_impute_ad_requires_postcode(demo_tree):
    with pytest.raises(ValueError):
        impute_ad(EnterpriseRecord(id="1"), demo_tree)


def test_impute_ad_multi_path_prefers_own_nouns(demo_lexicon):
    # one postcode mapping to two AD paths
    a = PostcodeEntry("湖北省", "武汉市", "江岸区", "南京路", "430014")
    b = PostcodeEntry("广东省", "广州市", "越秀区", "南京路", "430014")
    tree = build([a, b])
    rec = EnterpriseRecord(id="1", address="南京路1号", data_source="注册_武汉市", postcode="430014")
    loc = impute_ad(rec, tree, demo_lexicon)
    assert loc.province == "湖北省"  # own nouns beat the path-order default
    # without nouns to lean on, the lexicographically first path wins
    bare = EnterpriseRecord(id="2", address="南京路1号", postcode="430014")
    assert impute_ad(bare, tree, demo_lexicon).province == "广东省"


def test_impute_locations_complete_corpus_is_noop(small_world, small_tree):
    from regimpute.synth import SynthConfig, synth

    records, _ = synth(
        SynthConfig(
            n=300, seed=23, missing_category=0.0, missing_postcode=0.0,
            missing_data_source=0.0, missing_address=0.0, ambiguity=0.0,
        )
    )
    snapshot = copy.deepcopy(records)
    report = impute_locations(records, small_tree, small_world.lexicon)
    assert report.postcode_filled == 0
    assert report.ad_assigned == 0
    assert records == snapshot


def test_impute_locations_fills_and_is_idempotent(small_world, small_tree, small_corpus):
    records, truth = small_corpus
    first = impute_locations(records, small_tree, small_world.lexicon)
    assert first.postcode_filled > 0
    assert first.ad_assigned > 0
    snapshot = copy.deepcopy(records)
    second = impute_locations(records, small_tree, small_world.lexicon)
    assert records == snapshot
    assert second.postcode_filled == 0
    assert second.ad_assigned == 0

    # provenance and accuracy against ground truth
    masked = truth.ids_for("postcode")
    filled = [r for r in records if r.id in set(masked)]
    assert all(r.provenance_of("postcode") == "imputed" for r in filled if r.postcode)
    correct = sum(1 for r in filled if r.postcode == truth.get(r.id, "postcode"))
    assert correct / len(masked) >= 0.90


def test_impute_locations_deterministic(small_world, small_tree, small_config):
    from regimpute.synth import synth

    r1, _ = synth(small_config)
    r2, _ = synth(small_config)
    impute_locations(r1, small_tree, small_world.lexicon)
    impute_locations(r2, small_tree, small_world.lexicon, workers=3)
    assert r1 == r2


def test_impute_locations_failed_records_counted(small_world):
    # a tree that knows nothing about the corpus: every lookup fails
    foreign = build([PostcodeEntry("zz1", "zz2", "zz3", "zz4", "000001")])
    records = [
        EnterpriseRecord(id="1", name="x"),  # no nouns at all
        EnterpriseRecord(id="2", postcode="999999", address="y"),  # unknown postcode
    ]
    report = impute_locations(records, foreign, small_world.lexicon)
    assert report.postcode_failed == 1
    assert report.ad_failed == 1
    assert report.postcode_filled == 0


def test_more_nouns_never_lower_top_degree(small_world, small_tree):
    from regimpute.gazetteer import match

    entry = small_world.gazetteer[42]
    parts = [entry.street, entry.county, entry.city, entry.province]
    best = Fraction(0)
    for i in range(1, len(parts) + 1):
        results = match(parts[:i], small_tree)
        top = results[0].degree_exact
        assert top >= best
        best = top
    assert best == 1
