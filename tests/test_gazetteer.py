from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from regimpute.gazetteer import (
    LEVEL_WEIGHTS,
    AddressTree,
    MatchResult,
    PostcodeEntry,
    best_postcodes,
    build,
    match,
    read_gazetteer,
    validate,
    write_gazetteer,
)
from regimpute.records import EnterpriseRecord
from regimpute.segmenter import Lexicon

WUHAN = PostcodeEntry("湖北省", "武汉市", "江岸区", "南京路", "430014")
WUCHANG = PostcodeEntry("湖北省", "武汉市", "武昌区", "中山路", "430060")
GUANGZHOU = PostcodeEntry("广东省", "广州市", "越秀区", "南京路", "510030")


@pytest.fixture()
def demo_tree(demo_gazetteer_path):
    entries, diagnostics = read_gazetteer(demo_gazetteer_path)
    assert not diagnostics
    return build(entries)


def test_build_single_leaf():
    tree = build([WUHAN])
    assert len(tree) == 1
    assert tree.postcodes() == {"430014"}


def test_build_shares_internal_nodes():
    tree = build([WUHAN, WUCHANG])
    assert len(tree) == 2


def test_build_collapses_duplicates():
    tree = build([WUHAN, WUHAN, WUHAN])
    assert len(tree) == 1


def test_build_idempotent_under_shuffle():
    entries = [WUHAN, WUCHANG, GUANGZHOU]
    shuffled = entries[:]
    random.Random(4).shuffle(shuffled)
    assert build(entries).entries == build(shuffled).entries


def test_build_rejects_invalid_entries():
    with pytest.raises(ValueError, match="postcode"):
        build([PostcodeEntry("a", "b", "c", "d", "12345")])
    with pytest.raises(ValueError, match="province"):
        build([PostcodeEntry("", "b", "c", "d", "123456")])


def test_empty_tree_matches_nothing():
    tree = build([])
    assert match(["武汉市"], tree) == []


def test_full_noun_set_scores_one(demo_tree):
    results = match(["湖北省", "武汉市", "江岸区", "南京路"], demo_tree)
    assert results[0].entry == WUHAN
    assert results[0].degree == 1.0
    assert set(results[0].matched_levels) == {"province", "city", "county", "street"}


def test_city_only_noun_scores_4_of_15(demo_tree):
    results = match(["武汉市"], demo_tree)
    tops = [r for r in results if r.entry.city == "武汉市"]
    assert len(tops) == 2
    for r in tops:
        assert r.degree_exact == Fraction(4, 15)
        assert r.matched_levels == ("city",)


def test_shared_street_name_ties_across_cities(demo_tree):
    results = match(["南京路"], demo_tree)
    street_hits = [r for r in results if "street" in r.matched_levels]
    assert {r.entry.postcode for r in street_hits} == {"430014", "510030"}
    degrees = {r.degree_exact for r in street_hits}
    assert degrees == {Fraction(1, 15)}
    # tie broken by postcode ascending in the sort order
    assert [r.entry.postcode for r in results[:2]] == ["430014", "510030"]


def test_containment_matching_both_directions(demo_tree):
    # noun "武汉" is contained in level name "武汉市"
    results = match(["武汉"], demo_tree)
    assert any(r.entry.city == "武汉市" and "city" in r.matched_levels for r in results)
    # noun longer than the name also matches
    results = match(["武汉市江岸"], demo_tree)
    assert any(r.entry.city == "武汉市" for r in results)


def test_empty_noun_list(demo_tree):
    assert match([], demo_tree) == []


def test_adding_a_correct_noun_never_lowers_top_degree(demo_tree):
    nouns = ["南京路"]
    best = match(nouns, demo_tree)[0].degree_exact
    for extra in ("江岸区", "武汉市", "湖北省"):
        nouns = nouns + [extra]
        new_best = match(nouns, demo_tree)[0].degree_exact
        assert new_best >= best
        best = new_best


def test_degree_bounds(small_world, small_tree):
    rng = random.Random(8)
    names = [e.street for e in small_world.gazetteer] + [e.city for e in small_world.gazetteer]
    for _ in range(50):
        nouns = rng.sample(names, rng.randint(1, 3))
        for r in match(nouns, small_tree):
            assert 0 < r.degree <= 1.0


def test_exact_entry_is_unique_maximum(small_world, small_tree):
    entry = small_world.gazetteer[17]
    results = match(list(entry.path()), small_tree)
    assert results[0].entry == entry
    assert results[0].degree == 1.0
    runner_up = [r for r in results if r.entry != entry]
    assert all(r.degree_exact < 1 for r in runner_up)


def test_partial_entry_weights():
    coarse = PostcodeEntry("湖北省", "武汉市", "", "", "430000")
    tree = build([coarse])
    results = match(["武汉市"], tree)
    assert results[0].degree_exact == Fraction(4, 12)  # city / (province+city)
    results = match(["湖北省", "武汉市"], tree)
    assert results[0].degree == 1.0


def validate_records(tree, records, lexicon):
    return validate(tree, [r.address for r in records], [r.postcode for r in records], lexicon)


def test_validate_self_consistency(demo_tree, demo_lexicon):
    records = [
        EnterpriseRecord(id="1", address="湖北省武汉市江岸区南京路16号", postcode="430014"),
        EnterpriseRecord(id="2", address="湖北省武汉市武昌区中山路8号", postcode="430060"),
        EnterpriseRecord(id="3", address="广东省广州市越秀区南京路2号", postcode="510030"),
    ]
    report = validate_records(demo_tree, records, demo_lexicon)
    assert report.evaluated == 3
    assert report.match_rate == 1.0
    assert report.presence_rate == 1.0


def test_validate_presence_fraction(demo_tree, demo_lexicon):
    records = [
        EnterpriseRecord(id="1", address="湖北省武汉市江岸区南京路16号", postcode="430014"),
        EnterpriseRecord(id="2", address="湖北省武汉市武昌区中山路8号", postcode="999999"),
    ]
    report = validate_records(demo_tree, records, demo_lexicon)
    assert report.evaluated == 2
    assert report.presence_rate == pytest.approx(0.5)


def test_validate_skips_addresses_with_fewer_than_three_nouns(demo_tree, demo_lexicon):
    records = [
        EnterpriseRecord(id="1", address="湖北省武汉市江岸区南京路16号", postcode="430014"),
        EnterpriseRecord(id="2", address="湖北省武汉市16号", postcode="430014"),  # two nouns
    ]
    report = validate_records(demo_tree, records, demo_lexicon)
    assert report.evaluated == 1
    assert report.match_rate == 1.0


def test_validate_skips_incomplete_records(demo_tree, demo_lexicon):
    records = [EnterpriseRecord(id="1", address="somewhere"), EnterpriseRecord(id="2", postcode="430014")]
    report = validate_records(demo_tree, records, demo_lexicon)
    assert report.evaluated == 0


def test_gazetteer_tsv_roundtrip_and_diagnostics(tmp_path):
    path = tmp_path / "gaz.tsv"
    write_gazetteer([WUHAN, WUCHANG], path)
    entries, diagnostics = read_gazetteer(path)
    assert entries == [WUHAN, WUCHANG]
    assert not diagnostics

    bad = tmp_path / "bad.tsv"
    bad.write_text(
        "province\tcity\tcounty\tstreet\tpostcode\n"
        "湖北省\t武汉市\t江岸区\t南京路\t430014\n"
        "湖北省\t武汉市\t江岸区\t南京路\tABC123\n"
        "短行\n",
        encoding="utf-8",
    )
    entries, diagnostics = read_gazetteer(bad)
    assert len(entries) == 1
    assert len(diagnostics) == 2


def test_read_gazetteer_header_check(tmp_path):
    path = tmp_path / "x.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(ValueError, match="columns"):
        read_gazetteer(path)


# --- scorer properties against a Fraction-key oracle -----------------------


def oracle_match(nouns, tree):
    """Every entry scored by brute force, sorted on exact Fraction keys."""
    results = []
    for entry in tree.entries:
        matched, matched_weight, present_weight = [], 0, 0
        for level, name in entry.levels():
            present_weight += LEVEL_WEIGHTS[level]
            if any(q in name or name in q for q in nouns if q):
                matched.append(level)
                matched_weight += LEVEL_WEIGHTS[level]
        if matched_weight:
            results.append(MatchResult(entry, tuple(matched), matched_weight, present_weight))
    results.sort(key=lambda r: (-r.degree_exact, r.entry.postcode, r.entry.path()))
    return results


def oracle_best(nouns, tree):
    results = oracle_match(nouns, tree)
    return tuple(sorted({r.entry.postcode for r in results if r.degree_exact == results[0].degree_exact}))


def noun_lists(data, world):
    """Lists of gazetteer level names and substrings of them (possibly empty)."""
    names = sorted({name for entry in world.gazetteer for _, name in entry.levels()})
    substring = st.sampled_from(names).flatmap(
        lambda name: st.tuples(st.integers(0, len(name)), st.integers(0, len(name))).map(
            lambda ij: name[min(ij):max(ij)]
        )
    )
    return data.draw(st.lists(st.one_of(st.sampled_from(names), substring), max_size=5))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_match_order_equals_fraction_oracle(data, small_world, small_tree):
    nouns = noun_lists(data, small_world)
    assert match(nouns, small_tree) == oracle_match(nouns, small_tree)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_best_postcodes_is_oracle_top_group(data, small_world, small_tree):
    nouns = noun_lists(data, small_world)
    assert best_postcodes(nouns, small_tree) == oracle_best(nouns, small_tree)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_best_postcodes_ignores_order_duplicates_and_empties(data, small_world):
    nouns = noun_lists(data, small_world)
    variant = data.draw(st.permutations(nouns + nouns[: data.draw(st.integers(0, len(nouns)))] + [""]))
    # separate trees, so neither answer comes from the other's cache
    assert best_postcodes(variant, build(small_world.gazetteer)) == best_postcodes(
        nouns, build(small_world.gazetteer)
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_best_postcodes_cached_call_agrees(data, small_world):
    nouns = noun_lists(data, small_world)
    tree = build(small_world.gazetteer)
    first = best_postcodes(nouns, tree)
    assert best_postcodes(list(reversed(nouns)), tree) == first == oracle_best(nouns, tree)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_match_within_postcode_is_oracle_filtered(data, small_world):
    # three postcodes shared by all entries, so each covers many paths
    codes = sorted({e.postcode for e in small_world.gazetteer})[:3]
    tree = build([replace(e, postcode=codes[i % 3]) for i, e in enumerate(small_world.gazetteer)])
    nouns = noun_lists(data, small_world)
    postcode = data.draw(st.sampled_from(codes))
    expected = [r for r in oracle_match(nouns, tree) if r.entry.postcode == postcode]
    assert match(nouns, tree, postcode=postcode) == expected


# level names nested in one another, one name at two levels of an entry,
# and entries with empty levels
NESTED = [
    PostcodeEntry("湖北省", "武汉市", "江岸区", "南京路", "430014"),
    PostcodeEntry("湖北省", "武汉", "", "南京路", "430015"),
    PostcodeEntry("湖北", "", "", "", "430000"),
    PostcodeEntry("广东省", "东莞市", "东莞市", "中山路", "523000"),
    PostcodeEntry("广东省", "广州市", "越秀", "越秀区", "510031"),
    PostcodeEntry("江苏省", "南京市", "南京", "", "210000"),
    PostcodeEntry("江苏省", "南京市", "南京", "中山路", "210001"),
]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_nested_names_and_empty_levels_equal_oracle(data):
    tree = build(NESTED)
    names = sorted({name for entry in NESTED for _, name in entry.levels()})
    part = st.sampled_from(names).flatmap(
        lambda name: st.tuples(st.integers(0, len(name)), st.integers(0, len(name))).map(
            lambda ij: name[min(ij):max(ij)]
        )
    )
    joined = st.tuples(st.sampled_from(names), st.sampled_from(names)).map("".join)
    nouns = data.draw(st.lists(st.one_of(st.sampled_from(names), part, joined), max_size=5))
    assert match(nouns, tree) == oracle_match(nouns, tree)
    assert best_postcodes(nouns, tree) == oracle_best(nouns, tree)
    postcode = data.draw(st.sampled_from(sorted(tree.postcodes()) + ["999999"]))  # and one unknown
    assert match(nouns, tree, postcode=postcode) == [
        r for r in oracle_match(nouns, tree) if r.entry.postcode == postcode
    ]
