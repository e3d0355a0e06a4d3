from __future__ import annotations

import copy
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from regimpute import locimpute
from regimpute.gazetteer import PostcodeEntry, best_postcodes, build
from regimpute.locimpute import PostcodeEvidence, impute_locations, select_tied_postcode, tie_break_probabilities
from regimpute.records import EnterpriseRecord
from regimpute.segmenter import Lexicon
from record_forms import columns_of, records_of, reference_query_nouns

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


def test_query_nouns_span_three_fields(demo_lexicon):
    rec = EnterpriseRecord(
        id="1",
        name="武汉物业管理有限公司",
        address="南京路16号",
        data_source="2004年注册_湖北",
    )
    repeats = EnterpriseRecord(id="2", name="武汉物业", address="武汉南京路武汉", data_source="湖北_武汉")
    want = [["湖北", "南京路", "武汉"], ["湖北", "武汉", "南京路"]]
    assert [reference_query_nouns(r, demo_lexicon) for r in (rec, repeats)] == want
    # the batch's nouns, row by row in text order, de-duplicated
    rows, word_ids = locimpute._noun_tokens(columns_of([rec, repeats])[0], [0, 1], demo_lexicon)
    nouns = [demo_lexicon.words[w] for w in word_ids.tolist()]
    assert [list(dict.fromkeys(n for r, n in zip(rows.tolist(), nouns) if r == i)) for i in (0, 1)] == want


def impute_query(corpus, query, tree, lexicon):
    """impute_locations' postcode step on the corpus rows and one query row
    after them: the query row's postcode cell and the report."""
    columns, flags = columns_of([*corpus, query])
    report = impute_locations(columns, flags, tree, lexicon, steps=("postcode",))
    return columns["postcode"][-1], report


def test_unique_match_source_vsm(demo_tree, demo_lexicon):
    rec = EnterpriseRecord(id="1", name="武汉物业管理有限公司", address="江岸区南京路16号")
    postcode, report = impute_query([], rec, demo_tree, demo_lexicon)
    assert postcode == "430014"
    assert report.postcode_sources == {"vsm-match": 1}
    assert report.low_confidence == 0


def test_street_only_tie_uses_corpus_evidence(demo_tree, demo_lexicon):
    # "南京路" exists in Wuhan and Guangzhou; corpus evidence favors Guangzhou.
    corpus = [
        EnterpriseRecord(id="c1", address="南京路1号", postcode="510030"),
        EnterpriseRecord(id="c2", address="南京路2号", postcode="510030"),
        EnterpriseRecord(id="c3", address="南京路3号", postcode="430014"),
    ]
    rec = EnterpriseRecord(id="q", address="南京路99号")
    postcode, report = impute_query(corpus, rec, demo_tree, demo_lexicon)
    assert report.postcode_sources == {"tiebreak": 1}
    assert postcode == "510030"


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
    postcode, _ = impute_query(corpus, rec, demo_tree, demo_lexicon)
    assert postcode == "430014"  # P = 3/4 wins


def test_lazy_evidence_matches_eager_counts(small_corpus, small_world):
    records, _ = small_corpus
    lexicon = small_world.lexicon
    eager: dict[str, list[frozenset[str]]] = {}
    for rec in records:
        if rec.postcode:
            eager.setdefault(rec.postcode, []).append(frozenset(reference_query_nouns(rec, lexicon)))
    queries = {frozenset(reference_query_nouns(rec, lexicon)) for rec in records}
    queries |= {frozenset({noun}) for q in queries for noun in q}
    # unions of two records' nouns: more nouns than most records hold
    ordered = sorted(queries, key=sorted)
    queries |= {a | b for a, b in zip(ordered, ordered[1:])}
    evidence = PostcodeEvidence.from_records(records, lexicon)
    for postcode in sorted(eager) + ["000000"]:
        for query in queries:
            want = sum(1 for nouns in eager.get(postcode, ()) if query <= nouns)
            assert evidence.count_with(postcode, query) == want, (postcode, query)


def test_count_with_query_has_more_nouns_than_any_record():
    lexicon = Lexicon({word: "ns" for word in ("甲路", "乙路", "丙路", "丁路", "戊路")})
    corpus = [
        EnterpriseRecord(id="a", address="甲路乙路", postcode="100000"),
        EnterpriseRecord(id="b", address="丙路", postcode="100000"),
        EnterpriseRecord(id="c", address="甲路乙路丙路", postcode="200000"),
    ]
    evidence = PostcodeEvidence.from_records(corpus, lexicon)
    # five query nouns; the postcode's records hold three between them
    assert evidence.count_with("100000", frozenset(lexicon.words)) == 0
    assert evidence.count_with("100000", frozenset({"甲路", "乙路", "丙路"})) == 0
    assert evidence.count_with("200000", frozenset({"甲路", "乙路", "丙路"})) == 1
    assert evidence.count_with("100000", frozenset({"甲路", "乙路"})) == 1
    assert evidence.count_with("100000", frozenset({"丙路"})) == 1


def impute_records(records, tree, lexicon, steps=("postcode", "ad")):
    """impute_locations on the records' columns; the records are replaced
    in place by the filled ones."""
    columns, flags = columns_of(records)
    report = impute_locations(columns, flags, tree, lexicon, steps=steps)
    records[:] = records_of(columns, flags)
    return report


def test_impute_locations_makes_one_kernel_call_per_batch(small_world, small_corpus, monkeypatch):
    # one call for the query rows, then one for the rows that carry a
    # postcode some query ties on and were not queries themselves
    records, _ = small_corpus
    lexicon = small_world.lexicon
    tree = build([replace(e, postcode=f"{i % 40:06d}") for i, e in enumerate(small_world.gazetteer)])
    for i, rec in enumerate(records[:400]):  # rows carrying the tree's postcodes, each with several AD paths
        if rec.postcode:
            rec.postcode = f"{i % 40:06d}"
    batches = []
    real = locimpute.tokenize
    monkeypatch.setattr(locimpute, "tokenize", lambda texts, *a: batches.append(len(texts)) or real(texts, *a))
    missing = [r for r in records if not r.postcode]
    contested = {p for r in missing for tied in [best_postcodes(reference_query_nouns(r, lexicon), tree)]
                 if len(tied) > 1 for p in tied}
    carriers = sum(1 for r in records if r.postcode in contested)
    assert carriers
    batches.clear()
    impute_records(copy.deepcopy(records), tree, lexicon, steps=("postcode",))
    assert batches == [3 * len(missing), 3 * carriers]
    # with AD the carriers are queries already: their postcodes have several paths
    several = sum(1 for r in records if r.postcode and len(tree.entries_for_postcode(r.postcode)) > 1)
    batches.clear()
    impute_records(copy.deepcopy(records), tree, lexicon)
    assert batches == [3 * (len(missing) + several)]
    # AD alone segments only the records whose postcode has several paths
    for rec in records[:50]:
        rec.postcode = "000001"
    batches.clear()
    impute_records(records, tree, lexicon, steps=("ad",))
    assert batches == [3 * (50 + sum(1 for r in records[50:] if r.postcode in tree.postcodes()))]


def test_tie_without_evidence_low_confidence(demo_tree, demo_lexicon):
    rec = EnterpriseRecord(id="q", address="南京路9号")
    postcode, report = impute_query([], rec, demo_tree, demo_lexicon)
    assert postcode == "430014"  # smallest tied postcode
    assert report.postcode_sources == {"tiebreak": 1}
    assert report.low_confidence == 1


def test_no_nouns_no_match(demo_tree, demo_lexicon):
    rec = EnterpriseRecord(id="q", address="12345")
    postcode, report = impute_query([], rec, demo_tree, demo_lexicon)
    assert postcode is None
    assert (report.postcode_missing, report.postcode_failed, report.postcode_filled) == (1, 1, 0)


def test_present_postcode_is_never_replaced(demo_tree, demo_lexicon):
    # the postcode names none of the address's levels; it is kept all the same
    rec = EnterpriseRecord(id="q", address="南京路9号", postcode="523000")
    postcode, report = impute_query([], rec, demo_tree, demo_lexicon)
    assert postcode == "523000"
    assert (report.postcode_missing, report.postcode_filled) == (0, 0)


def impute_ad_rows(records, tree, lexicon, addresses=None):
    """impute_locations' AD step on the records' columns, their address
    cells replaced by `addresses` when given: the address column, the
    address and ad flags, and the report."""
    columns, flags = columns_of(records)
    if addresses is not None:
        columns["address"] = list(addresses)
    report = impute_locations(columns, flags, tree, lexicon, steps=("ad",))
    return columns["address"], (list(flags["address"]), list(flags["ad"])), report


def ad_counts(report):
    return report.ad_assigned, report.ad_original, report.ad_failed, report.address_filled


def test_impute_ad_table_fixture(demo_tree, demo_lexicon):
    rec = EnterpriseRecord(id="1", address="南京路16号", postcode="430014")
    addresses, flags, report = impute_ad_rows([rec], demo_tree, demo_lexicon)
    assert addresses == ["湖北省武汉市江岸区 南京路16号"]
    assert flags == ([0], [1])
    assert ad_counts(report) == (1, 0, 0, 0)


def test_impute_ad_existing_full_address_is_original(demo_tree, demo_lexicon):
    address = "湖北省武汉市江岸区南京路16号"
    rec = EnterpriseRecord(id="1", address=address, postcode="430014")
    addresses, flags, report = impute_ad_rows([rec], demo_tree, demo_lexicon)
    assert addresses == [address]
    assert flags == ([0], [0])
    assert ad_counts(report) == (0, 1, 0, 0)


def test_impute_ad_missing_address_uses_street_name(demo_tree, demo_lexicon):
    rows = [EnterpriseRecord(id=str(i), postcode="430014") for i in range(2)]
    addresses, flags, report = impute_ad_rows(rows, demo_tree, demo_lexicon, addresses=(None, ""))
    assert addresses == ["湖北省武汉市江岸区 南京路"] * 2
    assert flags == ([1, 1], [0, 0])
    assert ad_counts(report) == (2, 0, 0, 2)


def test_impute_ad_unknown_postcode(demo_tree, demo_lexicon):
    rec = EnterpriseRecord(id="1", address="x", postcode="999999")
    addresses, flags, report = impute_ad_rows([rec], demo_tree, demo_lexicon)
    assert addresses == ["x"]
    assert flags == ([0], [0])
    assert ad_counts(report) == (0, 0, 1, 0)


def test_impute_ad_multi_path_prefers_own_nouns(demo_lexicon):
    # one postcode mapping to two AD paths
    a = PostcodeEntry("湖北省", "武汉市", "江岸区", "南京路", "430014")
    b = PostcodeEntry("广东省", "广州市", "越秀区", "南京路", "430014")
    tree = build([a, b])
    own = EnterpriseRecord(id="1", address="南京路1号", data_source="注册_武汉市", postcode="430014")
    bare = EnterpriseRecord(id="2", address="南京路1号", postcode="430014")
    addresses, flags, report = impute_ad_rows([own, bare], tree, demo_lexicon)
    # own nouns beat the path-order default; without nouns to lean on,
    # the lexicographically first path wins
    assert addresses == ["湖北省武汉市江岸区 南京路1号", "广东省广州市越秀区 南京路1号"]
    assert flags == ([0, 0], [1, 1])
    assert ad_counts(report) == (2, 0, 0, 0)


def test_impute_locations_complete_corpus_is_noop(small_world, small_tree):
    from regimpute.synth import SynthConfig, synth

    records, _ = synth(
        SynthConfig(
            n=300, seed=23, missing_category=0.0, missing_postcode=0.0,
            missing_data_source=0.0, missing_address=0.0, ambiguity=0.0,
        )
    )
    snapshot = copy.deepcopy(records)
    report = impute_records(records, small_tree, small_world.lexicon)
    assert report.postcode_filled == 0
    assert report.ad_assigned == 0
    assert records == snapshot


def test_impute_locations_fills_and_is_idempotent(small_world, small_tree, small_corpus):
    records, truth = small_corpus
    first = impute_records(records, small_tree, small_world.lexicon)
    assert first.postcode_filled > 0
    assert first.ad_assigned > 0
    snapshot = copy.deepcopy(records)
    second = impute_records(records, small_tree, small_world.lexicon)
    assert records == snapshot
    assert second.postcode_filled == 0
    assert second.ad_assigned == 0

    # provenance and accuracy against ground truth
    masked = [rid for rid, field in truth.values if field == "postcode"]
    filled = [r for r in records if r.id in set(masked)]
    assert all(r.provenance_of("postcode") == "imputed" for r in filled if r.postcode)
    correct = sum(1 for r in filled if r.postcode == truth.get(r.id, "postcode"))
    assert correct / len(masked) >= 0.90


def test_impute_locations_deterministic(small_world, small_tree, small_config):
    from regimpute.synth import synth

    r1, _ = synth(small_config)
    r2, _ = synth(small_config)
    impute_records(r1, small_tree, small_world.lexicon)
    impute_records(r2, small_tree, small_world.lexicon)
    assert r1 == r2


def test_impute_locations_failed_records_counted(small_world):
    # a tree that knows nothing about the corpus: every lookup fails
    foreign = build([PostcodeEntry("zz1", "zz2", "zz3", "zz4", "000001")])
    records = [
        EnterpriseRecord(id="1", name="x"),  # no nouns at all
        EnterpriseRecord(id="2", postcode="999999", address="y"),  # unknown postcode
    ]
    report = impute_records(records, foreign, small_world.lexicon)
    assert report.postcode_failed == 1
    assert report.ad_failed == 1
    assert report.postcode_filled == 0


def _own_degree(entry, nouns):
    levels = dict(zip(("province", "city", "county", "street"), (8, 4, 2, 1)))
    present = {level: w for level, w in levels.items() if getattr(entry, level)}
    matched = [w for level, w in present.items()
               if any(n in getattr(entry, level) or getattr(entry, level) in n for n in nouns)]
    return Fraction(sum(matched), sum(present.values()))


def reference_impute_locations(records, tree, lexicon):
    """The per-record loop: each record's nouns segmented on their own,
    evidence noun sets taken before any record changes, then postcode and
    AD filled one record at a time."""
    evidence = {}
    for rec in records:
        if rec.postcode:
            evidence.setdefault(rec.postcode, []).append(frozenset(reference_query_nouns(rec, lexicon)))
    filled = 0
    for rec in records:
        if not rec.postcode:
            nouns = reference_query_nouns(rec, lexicon)
            tied = best_postcodes(nouns, tree) if nouns else ()
            if tied:
                counts = {p: sum(1 for s in evidence.get(p, ()) if set(nouns) <= s) for p in tied}
                rec.postcode = select_tied_postcode(counts) if sum(counts.values()) else tied[0]
                rec.mark_imputed("postcode")
                filled += 1
        entries = tree.entries_for_postcode(rec.postcode or "")
        if entries:
            # the best own-noun match among the postcode's paths, ties and
            # no match to the first path
            nouns = set(reference_query_nouns(rec, lexicon))
            chosen = min(entries, key=lambda e: (-_own_degree(e, nouns), e.path()))
            prefix = [chosen.province, chosen.city, chosen.county]
            if not (rec.address and all(name in rec.address for name in prefix)):
                rec.mark_imputed("address" if rec.address is None else "ad")
                rec.address = f"{''.join(prefix)} {rec.address or chosen.street}"
    return filled


@pytest.mark.parametrize("shared_postcodes", [False, True])
def test_impute_locations_equals_per_record_loop(small_world, small_corpus, shared_postcodes):
    records, _ = small_corpus
    entries = small_world.gazetteer
    if shared_postcodes:  # ties and several AD paths per postcode
        entries = [replace(e, postcode=f"{i % 40:06d}") for i, e in enumerate(entries)]
    tree = build(entries)
    want = copy.deepcopy(records)
    filled = reference_impute_locations(want, tree, small_world.lexicon)
    report = impute_records(records, tree, small_world.lexicon)
    assert records == want
    assert report.postcode_filled == filled > 0
    if shared_postcodes:
        assert report.postcode_sources["tiebreak"] > 0


def test_tie_evidence_from_carrying_rows_equals_per_record_loop(small_world, small_corpus):
    # the corpus carries the shared postcodes too, so the tie-break counts
    # come from the rows that carry a tied postcode
    records, _ = small_corpus
    entries = [replace(e, postcode=f"{i % 40:06d}") for i, e in enumerate(small_world.gazetteer)]
    shared = {old.postcode: new.postcode for old, new in zip(small_world.gazetteer, entries)}
    for rec in records:
        rec.postcode = shared.get(rec.postcode, rec.postcode)
    tree = build(entries)
    want = copy.deepcopy(records)
    filled = reference_impute_locations(want, tree, small_world.lexicon)
    report = impute_records(records, tree, small_world.lexicon)
    assert records == want
    assert report.postcode_filled == filled > 0
    assert report.postcode_sources["tiebreak"] > report.low_confidence


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
