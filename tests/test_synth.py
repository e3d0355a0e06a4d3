from __future__ import annotations

import pytest

from regimpute.records import missingness, write_records
from record_forms import columns_of
from regimpute.segmenter import ADDRESS_TAGS, FEATURE_TAGS, segment_texts, word_lists
from regimpute.synth import SynthConfig, synth, synth_labeled_points, synth_world


def test_same_seed_byte_identical(tmp_path):
    config = SynthConfig(n=300, seed=7)
    for run in ("a", "b"):
        records, truth = synth(config)
        write_records(records, tmp_path / f"corpus_{run}.tsv")
        truth.write(tmp_path / f"truth_{run}.tsv")
    assert (tmp_path / "corpus_a.tsv").read_bytes() == (tmp_path / "corpus_b.tsv").read_bytes()
    assert (tmp_path / "truth_a.tsv").read_bytes() == (tmp_path / "truth_b.tsv").read_bytes()


def test_different_seed_differs():
    a, _ = synth(SynthConfig(n=100, seed=1))
    b, _ = synth(SynthConfig(n=100, seed=2))
    assert any(x.name != y.name for x, y in zip(a, b))


def test_full_category_masking_recoverable():
    records, truth = synth(SynthConfig(n=150, seed=3, missing_category=1.0))
    assert all(r.category is None for r in records)
    assert all(truth.get(r.id, "category") is not None for r in records)


def test_missingness_tracks_configured_rates():
    config = SynthConfig(n=10_000, seed=5)
    records, _ = synth(config)
    report = missingness(*columns_of(records))
    assert report.missing["category"] == pytest.approx(config.missing_category, abs=0.01)
    assert report.missing["postcode"] == pytest.approx(config.missing_postcode, abs=0.01)
    assert report.missing["data_source"] == pytest.approx(config.missing_data_source, abs=0.01)


def test_ground_truth_covers_every_masked_field():
    records, truth = synth(SynthConfig(n=2000, seed=9))
    for rec in records:
        for field_name in ("name", "category", "address", "postcode", "data_source"):
            if getattr(rec, field_name) is None:
                assert truth.get(rec.id, field_name) is not None, (rec.id, field_name)
        assert truth.get(rec.id, "ad") is not None


def test_ambiguity_strips_ad_prefix():
    records, truth = synth(SynthConfig(n=4000, seed=13, ambiguity=0.5))
    stripped = 0
    for rec in records:
        if rec.address is None:
            continue
        province = truth.get(rec.id, "ad").split("/")[0]
        if not rec.address.startswith(province):
            stripped += 1
            assert " " not in rec.address  # street-only form
            assert truth.get(rec.id, "address", ) is not None
    assert stripped / len(records) == pytest.approx(0.5, abs=0.03)


def test_names_recoverable_by_segmentation():
    config = SynthConfig(n=500, seed=21)
    world = synth_world(config)
    records, truth = synth(config)
    reverse = {w: sym for sym, words in world.category_words.items() for w in words}
    named = [rec for rec in records if rec.name]
    names = [rec.name for rec in named]
    for rec, tokens, words in zip(named, segment_texts(names, world.lexicon),
                                  word_lists(names, world.lexicon, FEATURE_TAGS)):
        assert "".join(t.surface for t in tokens) == rec.name
        cats = {reverse[w] for w in words if w in reverse}
        expected = rec.category or truth.get(rec.id, "category")
        assert cats == {expected}
    assert len(named) > 400


def test_name_city_noun_matches_true_city():
    config = SynthConfig(n=300, seed=2)
    world = synth_world(config)
    records, truth = synth(config)
    named = [rec for rec in records[:100] if rec.name]
    for rec, nouns in zip(named, word_lists([rec.name for rec in named], world.lexicon, ADDRESS_TAGS)):
        city = truth.get(rec.id, "ad").split("/")[1]
        assert list(dict.fromkeys(nouns)) == [city]


def test_gazetteer_consistent_with_records():
    config = SynthConfig(n=400, seed=31)
    world = synth_world(config)
    records, truth = synth(config)
    by_path = {(e.province, e.city, e.county, e.street): e.postcode for e in world.gazetteer}
    for rec in records:
        path = tuple(truth.get(rec.id, "ad").split("/"))
        expected_postcode = by_path[path]
        actual = rec.postcode or truth.get(rec.id, "postcode")
        assert actual == expected_postcode


def test_rate_validation():
    with pytest.raises(ValueError, match="missing_category"):
        synth(SynthConfig(n=10, missing_category=1.5))
    with pytest.raises(ValueError, match="ambiguity"):
        synth(SynthConfig(n=10, ambiguity=-0.1))
    with pytest.raises(ValueError):
        synth(SynthConfig(n=-5))


def test_synth_labeled_points_shape_and_determinism():
    X, labels = synth_labeled_points(1000, dim=256, n_classes=8, entries_per_vector=6, seed=4)
    X2, labels2 = synth_labeled_points(1000, dim=256, n_classes=8, entries_per_vector=6, seed=4)
    assert X.shape[0] == len(labels) == 1000
    assert X.shape[1] == 256
    assert (X.sum(axis=1) == 6).all()
    assert (X != X2).nnz == 0 and labels == labels2
    assert len(set(labels)) == 8
