"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria with stated
runtime bounds enforce them with a monotonic stopwatch around the body.
The parallel speed-up threshold of criterion 8 is only meaningful on a
machine with at least four cores; on smaller hosts that single assertion
is skipped loudly while the exactness assertions still run.
"""

from __future__ import annotations

import math
import os
import random
import threading
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from regimpute import classify
from regimpute.cli import main as cli_main
from regimpute.evaluate import category_accuracy, cross_validate, kfold, speedup, write_category_accuracy
from regimpute.gazetteer import build
from regimpute.geocode import (
    ApiKey,
    MockGeocoder,
    QuotaCounter,
    geocode_batch,
    ok_rate,
    shard,
)
from regimpute.locimpute import impute_locations, tie_break_probabilities
from regimpute.spatial import PointSet, Rect, ripley_k
from regimpute.synth import SynthConfig, synth, synth_labeled_points, synth_world
from regimpute.records import imputed_rows

from matrices import csr
from record_forms import columns_of, labeled_of, records_of
from test_geocode import KnownPrefixGeocoder
from test_naive_bayes import bayes_oracle, fit, make_dataset, probe_vectors
from test_spatial import brute_force_k

DIM = 15_000


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except pytest.skip.Exception as exc:
        print(f"criterion {number:02d} SKIP  {title}: {exc}", flush=True)
        raise
    except BaseException:
        print(f"criterion {number:02d} FAIL  {title}", flush=True)
        raise
    print(f"criterion {number:02d} PASS  {title}", flush=True)


@pytest.fixture(scope="module")
def world_50k():
    return synth_world(SynthConfig(n=50_000, seed=7))


@pytest.fixture(scope="module")
def tree_50k(world_50k):
    return build(world_50k.gazetteer)


def fresh_corpus_50k():
    return synth(SynthConfig(n=50_000, seed=7))


def test_criterion_01_nb_brute_force_oracle():
    with criterion(1, "NB predictions match the brute-force Bayes oracle"):
        start = time.perf_counter()
        rng = random.Random(20240)
        checked = 0
        for n_classes in (1, 2, 3):
            for vocab in (1, 2, 4, 8):
                for dim in sorted({vocab, 16}):
                    for n_docs in (1, 3, 7, 20):
                        classes, points = make_dataset(rng, n_classes, vocab, dim, n_docs)
                        model = fit(dim, points, alpha=1.0, classes=classes)
                        for vec in probe_vectors(rng, points, vocab, dim):
                            want_label, want_logpost = bayes_oracle(points, 1.0, classes, dim, vec)
                            got = classify.predict(model, csr(dim, [vec]))
                            assert got.label == want_label
                            for score, logpost in zip(got.scores, want_logpost):
                                assert math.log(score) == pytest.approx(logpost, abs=1e-9)
                            checked += 1
        elapsed = time.perf_counter() - start
        assert checked > 1000
        assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_02_lr_gradient_finite_differences():
    from test_logistic import fd_gradient, label_indices, random_dataset, relative_error
    from regimpute.classify import lr_gradient

    with criterion(2, "LR analytic gradient matches central finite differences"):
        rng = np.random.default_rng(42)
        classes, X, labels = random_dataset(rng, n=30, dim=12, k=3)
        y = label_indices(classes, labels)
        for _ in range(20):
            W = rng.normal(scale=0.8, size=(3, 12))
            b = rng.normal(scale=0.5, size=3)
            l2 = float(rng.choice([0.0, 0.01, 0.1]))
            gw, gb = lr_gradient(W, b, X, y, l2)
            fw, fb = fd_gradient(W, b, X, y, l2)
            err = relative_error(
                np.concatenate([gw.ravel(), gb]), np.concatenate([fw.ravel(), fb])
            )
            assert err < 1e-5


def test_criterion_03_synthetic_category_imputation(tmp_path, world_50k):
    with criterion(3, "50k-corpus LR ten-fold CV >= 0.95 and all maskable records filled"):
        start = time.perf_counter()
        records, truth = fresh_corpus_50k()
        X, labels, _ = labeled_of(records, world_50k.lexicon, DIM)
        params = {"iters": 100, "step": 1.0, "l2": 0.01}

        plan = kfold(len(labels), 10, seed=7)
        report = cross_validate("logistic_regression", X, labels, plan, params)
        assert report.overall_accuracy >= 0.95, f"CV accuracy {report.overall_accuracy:.4f}"

        model = classify.train("logistic_regression", X, labels, params)
        columns, flags = columns_of(records)
        fill = classify.impute_categories(columns, flags, model, world_50k.lexicon)
        records = records_of(columns, flags)
        maskable = fill.missing - fill.skipped_no_name
        assert fill.filled == maskable, "every maskable record must be filled"
        assert all(r.category is not None for r in records if r.name)

        rows = category_accuracy(columns["id"], columns["category"], imputed_rows(columns, flags, "category"),
                                 truth, model.classes)
        out = tmp_path / "per_class_accuracy.tsv"
        write_category_accuracy(rows, out)
        assert out.is_file()
        assert len(out.read_text(encoding="utf-8").splitlines()) == 1 + 16

        elapsed = time.perf_counter() - start
        assert elapsed < 180.0, f"criterion took {elapsed:.0f}s"
        print(f"  cv_accuracy={report.overall_accuracy:.4f} filled={fill.filled} elapsed={elapsed:.0f}s")


def test_criterion_04_tie_break_probabilities(world_50k, tree_50k):
    with criterion(4, "tie-break probabilities normalize exactly and ignore candidate order"):
        rng = random.Random(99)
        # direct normalization sweep
        for _ in range(500):
            counts = [rng.randint(0, 20) for _ in range(rng.randint(1, 8))]
            if sum(counts) == 0:
                continue
            probs = tie_break_probabilities(counts)
            assert sum(probs) == 1  # exact rational arithmetic
            assert abs(float(sum(Fraction(p) for p in probs)) - 1.0) < 1e-12

        # end-to-end: street-only queries that tie across localities, with the
        # gazetteer and the evidence corpus permuted between runs; the
        # postcode step fills the query row after the postcode-bearing corpus
        records, _ = synth(SynthConfig(n=4000, seed=31))
        records = [rec for rec in records if rec.postcode]
        streets = {}
        for e in world_50k.gazetteer:
            streets.setdefault(e.street, set()).add(e.postcode)
        shared = [s for s, pcs in streets.items() if len(pcs) >= 2]
        assert shared, "synthetic world must contain shared street names"

        from regimpute.records import EnterpriseRecord

        ties_seen = 0
        for street in shared[:25]:
            query = EnterpriseRecord(id="q", address=f"{street}7")
            picks = set()
            for seed in (1, 2, 3):
                entries = list(world_50k.gazetteer)
                corpus = list(records)
                random.Random(seed).shuffle(entries)
                random.Random(seed + 10).shuffle(corpus)
                columns, flags = columns_of([*corpus, query])
                report = impute_locations(columns, flags, build(entries), world_50k.lexicon, steps=("postcode",))
                (source,) = report.postcode_sources
                picks.add((columns["postcode"][-1], source))
            assert len(picks) == 1, f"street {street}: permutation changed the pick {picks}"
            if picks.pop()[1] == "tiebreak":
                ties_seen += 1
        assert ties_seen > 0, "fixtures must actually exercise the tie path"
        print(f"  tie_fixtures={ties_seen}")


def test_criterion_05_location_imputation(world_50k, tree_50k):
    with criterion(5, "postcode recovery >= 0.90 and AD agreement >= 0.95 on 50k corpus"):
        records, truth = fresh_corpus_50k()
        columns, flags = columns_of(records)
        report = impute_locations(columns, flags, tree_50k, world_50k.lexicon)
        records = records_of(columns, flags)

        masked = [rid for rid, field in truth.values if field == "postcode"]
        by_id = {r.id: r for r in records}
        recovered = sum(
            1 for rid in masked if by_id[rid].postcode == truth.get(rid, "postcode")
        )
        postcode_rate = recovered / len(masked)
        assert postcode_rate >= 0.90, f"postcode recovery {postcode_rate:.4f}"

        assigned = [
            r for r in records
            if r.provenance_of("ad") == "imputed" or r.provenance_of("address") == "imputed"
        ]
        assert assigned, "the corpus must force AD assignments"
        agree = 0
        for r in assigned:
            province, city, county, _ = truth.get(r.id, "ad").split("/")
            if r.address and r.address.startswith(province + city + county):
                agree += 1
        ad_rate = agree / len(assigned)
        assert ad_rate >= 0.95, f"AD agreement {ad_rate:.4f}"
        print(f"  postcode_recovery={postcode_rate:.4f} ad_agreement={ad_rate:.4f} "
              f"ties={report.postcode_sources.get('tiebreak', 0)}")


def test_criterion_06_geocoding_rate():
    with criterion(6, "mock geocoding ok-rate: >= 0.97 after imputation vs <= 0.60 before"):
        config = SynthConfig(n=5000, seed=13, ambiguity=0.45)
        world = synth_world(config)
        records, _ = synth(config)
        tree = build(world.gazetteer)
        provider = KnownPrefixGeocoder(world.ad_prefixes)

        def run():
            keys = [ApiKey(f"k{i}", 6000) for i in range(4)]
            requests = shard([r.id for r in records], [r.address or "" for r in records], keys)
            return [r.status for r in geocode_batch(requests, provider, keys, rate=None)]

        pre = ok_rate(run())
        columns, flags = columns_of(records)
        impute_locations(columns, flags, tree, world.lexicon)
        records[:] = records_of(columns, flags)
        post = ok_rate(run())
        assert pre <= 0.60, f"pre-imputation ok-rate {pre:.4f}"
        assert post >= 0.97, f"post-imputation ok-rate {post:.4f}"
        print(f"  pre={pre:.4f} post={post:.4f}")


def test_criterion_07_quota_safety():
    with criterion(7, "no schedule exceeds a key's daily quota; every request accounted"):
        from regimpute.records import EnterpriseRecord

        records = [EnterpriseRecord(id=f"r{i}", address="prefix street") for i in range(10_000)]
        keys = [ApiKey(f"k{i}", daily_quota=2000) for i in range(4)]
        requests = shard([r.id for r in records], [r.address for r in records], keys)
        results = geocode_batch(requests, MockGeocoder(), keys, rate=None)
        assert len(results) == len(records)
        assert all(k.used_today <= k.daily_quota for k in keys)
        statuses = [r.status for r in results]
        assert statuses.count("ok") == 8000
        assert statuses.count("quota-exhausted") == 2000
        assert [r.record_id for r in results] == [f"r{i}" for i in range(10_000)]

        # adversarial interleaving directly on one shared counter
        key = ApiKey("shared", daily_quota=777)
        counter = QuotaCounter(key)
        grants = []

        def hammer():
            got = sum(counter.acquire(1)[0] for _ in range(2000))
            grants.append(got)

        threads = [threading.Thread(target=hammer) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(grants) == 777
        assert key.used_today == 777


@pytest.fixture(scope="module")
def million_points():
    return synth_labeled_points(
        1_000_000, dim=1024, n_classes=16, entries_per_vector=8,
        distinct_vectors=65_536, seed=3,
    )


def test_criterion_08_scalability_exactness(million_points):
    with criterion(8, "speed-up baseline ratio is exactly 1 and partitioned NB stats merge bit-exactly"):
        curve = speedup("naive_bayes", *million_points, [1, 2, 4])
        assert [p.ratio for p in curve.points if p.workers == 1] == [1.0]
        for p in curve.points:
            print(f"  workers={p.workers} seconds={p.seconds:.2f} ratio={p.ratio:.2f}")

        X, labels = million_points
        classes, y = classify.model.check_training_data(X, labels)
        from regimpute.parallel import split

        whole = classify.partial_stats(X, y, len(classes), range(len(labels)))
        merged = classify.merge_stats(
            [classify.partial_stats(X, y, len(classes), rows) for rows in split(range(len(labels)), 4)]
        )
        assert np.array_equal(whole.doc_counts, merged.doc_counts)
        assert np.array_equal(whole.word_counts, merged.word_counts)

        globals()["_SPEEDUP_CURVE"] = curve


def test_criterion_08_speedup_ratio_on_multicore(million_points):
    with criterion(8, "NB speed-up ratio >= 2.0 at 4 workers (needs a 4-core machine)"):
        cores = os.cpu_count() or 1
        curve = globals().get("_SPEEDUP_CURVE") or speedup("naive_bayes", *million_points, [1, 4])
        ratio = next(p.ratio for p in curve.points if p.workers == 4)
        print(f"  cores={cores} measured_ratio_at_4_workers={ratio:.2f}")
        if cores < 4:
            pytest.skip(
                f"criterion is stated for a 4-core machine; this host has {cores} core(s), "
                f"so a >= 2.0 parallel speed-up is unattainable (measured {ratio:.2f})"
            )
        assert ratio >= 2.0


def test_criterion_09_ripley_k():
    with criterion(9, "Ripley K equals the double loop exactly; CSR ratio within [0.85, 1.15]"):
        start = time.perf_counter()
        rng = random.Random(77)
        for n in (2, 50, 200):
            pts = [(rng.random() * 3, rng.random() * 2) for _ in range(n)]
            radii = [0.05, 0.2, 0.5, 1.0, 3.5]
            got = ripley_k(PointSet(np.array(pts), Rect(0, 0, 3.0, 2.0)), radii)
            assert list(got.k) == brute_force_k(pts, 6.0, radii)

        r = 0.05
        np_rng = np.random.default_rng(2024)
        ratios = []
        for _ in range(20):
            ps = PointSet(np_rng.random((2000, 2)), Rect(0.0, 0.0, 1.0, 1.0))
            k = ripley_k(ps, [r]).k[0]
            ratios.append(k / (math.pi * r * r))
        assert all(0.85 <= ratio <= 1.15 for ratio in ratios), ratios
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"criterion took {elapsed:.1f}s"
        print(f"  csr_ratio_range=[{min(ratios):.3f}, {max(ratios):.3f}] elapsed={elapsed:.1f}s")


def test_criterion_10_pipeline_determinism(tmp_path):
    with criterion(10, "full pipeline is byte-identical across runs (timings excluded)"):
        synth_dir = tmp_path / "inputs"
        assert cli_main(["synth", "--out", str(synth_dir), "--n", "3000", "--seed", "17"]) == 0
        keys = tmp_path / "keys.tsv"
        keys.write_text("ka\t6000\nkb\t6000\n", encoding="utf-8")

        outputs = []
        for run in ("one", "two"):
            out = tmp_path / run
            code = cli_main([
                "pipeline",
                "--corpus", str(synth_dir / "corpus.tsv"),
                "--lexicon", str(synth_dir / "lexicon.tsv"),
                "--gazetteer", str(synth_dir / "gazetteer.tsv"),
                "--keys", str(keys),
                "--output-dir", str(out),
                "--method", "naive_bayes",
                "--dim", "4096",
                "--seed", "17",
            ])
            assert code == 0
            outputs.append(out)

        first, second = outputs
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        compared = 0
        for name in names:
            if name == "timings.tsv":  # wall-time fields, excluded by design
                continue
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
            compared += 1
        assert compared >= 7
        print(f"  artifacts_compared={compared}")
