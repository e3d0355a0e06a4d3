from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matrices import csr
from regimpute.classify import merge_stats, partial_stats, predict, train_nb
from regimpute.parallel import split


def bayes_oracle(train, alpha, classes, dim, vector):
    """Brute-force Bayes rule in the probability domain.

    Independent of the trained model: posteriors come from raw counts via
    prior * product(P(feature|class)^count), then normalization. train
    holds (label, pairs) rows and vector is a pairs tuple, where pairs are
    a row's (column, count) entries."""
    n = len(train)
    k = len(classes)
    posteriors = []
    for cls in classes:
        docs = [pairs for label, pairs in train if label == cls]
        prior = (len(docs) + alpha) / (n + alpha * k)
        counts = Counter()
        for doc in docs:
            for i, c in doc:
                counts[i] += c
        total = sum(counts.values())
        likelihood = prior
        for i, c in vector:
            likelihood *= ((counts[i] + alpha) / (total + alpha * dim)) ** c
        posteriors.append(likelihood)
    norm = sum(posteriors)
    posteriors = [p / norm for p in posteriors]
    best = max(range(k), key=lambda j: (posteriors[j], -j))
    return classes[best], [math.log(p) for p in posteriors]


def sv(*pairs):
    return tuple(sorted(pairs))


def fit(dim, points, **kwargs):
    """train_nb on (label, pairs) rows."""
    return train_nb(csr(dim, [p for _, p in points]), [label for label, _ in points], **kwargs)


def make_dataset(rng, n_classes, vocab, dim, n_docs):
    classes = tuple("ABC"[:n_classes])
    points = []
    for _ in range(n_docs):
        label = classes[rng.randrange(n_classes)]
        counts = Counter(rng.randrange(vocab) for _ in range(rng.randint(1, 5)))
        points.append((label, sv(*counts.items())))
    return classes, points


def probe_vectors(rng, points, vocab, dim, extra=3):
    probes = [p for _, p in points] + [sv()]
    for _ in range(extra):
        counts = Counter(rng.randrange(vocab) for _ in range(rng.randint(1, 4)))
        probes.append(sv(*counts.items()))
    return probes


def assert_matches_oracle(classes, points, probes, dim, alpha=1.0):
    model = fit(dim, points, alpha=alpha, classes=classes)
    for vec in probes:
        expected_label, expected_logpost = bayes_oracle(points, alpha, classes, dim, vec)
        got = predict(model, csr(dim, [vec]))
        assert got.label == expected_label
        for score, logpost in zip(got.scores, expected_logpost):
            assert math.log(score) == pytest.approx(logpost, abs=1e-9)


def test_two_class_toy_matches_hand_bayes():
    # 2 classes, 3 features, counts small enough to check by hand.
    points = [
        ("A", sv((0, 2), (1, 1))),
        ("A", sv((0, 1))),
        ("B", sv((2, 3))),
    ]
    classes = ("A", "B")
    model = fit(3, points, alpha=1.0, classes=classes)
    for vec in [sv((0, 1)), sv((2, 1)), sv((0, 1), (2, 1)), sv()]:
        expected_label, expected_logpost = bayes_oracle(points, 1.0, classes, 3, vec)
        got = predict(model, csr(3, [vec]))
        assert got.label == expected_label
        for score, logpost in zip(got.scores, expected_logpost):
            assert math.log(score) == pytest.approx(logpost, abs=1e-12)


def test_oracle_equivalence_over_random_family():
    rng = random.Random(20240)
    for n_classes in (1, 2, 3):
        for vocab in (1, 2, 4, 8):
            for dim in (vocab, 16):
                for n_docs in (1, 3, 7, 20):
                    classes, points = make_dataset(rng, n_classes, vocab, dim, n_docs)
                    probes = probe_vectors(rng, points, vocab, dim)
                    assert_matches_oracle(classes, points, probes, dim)


def test_empty_class_gets_smoothed_prior():
    # Class C never occurs; training must stay finite and C keeps a small
    # but positive posterior everywhere.
    points = [("A", sv((0, 1))), ("B", sv((1, 1)))]
    classes = ("A", "B", "C")
    model = fit(4, points, classes=classes)
    assert np.all(np.isfinite(model.state["log_prior"]))
    got = predict(model, csr(4, [sv((0, 1))]))
    assert got.scores[2] > 0
    assert_matches_oracle(classes, points, [sv((0, 2)), sv()], 4)


def test_single_class_always_predicted():
    points = [("A", sv((i % 4, 1))) for i in range(5)]
    model = fit(4, points)
    for vec in [sv((0, 3)), sv(), sv((3, 1))]:
        assert predict(model, csr(4, [vec])).label == "A"


def test_zero_vector_prediction_is_prior_argmax():
    points = [("A", sv((0, 1)))] * 3 + [("B", sv((1, 1)))]
    model = fit(4, points)
    got = predict(model, csr(4, [sv()]))
    assert got.label == "A"
    priors = np.exp(model.state["log_prior"])
    assert np.argmax(priors) == 0


def test_likelihood_rows_normalize():
    rng = random.Random(5)
    classes, points = make_dataset(rng, 3, 8, 16, 30)
    model = fit(16, points, classes=classes)
    row_sums = np.exp(model.state["log_likelihood"]).sum(axis=1)
    assert np.allclose(row_sums, 1.0, atol=1e-12)


def test_empty_training_data_is_fatal():
    with pytest.raises(ValueError, match="empty"):
        train_nb(csr(4, []), [])


def packed(classes, dim, points):
    """(X, label indices) of (label, pairs) rows."""
    return csr(dim, [p for _, p in points]), np.array([classes.index(label) for label, _ in points])


def test_partitioned_stats_merge_bit_exact():
    rng = random.Random(99)
    classes, points = make_dataset(rng, 3, 8, 16, 1000)
    X, y = packed(classes, 16, points)
    whole = partial_stats(X, y, 3, range(len(points)))
    # the per-row loop the sparse product replaced, as the reference
    expected = np.zeros((3, 16), dtype=np.int64)
    for label, row in points:
        for i, c in row:
            expected[classes.index(label), i] += c
    assert whole.word_counts.dtype == whole.doc_counts.dtype == np.int64
    assert np.array_equal(whole.word_counts, expected)
    for n_parts in (2, 3, 7):
        pieces = [partial_stats(X, y, 3, rows) for rows in split(range(len(points)), n_parts)]
        merged = merge_stats(pieces)
        assert np.array_equal(merged.doc_counts, whole.doc_counts)
        assert np.array_equal(merged.word_counts, whole.word_counts)
        # merge order must not matter
        reversed_merge = merge_stats(list(reversed(pieces)))
        assert np.array_equal(reversed_merge.word_counts, whole.word_counts)


def test_workers_do_not_change_the_model():
    rng = random.Random(17)
    classes, points = make_dataset(rng, 3, 8, 16, 400)
    sequential = fit(16, points, classes=classes)
    forked = fit(16, points, classes=classes, workers=3)
    assert np.array_equal(sequential.state["log_prior"], forked.state["log_prior"])
    assert np.array_equal(sequential.state["log_likelihood"], forked.state["log_likelihood"])


@st.composite
def _labeled_points(draw):
    dim = draw(st.integers(1, 8))
    counts = st.dictionaries(st.integers(0, dim - 1), st.integers(1, 50), max_size=dim)
    rows = draw(st.lists(st.tuples(st.sampled_from("ABC"), counts), min_size=1, max_size=40))
    return dim, [(label, sv(*c.items())) for label, c in rows]


@settings(max_examples=150, deadline=None)
@given(labeled=_labeled_points(), data=st.data())
def test_any_partition_count_gives_the_single_pass_model(labeled, data):
    # ROADMAP item 4: partitioned counts merge bit for bit, for any count
    dim, points = labeled
    parts = data.draw(st.integers(1, len(points)), label="parts")
    X, y = packed(("A", "B", "C"), dim, points)
    whole = partial_stats(X, y, 3, range(len(points)))
    merged = merge_stats([partial_stats(X, y, 3, rows) for rows in split(range(len(points)), parts)])
    assert np.array_equal(merged.doc_counts, whole.doc_counts)
    assert np.array_equal(merged.word_counts, whole.word_counts)


def test_scaling_invariance_of_argmax():
    rng = random.Random(3)
    classes, points = make_dataset(rng, 3, 8, 16, 40)
    model = fit(16, points, classes=classes)
    for _ in range(10):
        _, pts = make_dataset(rng, 3, 8, 16, 1)
        vec = pts[0][1]
        scores = np.asarray(predict(model, csr(16, [vec])).scores)
        assert np.argmax(scores) == np.argmax(scores * 7.25)
