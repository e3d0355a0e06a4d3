from __future__ import annotations

import numpy as np
import pytest

from regimpute.classify import predict, train_comparison, train_forest, train_tree
from regimpute.vectorizer import LabeledPoint, SparseVector


def sv(dim, *pairs):
    return SparseVector(dim, tuple(sorted(pairs)))


def separable_points():
    points = []
    for i in range(10):
        points.append(LabeledPoint("A", sv(8, (i % 2, 1), (2, 1))))
        points.append(LabeledPoint("B", sv(8, (4 + i % 2, 1), (2, 1))))
    return points


def three_class_points():
    # each class keyed by one feature, with a shared noise feature
    points = []
    for i in range(12):
        points.append(LabeledPoint("A", sv(6, (0, 1 + i % 2), (5, 1))))
        points.append(LabeledPoint("B", sv(6, (1, 1), (5, 1))))
        points.append(LabeledPoint("C", sv(6, (2, 2), (5, 1))))
    return points


def training_accuracy(model, points):
    return sum(1 for p in points if predict(model, p.vector).label == p.label) / len(points)


def test_svm_separates_toy_set_with_default_params():
    points = separable_points()
    model = train_comparison("linear_svm", points)
    assert model.params == {"iters": 50, "step": 1.0, "reg": 0.01}
    assert training_accuracy(model, points) == 1.0


def test_svm_scores_are_margins_not_probabilities():
    model = train_comparison("linear_svm", separable_points())
    scores = predict(model, sv(8, (0, 1))).scores
    assert not np.isclose(sum(scores), 1.0)


def test_tree_learns_feature_rule():
    points = three_class_points()
    model = train_comparison("decision_tree", points)
    assert model.params == {"max_depth": 30, "min_gain": 0.0075}
    assert training_accuracy(model, points) == 1.0


def test_tree_min_gain_suppression_yields_majority_leaf():
    points = [LabeledPoint("A", sv(4, (0, 1)))] * 6 + [LabeledPoint("B", sv(4, (1, 1)))] * 4
    model = train_tree(points, min_gain=10.0)
    root = model.state["root"]
    assert root["leaf"]
    assert root["dist"] == [0.6, 0.4]
    for vec in [sv(4, (0, 1)), sv(4, (1, 1)), SparseVector(4, ())]:
        assert predict(model, vec).label == "A"


def test_tree_depth_zero_is_a_leaf():
    model = train_tree(three_class_points(), max_depth=0)
    assert model.state["root"]["leaf"]


def test_tree_threshold_splits_on_counts():
    # identical feature, different counts: only the 1.5 threshold separates
    points = [LabeledPoint("A", sv(2, (0, 1)))] * 5 + [LabeledPoint("B", sv(2, (0, 2)))] * 5
    model = train_tree(points)
    root = model.state["root"]
    assert not root["leaf"]
    assert (root["feature"], root["threshold"]) == (0, 1.5)
    assert training_accuracy(model, points) == 1.0


def test_single_tree_forest_equals_decision_tree():
    points = three_class_points()
    tree = train_tree(points)
    forest = train_forest(points, n_trees=1, feature_fraction=1.0, bootstrap=False, seed=9)
    assert forest.state["trees"][0] == tree.state["root"]
    probes = [p.vector for p in points] + [SparseVector(6, ())]
    for vec in probes:
        assert predict(forest, vec).label == predict(tree, vec).label


def test_forest_votes_are_fractions():
    model = train_forest(three_class_points(), n_trees=10, seed=1)
    scores = predict(model, sv(6, (0, 1))).scores
    assert sum(scores) == pytest.approx(1.0)
    assert all(s * 10 == pytest.approx(round(s * 10)) for s in scores)


def test_forest_deterministic_for_seed():
    points = three_class_points()
    m1 = train_forest(points, n_trees=5, seed=4)
    m2 = train_forest(points, n_trees=5, seed=4)
    assert m1.state["trees"] == m2.state["trees"]


def test_unknown_method_is_fatal():
    with pytest.raises(ValueError, match="unknown"):
        train_comparison("kernel_svm", separable_points())


def test_svm_weights_on_active_columns_equal_dense_reference():
    from regimpute.classify import train_svm
    from regimpute.classify.model import pack_points

    rng = np.random.default_rng(3)
    dim, classes = 300, ("A", "B", "C")
    points = [
        LabeledPoint(
            classes[rng.integers(3)],
            sv(dim, *((int(i), int(rng.integers(1, 4))) for i in rng.choice(dim, 3, replace=False))),
        )
        for _ in range(70)
    ]
    model = train_svm(points, iters=25, step=1.0, reg=0.01, classes=classes)
    # the one-vs-rest subgradient update over the full-dim matrix
    X, y = pack_points(points, dim, classes)
    n, k = X.shape[0], len(classes)
    Y = -np.ones((n, k))
    Y[np.arange(n), y] = 1.0
    W, b = np.zeros((k, dim)), np.zeros(k)
    for t in range(1, 26):
        active = ((X @ W.T + b) * Y < 1.0) * Y
        grad_w = 0.01 * W - (active.T @ X) / n
        grad_b = -active.sum(axis=0) / n
        lr = 1.0 / np.sqrt(t)
        W -= lr * grad_w
        b -= lr * grad_b
    columns = sorted({i for p in points for i, _ in p.vector.entries})
    assert model.state["columns"].tolist() == columns
    assert np.array_equal(model.state["weights"], W[:, columns])
    assert np.array_equal(model.state["bias"], b)
    assert not np.delete(W, columns, axis=1).any()
