from __future__ import annotations

import numpy as np
import pytest

from matrices import csr, pairs
from regimpute.classify import predict, train, train_forest, train_tree


def separable_points():
    rows, labels = [], []
    for i in range(10):
        rows += [[(i % 2, 1), (2, 1)], [(4 + i % 2, 1), (2, 1)]]
        labels += ["A", "B"]
    return csr(8, rows), labels


def three_class_points():
    # each class keyed by one feature, with a shared noise feature
    rows, labels = [], []
    for i in range(12):
        rows += [[(0, 1 + i % 2), (5, 1)], [(1, 1), (5, 1)], [(2, 2), (5, 1)]]
        labels += ["A", "B", "C"]
    return csr(6, rows), labels


def training_accuracy(model, X, labels):
    return sum(1 for i, label in enumerate(labels) if predict(model, X[i]).label == label) / len(labels)


def test_svm_separates_toy_set_with_default_params():
    X, labels = separable_points()
    model = train("linear_svm", X, labels)
    assert model.params == {"iters": 50, "step": 1.0, "reg": 0.01}
    assert training_accuracy(model, X, labels) == 1.0


def test_svm_scores_are_margins_not_probabilities():
    model = train("linear_svm", *separable_points())
    scores = predict(model, csr(8, [[(0, 1)]])).scores
    assert not np.isclose(sum(scores), 1.0)


def test_tree_learns_feature_rule():
    X, labels = three_class_points()
    model = train("decision_tree", X, labels)
    assert model.params == {"max_depth": 30, "min_gain": 0.0075}
    assert training_accuracy(model, X, labels) == 1.0


def test_tree_min_gain_suppression_yields_majority_leaf():
    X = csr(4, [[(0, 1)]] * 6 + [[(1, 1)]] * 4)
    model = train_tree(X, ["A"] * 6 + ["B"] * 4, min_gain=10.0)
    root = model.state["root"]
    assert root["leaf"]
    assert root["dist"] == [0.6, 0.4]
    for row in [[(0, 1)], [(1, 1)], []]:
        assert predict(model, csr(4, [row])).label == "A"


def test_tree_depth_zero_is_a_leaf():
    model = train_tree(*three_class_points(), max_depth=0)
    assert model.state["root"]["leaf"]


def test_tree_threshold_splits_on_counts():
    # identical feature, different counts: only the 1.5 threshold separates
    X, labels = csr(2, [[(0, 1)]] * 5 + [[(0, 2)]] * 5), ["A"] * 5 + ["B"] * 5
    model = train_tree(X, labels)
    root = model.state["root"]
    assert not root["leaf"]
    assert (root["feature"], root["threshold"]) == (0, 1.5)
    assert type(root["feature"]) is int  # stays a JSON int in model.json
    assert training_accuracy(model, X, labels) == 1.0


def test_single_tree_forest_equals_decision_tree():
    X, labels = three_class_points()
    tree = train_tree(X, labels)
    forest = train_forest(X, labels, n_trees=1, feature_fraction=1.0, bootstrap=False, seed=9)
    assert forest.state["trees"][0] == tree.state["root"]
    probes = [X[i] for i in range(X.shape[0])] + [csr(6, [[]])]
    for x in probes:
        assert predict(forest, x).label == predict(tree, x).label


def test_forest_votes_are_fractions():
    model = train_forest(*three_class_points(), n_trees=10, seed=1)
    scores = predict(model, csr(6, [[(0, 1)]])).scores
    assert sum(scores) == pytest.approx(1.0)
    assert all(s * 10 == pytest.approx(round(s * 10)) for s in scores)


def test_forest_deterministic_for_seed():
    X, labels = three_class_points()
    m1 = train_forest(X, labels, n_trees=5, seed=4)
    m2 = train_forest(X, labels, n_trees=5, seed=4)
    assert m1.state["trees"] == m2.state["trees"]


def test_unknown_method_is_fatal():
    with pytest.raises(ValueError, match="unknown"):
        train("kernel_svm", *separable_points())


def test_svm_weights_on_active_columns_equal_dense_reference():
    from regimpute.classify import train_svm

    rng = np.random.default_rng(3)
    dim, classes = 300, ("A", "B", "C")
    labels, rows = [], []
    for _ in range(70):
        labels.append(classes[rng.integers(3)])
        rows.append([(int(i), int(rng.integers(1, 4))) for i in rng.choice(dim, 3, replace=False)])
    X = csr(dim, rows)
    model = train_svm(X, labels, iters=25, step=1.0, reg=0.01, classes=classes)
    # the one-vs-rest subgradient update over the full-dim matrix
    y = np.array([classes.index(label) for label in labels])
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
    columns = sorted({i for r in range(X.shape[0]) for i, _ in pairs(X, r)})
    assert model.state["columns"].tolist() == columns
    assert np.array_equal(model.state["weights"], W[:, columns])
    assert np.array_equal(model.state["bias"], b)
    assert not np.delete(W, columns, axis=1).any()
