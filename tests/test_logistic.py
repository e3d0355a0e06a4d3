from __future__ import annotations

import numpy as np
import pytest

from regimpute.classify import lr_gradient, lr_loss, predict, train_lr
from regimpute.classify.model import pack_points, to_csr
from regimpute.vectorizer import LabeledPoint, SparseVector


def sv(dim, *pairs):
    return SparseVector(dim, tuple(sorted(pairs)))


def random_dataset(rng, n=30, dim=12, k=3):
    classes = tuple("ABC"[:k])
    points = []
    for _ in range(n):
        label = classes[rng.integers(k)]
        n_entries = rng.integers(1, 4)
        idx = rng.choice(dim, size=n_entries, replace=False)
        points.append(LabeledPoint(label, sv(dim, *((int(i), int(rng.integers(1, 4))) for i in idx))))
    return classes, points


def fd_gradient(W, b, X, y, l2, h=1e-6):
    """Central finite differences of lr_loss, coordinate by coordinate."""
    gw = np.zeros_like(W)
    gb = np.zeros_like(b)
    for pos in np.ndindex(W.shape):
        Wp, Wm = W.copy(), W.copy()
        Wp[pos] += h
        Wm[pos] -= h
        gw[pos] = (lr_loss(Wp, b, X, y, l2) - lr_loss(Wm, b, X, y, l2)) / (2 * h)
    for j in range(b.shape[0]):
        bp, bm = b.copy(), b.copy()
        bp[j] += h
        bm[j] -= h
        gb[j] = (lr_loss(W, bp, X, y, l2) - lr_loss(W, bm, X, y, l2)) / (2 * h)
    return gw, gb


def relative_error(a, b):
    num = np.linalg.norm(a - b)
    den = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return num / den


def test_gradient_matches_finite_differences_at_random_parameter_points():
    rng = np.random.default_rng(42)
    classes, points = random_dataset(rng)
    X, y = pack_points(points, 12, classes)
    for trial in range(20):
        W = rng.normal(scale=0.8, size=(3, 12))
        b = rng.normal(scale=0.5, size=3)
        l2 = float(rng.choice([0.0, 0.01, 0.1]))
        gw, gb = lr_gradient(W, b, X, y, l2)
        fw, fb = fd_gradient(W, b, X, y, l2)
        grad = np.concatenate([gw.ravel(), gb])
        fd = np.concatenate([fw.ravel(), fb])
        assert relative_error(grad, fd) < 1e-5, f"trial {trial}"


def test_partitioned_gradient_is_reproducible_and_consistent():
    rng = np.random.default_rng(7)
    classes, points = random_dataset(rng, n=60)
    X, y = pack_points(points, 12, classes)
    W = rng.normal(size=(3, 12))
    b = rng.normal(size=3)
    g1w, g1b = lr_gradient(W, b, X, y, 0.01, parts=1)
    g3w, g3b = lr_gradient(W, b, X, y, 0.01, parts=3)
    g3w_again, g3b_again = lr_gradient(W, b, X, y, 0.01, parts=3)
    # fixed merge order: identical run to run
    assert np.array_equal(g3w, g3w_again) and np.array_equal(g3b, g3b_again)
    # different partitionings agree up to float reassociation
    assert np.allclose(g1w, g3w, atol=1e-12) and np.allclose(g1b, g3b, atol=1e-12)


def separable_points():
    # class A lives on features {0,1}, B on {4,5}: linearly separable
    points = []
    for i in range(10):
        points.append(LabeledPoint("A", sv(8, (i % 2, 1), (2, 1))))
        points.append(LabeledPoint("B", sv(8, (4 + i % 2, 1), (2, 1))))
    return points


def test_separable_set_reaches_full_training_accuracy():
    points = separable_points()
    model = train_lr(points, iters=200, step=1.0, l2=0.0)
    hits = sum(1 for p in points if predict(model, p.vector).label == p.label)
    assert hits == len(points)


def test_single_point_probability_approaches_one():
    point = LabeledPoint("A", sv(4, (0, 2)))
    other = LabeledPoint("B", sv(4, (1, 2)))
    probs = []
    for iters in (5, 50, 500):
        model = train_lr([point, other], iters=iters, step=1.0, l2=0.0)
        probs.append(predict(model, point.vector).scores[0])
    assert probs[0] < probs[1] < probs[2]
    assert probs[2] > 0.99


def test_zero_weights_give_uniform_scores_and_first_class():
    points = separable_points()
    model = train_lr(points, iters=1, step=1e-12)  # effectively zero weights
    model.state["weights"][:] = 0.0
    model.state["bias"][:] = 0.0
    got = predict(model, sv(8, (0, 1)))
    assert got.label == "A"
    assert np.allclose(got.scores, 0.5)
    assert sum(got.scores) == pytest.approx(1.0, abs=1e-9)


def test_training_is_deterministic():
    points = separable_points()
    m1 = train_lr(points, iters=40)
    m2 = train_lr(points, iters=40)
    assert np.array_equal(m1.state["weights"], m2.state["weights"])
    assert np.array_equal(m1.state["bias"], m2.state["bias"])


def test_parameter_validation():
    points = separable_points()
    with pytest.raises(ValueError):
        train_lr(points, iters=0)
    with pytest.raises(ValueError):
        train_lr(points, step=0.0)
    with pytest.raises(ValueError):
        train_lr(points, l2=-1.0)
    with pytest.raises(ValueError, match="empty"):
        train_lr([])


def test_to_csr_materializes_counts():
    X = to_csr([sv(5, (0, 2), (3, 1)), SparseVector(5, ())], 5)
    dense = X.toarray()
    assert dense.shape == (2, 5)
    assert dense[0].tolist() == [2.0, 0.0, 0.0, 1.0, 0.0]
    assert dense[1].tolist() == [0.0] * 5


def dense_reference(points, classes, dim, iters, step, l2, parts):
    """Gradient descent over the full-dim matrix, as train_lr once ran it."""
    X, y = pack_points(points, dim, classes)
    W = np.zeros((len(classes), dim))
    b = np.zeros(len(classes))
    for t in range(1, iters + 1):
        gw, gb = lr_gradient(W, b, X, y, l2, parts=parts)
        lr = step / np.sqrt(t)
        W -= lr * gw
        b -= lr * gb
    return W, b


@pytest.mark.parametrize("parts", [1, 3])
def test_weights_on_active_columns_equal_dense_reference(parts):
    rng = np.random.default_rng(11)
    classes, points = random_dataset(rng, n=80, dim=400, k=3)
    model = train_lr(points, iters=30, step=1.0, l2=0.05, parts=parts)
    W, b = dense_reference(points, classes, 400, 30, 1.0, 0.05, parts)
    columns = sorted({i for p in points for i, _ in p.vector.entries})
    assert model.state["columns"].tolist() == columns
    assert np.array_equal(model.state["weights"], W[:, columns])
    assert np.array_equal(model.state["bias"], b)
    assert not np.delete(W, columns, axis=1).any()  # what the model leaves out is 0
