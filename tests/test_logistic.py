from __future__ import annotations

import numpy as np
import pytest

from matrices import csr, pairs
from regimpute import classify
from regimpute.classify import lr_gradient, lr_loss, predict, train_lr
from regimpute.vectorizer import count_rows


def label_indices(classes, labels):
    return np.array([classes.index(label) for label in labels], dtype=np.int64)


def random_dataset(rng, n=30, dim=12, k=3):
    """(classes, X, labels) of n random rows with 1-3 entries each."""
    classes = tuple("ABC"[:k])
    labels, rows = [], []
    for _ in range(n):
        labels.append(classes[rng.integers(k)])
        n_entries = rng.integers(1, 4)
        idx = rng.choice(dim, size=n_entries, replace=False)
        rows.append([(int(i), int(rng.integers(1, 4))) for i in idx])
    return classes, csr(dim, rows), labels


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
    classes, X, labels = random_dataset(rng)
    y = label_indices(classes, labels)
    for trial in range(20):
        W = rng.normal(scale=0.8, size=(3, 12))
        b = rng.normal(scale=0.5, size=3)
        l2 = float(rng.choice([0.0, 0.01, 0.1]))
        gw, gb = lr_gradient(W, b, X, y, l2)
        fw, fb = fd_gradient(W, b, X, y, l2)
        grad = np.concatenate([gw.ravel(), gb])
        fd = np.concatenate([fw.ravel(), fb])
        assert relative_error(grad, fd) < 1e-5, f"trial {trial}"


def separable_points():
    """(X, labels): class A lives on features {0,1}, B on {4,5}, so the set
    is linearly separable."""
    rows, labels = [], []
    for i in range(10):
        rows += [[(i % 2, 1), (2, 1)], [(4 + i % 2, 1), (2, 1)]]
        labels += ["A", "B"]
    return csr(8, rows), labels


def test_separable_set_reaches_full_training_accuracy():
    X, labels = separable_points()
    model = train_lr(X, labels, iters=200, step=1.0, l2=0.0)
    hits = sum(1 for i, label in enumerate(labels) if predict(model, X[i]).label == label)
    assert hits == len(labels)


def test_single_point_probability_approaches_one():
    X = csr(4, [[(0, 2)], [(1, 2)]])
    probs = []
    for iters in (5, 50, 500):
        model = train_lr(X, ["A", "B"], iters=iters, step=1.0, l2=0.0)
        probs.append(predict(model, X[0]).scores[0])
    assert probs[0] < probs[1] < probs[2]
    assert probs[2] > 0.99


def test_zero_weights_give_uniform_scores_and_first_class():
    model = train_lr(*separable_points(), iters=1, step=1e-12)  # effectively zero weights
    model.state["weights"][:] = 0.0
    model.state["bias"][:] = 0.0
    got = predict(model, csr(8, [[(0, 1)]]))
    assert got.label == "A"
    assert np.allclose(got.scores, 0.5)
    assert sum(got.scores) == pytest.approx(1.0, abs=1e-9)


def test_training_is_deterministic():
    X, labels = separable_points()
    m1 = train_lr(X, labels, iters=40)
    m2 = train_lr(X, labels, iters=40)
    assert np.array_equal(m1.state["weights"], m2.state["weights"])
    assert np.array_equal(m1.state["bias"], m2.state["bias"])


def test_workers_do_not_change_the_model():
    # LR trains on one matrix in-process; the dispatcher's workers fork NB only
    rng = np.random.default_rng(13)
    _, X, labels = random_dataset(rng, n=90, dim=50)
    one = classify.train("logistic_regression", X, labels, {"iters": 30}, workers=1)
    two = classify.train("logistic_regression", X, labels, {"iters": 30}, workers=2)
    assert one.state.keys() == two.state.keys()
    for key in one.state:
        assert np.array_equal(one.state[key], two.state[key]), key


def test_parameter_validation():
    X, labels = separable_points()
    with pytest.raises(ValueError):
        train_lr(X, labels, iters=0)
    with pytest.raises(ValueError):
        train_lr(X, labels, step=0.0)
    with pytest.raises(ValueError):
        train_lr(X, labels, l2=-1.0)
    with pytest.raises(ValueError, match="empty"):
        train_lr(csr(8, []), [])


def test_to_csr_materializes_counts():
    X = count_rows([[0, 3, 0], []], 5)
    dense = X.toarray()
    assert dense.shape == (2, 5)
    assert dense[0].tolist() == [2.0, 0.0, 0.0, 1.0, 0.0]
    assert dense[1].tolist() == [0.0] * 5


def dense_reference(X, labels, classes, iters, step, l2):
    """Gradient descent over the full-dim matrix, as train_lr once ran it."""
    y = label_indices(classes, labels)
    dim = X.shape[1]
    W = np.zeros((len(classes), dim))
    b = np.zeros(len(classes))
    for t in range(1, iters + 1):
        gw, gb = lr_gradient(W, b, X, y, l2)
        lr = step / np.sqrt(t)
        W -= lr * gw
        b -= lr * gb
    return W, b


@pytest.mark.parametrize("workers", [1, 3])
def test_weights_on_active_columns_equal_dense_reference(workers):
    rng = np.random.default_rng(11)
    classes, X, labels = random_dataset(rng, n=80, dim=400, k=3)
    params = {"iters": 30, "step": 1.0, "l2": 0.05}
    model = classify.train("logistic_regression", X, labels, params, workers=workers)
    W, b = dense_reference(X, labels, classes, 30, 1.0, 0.05)
    columns = sorted({i for r in range(X.shape[0]) for i, _ in pairs(X, r)})
    assert model.state["columns"].tolist() == columns
    assert np.array_equal(model.state["weights"], W[:, columns])
    assert np.array_equal(model.state["bias"], b)
    assert not np.delete(W, columns, axis=1).any()  # what the model leaves out is 0


def repeated_rows_dataset(rng, n=150, pool=12, dim=40, k=4):
    """(classes, rows, labels): n rows of (column, count) pairs drawn from a
    pool of few, so most rows repeat, each copy with its own random label.
    The pool holds pairs of rows on the same columns with different counts."""
    classes = tuple("ABCD"[:k])
    vectors = []
    for _ in range(pool // 2):
        idx = rng.choice(dim, size=int(rng.integers(1, 5)), replace=False)
        counts = rng.integers(1, 4, size=len(idx))
        for twin in (0, 1):
            vectors.append(tuple(sorted((int(i), int(c) + twin) for i, c in zip(idx, counts))))
    labels, rows = [], []
    for _ in range(n):
        labels.append(classes[rng.integers(k)])
        rows.append(vectors[rng.integers(pool)])
    return classes, rows, labels


def all_rows_gradient(W, b, X, y, l2):
    """lr_gradient with the softmax taken on every row."""
    z = X @ W.T + b
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    probs = e / e.sum(axis=1, keepdims=True)
    probs[np.arange(X.shape[0]), y] -= 1.0
    return probs.T @ X / X.shape[0] + l2 * W, probs.sum(axis=0) / X.shape[0]


def all_rows_loss(W, b, X, y, l2):
    z = X @ W.T + b
    z = z - z.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-logp[np.arange(X.shape[0]), y].sum() / X.shape[0] + 0.5 * l2 * (W * W).sum())


@pytest.mark.parametrize("workers", [1, 3])
def test_training_on_repeated_rows_equals_softmax_on_every_row(workers):
    rng = np.random.default_rng(5)
    classes, rows, labels = repeated_rows_dataset(rng)
    X, y = csr(40, rows), label_indices(classes, labels)
    assert len(set(rows)) <= 12 < X.shape[0]
    W = np.zeros((len(classes), 40))
    b = np.zeros(len(classes))
    for t in range(1, 41):
        gw, gb = all_rows_gradient(W, b, X, y, 0.02)
        W -= (1.0 / np.sqrt(t)) * gw
        b -= (1.0 / np.sqrt(t)) * gb
    params = {"iters": 40, "step": 1.0, "l2": 0.02}
    model = classify.train("logistic_regression", X, labels, params, workers=workers)
    columns = model.state["columns"]
    assert np.array_equal(model.state["weights"], W[:, columns])
    assert np.array_equal(model.state["bias"], b)


@pytest.mark.parametrize("copies", [1, 3])
def test_loss_and_gradient_equal_their_every_row_forms(copies):
    # copies > 1 repeats the whole set, so every distinct row stands for
    # at least `copies` rows
    rng = np.random.default_rng(9)
    classes, rows, labels = repeated_rows_dataset(rng)
    X, y = csr(40, rows * copies), label_indices(classes, labels * copies)
    for _ in range(5):
        W = rng.normal(scale=0.8, size=(len(classes), 40))
        b = rng.normal(scale=0.5, size=len(classes))
        gw, gb = lr_gradient(W, b, X, y, 0.01)
        rw, rb = all_rows_gradient(W, b, X, y, 0.01)
        assert np.array_equal(gw, rw) and np.array_equal(gb, rb)
        assert lr_loss(W, b, X, y, 0.01) == all_rows_loss(W, b, X, y, 0.01)
