"""Multinomial (softmax) logistic regression by full-batch gradient descent.

Loss is mean cross-entropy plus (l2/2)*||W||^2; the bias is not
regularized. Weights start at zero and the step size decays as step/sqrt(t),
so training is deterministic. Training runs on the active hash columns
only: a column no training vector touches gets a zero gradient, so its
weight stays exactly 0 and is not stored. Each iteration is one product
over the whole training matrix, in-process and in row order, so the model
does not depend on any worker count.

Names repeat, so many training rows are equal. The logits and the softmax
read one row each, so they are computed once per distinct row and gathered
back; the gradient's product and sums still run over every row, so the
result is bit for bit that of a softmax over every row. The distinct rows
are found once per training run.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse

from .model import TrainedModel, active_columns, check_training_data, softmax


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


class _Rows(NamedTuple):
    """X as the training loop reads it: the distinct rows, each row's index
    among them, the labels, and X itself."""

    distinct: sparse.csr_matrix
    inverse: np.ndarray
    y: np.ndarray
    X: sparse.csr_matrix


def _rows(X: sparse.csr_matrix, y: np.ndarray) -> _Rows:
    """Rows are equal when their stored indices and values are, in order,
    so a distinct row's logits are bit for bit those of each copy."""
    indptr = X.indptr.tolist()
    indices, data = X.indices.tobytes(), X.data.tobytes()
    isize, dsize = X.indices.itemsize, X.data.itemsize
    # a key's length fixes the row's entry count and so where its indices
    # end; one bytes key per row, and only the first copy's is kept
    first: dict[bytes, int] = {}
    inverse = np.fromiter(
        (
            first.setdefault(indices[s * isize : e * isize] + data[s * dsize : e * dsize], len(first))
            for s, e in zip(indptr, indptr[1:])
        ),
        dtype=np.intp,
        count=X.shape[0],
    )
    _, keep = np.unique(inverse, return_index=True)  # the first copy of each
    return _Rows(X[keep], inverse, y, X)


def _loss(W: np.ndarray, b: np.ndarray, rows: _Rows, l2: float) -> float:
    logp = _log_softmax(rows.distinct @ W.T + b)
    nll = -logp[rows.inverse, rows.y].sum()
    return float(nll / len(rows.inverse) + 0.5 * l2 * (W * W).sum())


def _gradient(W: np.ndarray, b: np.ndarray, rows: _Rows, l2: float) -> tuple[np.ndarray, np.ndarray]:
    """Softmax once per distinct row, gathered back to every row; the
    product and sums then run over all rows."""
    probs = softmax(rows.distinct @ W.T + b).take(rows.inverse, axis=0)
    n = len(probs)
    probs[np.arange(n), rows.y] -= 1.0
    return probs.T @ rows.X / n + l2 * W, probs.sum(axis=0) / n


def lr_loss(W: np.ndarray, b: np.ndarray, X: sparse.csr_matrix, y: np.ndarray, l2: float) -> float:
    """Regularized mean cross-entropy at parameters (W, b)."""
    return _loss(W, b, _rows(X, y), l2)


def lr_gradient(
    W: np.ndarray, b: np.ndarray, X: sparse.csr_matrix, y: np.ndarray, l2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of lr_loss w.r.t. (W, b)."""
    return _gradient(W, b, _rows(X, y), l2)


def train_lr(
    X: sparse.csr_matrix,
    labels: Sequence[str],
    iters: int = 100,
    step: float = 1.0,
    l2: float = 0.01,
    classes: Sequence[str] | None = None,
) -> TrainedModel:
    """Run gradient descent from zero weights; fatal on non-finite loss."""
    classes, y = check_training_data(X, labels, classes)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if step <= 0:
        raise ValueError("step must be > 0")
    if l2 < 0:
        raise ValueError("l2 must be >= 0")
    columns, active = active_columns(X)
    rows = _rows(active, y)
    W = np.zeros((len(classes), len(columns)))
    b = np.zeros(len(classes))
    for t in range(1, iters + 1):
        grad_w, grad_b = _gradient(W, b, rows, l2)
        lr = step / np.sqrt(t)
        W -= lr * grad_w
        b -= lr * grad_b
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError(f"non-finite parameters at iteration {t}")
    loss = _loss(W, b, rows, l2)
    if not np.isfinite(loss):
        raise ValueError(f"non-finite loss after iteration {iters}")
    return TrainedModel(
        method="logistic_regression",
        dim=X.shape[1],
        classes=classes,
        params={"iters": iters, "step": step, "l2": l2},
        state={"columns": columns, "weights": W, "bias": b},
    )
