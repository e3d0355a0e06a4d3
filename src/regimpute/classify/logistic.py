"""Multinomial (softmax) logistic regression by full-batch gradient descent.

Loss is mean cross-entropy plus (l2/2)*||W||^2; the bias is not
regularized. Weights start at zero and the step size decays as step/sqrt(t),
so training is deterministic. Training runs on the active hash columns
only: a column no training vector touches gets a zero gradient, so its
weight stays exactly 0 and is not stored. Gradients are accumulated over data
partitions and summed in fixed partition order: partitioning changes
nothing semantically and keeps floating-point results reproducible for a
given partition count. Partitions are evaluated in-process; shipping
K x columns gradients between processes every iteration would cost more than
the matrix work saves at the scales this library targets.

Names repeat, so many training rows are equal. The logits and the softmax
read one row each, so they are computed once per distinct row and gathered
back; the gradient's products and sums still run over every row in block
order and add the same terms in the same order, so the result is bit for
bit that of a softmax over every row. The distinct rows and the blocks are
found once per training run.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np
from scipy import sparse

from ..parallel import split
from ..vectorizer import LabeledPoint
from .model import TrainedModel, check_training_data, infer_classes, pack_active, softmax


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


class _Rows(NamedTuple):
    """X as the training loop reads it: the distinct rows, each row's index
    among them, the labels, and the contiguous (X block, inverse block,
    y block) triples in row order."""

    distinct: sparse.csr_matrix
    inverse: np.ndarray
    y: np.ndarray
    blocks: list[tuple[sparse.csr_matrix, np.ndarray, np.ndarray]]


def _rows(X: sparse.csr_matrix, y: np.ndarray, parts: int = 1) -> _Rows:
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
    blocks = []
    start = 0
    for block in split(range(X.shape[0]), parts):
        stop = start + len(block)
        blocks.append((X[start:stop], inverse[start:stop], y[start:stop]))
        start = stop
    return _Rows(X[keep], inverse, y, blocks)


def _loss(W: np.ndarray, b: np.ndarray, rows: _Rows, l2: float) -> float:
    logp = _log_softmax(rows.distinct @ W.T + b)
    nll = -logp[rows.inverse, rows.y].sum()
    return float(nll / len(rows.inverse) + 0.5 * l2 * (W * W).sum())


def _gradient(W: np.ndarray, b: np.ndarray, rows: _Rows, l2: float) -> tuple[np.ndarray, np.ndarray]:
    """Softmax once per distinct row, gathered back to every row; the
    products and sums then run over all rows in block order."""
    probs_distinct = softmax(rows.distinct @ W.T + b)
    grad_w = np.zeros_like(W)
    grad_b = np.zeros(W.shape[0])
    for Xb, inverse, yb in rows.blocks:
        probs = probs_distinct.take(inverse, axis=0)
        probs[np.arange(len(inverse)), yb] -= 1.0
        grad_w += probs.T @ Xb
        grad_b += probs.sum(axis=0)
    n = len(rows.inverse)
    return grad_w / n + l2 * W, grad_b / n


def lr_loss(W: np.ndarray, b: np.ndarray, X: sparse.csr_matrix, y: np.ndarray, l2: float) -> float:
    """Regularized mean cross-entropy at parameters (W, b)."""
    return _loss(W, b, _rows(X, y), l2)


def lr_gradient(
    W: np.ndarray,
    b: np.ndarray,
    X: sparse.csr_matrix,
    y: np.ndarray,
    l2: float,
    parts: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradient of lr_loss w.r.t. (W, b).

    With parts > 1 the unnormalized gradient is computed per block and
    summed in block order before dividing by n."""
    return _gradient(W, b, _rows(X, y, parts), l2)


def train_lr(
    data: Sequence[LabeledPoint],
    iters: int = 100,
    step: float = 1.0,
    l2: float = 0.01,
    workers: int = 1,
    parts: int | None = None,
    classes: Sequence[str] | None = None,
) -> TrainedModel:
    """Run gradient descent from zero weights; fatal on non-finite loss."""
    dim = check_training_data(data)
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if step <= 0:
        raise ValueError("step must be > 0")
    if l2 < 0:
        raise ValueError("l2 must be >= 0")
    classes = tuple(classes) if classes is not None else infer_classes(data)
    parts = parts if parts is not None else max(workers, 1)
    columns, X, y = pack_active(data, dim, classes)
    rows = _rows(X, y, parts)
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
        dim=dim,
        classes=classes,
        params={"iters": iters, "step": step, "l2": l2},
        state={"columns": columns, "weights": W, "bias": b},
    )
