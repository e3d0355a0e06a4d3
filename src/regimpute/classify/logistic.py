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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from ..parallel import split
from ..vectorizer import LabeledPoint
from .model import TrainedModel, check_training_data, infer_classes, pack_active, softmax


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _blocks(X: sparse.csr_matrix, y: np.ndarray, parts: int):
    bounds = [len(b) for b in split(range(X.shape[0]), parts)]
    out = []
    start = 0
    for size in bounds:
        out.append((X[start : start + size], y[start : start + size]))
        start += size
    return out


def lr_loss(W: np.ndarray, b: np.ndarray, X: sparse.csr_matrix, y: np.ndarray, l2: float) -> float:
    """Regularized mean cross-entropy at parameters (W, b)."""
    logp = _log_softmax(X @ W.T + b)
    nll = -logp[np.arange(X.shape[0]), y].sum()
    return float(nll / X.shape[0] + 0.5 * l2 * (W * W).sum())


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
    n, _ = X.shape
    k = W.shape[0]
    grad_w = np.zeros_like(W)
    grad_b = np.zeros(k)
    for Xb, yb in _blocks(X, y, parts):
        probs = softmax(Xb @ W.T + b)
        probs[np.arange(Xb.shape[0]), yb] -= 1.0
        grad_w += probs.T @ Xb
        grad_b += probs.sum(axis=0)
    return grad_w / n + l2 * W, grad_b / n


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
    W = np.zeros((len(classes), len(columns)))
    b = np.zeros(len(classes))
    for t in range(1, iters + 1):
        grad_w, grad_b = lr_gradient(W, b, X, y, l2, parts=parts)
        lr = step / np.sqrt(t)
        W -= lr * grad_w
        b -= lr * grad_b
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError(f"non-finite parameters at iteration {t}")
    loss = lr_loss(W, b, X, y, l2)
    if not np.isfinite(loss):
        raise ValueError(f"non-finite loss after iteration {iters}")
    return TrainedModel(
        method="logistic_regression",
        dim=dim,
        classes=classes,
        params={"iters": iters, "step": step, "l2": l2},
        state={"columns": columns, "weights": W, "bias": b},
    )
