"""One-vs-rest linear SVM trained by full-batch subgradient descent.

Comparison-grade baseline. Defaults: 50 iterations, unit step with
1/sqrt(t) decay, regularization 0.01. Like logistic regression it trains
and stores weights for the active hash columns only.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy import sparse

from .model import TrainedModel, active_columns, check_training_data


def train_svm(
    X: sparse.csr_matrix,
    labels: Sequence[str],
    iters: int = 50,
    step: float = 1.0,
    reg: float = 0.01,
    classes: Sequence[str] | None = None,
) -> TrainedModel:
    classes, y = check_training_data(X, labels, classes)
    dim = X.shape[1]
    columns, X = active_columns(X)
    n = X.shape[0]
    k = len(classes)
    # Y[i, c] = +1 for the true class, -1 elsewhere
    Y = -np.ones((n, k))
    Y[np.arange(n), y] = 1.0
    W = np.zeros((k, len(columns)))
    b = np.zeros(k)
    for t in range(1, iters + 1):
        margins = (X @ W.T + b) * Y
        active = (margins < 1.0) * Y  # subgradient mask, signed
        grad_w = reg * W - (active.T @ X) / n
        grad_b = -active.sum(axis=0) / n
        lr = step / np.sqrt(t)
        W -= lr * grad_w
        b -= lr * grad_b
    return TrainedModel(
        method="linear_svm",
        dim=dim,
        classes=classes,
        params={"iters": iters, "step": step, "reg": reg},
        state={"columns": columns, "weights": W, "bias": b},
    )
