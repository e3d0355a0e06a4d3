"""Decision tree and bagged random forest on the hashed count matrix.

Comparison-grade baselines. Splits are greedy entropy-gain tests of the
form count(feature) > threshold with thresholds restricted to 0.5/1.5/2.5
(counts are small integers). Growing a tree reads each row's (column,
count) pairs from the matrix once, as Python ints, so split features stay
plain ints in the model. Defaults: depth limit 30, minimum gain 0.0075,
100 trees.
"""

from __future__ import annotations

import math
import random
from typing import Sequence

import numpy as np
from scipy import sparse

from ..vectorizer import row_entries
from .model import TrainedModel, check_training_data

THRESHOLDS = (0.5, 1.5, 2.5)


def _entropy(counts: np.ndarray, total: int) -> float:
    if total == 0:
        return 0.0
    h = 0.0
    for c in counts:
        if c:
            p = c / total
            h -= p * math.log2(p)
    return h


def _leaf(class_counts: np.ndarray, total: int) -> dict:
    return {"leaf": True, "dist": [c / total for c in class_counts]}


def _best_split(indices, labels, feats, k, allowed):
    """(gain, feature, threshold) of the best candidate split, or None.

    Ties break toward the smaller feature index, then smaller threshold."""
    n = len(indices)
    class_counts = np.bincount(labels[indices], minlength=k)
    parent_h = _entropy(class_counts, n)
    if parent_h == 0.0:
        return None, class_counts

    # hist[j][t_idx] = per-class count of points with feature j > THRESHOLDS[t_idx]
    hist: dict[int, np.ndarray] = {}
    for idx in indices:
        y = labels[idx]
        for j, c in feats[idx]:
            if allowed is not None and j not in allowed:
                continue
            row = hist.get(j)
            if row is None:
                row = np.zeros((len(THRESHOLDS), k), dtype=np.int64)
                hist[j] = row
            row[0, y] += 1  # c >= 1 always holds for stored entries
            if c >= 2:
                row[1, y] += 1
            if c >= 3:
                row[2, y] += 1

    best = None
    for j in sorted(hist):
        row = hist[j]
        for t_idx, threshold in enumerate(THRESHOLDS):
            right = row[t_idx]
            n_right = int(right.sum())
            if n_right == 0 or n_right == n:
                continue
            left = class_counts - right
            n_left = n - n_right
            gain = parent_h - (n_left / n) * _entropy(left, n_left) - (n_right / n) * _entropy(right, n_right)
            if best is None or gain > best[0]:
                best = (gain, j, threshold)
    return best, class_counts


def _grow(indices, labels, feats, k, depth, max_depth, min_gain, allowed, value_of):
    n = len(indices)
    split, class_counts = _best_split(indices, labels, feats, k, allowed)
    if depth >= max_depth or split is None or split[0] < min_gain:
        return _leaf(class_counts, n)
    _, j, threshold = split
    left_idx, right_idx = [], []
    for idx in indices:
        (right_idx if value_of(idx, j) > threshold else left_idx).append(idx)
    return {
        "leaf": False,
        "feature": j,
        "threshold": threshold,
        "left": _grow(left_idx, labels, feats, k, depth + 1, max_depth, min_gain, allowed, value_of),
        "right": _grow(right_idx, labels, feats, k, depth + 1, max_depth, min_gain, allowed, value_of),
    }


def _prepare(X: sparse.csr_matrix, labels: Sequence[str], classes):
    classes, y = check_training_data(X, labels, classes)
    feats = row_entries(X)
    lookup = [dict(e) for e in feats]

    def value_of(idx: int, j: int) -> int:
        return lookup[idx].get(j, 0)

    return classes, y, feats, value_of


def train_tree(
    X: sparse.csr_matrix,
    labels: Sequence[str],
    max_depth: int = 30,
    min_gain: float = 0.0075,
    classes: Sequence[str] | None = None,
) -> TrainedModel:
    classes, y, feats, value_of = _prepare(X, labels, classes)
    root = _grow(list(range(X.shape[0])), y, feats, len(classes), 0, max_depth, min_gain, None, value_of)
    return TrainedModel(
        method="decision_tree",
        dim=X.shape[1],
        classes=classes,
        params={"max_depth": max_depth, "min_gain": min_gain},
        state={"root": root},
    )


def train_forest(
    X: sparse.csr_matrix,
    labels: Sequence[str],
    n_trees: int = 100,
    max_depth: int = 30,
    min_gain: float = 0.0075,
    feature_fraction: float | None = None,
    bootstrap: bool = True,
    seed: int = 0,
    classes: Sequence[str] | None = None,
) -> TrainedModel:
    """Bagged trees; feature_fraction=None samples sqrt(dim) features per tree."""
    classes, y, feats, value_of = _prepare(X, labels, classes)
    n, dim = X.shape
    if feature_fraction is None:
        n_features = max(1, int(round(math.sqrt(dim))))
    else:
        n_features = max(1, int(round(feature_fraction * dim)))
    trees = []
    for t in range(n_trees):
        rng = random.Random(seed * 1_000_003 + t)
        indices = [rng.randrange(n) for _ in range(n)] if bootstrap else list(range(n))
        allowed = None if n_features >= dim else frozenset(rng.sample(range(dim), n_features))
        trees.append(_grow(indices, y, feats, len(classes), 0, max_depth, min_gain, allowed, value_of))
    return TrainedModel(
        method="random_forest",
        dim=dim,
        classes=classes,
        params={
            "n_trees": n_trees,
            "max_depth": max_depth,
            "min_gain": min_gain,
            "feature_fraction": feature_fraction,
            "bootstrap": bootstrap,
            "seed": seed,
        },
        state={"trees": trees},
    )
