"""Multinomial Naive Bayes on the hashed count matrix.

Sufficient statistics are integer count tables, so partial statistics
computed over data partitions merge by plain addition: the merged result
is bit-identical to single-pass counting regardless of partitioning or
merge order. That property is what makes the data-parallel training path
exact rather than approximate. A partition's table is one sparse product
of its class one-hot matrix with its rows of X; every sum in it is a sum
of integer counts below 2**53, so the float64 product is exact and casts
to int64 without loss. train_nb counts one contiguous row range per
worker, each in a forked process when workers > 1; it is the package's
only training path that forks.

Smoothing uses a single Laplace constant alpha for both the feature
likelihoods, log((count(c,j)+alpha)/(total_c+alpha*dim)), and the class
prior, (n_c+alpha)/(n+alpha*K); the smoothed prior keeps empty classes
finite and the prior vector normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import sparse

from ..parallel import map_partitions, split
from .model import TrainedModel, check_training_data


@dataclass(frozen=True)
class NBStats:
    """Per-class document counts and feature count table (integers)."""

    doc_counts: np.ndarray  # (K,) int64
    word_counts: np.ndarray  # (K, dim) int64

    def merge(self, other: "NBStats") -> "NBStats":
        return NBStats(self.doc_counts + other.doc_counts, self.word_counts + other.word_counts)


def partial_stats(X: sparse.csr_matrix, y: np.ndarray, n_classes: int, rows: range) -> NBStats:
    """Counts over the rows of X in `rows`: rows per class, and per class
    the summed counts of each column. The one-hot matrix spans every row
    of X but has entries only in `rows`, so the product reads those rows
    of X without copying them."""
    part = y[rows.start : rows.stop]
    onehot = sparse.csr_matrix(
        (np.ones(len(part)), (part, np.arange(rows.start, rows.stop))), shape=(n_classes, X.shape[0])
    )
    return NBStats(np.bincount(part, minlength=n_classes), (onehot @ X).toarray().astype(np.int64))


def merge_stats(parts: Sequence[NBStats]) -> NBStats:
    merged = parts[0]
    for p in parts[1:]:
        merged = merged.merge(p)
    return merged


def train_nb(
    X: sparse.csr_matrix,
    labels: Sequence[str],
    alpha: float = 1.0,
    workers: int = 1,
    classes: Sequence[str] | None = None,
) -> TrainedModel:
    """Fit multinomial NB on one row range per worker, counted in forked
    processes when workers > 1."""
    classes, y = check_training_data(X, labels, classes)
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    k, dim = len(classes), X.shape[1]
    parts = split(range(X.shape[0]), workers)
    stats = merge_stats(map_partitions(parts, lambda rows: partial_stats(X, y, k, rows), workers))
    n = int(stats.doc_counts.sum())
    log_prior = np.log((stats.doc_counts + alpha) / (n + alpha * k))
    totals = stats.word_counts.sum(axis=1, keepdims=True)
    log_likelihood = np.log((stats.word_counts + alpha) / (totals + alpha * dim))
    return TrainedModel(
        method="naive_bayes",
        dim=dim,
        classes=classes,
        params={"alpha": alpha},
        state={
            "log_prior": log_prior,
            "log_likelihood": log_likelihood,
            "class_counts": stats.doc_counts,
        },
    )
