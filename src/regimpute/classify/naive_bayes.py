"""Multinomial Naive Bayes on sparse count vectors.

Sufficient statistics are integer count tables, so partial statistics
computed over data partitions merge by plain addition: the merged result
is bit-identical to single-pass counting regardless of partitioning or
merge order. That property is what makes the data-parallel training path
exact rather than approximate. train_nb counts one partition per worker,
each in a forked process when workers > 1; it is the package's only
training path that forks.

Smoothing uses a single Laplace constant alpha for both the feature
likelihoods, log((count(c,j)+alpha)/(total_c+alpha*dim)), and the class
prior, (n_c+alpha)/(n+alpha*K); the smoothed prior keeps empty classes
finite and the prior vector normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..parallel import map_partitions, split
from ..vectorizer import LabeledPoint
from .model import TrainedModel, check_training_data, infer_classes


@dataclass(frozen=True)
class NBStats:
    """Per-class document counts and feature count table (integers)."""

    doc_counts: np.ndarray  # (K,) int64
    word_counts: np.ndarray  # (K, dim) int64

    def merge(self, other: "NBStats") -> "NBStats":
        return NBStats(self.doc_counts + other.doc_counts, self.word_counts + other.word_counts)


def partial_stats(points: Sequence[LabeledPoint], classes: Sequence[str], dim: int) -> NBStats:
    index = {c: k for k, c in enumerate(classes)}
    doc = [0] * len(classes)
    word = [[0] * dim for _ in classes]
    for p in points:
        k = index[p.label]
        doc[k] += 1
        row = word[k]
        for i, c in p.vector.entries:
            row[i] += c
    return NBStats(np.asarray(doc, dtype=np.int64), np.asarray(word, dtype=np.int64))


def merge_stats(parts: Sequence[NBStats]) -> NBStats:
    merged = parts[0]
    for p in parts[1:]:
        merged = merged.merge(p)
    return merged


def train_nb(
    data: Sequence[LabeledPoint],
    alpha: float = 1.0,
    workers: int = 1,
    classes: Sequence[str] | None = None,
) -> TrainedModel:
    """Fit multinomial NB on one partition per worker, counted in forked
    processes when workers > 1."""
    dim = check_training_data(data)
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    classes = tuple(classes) if classes is not None else infer_classes(data)
    partitions = split(data, workers)
    stats = merge_stats(map_partitions(partitions, lambda p: partial_stats(p, classes, dim), workers))

    n = int(stats.doc_counts.sum())
    k = len(classes)
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
