"""Cross-validation, per-class accuracy, and scalability measurement.

Accuracy is micro accuracy (confusion-matrix trace over total) and the
per-class figure is recall. Wall-times wrap the train/predict calls only,
on the monotonic clock; optional allocation peaks come from tracemalloc
and include the allocations of Naive Bayes' counting threads. The
speed-up ratio at w workers is time(1 worker) / time(w workers). Only
Naive Bayes splits its training across workers (one thread per row
range); the other methods train on one thread, so their curve is flat by
construction.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import classify
from .records import GroundTruth, write_tsv


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: tuple[int, ...]  # record index -> fold id
    seed: int


def kfold(n: int, k: int, seed: int) -> FoldPlan:
    """Seeded shuffle, then round-robin assignment; sizes differ by <= 1."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError(f"cannot split {n} records into {k} folds")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    assignments = [0] * n
    for position, index in enumerate(order):
        assignments[index] = position % k
    return FoldPlan(k, tuple(assignments), seed)


@dataclass
class EvalReport:
    classes: tuple[str, ...]
    confusion: np.ndarray  # (K, K) int64; rows = true class
    train_seconds: float  # mean per fold
    predict_seconds: float
    partitions: int
    alloc_peak_bytes: int | None = None

    @property
    def total(self) -> int:
        return int(self.confusion.sum())

    @property
    def overall_accuracy(self) -> float:
        total = self.total
        return float(np.trace(self.confusion) / total) if total else 0.0

    def per_class_accuracy(self) -> dict[str, float]:
        """Recall per class; classes absent from the test data report 0."""
        out = {}
        for i, cls in enumerate(self.classes):
            row = self.confusion[i].sum()
            out[cls] = float(self.confusion[i, i] / row) if row else 0.0
        return out

    def write(self, directory: str | Path) -> None:
        directory = Path(directory)
        write_tsv(directory / "eval_summary.tsv", ("metric", "value"), (
            ("overall_accuracy", repr(self.overall_accuracy)),
            ("test_total", str(self.total)),
            ("partitions", str(self.partitions)),
        ))
        per_class = self.per_class_accuracy()
        write_tsv(directory / "eval_per_class.tsv", ("class", "test_count", "accuracy"), (
            (cls, str(int(self.confusion[i].sum())), repr(per_class[cls]))
            for i, cls in enumerate(self.classes)
        ))
        write_tsv(directory / "eval_confusion.tsv", ("true\\pred", *self.classes), (
            (cls, *(str(int(v)) for v in self.confusion[i])) for i, cls in enumerate(self.classes)
        ))


def cross_validate(
    method: str,
    X,
    labels: Sequence[str],
    plan: FoldPlan,
    params: dict | None = None,
    workers: int = 1,
    measure_alloc: bool = False,
) -> EvalReport:
    """Train/test once per fold on X's rows and pool the confusion counts."""
    if len(plan.assignments) != len(labels):
        raise ValueError("fold plan does not cover the data")
    classes, y = classify.model.check_training_data(X, labels)
    folds = np.asarray(plan.assignments)
    confusion = np.zeros((len(classes), len(classes)), dtype=np.int64)
    train_times, predict_times, peaks = [], [], []
    for fold in range(plan.k):
        train_rows = np.flatnonzero(folds != fold)
        test_rows = np.flatnonzero(folds == fold)
        if measure_alloc:
            tracemalloc.start()
        try:
            t0 = time.perf_counter()
            model = classify.train(
                method, X[train_rows], [labels[i] for i in train_rows], params, workers=workers, classes=classes
            )
            train_times.append(time.perf_counter() - t0)
        finally:
            if measure_alloc:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        t0 = time.perf_counter()
        predicted = classify.predict_labels(model, X[test_rows])
        predict_times.append(time.perf_counter() - t0)
        np.add.at(confusion, (y[test_rows], predicted), 1)
    return EvalReport(
        classes=classes,
        confusion=confusion,
        train_seconds=sum(train_times) / len(train_times),
        predict_seconds=sum(predict_times) / len(predict_times),
        partitions=workers if method == "naive_bayes" else 1,  # only NB splits its training
        alloc_peak_bytes=max(peaks) if peaks else None,
    )


@dataclass(frozen=True)
class SpeedupPoint:
    workers: int
    seconds: float
    ratio: float


@dataclass(frozen=True)
class SpeedupCurve:
    points: tuple[SpeedupPoint, ...]

    def write(self, path: str | Path) -> None:
        write_tsv(path, ("workers", "seconds", "speedup"), (
            (str(p.workers), repr(p.seconds), repr(p.ratio)) for p in self.points
        ))


def speedup(
    method: str,
    X,
    labels: Sequence[str],
    worker_counts: Sequence[int],
    params: dict | None = None,
) -> SpeedupCurve:
    """Wall-time of training at each worker count, and time(1)/time(w).

    Only naive_bayes uses the workers. Worker counts beyond the machine's
    cores are allowed; oversubscription then shows up as a flattening or
    declining ratio."""
    if not worker_counts or any(w < 1 for w in worker_counts):
        raise ValueError("worker counts must be >= 1")
    if 1 not in worker_counts:
        raise ValueError("worker counts must include 1 (the ratio baseline)")
    classes = classify.infer_classes(labels)
    seconds: dict[int, float] = {}
    for w in worker_counts:
        t0 = time.perf_counter()
        classify.train(method, X, labels, params, workers=w, classes=classes)
        seconds[w] = time.perf_counter() - t0
    base = seconds[1]
    points = tuple(SpeedupPoint(w, seconds[w], base / seconds[w]) for w in worker_counts)
    return SpeedupCurve(points)


@dataclass(frozen=True)
class ClassAccuracy:
    category: str
    imputed: int
    correct: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.imputed if self.imputed else 0.0


def category_accuracy(
    ids: Sequence[str], categories: Sequence[str | None], imputed: Sequence[bool], truth: GroundTruth,
    classes: Sequence[str],
) -> list[ClassAccuracy]:
    """Imputed-category accuracy against ground truth, by true class, over
    row-aligned id and category columns and each row's imputed mark
    (records.imputed_rows)."""
    counted = {c: 0 for c in classes}
    correct = {c: 0 for c in classes}
    for rec_id, category, marked in zip(ids, categories, imputed):
        expected = truth.get(rec_id, "category")
        if expected is None or not marked:
            continue
        counted[expected] += 1
        if category == expected:
            correct[expected] += 1
    return [ClassAccuracy(c, counted[c], correct[c]) for c in classes]


def write_category_accuracy(rows: Sequence[ClassAccuracy], path: str | Path) -> None:
    write_tsv(path, ("class", "imputed", "correct", "accuracy"), (
        (row.category, str(row.imputed), str(row.correct), repr(row.accuracy)) for row in rows
    ))
