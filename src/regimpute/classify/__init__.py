"""Short-text classifiers behind one train/predict interface.

Every method trains on the CSR count matrix that vectorizer.hash_rows
builds from name words, with one label per row, and predicts on a matrix
of the same width. Naive Bayes and logistic regression are the fully
supported paths; linear SVM, decision tree and random forest are
comparison baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..records import EnterpriseRecord
from ..segmenter import Lexicon
from ..vectorizer import vectorize_names
# Unused here: perfbench's tracer patches this name when it installs
# (ROADMAP item 1), so it stays importable until the tracer drops it.
from ..vectorizer import vectorize_name  # noqa: F401
from .logistic import lr_gradient, lr_loss, train_lr
from .model import (
    Prediction,
    TrainedModel,
    infer_classes,
    load_model,
    predict,
    predict_labels,
    save_model,
    score_rows,
)
from .naive_bayes import NBStats, merge_stats, partial_stats, train_nb
from .svm import train_svm
from .tree import train_forest, train_tree

_TRAINERS = {
    "logistic_regression": train_lr,
    "linear_svm": train_svm,
    "decision_tree": train_tree,
    "random_forest": train_forest,
}


def train(
    method: str,
    X,
    labels: Sequence[str],
    params: dict | None = None,
    workers: int = 1,
    classes: Sequence[str] | None = None,
) -> TrainedModel:
    """Method-dispatching trainer used by the CLI and the evaluation harness.

    Only Naive Bayes uses `workers`: its counts split across that many
    threads. The other methods train on one thread and ignore it."""
    params = dict(params or {})
    if method == "naive_bayes":
        return train_nb(X, labels, workers=workers, classes=classes, **params)
    if method in _TRAINERS:
        return _TRAINERS[method](X, labels, classes=classes, **params)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class CategoryImputeReport:
    total: int
    missing: int
    filled: int
    skipped_no_name: int


def impute_categories(
    records: Sequence[EnterpriseRecord],
    model: TrainedModel,
    lexicon: Lexicon,
) -> CategoryImputeReport:
    """Fill absent categories in place from the record names.

    Records that already carry a category are untouched; records with no
    name cannot be vectorized and are only counted. The named records are
    hashed at the model's dim and predicted in one batch."""
    missing = [rec for rec in records if rec.category is None]
    named = [rec for rec in missing if rec.name]
    labels = predict_labels(model, vectorize_names([rec.name for rec in named], lexicon, model.dim))
    for rec, label in zip(named, labels):
        rec.category = model.classes[label]
        rec.mark_imputed("category")
    return CategoryImputeReport(len(records), len(missing), len(named), len(missing) - len(named))


__all__ = [
    "CategoryImputeReport",
    "NBStats",
    "Prediction",
    "TrainedModel",
    "impute_categories",
    "infer_classes",
    "load_model",
    "lr_gradient",
    "lr_loss",
    "merge_stats",
    "partial_stats",
    "predict",
    "predict_labels",
    "save_model",
    "score_rows",
    "train",
    "train_forest",
    "train_lr",
    "train_nb",
    "train_svm",
    "train_tree",
]
