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


def predict_categories(
    records: Sequence[EnterpriseRecord],
    model: TrainedModel,
    lexicon: Lexicon,
) -> tuple[CategoryImputeReport, list[tuple[int, str]]]:
    """The categories impute_categories fills, as (record index, class)
    pairs, and its report; the records are not changed.

    Records that already carry a category are left out; records with no
    name cannot be vectorized and are only counted. The named records are
    hashed at the model's dim and predicted in one batch."""
    missing = [i for i, rec in enumerate(records) if rec.category is None]
    named = [i for i in missing if records[i].name]
    labels = predict_labels(model, vectorize_names([records[i].name for i in named], lexicon, model.dim))
    fills = [(i, model.classes[label]) for i, label in zip(named, labels)]
    return CategoryImputeReport(len(records), len(missing), len(named), len(missing) - len(named)), fills


def fill_categories(records: Sequence[EnterpriseRecord], fills: Sequence[tuple[int, str]]) -> None:
    """Set each (record index, class) pair's category and mark it imputed."""
    for i, category in fills:
        records[i].category = category
        records[i].mark_imputed("category")


def impute_categories(
    records: Sequence[EnterpriseRecord],
    model: TrainedModel,
    lexicon: Lexicon,
) -> CategoryImputeReport:
    """Fill absent categories in place from the record names."""
    report, fills = predict_categories(records, model, lexicon)
    fill_categories(records, fills)
    return report


__all__ = [
    "CategoryImputeReport",
    "NBStats",
    "Prediction",
    "TrainedModel",
    "fill_categories",
    "impute_categories",
    "infer_classes",
    "load_model",
    "lr_gradient",
    "lr_loss",
    "merge_stats",
    "partial_stats",
    "predict",
    "predict_categories",
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
