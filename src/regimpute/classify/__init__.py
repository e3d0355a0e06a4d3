"""Short-text classifiers behind one train/predict interface.

Naive Bayes and logistic regression are the fully supported paths;
linear SVM, decision tree and random forest are comparison baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..records import EnterpriseRecord
from ..segmenter import Lexicon
from ..vectorizer import DEFAULT_DIM, LabeledPoint, vectorize_name
from .logistic import lr_gradient, lr_loss, train_lr
from .model import (
    Prediction,
    TrainedModel,
    infer_classes,
    load_model,
    predict,
    predict_labels,
    save_model,
    score_vector,
)
from .naive_bayes import NBStats, merge_stats, partial_stats, train_nb
from .svm import train_svm
from .tree import train_forest, train_tree

COMPARISON_METHODS = ("linear_svm", "decision_tree", "random_forest")

_COMPARISON_TRAINERS = {
    "linear_svm": train_svm,
    "decision_tree": train_tree,
    "random_forest": train_forest,
}


def train_comparison(
    method: str, data: Sequence[LabeledPoint], params: dict | None = None
) -> TrainedModel:
    """Train one of the comparison baselines with its standard defaults."""
    trainer = _COMPARISON_TRAINERS.get(method)
    if trainer is None:
        raise ValueError(f"unknown comparison method {method!r}")
    return trainer(data, **(params or {}))


def train(
    method: str,
    data: Sequence[LabeledPoint],
    params: dict | None = None,
    workers: int = 1,
    parts: int | None = None,
    classes: Sequence[str] | None = None,
) -> TrainedModel:
    """Method-dispatching trainer used by the CLI and the evaluation harness."""
    params = dict(params or {})
    if method == "naive_bayes":
        return train_nb(data, workers=workers, parts=parts, classes=classes, **params)
    if method == "logistic_regression":
        return train_lr(data, workers=workers, parts=parts, classes=classes, **params)
    if method in _COMPARISON_TRAINERS:
        return _COMPARISON_TRAINERS[method](data, classes=classes, **params)
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
    dim: int = DEFAULT_DIM,
) -> CategoryImputeReport:
    """Fill absent categories in place from the record names.

    Records that already carry a category are untouched; records with no
    name cannot be vectorized and are only counted. The named records are
    predicted in one batch."""
    missing = [rec for rec in records if rec.category is None]
    named = [rec for rec in missing if rec.name]
    labels = predict_labels(model, [vectorize_name(rec.name, lexicon, dim) for rec in named])
    for rec, label in zip(named, labels):
        rec.category = model.classes[label]
        rec.mark_imputed("category")
    return CategoryImputeReport(len(records), len(missing), len(named), len(missing) - len(named))


__all__ = [
    "CategoryImputeReport",
    "COMPARISON_METHODS",
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
    "score_vector",
    "train",
    "train_comparison",
    "train_forest",
    "train_lr",
    "train_nb",
    "train_svm",
    "train_tree",
]
