"""Trained-model container, prediction, and model (de)serialization.

Training and prediction read one form of data: the CSR count matrix of
vectorizer.hash_rows, one row per name and dim columns, with labels as a
sequence of class names beside it. check_training_data turns the labels
into indices into the model's class list.

A TrainedModel is method-tagged; score_rows dispatches on the tag. For the
probabilistic methods (naive_bayes, logistic_regression) scores are
posterior probabilities summing to 1; linear_svm reports raw margins,
decision_tree the leaf class distribution, random_forest vote fractions.
Argmax ties always break toward the earliest class in the class list.

Logistic regression and the linear SVM keep weights only for the active
hash columns, the sorted columns their training data touches
(state["columns"]); a column outside them has weight exactly 0, so
prediction drops it. Naive Bayes stays dense: an unseen column still has
a non-zero smoothed likelihood.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np
from scipy import sparse

from ..categories import CATEGORIES
from ..records import atomic_writer
from ..vectorizer import row_entries

_LINEAR = ("naive_bayes", "logistic_regression", "linear_svm")
METHODS = ("naive_bayes", "logistic_regression", "linear_svm", "decision_tree", "random_forest")

_FORMAT = "regimpute-model"
_FORMAT_VERSION = 2


@dataclass
class TrainedModel:
    method: str
    dim: int
    classes: tuple[str, ...]
    params: dict[str, Any]
    state: dict[str, Any]

    @property
    def n_classes(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class Prediction:
    label: str
    scores: tuple[float, ...]  # aligned with the model's class list


def infer_classes(labels: Iterable[str]) -> tuple[str, ...]:
    """Observed labels, in canonical category order when they all are
    categories, else sorted."""
    observed = set(labels)
    if observed <= set(CATEGORIES):
        return tuple(c for c in CATEGORIES if c in observed)
    return tuple(sorted(observed))


def check_training_data(
    X: sparse.csr_matrix, labels: Sequence[str], classes: Sequence[str] | None = None
) -> tuple[tuple[str, ...], np.ndarray]:
    """The class list (given, or inferred from labels) and each row's label
    as an index into it."""
    if not X.shape[0]:
        raise ValueError("training data is empty")
    if len(labels) != X.shape[0]:
        raise ValueError(f"{len(labels)} labels for {X.shape[0]} rows")
    classes = tuple(classes) if classes is not None else infer_classes(labels)
    index = {c: k for k, c in enumerate(classes)}
    try:
        return classes, np.fromiter(map(index.__getitem__, labels), dtype=np.int64, count=len(labels))
    except KeyError as exc:
        raise ValueError(f"label {exc.args[0]!r} is not among the classes {list(classes)}") from None


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, written over z and returned. The max is
    a running np.maximum over the last axis' entries: exact, like
    z.max(axis=-1), and much faster on a few classes; where the two could
    differ (0.0 against -0.0) the shifted scores are equal after exp."""
    top = z[..., 0].copy()
    for k in range(1, z.shape[-1]):
        np.maximum(top, z[..., k], out=top)
    z -= top[..., None]
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _onto_columns(X: sparse.csr_matrix, columns: np.ndarray) -> sparse.csr_matrix:
    """X re-indexed onto the sorted `columns`; entries elsewhere are dropped.

    Kept entries stay in their row order, so products with the compact
    matrix add the same terms in the same order as with X."""
    pos = np.searchsorted(columns, X.indices)
    keep = pos < len(columns)
    keep[keep] = columns[pos[keep]] == X.indices[keep]
    indptr = np.concatenate(([0], np.cumsum(keep)))[X.indptr]
    return sparse.csr_matrix((X.data[keep], pos[keep], indptr), shape=(X.shape[0], len(columns)))


def active_columns(X: sparse.csr_matrix) -> tuple[np.ndarray, sparse.csr_matrix]:
    """(active columns, X on those columns). The active columns, those some
    row has an entry in, come from one bincount: O(nnz + dim), no sort."""
    columns = np.flatnonzero(np.bincount(X.indices, minlength=X.shape[1]))
    return columns, _onto_columns(X, columns)


def _linear_scores(model: TrainedModel, X: sparse.csr_matrix) -> np.ndarray:
    """Per-class linear scores X @ W.T + b, one row per matrix row."""
    state = model.state
    if model.method == "naive_bayes":
        return X @ state["log_likelihood"].T + state["log_prior"]
    return _onto_columns(X, state["columns"]) @ state["weights"].T + state["bias"]


def _tree_scores(node: dict, feats: dict[int, int]) -> np.ndarray:
    while not node["leaf"]:
        value = feats.get(node["feature"], 0)
        node = node["right"] if value > node["threshold"] else node["left"]
    return np.asarray(node["dist"], dtype=np.float64)


def _check_dim(model: TrainedModel, X: sparse.csr_matrix) -> None:
    if X.shape[1] != model.dim:
        raise ValueError(f"matrix dim {X.shape[1]} does not match model dim {model.dim}")


def score_rows(model: TrainedModel, X: sparse.csr_matrix) -> np.ndarray:
    """Per-class scores, one row per matrix row (see the module docstring
    for their meaning per method)."""
    _check_dim(model, X)
    method = model.method
    if method in _LINEAR:
        z = _linear_scores(model, X)
        return z if method == "linear_svm" else softmax(z)
    rows = [dict(entries) for entries in row_entries(X)]
    if method == "decision_tree":
        root = model.state["root"]
        return np.array([_tree_scores(root, feats) for feats in rows]).reshape(-1, model.n_classes)
    if method == "random_forest":
        trees = model.state["trees"]
        votes = np.zeros((len(rows), model.n_classes))
        for i, feats in enumerate(rows):
            for root in trees:
                votes[i, int(np.argmax(_tree_scores(root, feats)))] += 1.0
        return votes / len(trees)
    raise ValueError(f"unknown method {method!r}")


def predict(model: TrainedModel, x: sparse.csr_matrix) -> Prediction:
    """Label and scores of a one-row matrix."""
    if x.shape[0] != 1:
        raise ValueError(f"predict takes one row, got {x.shape[0]}; use predict_labels")
    scores = score_rows(model, x)[0]
    label = model.classes[int(np.argmax(scores))]
    return Prediction(label, tuple(float(s) for s in scores))


def predict_labels(model: TrainedModel, X: sparse.csr_matrix) -> np.ndarray:
    """Label indices, one per matrix row; the linear methods take the argmax
    of their raw scores."""
    if model.method in _LINEAR:
        _check_dim(model, X)
        return np.argmax(_linear_scores(model, X), axis=1)
    return np.argmax(score_rows(model, X), axis=1)


def _encode(value):
    if isinstance(value, np.ndarray):
        return {"__array__": value.dtype.str, "data": value.tolist()}
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return value


def _decode(value):
    if isinstance(value, dict):
        if "__array__" in value:
            return np.asarray(value["data"], dtype=np.dtype(value["__array__"]))
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


def save_model(model: TrainedModel, path: str | Path) -> None:
    doc = {
        "format": _FORMAT,
        "format_version": _FORMAT_VERSION,
        "method": model.method,
        "dim": model.dim,
        "classes": list(model.classes),
        "params": _encode(model.params),
        "state": _encode(model.state),
    }
    with atomic_writer(path) as fh:
        fh.write(json.dumps(doc, ensure_ascii=False, separators=(",", ":")))


def load_model(path: str | Path) -> TrainedModel:
    with open(path, encoding="utf-8-sig") as fh:
        doc = json.load(fh)
    if doc.get("format") != _FORMAT or doc.get("format_version") != _FORMAT_VERSION:
        raise ValueError(f"{path}: not a supported model file")
    return TrainedModel(
        method=doc["method"],
        dim=doc["dim"],
        classes=tuple(doc["classes"]),
        params=_decode(doc["params"]),
        state=_decode(doc["state"]),
    )
