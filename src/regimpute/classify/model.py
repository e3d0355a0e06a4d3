"""Trained-model container, prediction, and model (de)serialization.

A TrainedModel is method-tagged; predict() dispatches on the tag. For the
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
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

import numpy as np
from scipy import sparse

from ..categories import CATEGORIES
from ..vectorizer import LabeledPoint, SparseVector

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


def infer_classes(data: Sequence[LabeledPoint]) -> tuple[str, ...]:
    """Observed labels, in canonical category order when they all are
    categories, else sorted."""
    observed = {p.label for p in data}
    if observed <= set(CATEGORIES):
        return tuple(c for c in CATEGORIES if c in observed)
    return tuple(sorted(observed))


def check_training_data(data: Sequence[LabeledPoint]) -> int:
    if not data:
        raise ValueError("training data is empty")
    dim = data[0].vector.dim
    for p in data:
        if p.vector.dim != dim:
            raise ValueError(f"mixed vector dimensions: {p.vector.dim} != {dim}")
    return dim


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def to_csr(vectors: Sequence[SparseVector], dim: int) -> sparse.csr_matrix:
    indptr = np.zeros(len(vectors) + 1, dtype=np.int64)
    nnz = sum(len(v.entries) for v in vectors)
    indices = np.empty(nnz, dtype=np.int64)
    values = np.empty(nnz, dtype=np.float64)
    pos = 0
    for row, vec in enumerate(vectors):
        for i, c in vec.entries:
            indices[pos] = i
            values[pos] = c
            pos += 1
        indptr[row + 1] = pos
    return sparse.csr_matrix((values, indices, indptr), shape=(len(vectors), dim))


def pack_points(data: Sequence[LabeledPoint], dim: int, classes: Sequence[str]):
    """(csr feature matrix, int label array) for vectorized trainers."""
    index = {c: k for k, c in enumerate(classes)}
    X = to_csr([p.vector for p in data], dim)
    y = np.array([index[p.label] for p in data], dtype=np.int64)
    return X, y


def _onto_columns(X: sparse.csr_matrix, columns: np.ndarray) -> sparse.csr_matrix:
    """X re-indexed onto the sorted `columns`; entries elsewhere are dropped.

    Kept entries stay in their row order, so products with the compact
    matrix add the same terms in the same order as with X."""
    pos = np.searchsorted(columns, X.indices)
    keep = pos < len(columns)
    keep[keep] = columns[pos[keep]] == X.indices[keep]
    indptr = np.concatenate(([0], np.cumsum(keep)))[X.indptr]
    return sparse.csr_matrix((X.data[keep], pos[keep], indptr), shape=(X.shape[0], len(columns)))


def pack_active(data: Sequence[LabeledPoint], dim: int, classes: Sequence[str]):
    """(active columns, csr matrix on those columns, int label array).

    The active columns, those some vector has an entry in, come from one
    bincount: O(nnz + dim), no sort."""
    X, y = pack_points(data, dim, classes)
    columns = np.flatnonzero(np.bincount(X.indices, minlength=dim))
    return columns, _onto_columns(X, columns), y


def _linear_scores(model: TrainedModel, vectors: Sequence[SparseVector]) -> np.ndarray:
    """Per-class linear scores X @ W.T + b, one row per vector."""
    X = to_csr(vectors, model.dim)
    state = model.state
    if model.method == "naive_bayes":
        return X @ state["log_likelihood"].T + state["log_prior"]
    return _onto_columns(X, state["columns"]) @ state["weights"].T + state["bias"]


def _tree_scores(node: dict, vector: SparseVector) -> np.ndarray:
    feats = dict(vector.entries)
    while not node["leaf"]:
        value = feats.get(node["feature"], 0)
        node = node["right"] if value > node["threshold"] else node["left"]
    return np.asarray(node["dist"], dtype=np.float64)


def score_vector(model: TrainedModel, vector: SparseVector) -> np.ndarray:
    """Per-class scores for one vector (see class docstring for semantics)."""
    if vector.dim != model.dim:
        raise ValueError(f"vector dim {vector.dim} does not match model dim {model.dim}")
    method = model.method
    if method in _LINEAR:
        z = _linear_scores(model, [vector])[0]
        return z if method == "linear_svm" else softmax(z)
    if method == "decision_tree":
        return _tree_scores(model.state["root"], vector)
    if method == "random_forest":
        votes = np.zeros(model.n_classes)
        for root in model.state["trees"]:
            dist = _tree_scores(root, vector)
            votes[int(np.argmax(dist))] += 1.0
        return votes / len(model.state["trees"])
    raise ValueError(f"unknown method {method!r}")


def predict(model: TrainedModel, vector: SparseVector) -> Prediction:
    scores = score_vector(model, vector)
    label = model.classes[int(np.argmax(scores))]
    return Prediction(label, tuple(float(s) for s in scores))


def predict_labels(model: TrainedModel, vectors: Sequence[SparseVector]) -> np.ndarray:
    """Batch label indices; vectorized for the linear methods."""
    if not len(vectors):
        return np.zeros(0, dtype=np.int64)
    for vector in vectors:
        if vector.dim != model.dim:
            raise ValueError(f"vector dim {vector.dim} does not match model dim {model.dim}")
    if model.method in _LINEAR:
        return np.argmax(_linear_scores(model, vectors), axis=1)
    return np.array([int(np.argmax(score_vector(model, v))) for v in vectors], dtype=np.int64)


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
    _write_atomic(Path(path), json.dumps(doc, ensure_ascii=False, separators=(",", ":")))


def _write_atomic(path: Path, text: str) -> None:
    """Write to a temporary file beside `path`, then rename it over `path`,
    so a failed write leaves any previous file whole and no partial one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_model(path: str | Path) -> TrainedModel:
    with open(path, encoding="utf-8") as fh:
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
