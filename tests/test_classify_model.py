from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from regimpute import classify
from regimpute import records as records_module
from regimpute.classify import (
    impute_categories,
    load_model,
    predict,
    predict_labels,
    save_model,
)
from matrices import csr, pairs
from regimpute.classify.model import check_training_data, softmax
from regimpute.records import EnterpriseRecord
from regimpute.synth import synth_labeled_points
from record_forms import columns_of, labeled_of, records_of


@pytest.fixture(scope="module")
def probe_set():
    return synth_labeled_points(1000, dim=64, n_classes=4, entries_per_vector=4, seed=12)


@pytest.fixture(scope="module")
def train_set():
    return synth_labeled_points(400, dim=64, n_classes=4, entries_per_vector=4, seed=5)


def test_predict_rejects_dim_mismatch(train_set):
    model = classify.train("naive_bayes", *train_set)
    with pytest.raises(ValueError, match="dim"):
        predict(model, csr(32, [[(0, 1)]]))
    with pytest.raises(ValueError, match="dim"):
        predict_labels(model, csr(32, [[(0, 1)]]))


def test_probabilistic_scores_sum_to_one(train_set, probe_set):
    X, _ = probe_set
    for method in ("naive_bayes", "logistic_regression"):
        model = classify.train(method, *train_set, {"iters": 5} if method == "logistic_regression" else None)
        for row in range(50):
            scores = predict(model, X[row]).scores
            assert sum(scores) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "method,params",
    [
        ("naive_bayes", None),
        ("logistic_regression", {"iters": 10}),
        ("linear_svm", {"iters": 10}),
        ("decision_tree", {"max_depth": 6}),
        ("random_forest", {"n_trees": 3, "max_depth": 6}),
    ],
)
def test_serialization_roundtrip_preserves_predictions(tmp_path, train_set, probe_set, method, params):
    model = classify.train(method, *train_set, params)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.method == model.method
    assert loaded.classes == model.classes
    assert loaded.dim == model.dim
    X, _ = probe_set
    for row in range(X.shape[0]):
        assert predict(loaded, X[row]) == predict(model, X[row])


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"something": "else"}', encoding="utf-8")
    with pytest.raises(ValueError, match="model file"):
        load_model(path)


def test_predict_labels_agrees_with_predict(train_set, probe_set):
    for method, params in (("naive_bayes", None), ("logistic_regression", {"iters": 5})):
        model = classify.train(method, *train_set, params)
        X = probe_set[0][:200]
        batch = predict_labels(model, X)
        singles = [model.classes.index(predict(model, X[row]).label) for row in range(X.shape[0])]
        assert batch.tolist() == singles


def test_impute_categories_fills_every_named_record(small_world, small_corpus):
    records, truth = small_corpus
    X, labels, _ = labeled_of(records, small_world.lexicon, dim=2048)
    model = classify.train("naive_bayes", X, labels)
    columns, flags = columns_of(records)
    report = impute_categories(columns, flags, model, small_world.lexicon)
    records = records_of(columns, flags)
    assert report.missing == sum(1 for r in records if truth.get(r.id, "category") is not None)
    assert report.filled + report.skipped_no_name == report.missing
    assert all(r.category is not None for r in records if r.name)
    for rec in records:
        if truth.get(rec.id, "category") is not None and rec.name:
            assert rec.provenance_of("category") == "imputed"


def test_impute_categories_no_missing_is_noop(small_world):
    records = [
        EnterpriseRecord(id="1", name="x", category="RE"),
        EnterpriseRecord(id="2", name="y", category="M"),
    ]
    model = classify.train(
        "naive_bayes", *synth_labeled_points(50, dim=2048, n_classes=4, seed=1)
    )
    columns, flags = columns_of(records)
    report = impute_categories(columns, flags, model, small_world.lexicon)
    records = records_of(columns, flags)
    assert report.missing == report.filled == 0
    assert records[0].category == "RE" and records[0].provenance_of("category") == "original"


def test_train_dispatch_rejects_unknown_method(train_set):
    with pytest.raises(ValueError, match="unknown method"):
        classify.train("nearest_neighbor", *train_set)


def test_infer_classes_uses_canonical_category_order():
    assert classify.infer_classes(["OI", "AFAHF", "RE"]) == ("AFAHF", "RE", "OI")
    assert classify.infer_classes(["zzz", "aaa"]) == ("aaa", "zzz")


@pytest.mark.parametrize("method", ["logistic_regression", "linear_svm"])
def test_linear_predictions_equal_dense_reference(train_set, method):
    # train on half the columns, so probes also hit columns never seen
    X, labels = train_set
    keep = [r for r in range(X.shape[0]) if all(i < 32 for i, _ in pairs(X, r))]
    model = classify.train(method, X[keep], [labels[r] for r in keep], {"iters": 10})
    columns = model.state["columns"]
    dense = np.zeros((model.n_classes, model.dim))
    dense[:, columns] = model.state["weights"]
    rng = np.random.default_rng(8)
    probes = csr(64, [
        [(int(i), int(rng.integers(1, 4))) for i in rng.choice(64, 4, replace=False)]
        for _ in range(300)
    ] + [[]])
    assert any(i not in columns for i in probes.indices)
    Z = probes @ dense.T + model.state["bias"]
    assert predict_labels(model, probes).tolist() == np.argmax(Z, axis=1).tolist()
    for row, z in enumerate(Z):
        want = z if method == "linear_svm" else softmax(z)
        assert predict(model, probes[row]).scores == tuple(want.tolist())


def test_load_rejects_version_1_model_file(tmp_path, train_set):
    path = tmp_path / "model.json"
    save_model(classify.train("logistic_regression", *train_set, {"iters": 2}), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["format_version"] = 1
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match="not a supported model file"):
        load_model(path)


class _HalfWriter:
    """File handle that writes half of its first chunk, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("disk full")


def _refuse_rename(*args):
    raise OSError("rename refused")


@pytest.mark.parametrize("fault", ["write", "rename"])
def test_failed_save_keeps_previous_file_and_leaves_no_temporary(tmp_path, train_set, monkeypatch, fault):
    path = tmp_path / "model.json"
    save_model(classify.train("naive_bayes", *train_set), path)
    before = path.read_bytes()
    if fault == "write":
        monkeypatch.setattr(
            records_module, "open", lambda *a, **k: _HalfWriter(open(*a, **k)), raising=False
        )
    else:
        monkeypatch.setattr(records_module.os, "replace", _refuse_rename)
    with pytest.raises(OSError):
        save_model(classify.train("logistic_regression", *train_set, {"iters": 2}), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


def test_check_training_data_names_a_label_outside_the_classes():
    X = csr(1, [[(0, 1.0)]] * 3)
    assert check_training_data(X, ["RE", "SRTS", "RE"], ["SRTS", "RE"])[1].tolist() == [1, 0, 1]
    with pytest.raises(ValueError, match="'ZZZ'"):
        check_training_data(X, ["RE", "ZZZ", "RE"], ["SRTS", "RE"])


def axis_max_softmax(z):
    """softmax with the row max taken by z.max(axis=-1)."""
    z = z - z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


SCORES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e300, -1e300, np.inf, -np.inf, np.nan]) | st.floats(-50, 50)


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 6).flatmap(lambda k: st.lists(st.lists(SCORES, min_size=k, max_size=k), min_size=1,
                                                            max_size=8)))
def test_softmax_is_bit_equal_to_the_axis_max_version(rows):
    # ties, signed zeros, infinities and NaN rows; a 1-D row too
    z = np.array(rows, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = softmax(z.copy()), axis_max_softmax(z.copy())
        assert got.tobytes() == want.tobytes()
        assert softmax(z[0].copy()).tobytes() == axis_max_softmax(z[0].copy()).tobytes()
