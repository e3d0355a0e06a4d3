from __future__ import annotations

import numpy as np
import pytest

from regimpute import classify
from regimpute.evaluate import (
    category_accuracy,
    cross_validate,
    kfold,
    speedup,
    write_category_accuracy,
)
from regimpute.records import GroundTruth
from matrices import csr
from regimpute.synth import synth_labeled_points
from record_forms import labeled_of


def test_kfold_each_fold_one_index():
    plan = kfold(10, 10, seed=1)
    assert sorted(plan.assignments.count(f) for f in range(plan.k)) == [1] * 10


def test_kfold_103_into_10():
    plan = kfold(103, 10, seed=1)
    sizes = [plan.assignments.count(f) for f in range(plan.k)]
    assert sorted(set(sizes)) == [10, 11]
    assert sizes.count(10) == 7
    assert sizes.count(11) == 3
    assert sum(sizes) == 103


def test_kfold_deterministic_and_partitioning():
    a = kfold(57, 5, seed=42)
    b = kfold(57, 5, seed=42)
    assert a.assignments == b.assignments
    assert set(a.assignments) == set(range(5))
    assert kfold(57, 5, seed=43).assignments != a.assignments


def test_kfold_validation():
    with pytest.raises(ValueError):
        kfold(5, 10, seed=0)
    with pytest.raises(ValueError):
        kfold(10, 1, seed=0)


@pytest.fixture(scope="module")
def learnable_points(small_world_module, small_corpus_module):
    records, _ = small_corpus_module
    X, labels, _ = labeled_of(records, small_world_module.lexicon, dim=2048)
    return X, labels


# module-scoped variants of the session fixtures, to avoid re-synthesis
@pytest.fixture(scope="module")
def small_world_module():
    from regimpute.synth import SynthConfig, synth_world

    return synth_world(SynthConfig(n=2000, seed=11))


@pytest.fixture(scope="module")
def small_corpus_module():
    from regimpute.synth import SynthConfig, synth

    return synth(SynthConfig(n=2000, seed=11))


def head(points, n):
    """The first n rows and labels."""
    X, labels = points
    return X[:n], labels[:n]


def test_cross_validate_learnable_corpus(learnable_points):
    X, labels = learnable_points
    plan = kfold(len(labels), 5, seed=3)
    report = cross_validate("naive_bayes", X, labels, plan)
    assert report.overall_accuracy >= 0.95
    assert report.total == len(labels)
    # confusion row sums equal per-class test counts
    per_class_counts = {c: 0 for c in report.classes}
    for label in labels:
        per_class_counts[label] += 1
    for i, cls in enumerate(report.classes):
        assert report.confusion[i].sum() == per_class_counts[cls]


def test_cross_validate_zero_vectors_fall_back_to_majority():
    # nothing to learn from: every prediction is the prior argmax
    labels = ["A"] * 30 + ["B"] * 10
    plan = kfold(len(labels), 4, seed=0)
    report = cross_validate("naive_bayes", csr(8, [[]] * 40), labels, plan)
    assert report.overall_accuracy == pytest.approx(30 / 40)
    per_class = report.per_class_accuracy()
    assert per_class["A"] == 1.0
    assert per_class["B"] == 0.0


def test_cross_validate_deterministic_accuracy(learnable_points):
    r1 = cross_validate("naive_bayes", *head(learnable_points, 400), kfold(400, 4, seed=9))
    r2 = cross_validate("naive_bayes", *head(learnable_points, 400), kfold(400, 4, seed=9))
    assert np.array_equal(r1.confusion, r2.confusion)


def test_cross_validate_requires_matching_plan(learnable_points):
    with pytest.raises(ValueError):
        cross_validate("naive_bayes", *learnable_points, kfold(10, 2, seed=0))


def test_cross_validate_alloc_counter(learnable_points):
    report = cross_validate(
        "naive_bayes", *head(learnable_points, 200), kfold(200, 2, seed=1), measure_alloc=True
    )
    assert report.alloc_peak_bytes is not None and report.alloc_peak_bytes > 0


@pytest.mark.parametrize("method, partitions", [("naive_bayes", 2), ("logistic_regression", 1)])
def test_partitions_is_the_count_training_used(learnable_points, method, partitions):
    # only Naive Bayes splits its training across workers
    report = cross_validate(method, *head(learnable_points, 200), kfold(200, 2, seed=1), workers=2)
    assert report.partitions == partitions


def test_report_files(tmp_path, learnable_points):
    report = cross_validate("naive_bayes", *head(learnable_points, 200), kfold(200, 2, seed=1))
    report.write(tmp_path)
    assert (tmp_path / "eval_summary.tsv").exists()
    per_class = (tmp_path / "eval_per_class.tsv").read_text(encoding="utf-8").splitlines()
    assert per_class[0] == "class\ttest_count\taccuracy"
    assert len(per_class) == 1 + len(report.classes)
    confusion = (tmp_path / "eval_confusion.tsv").read_text(encoding="utf-8").splitlines()
    assert len(confusion) == 1 + len(report.classes)


def test_speedup_ratio_baseline_is_exactly_one():
    points = synth_labeled_points(3000, dim=128, n_classes=4, seed=2)
    curve = speedup("naive_bayes", *points, [1, 2])
    assert [p.ratio for p in curve.points if p.workers == 1] == [1.0]
    assert all(p.seconds > 0 for p in curve.points)


def test_speedup_requires_baseline_worker():
    points = synth_labeled_points(100, dim=32, n_classes=2, seed=2)
    with pytest.raises(ValueError, match="include 1"):
        speedup("naive_bayes", *points, [2, 4])
    with pytest.raises(ValueError):
        speedup("naive_bayes", *points, [])
    with pytest.raises(ValueError):
        speedup("naive_bayes", *points, [0, 1])


def test_speedup_curve_file(tmp_path):
    points = synth_labeled_points(500, dim=64, n_classes=2, seed=3)
    curve = speedup("naive_bayes", *points, [1, 2])
    path = tmp_path / "speedup.tsv"
    curve.write(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "workers\tseconds\tspeedup"
    assert len(lines) == 3


def test_category_accuracy_report(tmp_path):
    truth = GroundTruth()
    truth.set("1", "category", "RE")
    truth.set("2", "category", "RE")
    truth.set("3", "category", "M")
    ids, categories = ["1", "2", "3", "4"], ["RE", "M", "M", "RE"]
    imputed = [True, True, True, False]  # the fourth is original, not counted
    rows = category_accuracy(ids, categories, imputed, truth, ("RE", "M"))
    by_class = {r.category: r for r in rows}
    assert by_class["RE"].imputed == 2 and by_class["RE"].correct == 1
    assert by_class["M"].imputed == 1 and by_class["M"].correct == 1
    assert by_class["RE"].accuracy == pytest.approx(0.5)
    write_category_accuracy(rows, tmp_path / "acc.tsv")
    lines = (tmp_path / "acc.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "class\timputed\tcorrect\taccuracy"
