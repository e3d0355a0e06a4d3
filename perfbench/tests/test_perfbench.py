"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_small_run_passes(name, trace):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--records", "300"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_self_times_subtract_children():
    # root 0..10 holds a 1..4 and b 5..9; a holds c 2..3; b holds d 6..7
    # and e 7.5..8.5.
    spans = [(0.0, 10.0, -1), (1.0, 4.0, 0), (5.0, 9.0, 0), (2.0, 3.0, 1), (6.0, 7.0, 2), (7.5, 8.5, 2)]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 2.0, 1.0, 1.0, 1.0])


def test_layer_metrics_sum_to_wall():
    tracer = tracing.Tracer()

    def leaf():
        return tracer.call("segmenter", "segment", lambda: None)

    def layer():
        leaf()
        return tracer.call("gazetteer", "match", leaf)

    t0 = time.perf_counter()
    tracer.call(tracing.CLI, "main", layer)
    m = tracing.layer_metrics(tracer, time.perf_counter() - t0)
    assert m["segmenter.calls"] == 2 and m["gazetteer.match_calls"] == 1
    assert abs(m["check.layer_gap_s"]) < 1e-4 and m["check.orphan_spans"] == 0


def test_layer_metrics_flag_spans_outside_cli():
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    tracer.call(tracing.CLI, "main", lambda: None)
    wall = time.perf_counter() - t0
    # a wrapped call on a thread that has no open span becomes a root
    worker = threading.Thread(target=tracer.call, args=("geocode", "shard", time.sleep, 0.01))
    worker.start()
    worker.join()
    m = tracing.layer_metrics(tracer, wall)
    assert m["check.orphan_spans"] == 1 and m["check.layer_gap_s"] > 0.005


def _row(rec_id, **cells):
    row = dict.fromkeys(("name", "category", "address", "postcode", "data_source", "lon", "lat", "provenance"), "")
    row.update(id=rec_id, **cells)
    return row


def test_originals_changed_detects_planted_overwrite():
    inputs = [
        _row("E1", name="n1", category="A", address="st1", postcode="110000"),
        _row("E2", name="n2", address="p c k st2", lon="1.0", lat="2.0"),
    ]
    clean = [
        _row("E1", name="n1", category="A", address="pre st1", postcode="110000", provenance="ad=imputed"),
        _row("E2", name="n2", category="B", address="p c k st2", lon="1.0", lat="2.0", provenance="category=imputed"),
    ]
    truth = {("E2", "category"): "B"}
    assert checks.score(inputs, clean, truth).originals_changed == 0

    overwritten = [dict(r) for r in clean]
    overwritten[0]["category"] = "C"
    assert checks.score(inputs, overwritten, truth).originals_changed == 1

    relabelled = [dict(r) for r in clean]
    relabelled[1]["provenance"] = "category=imputed;coordinates=imputed"
    s = checks.score(inputs, relabelled, truth)
    assert s.originals_changed == 1 and s.metrics()["originals_kept_ratio"] < 1.0


def _write_tsv(path, rows):
    header = list(rows[0])
    path.write_text("\t".join(header) + "\n" + "".join("\t".join(r[h] for h in header) + "\n" for r in rows))


def test_pipeline_run_fails_on_overwritten_original(tmp_path):
    inputs, out = tmp_path / "input", tmp_path / "iter0"
    inputs.mkdir()
    out.mkdir()
    _write_tsv(inputs / "corpus.tsv", [_row("E1", name="n1", category="A")])
    (inputs / "truth.tsv").write_text("id\tfield\tvalue\n")
    iteration = {"out": str(out), "exit_codes": [0]}
    pipeline = workloads.WORKLOADS["pipeline_20k"]

    _write_tsv(out / "records_final.tsv", [_row("E1", name="n1", category="A")])
    assert run.check_iterations(pipeline, inputs, [iteration], 1)[0] == 0
    _write_tsv(out / "records_final.tsv", [_row("E1", name="n1", category="B")])
    failed, _score, problems = run.check_iterations(pipeline, inputs, [iteration], 1)
    assert failed == 1 and "original values changed" in problems[0]


def test_score_rejects_dropped_rows():
    with pytest.raises(ValueError):
        checks.score([_row("E1", name="n")], [], {})


def test_generator_is_byte_identical_per_seed(tmp_path):
    workloads.import_regimpute(ROOT)
    geo = workloads.WORKLOADS["geo_analysis_100k"]
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.generate(geo, seed, 400, tmp_path / name / "input")

    def files(name):
        d = tmp_path / name / "input"
        return {p.name: p.read_bytes().replace(str(d).encode(), b"") for p in d.iterdir()}

    assert files("a") == files("b")
    assert files("a")["corpus.tsv"] != files("c")["corpus.tsv"]
