"""Traced runs: spans around regimpute's public functions, taken at the
call sites where their callers look them up, and per-layer self times.

regimpute modules import names directly (`from .gazetteer import match`),
so a function is wrapped in the namespace its caller reads it from, e.g.
`regimpute.locimpute.match` rather than `regimpute.gazetteer.match`.
Spans live in memory as [layer, name, start, end, parent]; each thread
keeps its own parent stack. Spans opened inside forked workers
(parallel.map_partitions with workers > 1) stay in the child and are
lost: there the parent's parallel.map span holds all of the mapped work.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict

LAYERS = ("records", "segmenter", "vectorizer", "classify", "gazetteer",
          "locimpute", "parallel", "geocode", "spatial")
CLI = "cli"

# metric name -> (layer, span name) whose summed self time it reports;
# span name None means the whole layer.
SELF_TIME_METRICS = {
    "records.self_s": ("records", None),
    "records.ingest_s": ("records", "ingest"),
    "records.write_s": ("records", "write"),
    "segmenter.s": ("segmenter", None),
    "vectorizer.self_s": ("vectorizer", None),
    "vectorizer.build_labeled_s": ("vectorizer", "build_labeled"),
    "vectorizer.vectorize_s": ("vectorizer", "vectorize"),
    "classify.self_s": ("classify", None),
    "classify.train_s": ("classify", "train"),
    "classify.save_s": ("classify", "save"),
    "classify.impute_s": ("classify", "impute"),
    "classify.predict_s": ("classify", "predict"),
    "gazetteer.self_s": ("gazetteer", None),
    "gazetteer.build_s": ("gazetteer", "build"),
    "gazetteer.match_s": ("gazetteer", "match"),
    "locimpute.self_s": ("locimpute", None),
    "locimpute.evidence_s": ("locimpute", "evidence"),
    "locimpute.tiebreak_s": ("locimpute", "tiebreak"),
    "parallel.map_s": ("parallel", "map"),
    "geocode.self_s": ("geocode", None),
    "geocode.batch_s": ("geocode", "batch"),
    "geocode.apply_s": ("geocode", "apply"),
    "geocode.write_s": ("geocode", "write"),
    "spatial.self_s": ("spatial", None),
    "spatial.ripley_s": ("spatial", "ripley"),
    "spatial.export_s": ("spatial", "export"),
    "cli.unattributed_s": (CLI, None),
}

# metric name -> (layer, span name) whose span count it reports.
CALL_METRICS = {
    "segmenter.calls": ("segmenter", "segment"),
    "vectorizer.vectorize_calls": ("vectorizer", "vectorize"),
    "classify.predict_calls": ("classify", "predict"),
    "gazetteer.match_calls": ("gazetteer", "match"),
    "locimpute.tiebreak_calls": ("locimpute", "tiebreak"),
    "parallel.map_calls": ("parallel", "map"),
}

# metrics taken from counters the wrappers keep; ratios name their base.
COUNT_METRICS = ("records.ingest_rows", "classify.model_bytes", "gazetteer.candidates",
                 "locimpute.postcode_filled", "parallel.partitions", "geocode.requests",
                 "geocode.overwrites", "spatial.points", "spatial.features")
RATIO_METRICS = {
    "gazetteer.top_group_ratio": ("gazetteer.top_group", "gazetteer.candidates"),
    "geocode.ok_ratio": ("geocode.ok", "geocode.requests"),
    "geocode.useful_ratio": ("geocode.useful", "geocode.requests"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._count_lock = threading.Lock()
        self._local = threading.local()

    def call(self, layer: str, name: str, fn, *args, **kwargs):
        """Run fn inside a span whose parent is this thread's open span."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [layer, name, time.perf_counter(), None, stack[-1] if stack else None]
        self.spans.append(span)
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            stack.pop()

    def add(self, counter: str, value: int = 1) -> None:
        with self._count_lock:
            self.counts[counter] += value

    def wrap(self, owner, attr: str, layer: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr with a spanned version for the rest of the process."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, classmethod) else raw

        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            result = self.call(layer, name, func, *args, **kwargs)
            if after:
                after(result, state, *args, **kwargs)
            return result

        setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)

    def install(self) -> None:
        from regimpute import classify, cli, gazetteer, geocode, locimpute, spatial, vectorizer
        from regimpute.segmenter import Lexicon

        add = self.add
        self.wrap(cli, "ingest", "records", "ingest",
                  after=lambda res, _s, *a, **k: add("records.ingest_rows", len(res.records)))
        self.wrap(cli, "write_records", "records", "write")
        self.wrap(cli, "missingness", "records", "missingness")
        self.wrap(Lexicon, "from_tsv", "segmenter", "lexicon")
        self.wrap(vectorizer, "segment", "segmenter", "segment")
        self.wrap(locimpute, "segment", "segmenter", "segment")
        self.wrap(cli, "build_labeled", "vectorizer", "build_labeled")
        self.wrap(classify, "vectorize_name", "vectorizer", "vectorize")
        self.wrap(classify, "train", "classify", "train")
        self.wrap(classify, "save_model", "classify", "save", after=self._model_bytes)
        self.wrap(classify, "load_model", "classify", "load")
        self.wrap(classify, "impute_categories", "classify", "impute")
        self.wrap(classify, "predict", "classify", "predict")
        self.wrap(gazetteer, "read_gazetteer", "gazetteer", "read")
        self.wrap(gazetteer, "build", "gazetteer", "build")
        self.wrap(locimpute, "match", "gazetteer", "match", after=self._match_counts)
        self.wrap(locimpute, "impute_locations", "locimpute", "impute_locations",
                  after=lambda res, _s, *a, **k: add("locimpute.postcode_filled", res.postcode_filled))
        self.wrap(locimpute.PostcodeEvidence, "from_records", "locimpute", "evidence")
        self.wrap(locimpute.PostcodeEvidence, "count_with", "locimpute", "tiebreak")
        self._wrap_map_partitions(locimpute)
        self.wrap(geocode, "read_keys", "geocode", "read_keys")
        self.wrap(geocode, "shard", "geocode", "shard")
        self.wrap(geocode, "geocode_batch", "geocode", "batch", after=self._batch_counts)
        self.wrap(geocode, "apply_results", "geocode", "apply", before=self._overwrites)
        self.wrap(geocode, "write_results", "geocode", "write")
        self._count_requests(geocode.MockGeocoder)
        self.wrap(spatial, "project_equirectangular", "spatial", "project")
        self.wrap(spatial.PointSet, "from_points", "spatial", "points")
        self.wrap(spatial, "ripley_k", "spatial", "ripley",
                  after=lambda res, _s, pts, *a, **k: add("spatial.points", pts.n))
        self.wrap(spatial, "export_geojson", "spatial", "export",
                  after=lambda res, _s, *a, **k: add("spatial.features", res.written))

    # --- counters taken at the wrapped call sites ------------------------

    def _model_bytes(self, _result, _state, _model, path, *args, **kwargs):
        self.counts["classify.model_bytes"] = os.path.getsize(path)

    def _match_counts(self, results, _state, *args, **kwargs):
        self.add("gazetteer.candidates", len(results))
        if results:
            best = results[0]
            top = 0
            for r in results:
                if r.matched_weight * best.present_weight != best.matched_weight * r.present_weight:
                    break
                top += 1
            self.add("gazetteer.top_group", top)

    def _wrap_map_partitions(self, locimpute) -> None:
        raw = locimpute.map_partitions

        def traced(partitions, fn, workers=1):
            self.add("parallel.partitions", len(partitions))
            def plan(part):  # the mapped function is the caller's work, not the parallel layer's
                return self.call("locimpute", "plan", fn, part)

            return self.call("parallel", "map", raw, partitions, plan, workers)

        locimpute.map_partitions = traced

    def _count_requests(self, provider_cls) -> None:
        raw = provider_cls.__dict__["geocode"]

        def counted(provider, address, api_key=None):
            self.add("geocode.requests")
            return raw(provider, address, api_key=api_key)

        provider_cls.geocode = counted

    def _batch_counts(self, results, _state, shards, *args, **kwargs):
        records = [rec for sh in shards for rec in sh.records]
        self.add("geocode.attempts", sum(r.attempts for r in results))
        self.add("geocode.ok", sum(r.status == "ok" for r in results))
        self.add("geocode.useful", sum(res.attempts for rec, res in zip(records, results) if rec.coordinates is None))

    def _overwrites(self, records, results, *args, **kwargs):
        ok = {r.record_id for r in results if r.status == "ok"}
        self.add("geocode.overwrites", sum(1 for rec in records if rec.coordinates is not None and rec.id in ok))


def self_times(spans: list[tuple[float, float, int]]) -> list[float]:
    """Span duration minus the durations of its child spans.

    spans are (start, end, parent index or -1). A span's children are
    opened on its own thread, so they nest inside it and never overlap."""
    out = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def indexed(spans: list[list]) -> list[tuple[str, str, float, float, int]]:
    """Spans as (layer, name, start, end, parent index)."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [(s[0], s[1], s[2], s[3], index[id(s[4])] if s[4] is not None else -1) for s in spans]


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration whose cli.main calls took
    wall seconds, as the caller measured them outside the spans."""
    spans = indexed(tracer.spans)
    own = self_times([(s[2], s[3], s[4]) for s in spans])
    by_layer: dict[str, float] = defaultdict(float)
    by_span: dict[tuple[str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    for (layer, name, *_), t in zip(spans, own):
        by_layer[layer] += t
        by_span[(layer, name)] += t
        calls[(layer, name)] += 1
    m: dict[str, float] = {}
    for metric, (layer, name) in SELF_TIME_METRICS.items():
        m[metric] = by_layer[layer] if name is None else by_span[(layer, name)]
    for metric, key in CALL_METRICS.items():
        m[metric] = calls[key]
    counts = tracer.counts
    for metric in COUNT_METRICS:
        m[metric] = counts[metric]
    for metric, (num, base) in RATIO_METRICS.items():
        m[metric] = counts[num] / counts[base] if counts[base] else 0.0
    m["trace.wall_s"] = wall
    m["trace.spans"] = len(spans)
    # consistency checks, not metrics: run.py fails the run unless all hold.
    # Only cli.main spans may be roots; any other root was opened on a
    # thread with no open span and would count its time twice.
    m["check.orphan_spans"] = sum(1 for s in spans if s[4] < 0 and s[0] != CLI)
    m["check.layer_gap_s"] = sum(by_layer[layer] for layer in LAYERS) + by_layer[CLI] - wall
    m["check.requests_mismatch"] = counts["geocode.attempts"] - counts["geocode.requests"]
    return m


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tlayer\tname\tstart\tend\tparent\n")
        for i, (layer, name, start, end, parent) in enumerate(indexed(tracer.spans)):
            fh.write(f"{i}\t{layer}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
