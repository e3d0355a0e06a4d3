"""Command-line interface: individual stage subcommands plus a pipeline
orchestrator running ingest -> train -> impute-category -> build-gazetteer
-> impute-location -> geocode -> report. With workers >= 2 the category
track (train, impute-category) runs in a forked child beside the location
track (build-gazetteer, impute-location, geocode).

Configuration is a flat key=value file; REGIMPUTE_<KEY> environment
variables override the file and command-line flags override both. Every
command that takes a configuration key declares it with _add_config_flags,
and main resolves the configuration once, before the handler runs, so the
precedence and the value checks hold for every command; it also checks
the directory of each file the command writes. Exit codes: 0 ok,
1 stage failure, 2 configuration error. Stage timings go to the log and
timings.tsv only, so every other artifact is byte-stable for a fixed
configuration and seed.

Every command that reads a corpus works on its ingest columns
(IngestResult.columns) and records its fills as imputed flags
(records.new_flags). Only synth, which generates records, builds
EnterpriseRecords. Each stage subcommand (ingest, train,
impute-category, impute-postcode, impute-ad, impute-location, geocode)
calls the function its pipeline stage calls; _read_tree builds every
address tree and _geocode runs both geocode stages. The gazetteer,
geocode and spatial functions are called through their modules
(gazetteer.build), where perfbench's tracer wraps them. main freezes the
objects that exist when the command starts, the imports' among them
(gc.freeze), so the cyclic collector does not rescan them and a forked
child does not copy their pages.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import logging
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields as dc_fields
from functools import partial
from pathlib import Path

import numpy as np

from . import classify, evaluate, gazetteer, geocode, locimpute, parallel, spatial
from .categories import normalize_category
from .records import (
    GroundTruth, MissingnessReport, format_coordinates, imputed_rows, ingest, missingness, new_flags, tsv_line,
    write_columns, write_records, write_tsv,
)
from .segmenter import Lexicon, segment_texts
from .synth import SynthConfig, synth, synth_labeled_points, synth_world
from .vectorizer import DEFAULT_DIM, build_labeled, vectorize_names, write_vectors

log = logging.getLogger("regimpute")

EXIT_OK = 0
EXIT_STAGE_FAILURE = 1
EXIT_CONFIG_ERROR = 2

PIPELINE_STAGES = ("ingest", "train", "impute-category", "build-gazetteer", "impute-location", "geocode", "report")


class ConfigError(Exception):
    pass


class StageError(Exception):
    pass


# numeric config key -> (lower bound, whether the bound itself is excluded);
# every value must also be finite
_LOWER_BOUNDS = {
    "workers": (1, False), "dim": (1, False), "iters": (1, False),
    "step": (0, True), "l2": (0, False), "alpha": (0, True), "rate": (0, False),
}


@dataclass
class PipelineConfig:
    corpus: str = ""
    lexicon: str = ""
    gazetteer: str = ""
    keys: str = ""
    model: str = ""
    output_dir: str = "out"
    method: str = "logistic_regression"
    dim: int = DEFAULT_DIM
    workers: int = 1
    seed: int = 7
    alpha: float = 1.0
    iters: int = 100
    step: float = 1.0
    l2: float = 0.01
    rate: float = 0.0  # requests/second; 0 disables pacing
    provider: str = "mock"
    url_template: str = ""

    @classmethod
    def load(cls, path: str | None, overrides: dict | None = None) -> "PipelineConfig":
        values: dict[str, str] = {}
        if path:
            try:
                with open(path, encoding="utf-8-sig") as fh:
                    for line_no, line in enumerate(fh, start=1):
                        line = line.strip()
                        if not line or line.startswith("#"):
                            continue
                        if "=" not in line:
                            raise ConfigError(f"{path}:{line_no}: expected key=value")
                        key, _, value = line.partition("=")
                        values[key.strip()] = value.strip()
            except OSError as exc:
                raise ConfigError(f"cannot read config {path}: {exc}") from exc
        config = cls()
        known = {f.name for f in dc_fields(cls)}
        for source in (values, _env_overrides(), overrides or {}):
            for key, value in source.items():
                if value is None:
                    continue
                if key not in known:
                    raise ConfigError(f"unknown config key {key!r}")
                current = getattr(config, key)
                try:
                    setattr(config, key, type(current)(value))
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key}: {value!r}") from exc
        if config.method not in classify.model.METHODS:
            raise ConfigError(f"unknown method {config.method!r}")
        for key, (low, strict) in _LOWER_BOUNDS.items():
            value = getattr(config, key)
            if not (math.isfinite(value) and (value > low if strict else value >= low)):
                raise ConfigError(f"{key} must be {'>' if strict else '>='} {low}, got {value}")
        return config


def _env_overrides() -> dict[str, str]:
    out = {}
    prefix = "REGIMPUTE_"
    for name, value in os.environ.items():
        if name.startswith(prefix):
            out[name[len(prefix):].lower()] = value
    return out


def _require_file(path: str, what: str) -> Path:
    if not path:
        raise ConfigError(f"{what} path not configured")
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} file not found: {p}")
    return p


def _require_directory_of(path: str, what: str) -> None:
    """A file is written beside a temporary one, so its directory must exist."""
    directory = Path(path).parent
    if not directory.is_dir():
        raise ConfigError(f"{what} directory not found: {directory}")


def _ingest(path: str, what: str = "corpus"):
    result = ingest(_require_file(path, what))
    if result.diagnostics:
        log.info("stage=%s skipped_rows=%d", what, result.error_count)
    return result


def _train_params(config: PipelineConfig) -> dict:
    if config.method == "naive_bayes":
        return {"alpha": config.alpha}
    if config.method == "logistic_regression":
        return {"iters": config.iters, "step": config.step, "l2": config.l2}
    return {}


def _make_provider(config: PipelineConfig):
    if config.provider == "mock":
        return geocode.MockGeocoder()
    if config.provider == "http":
        if not config.url_template:
            raise ConfigError("http provider needs url_template")
        try:  # another field or a stray brace would fail only at the first request
            config.url_template.format(address="", key="")
        except (KeyError, IndexError, AttributeError, ValueError) as exc:
            raise ConfigError(f"url_template takes only {{address}} and {{key}}: {exc}") from exc
        return geocode.HttpGeocoder(config.url_template)
    raise ConfigError(f"unknown provider {config.provider!r}")


# --- stage subcommands -------------------------------------------------


def cmd_synth(args, _config: None) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    config = SynthConfig(
        n=args.n,
        seed=args.synth_seed,
        lexicon_seed=args.lexicon_seed,
        missing_category=args.missing_category,
        missing_postcode=args.missing_postcode,
        missing_data_source=args.missing_data_source,
        ambiguity=args.ambiguity,
    )
    world = synth_world(config)
    records, truth = synth(config)
    write_records(records, out / "corpus.tsv")
    truth.write(out / "truth.tsv")
    world.lexicon.to_tsv(out / "lexicon.tsv")
    gazetteer.write_gazetteer(world.gazetteer, out / "gazetteer.tsv")
    print(f"wrote {len(records)} records, {len(truth)} truth rows, "
          f"{len(world.lexicon)} lexicon words, {len(world.gazetteer)} gazetteer rows to {out}")
    return EXIT_OK


def cmd_ingest(args, config: PipelineConfig) -> int:
    result = ingest(_require_file(config.corpus, "corpus"))
    flags = new_flags(len(result.columns["id"]))
    report = missingness(result.columns, flags)
    print(f"records\t{report.total}")
    print(f"skipped_rows\t{result.error_count}")
    for field_name, fraction in report.missing.items():
        print(f"missing_{field_name}\t{fraction:.4f}")
    if args.out:
        write_columns(result.columns, flags, args.out)
    return EXIT_OK


def cmd_segment(args, config: PipelineConfig) -> int:
    lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
    if args.text is not None:
        texts = [("-", args.text)]
    else:
        columns = _ingest(config.corpus).columns
        texts = list(zip(columns["id"], columns["name"]))
    rows = [
        (rec_id, token.surface, token.pos, str(token.span[0]), str(token.span[1]))
        for (rec_id, _), tokens in zip(texts, segment_texts([text for _, text in texts], lexicon))
        for token in tokens
    ]
    if args.out:
        write_tsv(args.out, None, rows)
    else:
        sys.stdout.write("".join(map(tsv_line, rows)))  # every row checked before any is printed
    return EXIT_OK


def cmd_vectorize(args, config: PipelineConfig) -> int:
    lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
    ids, names, categories = map(_ingest(config.corpus).columns.__getitem__, ("id", "name", "category"))
    named = [i for i, name in enumerate(names) if name]
    X = vectorize_names([names[i] for i in named], lexicon, config.dim)
    write_vectors([ids[i] for i in named], [categories[i] or "" for i in named], X, args.out)
    print(f"vectorized\t{len(named)}")
    return EXIT_OK


def cmd_train(args, config: PipelineConfig) -> int:
    if not config.model:
        raise ConfigError("model path not configured")
    _require_directory_of(config.model, "model")
    lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
    columns = _ingest(config.corpus).columns
    X, labels, skipped = build_labeled(columns["name"], columns["category"], lexicon, config.dim)
    if not labels:
        raise StageError("no labeled records to train on")
    t0 = time.perf_counter()
    model = classify.train(config.method, X, labels, _train_params(config), workers=config.workers)
    log.info("stage=train records=%d duration=%.3f", len(labels), time.perf_counter() - t0)
    classify.save_model(model, config.model)
    print(f"trained\t{config.method}\t{len(labels)}\tskipped_no_name\t{skipped}")
    return EXIT_OK


def cmd_evaluate(args, config: PipelineConfig) -> int:
    lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
    columns = _ingest(config.corpus).columns
    X, labels, _ = build_labeled(columns["name"], columns["category"], lexicon, config.dim)
    plan = evaluate.kfold(len(labels), args.k, config.seed)
    report = evaluate.cross_validate(
        config.method, X, labels, plan, _train_params(config),
        workers=config.workers, measure_alloc=args.measure_alloc,
    )
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report.write(out)
    print(f"overall_accuracy\t{report.overall_accuracy:.4f}")
    print(f"mean_train_seconds\t{report.train_seconds:.3f}")
    print(f"mean_predict_seconds\t{report.predict_seconds:.3f}")
    if report.alloc_peak_bytes is not None:
        print(f"alloc_peak_bytes\t{report.alloc_peak_bytes}")
    return EXIT_OK


def cmd_speedup(args, config: PipelineConfig) -> int:
    worker_counts = [int(w) for w in args.worker_counts.split(",")]
    if args.synthetic:
        X, labels = synth_labeled_points(args.synthetic, dim=config.dim, seed=config.seed)
    else:
        lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
        columns = _ingest(config.corpus).columns
        X, labels, _ = build_labeled(columns["name"], columns["category"], lexicon, config.dim)
    curve = evaluate.speedup(config.method, X, labels, worker_counts, _train_params(config))
    curve.write(args.out)
    for p in curve.points:
        print(f"workers={p.workers}\tseconds={p.seconds:.3f}\tspeedup={p.ratio:.2f}")
    return EXIT_OK


def cmd_impute_category(args, config: PipelineConfig) -> int:
    lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
    columns = _ingest(config.corpus).columns
    flags = new_flags(len(columns["id"]))
    model = classify.load_model(_require_file(config.model, "model"))
    report = classify.impute_categories(columns, flags, model, lexicon)
    write_columns(columns, flags, args.out)
    print(f"missing\t{report.missing}")
    print(f"filled\t{report.filled}")
    print(f"skipped_no_name\t{report.skipped_no_name}")
    if args.truth and args.report:
        truth = GroundTruth.read(_require_file(args.truth, "truth"))
        rows = evaluate.category_accuracy(columns["id"], columns["category"],
                                          imputed_rows(columns, flags, "category"), truth, model.classes)
        evaluate.write_category_accuracy(rows, args.report)
    return EXIT_OK


def _read_tree(path: Path) -> tuple[gazetteer.AddressTree, int]:
    """The address tree of a gazetteer file and the number of rows it rejected."""
    entries, diagnostics = gazetteer.read_gazetteer(path)
    return gazetteer.build(entries), len(diagnostics)


def cmd_build_gazetteer(args, config: PipelineConfig) -> int:
    tree, rejected = _read_tree(_require_file(config.gazetteer, "gazetteer"))
    print(f"entries\t{len(tree)}")
    print(f"postcodes\t{len(tree.postcodes())}")
    print(f"rejected_rows\t{rejected}")
    return EXIT_OK


def cmd_validate_gazetteer(args, config: PipelineConfig) -> int:
    tree, _ = _read_tree(_require_file(config.gazetteer, "gazetteer"))
    lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
    columns = _ingest(config.corpus).columns
    report = gazetteer.validate(tree, columns["address"], columns["postcode"], lexicon)
    print(f"evaluated\t{report.evaluated}")
    print(f"match_rate\t{report.match_rate:.4f}")
    print(f"presence_rate\t{report.presence_rate:.4f}")
    return EXIT_OK


def _impute_locations(config: PipelineConfig, steps: tuple[str, ...], out: str) -> locimpute.LocationReport:
    """The impute-location stage, or one of its steps, on the corpus, written to out."""
    tree, _ = _read_tree(_require_file(config.gazetteer, "gazetteer"))
    lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
    columns = _ingest(config.corpus).columns
    flags = new_flags(len(columns["id"]))
    report = locimpute.impute_locations(columns, flags, tree, lexicon, steps=steps)
    write_columns(columns, flags, out)
    return report


def cmd_impute_postcode(args, config: PipelineConfig) -> int:
    report = _impute_locations(config, ("postcode",), args.out)
    print(f"filled\t{report.postcode_filled}")
    print(f"failed\t{report.postcode_failed}")
    return EXIT_OK


def cmd_impute_ad(args, config: PipelineConfig) -> int:
    report = _impute_locations(config, ("ad",), args.out)
    print(f"assigned\t{report.ad_assigned}")
    print(f"failed\t{report.ad_failed}")
    return EXIT_OK


def cmd_impute_location(args, config: PipelineConfig) -> int:
    report = _impute_locations(config, ("postcode", "ad"), args.out)
    if args.report:
        report.write(args.report)
    for key, value in report.rows():
        print(f"{key}\t{value}")
    return EXIT_OK


def _geocode(columns: dict[str, list], flags: dict[str, bytearray], provider, keys: Path, rate: float,
             out: str | Path) -> tuple[list[str], list[str], list[str]]:
    """geocode_columns on the columns and flags in place, with the key file's
    keys (rate 0 paces nothing), then coordinates.tsv written to out: its lon
    and lat text, formatted once for it and a records file, and the status
    column."""
    statuses = geocode.geocode_columns(columns, flags, provider, geocode.read_keys(keys), rate=rate or None)
    lon_text, lat_text = format_coordinates(columns["lon"]), format_coordinates(columns["lat"])
    geocode.write_results(columns["id"], lon_text, lat_text, statuses, out)
    return lon_text, lat_text, statuses


def cmd_geocode(args, config: PipelineConfig) -> int:
    provider = _make_provider(config)
    columns = _ingest(config.corpus).columns
    flags = new_flags(len(columns["id"]))
    lon_text, lat_text, statuses = _geocode(columns, flags, provider, _require_file(config.keys, "keys"),
                                            config.rate, args.out)
    if args.merged_out:
        write_columns(columns, flags, args.merged_out, lon_text, lat_text)
    print(f"ok_rate\t{geocode.ok_rate(statuses):.4f}")
    return EXIT_OK


def cmd_kfunction(args, config: PipelineConfig) -> int:
    radii = spatial.check_radii([float(r) for r in args.radii.split(",")])
    columns = _ingest(config.corpus).columns
    lons = [lon for lon in columns["lon"] if lon is not None]
    if len(lons) < 2:
        raise StageError("need at least two records with coordinates")
    lats = [lat for lat in columns["lat"] if lat is not None]
    points = spatial.PointSet.from_points(spatial.project_equirectangular(np.column_stack([lons, lats])))
    curve = spatial.ripley_k(points, radii)
    curve.write(args.out)
    for r, k in zip(curve.radii, curve.k):
        print(f"r={r}\tK={k:.6g}")
    return EXIT_OK


def cmd_export(args, config: PipelineConfig) -> int:
    category = None
    if args.category is not None:
        category = normalize_category(args.category)
        if category is None:
            raise ConfigError(f"unknown category {args.category!r}")
    year_range = None
    if args.from_year is not None or args.to_year is not None:
        year_range = (args.from_year, args.to_year)
        if None not in year_range and args.from_year > args.to_year:
            raise ConfigError(f"--from-year {args.from_year} is after --to-year {args.to_year}")
    result = _ingest(config.corpus)
    report = spatial.export_geojson(result, args.out, category=category, year_range=year_range)
    print(f"written\t{report.written}")
    print(f"skipped_no_coordinates\t{report.skipped_no_coordinates}")
    return EXIT_OK


# --- pipeline ----------------------------------------------------------


class _StageTimer:
    """Per-stage rows whose seconds run back to back: each stage is timed
    from the end of the previous one, so the rows cover all pipeline work.
    A skipped stage gets no row, except `report`: records_final.tsv is
    written under it whether or not it is skipped, so its row is always
    there and covers at least that write.

    With workers >= 2 the category track runs in a forked child beside the
    location track. Then the train and impute-category rows hold the
    child's own seconds, from the end of ingest, and overlap the
    build-gazetteer to geocode rows, so the rows add up to more than the
    run took. With any workers those two rows are logged when the tracks
    join, after geocode's row, and timings.tsv keeps stage order."""

    def __init__(self):
        self.rows: list[tuple[str, int, float]] = []
        self._mark = time.perf_counter()

    def lap(self, stage: str, count: int) -> tuple[str, int, float]:
        """The row of a stage that ends now, neither kept nor logged."""
        now = time.perf_counter()
        seconds, self._mark = now - self._mark, now
        return stage, count, seconds

    def add(self, row: tuple[str, int, float]) -> None:
        """Keep a row, in stage order, and log it."""
        bisect.insort(self.rows, row, key=lambda kept: PIPELINE_STAGES.index(kept[0]))
        log.info("stage=%s records=%d duration=%.3f", *row)

    def record(self, stage: str, count: int) -> None:
        self.add(self.lap(stage, count))

    def write(self, path: Path) -> None:
        write_tsv(path, ("stage", "records", "seconds"), (
            (stage, str(count), f"{seconds:.3f}") for stage, count, seconds in self.rows
        ))


class _StageFailed(Exception):
    """A pipeline stage's error, with the stage; it pickles, so it can come
    from the category track's forked child."""

    def __init__(self, stage: str, message: str):
        super().__init__(stage, message)
        self.stage, self.message = stage, message


@contextmanager
def _stage(name: str):
    try:
        yield
    except (OSError, ValueError, StageError) as exc:
        raise _StageFailed(name, str(exc)) from exc


def run_pipeline(config: PipelineConfig, skip: set[str] = frozenset()) -> int:
    """Execute the two-track workflow; artifacts land in output_dir."""
    unknown = skip - set(PIPELINE_STAGES)
    if unknown:
        raise ConfigError(f"unknown pipeline stages in --skip: {sorted(unknown)}")
    # every configuration error is raised here, before any stage writes;
    # a stage that needs a skipped one's result is one too
    _require_file(config.corpus, "corpus")
    lexicon_path = _require_file(config.lexicon, "lexicon")
    if "train" not in skip and config.model:
        _require_directory_of(config.model, "model")
    elif "train" in skip and "impute-category" not in skip:
        _require_file(config.model, "model")
    gazetteer_path = provider = keys = None
    if "build-gazetteer" not in skip:
        gazetteer_path = _require_file(config.gazetteer, "gazetteer")
    elif "impute-location" not in skip:
        raise ConfigError("impute-location needs the build-gazetteer stage")
    if "geocode" not in skip:
        provider = _make_provider(config)
        keys = _require_file(config.keys, "keys")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    timer = _StageTimer()
    try:
        with _stage("ingest"):
            columns = _ingest(config.corpus).columns
            flags = new_flags(len(columns["id"]))
            _write_missingness(missingness(columns, flags), out / "missingness_before.tsv")
            lexicon = Lexicon.from_tsv(lexicon_path)
            lexicon.tables()  # built once, before a fork, for both tracks
            timer.record("ingest", len(columns["id"]))

        # The tracks touch disjoint columns. With workers >= 2 the category
        # track runs in a forked child beside the location track; a child
        # that exits without a result fails the category track's first stage.
        first = "train" if "train" not in skip else "impute-category"
        with _stage(first):
            (category_rows, fills), coordinate_text = parallel.beside(
                partial(_category_track, timer, config, skip, columns["name"], columns["category"], lexicon, out),
                partial(_location_track, timer, config, skip, columns, flags, lexicon, out,
                        gazetteer_path, provider, keys),
                fork=config.workers > 1 and first not in skip,
            )
        for row in category_rows:
            timer.add(row)
        classify.fill_categories(columns, flags, fills)

        with _stage("report"):
            write_columns(columns, flags, out / "records_final.tsv", *coordinate_text)
            if "report" not in skip:
                report = missingness(columns, flags)
                _write_missingness(report, out / "missingness_after.tsv")
                _write_summary(report, out / "summary.tsv")
            timer.record("report", len(columns["id"]))
            timer.write(out / "timings.tsv")
    except _StageFailed as exc:
        timer.write(out / "timings.tsv")
        log.error("stage=%s failed: %s", exc.stage, exc.message)
        print(f"pipeline failed at stage {exc.stage}: {exc.message}", file=sys.stderr)
        return EXIT_STAGE_FAILURE
    return EXIT_OK


def _category_track(timer, config, skip, names, categories, lexicon, out):
    """train and impute-category on the name and category columns: the
    stages' timer rows and the categories to fill, as (row index, class)
    pairs. The track may run in a forked child, so it changes no column and
    logs nothing."""
    rows, fills, model = [], [], None
    with _stage("train"):
        if "train" not in skip:
            X, labels, _ = build_labeled(names, categories, lexicon, config.dim)
            if labels:
                model = classify.train(config.method, X, labels, _train_params(config), workers=config.workers)
                classify.save_model(model, config.model or str(out / "model.json"))
            rows.append(timer.lap("train", len(labels)))
        elif "impute-category" not in skip:  # the saved model stands in for the skipped stage
            model = classify.load_model(config.model)
    with _stage("impute-category"):
        if "impute-category" not in skip:
            if model is None:
                raise StageError("no model available for category imputation")
            report, fills = classify.predict_categories(names, categories, model, lexicon)
            rows.append(timer.lap("impute-category", report.filled))
    return rows, fills


def _location_track(timer, config, skip, columns, flags, lexicon, out, gazetteer_path, provider, keys):
    """build-gazetteer, impute-location and geocode, on the columns and
    flags in place. Returns the lon and lat text geocode wrote, for
    records_final.tsv, or (None, None) when geocode is skipped."""
    with _stage("build-gazetteer"):
        if "build-gazetteer" not in skip:
            tree, _ = _read_tree(gazetteer_path)
            timer.record("build-gazetteer", len(tree))
    with _stage("impute-location"):
        if "impute-location" not in skip:
            location_report = locimpute.impute_locations(columns, flags, tree, lexicon)
            location_report.write(out / "location_report.tsv")
            timer.record("impute-location", location_report.postcode_filled)
    with _stage("geocode"):
        if "geocode" not in skip:
            # holding the text until the report leaves the 200k peak memory as it is
            lon_text, lat_text, _ = _geocode(columns, flags, provider, keys, config.rate, out / "coordinates.tsv")
            timer.record("geocode", len(columns["id"]))
            return lon_text, lat_text
    return None, None


def _write_missingness(report: MissingnessReport, path: Path) -> None:
    write_tsv(path, ("field", "missing_fraction"), (
        (field_name, repr(fraction)) for field_name, fraction in report.missing.items()
    ))


def _write_summary(report: MissingnessReport, path: Path) -> None:
    total, imputed, absent = report.total, report.imputed, report.absent
    write_tsv(path, ("field", "original", "imputed", "missing", "total"), (
        (f, str(total - imputed[f] - absent[f]), str(imputed[f]), str(absent[f]), str(total))
        for f in ("category", "postcode", "address", "coordinates")
    ))


def cmd_pipeline(args, config: PipelineConfig) -> int:
    return run_pipeline(config, set(filter(None, (args.skip or "").split(","))))


# --- argument parsing ---------------------------------------------------

# flag name -> argparse type, both from PipelineConfig (load converts the
# same way, with the type of the current value)
_CONFIG_FLAGS = {f.name: type(f.default) for f in dc_fields(PipelineConfig)}


# the dests of the flags that name a file a command writes: main checks
# their directories before the command reads anything (synth and evaluate
# write into an --out directory they create, under the dest out_dir)
_OUTPUT_FILES = ("out", "merged_out", "report")


def _config_overrides(args) -> dict:
    return {name: value for name in _CONFIG_FLAGS if (value := getattr(args, name, None)) is not None}


def _add_config_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=_CONFIG_FLAGS[name], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="regimpute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--out", dest="out_dir", metavar="OUT", required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", dest="synth_seed", metavar="SEED", type=int, default=7)
    p.add_argument("--lexicon-seed", dest="lexicon_seed", type=int, default=101)
    p.add_argument("--missing-category", type=float, default=0.4364)
    p.add_argument("--missing-postcode", type=float, default=0.2575)
    p.add_argument("--missing-data-source", type=float, default=0.3106)
    p.add_argument("--ambiguity", type=float, default=0.30)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="read a record TSV and report missingness")
    p.add_argument("--out")
    _add_config_flags(p, "corpus")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("segment", help="tokenize text or corpus names")
    p.add_argument("--text")
    p.add_argument("--out")
    _add_config_flags(p, "lexicon", "corpus")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("vectorize", help="hash record names to sparse vectors")
    p.add_argument("--out", required=True)
    _add_config_flags(p, "corpus", "lexicon", "dim")
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser("train", help="train a classifier on labeled records")
    _add_config_flags(p, "model", "corpus", "lexicon", "method", "dim", "workers", "alpha", "iters", "step", "l2")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="k-fold cross-validation")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", dest="out_dir", metavar="OUT", required=True)
    p.add_argument("--measure-alloc", action="store_true")
    _add_config_flags(p, "corpus", "lexicon", "method", "dim", "workers", "seed",
                      "alpha", "iters", "step", "l2")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("speedup", help="training wall-time versus worker count")
    p.add_argument("--workers", dest="worker_counts", metavar="WORKERS", required=True,
                   help="comma-separated counts, must include 1")
    p.add_argument("--synthetic", type=int, help="benchmark on N generated vectors")
    p.add_argument("--out", required=True)
    _add_config_flags(p, "corpus", "lexicon", "method", "dim", "seed", "alpha", "iters", "step", "l2")
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("impute-category", help="fill missing categories from names")
    p.add_argument("--out", required=True)
    p.add_argument("--truth")
    p.add_argument("--report")
    _add_config_flags(p, "corpus", "lexicon", "model")
    p.set_defaults(func=cmd_impute_category)

    p = sub.add_parser("build-gazetteer", help="build and summarize the address tree")
    _add_config_flags(p, "gazetteer")
    p.set_defaults(func=cmd_build_gazetteer)

    p = sub.add_parser("validate-gazetteer", help="coverage of the tree on complete records")
    _add_config_flags(p, "gazetteer", "corpus", "lexicon")
    p.set_defaults(func=cmd_validate_gazetteer)

    for name, func in (
        ("impute-postcode", cmd_impute_postcode),
        ("impute-ad", cmd_impute_ad),
        ("impute-location", cmd_impute_location),
    ):
        p = sub.add_parser(name, help=f"{name.replace('-', ' ')} stage")
        p.add_argument("--out", required=True)
        if name == "impute-location":
            p.add_argument("--report")
        _add_config_flags(p, "corpus", "lexicon", "gazetteer")
        p.set_defaults(func=func)

    p = sub.add_parser("geocode", help="geocode record addresses")
    p.add_argument("--out", required=True)
    p.add_argument("--merged-out", dest="merged_out")
    _add_config_flags(p, "corpus", "keys", "provider", "rate", "url_template")
    p.set_defaults(func=cmd_geocode)

    p = sub.add_parser("kfunction", help="Ripley K curve over record coordinates")
    p.add_argument("--radii", required=True, help="comma-separated, increasing, km")
    p.add_argument("--out", required=True)
    _add_config_flags(p, "corpus")
    p.set_defaults(func=cmd_kfunction)

    p = sub.add_parser("export", help="GeoJSON point export with filters")
    p.add_argument("--out", required=True)
    p.add_argument("--category", help="symbol, English or Chinese name")
    p.add_argument("--from-year", dest="from_year", type=int)
    p.add_argument("--to-year", dest="to_year", type=int)
    _add_config_flags(p, "corpus")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("pipeline", help="run the full workflow")
    p.add_argument("--config")
    p.add_argument("--skip", help="comma-separated stage names")
    _add_config_flags(p, *_CONFIG_FLAGS)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    args = build_parser().parse_args(argv)
    gc.freeze()
    try:
        config = None
        if _CONFIG_FLAGS.keys() & vars(args).keys():
            config = PipelineConfig.load(getattr(args, "config", None), _config_overrides(args))
        for name in _OUTPUT_FILES:
            if path := getattr(args, name, None):
                _require_directory_of(path, f"--{name.replace('_', '-')}")
        return args.func(args, config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (StageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE_FAILURE
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
