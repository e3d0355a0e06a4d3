"""Command-line interface: individual stage subcommands plus a pipeline
orchestrator running ingest -> train -> impute-category -> build-gazetteer
-> impute-location -> geocode -> report.

Configuration is a flat key=value file; REGIMPUTE_<KEY> environment
variables override the file and command-line flags override both. Exit
codes: 0 ok, 1 stage failure, 2 configuration error. Stage timings go to
the log and timings.tsv only, so every other artifact is byte-stable for
a fixed configuration and seed.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

import numpy as np

from . import classify, evaluate, gazetteer, geocode, locimpute, spatial
from .records import GroundTruth, MissingnessReport, ingest, missingness, tsv_line, write_records, write_tsv
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


def _ingest(path: str, what: str = "corpus"):
    result = ingest(_require_file(path, what))
    if result.diagnostics:
        log.info("stage=%s skipped_rows=%d", what, result.error_count)
    return result


def _load_records(path: str, what: str = "corpus"):
    return _ingest(path, what).records


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
        return geocode.HttpGeocoder(config.url_template)
    raise ConfigError(f"unknown provider {config.provider!r}")


def _geocode(records, provider, keys: Path, rate: float) -> list[geocode.GeocodeResult]:
    """Geocode the records that lack coordinates; one result per record."""
    rate = rate if rate > 0 else None
    return geocode.geocode_missing(records, provider, geocode.read_keys(keys), rate=rate)


# --- stage subcommands -------------------------------------------------


def cmd_synth(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = SynthConfig(
        n=args.n,
        seed=args.seed,
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


def cmd_ingest(args) -> int:
    result = ingest(_require_file(args.corpus, "corpus"))
    report = missingness(result.records)
    print(f"records\t{len(result.records)}")
    print(f"skipped_rows\t{result.error_count}")
    for field_name, fraction in report.missing.items():
        print(f"missing_{field_name}\t{fraction:.4f}")
    if args.out:
        write_records(result.records, args.out)
    return EXIT_OK


def cmd_segment(args) -> int:
    lexicon = Lexicon.from_tsv(_require_file(args.lexicon, "lexicon"))
    if args.text is not None:
        texts = [("-", args.text)]
    else:
        records = _load_records(args.corpus)
        texts = [(r.id, r.name or "") for r in records]
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


def cmd_vectorize(args) -> int:
    lexicon = Lexicon.from_tsv(_require_file(args.lexicon, "lexicon"))
    named = [rec for rec in _load_records(args.corpus) if rec.name]
    X = vectorize_names([rec.name for rec in named], lexicon, args.dim)
    write_vectors([rec.id for rec in named], [rec.category or "" for rec in named], X, args.out)
    print(f"vectorized\t{len(named)}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = PipelineConfig.load(None, _config_overrides(args))
    lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
    records = _load_records(config.corpus)
    X, labels, skipped = build_labeled(records, lexicon, config.dim)
    if not labels:
        raise StageError("no labeled records to train on")
    t0 = time.perf_counter()
    model = classify.train(config.method, X, labels, _train_params(config), workers=config.workers)
    log.info("stage=train records=%d duration=%.3f", len(labels), time.perf_counter() - t0)
    classify.save_model(model, args.model)
    print(f"trained\t{config.method}\t{len(labels)}\tskipped_no_name\t{skipped}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = PipelineConfig.load(None, _config_overrides(args))
    lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
    records = _load_records(config.corpus)
    X, labels, _ = build_labeled(records, lexicon, config.dim)
    plan = evaluate.kfold(len(labels), args.k, config.seed)
    report = evaluate.cross_validate(
        config.method, X, labels, plan, _train_params(config),
        workers=config.workers, measure_alloc=args.measure_alloc,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report.write(out)
    print(f"overall_accuracy\t{report.overall_accuracy:.4f}")
    print(f"mean_train_seconds\t{report.train_seconds:.3f}")
    print(f"mean_predict_seconds\t{report.predict_seconds:.3f}")
    if report.alloc_peak_bytes is not None:
        print(f"alloc_peak_bytes\t{report.alloc_peak_bytes}")
    return EXIT_OK


def cmd_speedup(args) -> int:
    overrides = _config_overrides(args)
    overrides.pop("workers", None)  # speedup's --workers is a list, not the config int
    config = PipelineConfig.load(None, overrides)
    worker_counts = [int(w) for w in args.workers.split(",")]
    if args.synthetic:
        X, labels = synth_labeled_points(args.synthetic, dim=config.dim, seed=config.seed)
    else:
        lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
        X, labels, _ = build_labeled(_load_records(config.corpus), lexicon, config.dim)
    curve = evaluate.speedup(config.method, X, labels, worker_counts, _train_params(config))
    curve.write(args.out)
    for p in curve.points:
        print(f"workers={p.workers}\tseconds={p.seconds:.3f}\tspeedup={p.ratio:.2f}")
    return EXIT_OK


def cmd_impute_category(args) -> int:
    config = PipelineConfig.load(None, _config_overrides(args))
    lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
    records = _load_records(config.corpus)
    model = classify.load_model(_require_file(config.model, "model"))
    report = classify.impute_categories(records, model, lexicon, model.dim)
    write_records(records, args.out)
    print(f"missing\t{report.missing}")
    print(f"filled\t{report.filled}")
    print(f"skipped_no_name\t{report.skipped_no_name}")
    if args.truth and args.report:
        truth = GroundTruth.read(_require_file(args.truth, "truth"))
        rows = evaluate.category_accuracy(records, truth, model.classes)
        evaluate.write_category_accuracy(rows, args.report)
    return EXIT_OK


def cmd_build_gazetteer(args) -> int:
    entries, diagnostics = gazetteer.read_gazetteer(_require_file(args.gazetteer, "gazetteer"))
    tree = gazetteer.build(entries)
    print(f"entries\t{len(tree)}")
    print(f"postcodes\t{len(tree.postcodes())}")
    print(f"rejected_rows\t{len(diagnostics)}")
    return EXIT_OK


def cmd_validate_gazetteer(args) -> int:
    entries, _ = gazetteer.read_gazetteer(_require_file(args.gazetteer, "gazetteer"))
    tree = gazetteer.build(entries)
    lexicon = Lexicon.from_tsv(_require_file(args.lexicon, "lexicon"))
    report = gazetteer.validate(tree, _load_records(args.corpus), lexicon)
    print(f"evaluated\t{report.evaluated}")
    print(f"match_rate\t{report.match_rate:.4f}")
    print(f"presence_rate\t{report.presence_rate:.4f}")
    return EXIT_OK


def _location_setup(args):
    config = PipelineConfig.load(None, _config_overrides(args))
    entries, _ = gazetteer.read_gazetteer(_require_file(config.gazetteer, "gazetteer"))
    tree = gazetteer.build(entries)
    lexicon = Lexicon.from_tsv(_require_file(config.lexicon, "lexicon"))
    records = _load_records(config.corpus)
    return tree, lexicon, records


def cmd_impute_postcode(args) -> int:
    tree, lexicon, records = _location_setup(args)
    report = locimpute.impute_locations(records, tree, lexicon, steps=("postcode",))
    write_records(records, args.out)
    print(f"filled\t{report.postcode_filled}")
    print(f"failed\t{report.postcode_failed}")
    return EXIT_OK


def cmd_impute_ad(args) -> int:
    tree, lexicon, records = _location_setup(args)
    report = locimpute.impute_locations(records, tree, lexicon, steps=("ad",))
    write_records(records, args.out)
    print(f"assigned\t{report.ad_assigned}")
    print(f"failed\t{report.ad_failed}")
    return EXIT_OK


def cmd_impute_location(args) -> int:
    tree, lexicon, records = _location_setup(args)
    report = locimpute.impute_locations(records, tree, lexicon)
    write_records(records, args.out)
    if args.report:
        report.write(args.report)
    for key, value in report.rows():
        print(f"{key}\t{value}")
    return EXIT_OK


def cmd_geocode(args) -> int:
    config = PipelineConfig.load(None, _config_overrides(args))
    records = _load_records(config.corpus)
    results = _geocode(records, _make_provider(config), _require_file(config.keys, "keys"), config.rate)
    geocode.write_results(results, args.out)
    if args.merged_out:
        geocode.apply_results(records, results)
        write_records(records, args.merged_out)
    print(f"ok_rate\t{geocode.ok_rate(results):.4f}")
    return EXIT_OK


def cmd_kfunction(args) -> int:
    radii = spatial.check_radii([float(r) for r in args.radii.split(",")])
    columns = _ingest(args.corpus).columns
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


def cmd_export(args) -> int:
    year_range = None
    if args.from_year is not None or args.to_year is not None:
        year_range = (args.from_year, args.to_year)
        if None not in year_range and args.from_year > args.to_year:
            raise ConfigError(f"--from-year {args.from_year} is after --to-year {args.to_year}")
    result = _ingest(args.corpus)
    report = spatial.export_geojson(result, args.out, category=args.category, year_range=year_range)
    print(f"written\t{report.written}")
    print(f"skipped_no_coordinates\t{report.skipped_no_coordinates}")
    return EXIT_OK


# --- pipeline ----------------------------------------------------------


class _StageTimer:
    """Per-stage rows whose seconds run back to back: each stage is timed
    from the end of the previous one, so the rows cover all pipeline work.
    A skipped stage gets no row, except `report`: records_final.tsv is
    written under it whether or not it is skipped, so its row is always
    there and covers at least that write."""

    def __init__(self):
        self.rows: list[tuple[str, int, float]] = []
        self._mark = time.perf_counter()

    def record(self, stage: str, count: int) -> None:
        now = time.perf_counter()
        seconds, self._mark = now - self._mark, now
        self.rows.append((stage, count, seconds))
        log.info("stage=%s records=%d duration=%.3f", stage, count, seconds)

    def write(self, path: Path) -> None:
        write_tsv(path, ("stage", "records", "seconds"), (
            (stage, str(count), f"{seconds:.3f}") for stage, count, seconds in self.rows
        ))


def run_pipeline(config: PipelineConfig, skip: set[str] = frozenset()) -> int:
    """Execute the two-track workflow; artifacts land in output_dir."""
    unknown = skip - set(PIPELINE_STAGES)
    if unknown:
        raise ConfigError(f"unknown pipeline stages in --skip: {sorted(unknown)}")
    # every configuration error is raised here, before any stage writes
    _require_file(config.corpus, "corpus")
    lexicon_path = _require_file(config.lexicon, "lexicon")
    if "build-gazetteer" not in skip:
        gazetteer_path = _require_file(config.gazetteer, "gazetteer")
    if "geocode" not in skip:
        provider = _make_provider(config)
        keys = _require_file(config.keys, "keys")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    timer = _StageTimer()
    stage = "ingest"
    try:
        records = _load_records(config.corpus)
        _write_missingness(missingness(records), out / "missingness_before.tsv")
        lexicon = Lexicon.from_tsv(lexicon_path)
        timer.record("ingest", len(records))

        stage = "train"
        model = None
        if "train" not in skip:
            X, labels, _ = build_labeled(records, lexicon, config.dim)
            if labels:
                model = classify.train(config.method, X, labels, _train_params(config), workers=config.workers)
                classify.save_model(model, config.model or str(out / "model.json"))
            timer.record("train", len(labels))
        if model is None and config.model and Path(config.model).is_file():
            model = classify.load_model(config.model)

        stage = "impute-category"
        if "impute-category" not in skip:
            if model is None:
                raise StageError("no model available for category imputation")
            report = classify.impute_categories(records, model, lexicon, model.dim)
            timer.record("impute-category", report.filled)

        stage = "build-gazetteer"
        tree = None
        if "build-gazetteer" not in skip:
            entries, _ = gazetteer.read_gazetteer(gazetteer_path)
            tree = gazetteer.build(entries)
            timer.record("build-gazetteer", len(tree))

        stage = "impute-location"
        if "impute-location" not in skip:
            if tree is None:
                raise StageError("impute-location needs the gazetteer stage")
            location_report = locimpute.impute_locations(records, tree, lexicon)
            location_report.write(out / "location_report.tsv")
            timer.record("impute-location", location_report.postcode_filled)

        stage = "geocode"
        if "geocode" not in skip:
            results = _geocode(records, provider, keys, config.rate)
            geocode.apply_results(records, results)
            geocode.write_results(results, out / "coordinates.tsv")
            timer.record("geocode", len(results))

        stage = "report"
        write_records(records, out / "records_final.tsv")
        if "report" not in skip:
            report = missingness(records)
            _write_missingness(report, out / "missingness_after.tsv")
            _write_summary(report, out / "summary.tsv")
        timer.record("report", len(records))
        timer.write(out / "timings.tsv")
    except (OSError, ValueError, StageError) as exc:
        timer.write(out / "timings.tsv")
        log.error("stage=%s failed: %s", stage, exc)
        print(f"pipeline failed at stage {stage}: {exc}", file=sys.stderr)
        return EXIT_STAGE_FAILURE
    return EXIT_OK


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


def cmd_pipeline(args) -> int:
    config = PipelineConfig.load(args.config, _config_overrides(args))
    skip = set(filter(None, (args.skip or "").split(",")))
    return run_pipeline(config, skip)


# --- argument parsing ---------------------------------------------------

# flag name -> argparse type, both from PipelineConfig (load converts the
# same way, with the type of the current value)
_CONFIG_FLAGS = {f.name: type(f.default) for f in dc_fields(PipelineConfig)}


def _config_overrides(args) -> dict:
    return {name: getattr(args, name, None) for name in _CONFIG_FLAGS if getattr(args, name, None) is not None}


def _add_config_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, type=_CONFIG_FLAGS[name], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="regimpute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--lexicon-seed", dest="lexicon_seed", type=int, default=101)
    p.add_argument("--missing-category", type=float, default=0.4364)
    p.add_argument("--missing-postcode", type=float, default=0.2575)
    p.add_argument("--missing-data-source", type=float, default=0.3106)
    p.add_argument("--ambiguity", type=float, default=0.30)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ingest", help="read a record TSV and report missingness")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("segment", help="tokenize text or corpus names")
    p.add_argument("--lexicon", required=True)
    p.add_argument("--text")
    p.add_argument("--corpus")
    p.add_argument("--out")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("vectorize", help="hash record names to sparse vectors")
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--dim", type=int, default=DEFAULT_DIM)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser("train", help="train a classifier on labeled records")
    p.add_argument("--model", required=True)
    _add_config_flags(p, "corpus", "lexicon", "method", "dim", "workers", "alpha", "iters", "step", "l2")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="k-fold cross-validation")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)
    p.add_argument("--measure-alloc", action="store_true")
    _add_config_flags(p, "corpus", "lexicon", "method", "dim", "workers", "seed",
                      "alpha", "iters", "step", "l2")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("speedup", help="training wall-time versus worker count")
    p.add_argument("--workers", required=True, help="comma-separated counts, must include 1")
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
    p.add_argument("--gazetteer", required=True)
    p.set_defaults(func=cmd_build_gazetteer)

    p = sub.add_parser("validate-gazetteer", help="coverage of the tree on complete records")
    p.add_argument("--gazetteer", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--lexicon", required=True)
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
    p.add_argument("--corpus", required=True)
    p.add_argument("--radii", required=True, help="comma-separated, increasing, km")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kfunction)

    p = sub.add_parser("export", help="GeoJSON point export with filters")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--category")
    p.add_argument("--from-year", dest="from_year", type=int)
    p.add_argument("--to-year", dest="to_year", type=int)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("pipeline", help="run the full workflow")
    p.add_argument("--config")
    p.add_argument("--skip", help="comma-separated stage names")
    _add_config_flags(p, *_CONFIG_FLAGS)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (StageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
