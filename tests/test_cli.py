from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import regimpute
from regimpute import cli as cli_module
from regimpute import records as records_module
from regimpute import segmenter
from regimpute.cli import PIPELINE_STAGES, PipelineConfig, build_parser, main
from regimpute.geocode import HttpGeocoder, MockGeocoder
from regimpute.records import ingest, write_records
from record_forms import reference_geocode_missing, reference_write_results

DIM = "2048"


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    code = main(["synth", "--out", str(out), "--n", "800", "--seed", "5"])
    assert code == 0
    return out


def corpus_args(synth_dir):
    return [
        "--corpus", str(synth_dir / "corpus.tsv"),
        "--lexicon", str(synth_dir / "lexicon.tsv"),
    ]


def test_synth_writes_all_artifacts(synth_dir):
    for name in ("corpus.tsv", "truth.tsv", "lexicon.tsv", "gazetteer.tsv"):
        assert (synth_dir / name).is_file()


def test_ingest_reports_counts(synth_dir, capsys):
    assert main(["ingest", "--corpus", str(synth_dir / "corpus.tsv")]) == 0
    out = capsys.readouterr().out
    assert "records\t800" in out
    assert "missing_category" in out


def test_segment_text_mode(synth_dir, capsys, demo_lexicon_path):
    code = main(["segment", "--lexicon", str(demo_lexicon_path), "--text", "武汉物业管理有限公司"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert any("\t武汉\tns\t" in line for line in lines)


@pytest.mark.parametrize("text", ["武汉\t物业", "武汉\n物业", "武汉\r物业"])
def test_segment_rejects_text_with_a_tab_or_line_break(tmp_path, capsys, demo_lexicon_path, text):
    base = ["segment", "--lexicon", str(demo_lexicon_path), "--text", text]
    assert main(base) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    out = tmp_path / "tokens.tsv"
    assert main([*base, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_segment_rows_have_five_cells_on_both_sinks(tmp_path, capsys, demo_lexicon_path):
    base = ["segment", "--lexicon", str(demo_lexicon_path), "--text", "湖北省武汉市 南京路16号"]
    assert main(base) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "tokens.tsv"
    assert main([*base, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == printed
    rows = [line.split("\t") for line in printed.splitlines()]
    assert rows[0] == ["-", "湖北省", "ns", "0", "3"]
    assert all(len(row) == 5 for row in rows)
    assert "".join(row[1] for row in rows) == "湖北省武汉市 南京路16号"


def test_vectorize_subcommand(synth_dir, tmp_path, capsys):
    out = tmp_path / "vectors.tsv"
    code = main(["vectorize", *corpus_args(synth_dir), "--dim", DIM, "--out", str(out)])
    assert code == 0
    assert out.is_file()
    first = out.read_text(encoding="utf-8").splitlines()[0]
    assert first.count("\t") == 2


def test_train_evaluate_impute_flow(synth_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    code = main(["train", *corpus_args(synth_dir), "--method", "naive_bayes",
                 "--dim", DIM, "--model", str(model)])
    assert code == 0
    assert model.is_file()

    eval_dir = tmp_path / "eval"
    code = main(["evaluate", *corpus_args(synth_dir), "--method", "naive_bayes",
                 "--dim", DIM, "--k", "4", "--seed", "1", "--out", str(eval_dir)])
    assert code == 0
    summary = (eval_dir / "eval_summary.tsv").read_text(encoding="utf-8")
    accuracy = float(summary.splitlines()[1].split("\t")[1])
    assert accuracy >= 0.9

    imputed = tmp_path / "imputed.tsv"
    report = tmp_path / "per_class.tsv"
    code = main(["impute-category", *corpus_args(synth_dir), "--model", str(model),
                 "--out", str(imputed),
                 "--truth", str(synth_dir / "truth.tsv"), "--report", str(report)])
    assert code == 0
    assert report.is_file()
    records = ingest(imputed).records
    assert all(r.category is not None for r in records if r.name)


def test_gazetteer_subcommands(synth_dir, capsys):
    code = main(["build-gazetteer", "--gazetteer", str(synth_dir / "gazetteer.tsv")])
    assert code == 0
    out = capsys.readouterr().out
    assert "entries\t480" in out

    code = main(["validate-gazetteer", "--gazetteer", str(synth_dir / "gazetteer.tsv"),
                 *corpus_args(synth_dir)])
    assert code == 0
    out = capsys.readouterr().out
    match_rate = float(next(l for l in out.splitlines() if l.startswith("match_rate")).split("\t")[1])
    assert match_rate >= 0.95


def test_validate_gazetteer_segments_addresses_once(synth_dir, monkeypatch, capsys):
    calls = []
    tokenize = segmenter.tokenize

    def counted(*args, **kwargs):
        calls.append(1)
        return tokenize(*args, **kwargs)

    monkeypatch.setattr(segmenter, "tokenize", counted)
    code = main(["validate-gazetteer", "--gazetteer", str(synth_dir / "gazetteer.tsv"),
                 *corpus_args(synth_dir)])
    assert code == 0
    assert "evaluated\t" in capsys.readouterr().out
    assert len(calls) == 1


def test_impute_location_subcommand(synth_dir, tmp_path, capsys):
    out = tmp_path / "located.tsv"
    report = tmp_path / "location_report.tsv"
    code = main(["impute-location", *corpus_args(synth_dir),
                 "--gazetteer", str(synth_dir / "gazetteer.tsv"),
                 "--out", str(out), "--report", str(report)])
    assert code == 0
    assert report.is_file()
    records = ingest(out).records
    assert sum(1 for r in records if r.postcode is None) < 20


def test_impute_postcode_and_ad_split_stages(synth_dir, tmp_path):
    mid = tmp_path / "postcoded.tsv"
    code = main(["impute-postcode", *corpus_args(synth_dir),
                 "--gazetteer", str(synth_dir / "gazetteer.tsv"), "--out", str(mid)])
    assert code == 0
    done = tmp_path / "ad.tsv"
    code = main(["impute-ad", "--corpus", str(mid), "--lexicon", str(synth_dir / "lexicon.tsv"),
                 "--gazetteer", str(synth_dir / "gazetteer.tsv"), "--out", str(done)])
    assert code == 0
    records = ingest(done).records
    with_pc = [r for r in records if r.postcode]
    assert all(" " in (r.address or "") or r.address is None or
               r.provenance_of("ad") == "original" for r in with_pc[:50])
    # the two steps in turn write what the combined stage writes
    combined = tmp_path / "located.tsv"
    code = main(["impute-location", *corpus_args(synth_dir),
                 "--gazetteer", str(synth_dir / "gazetteer.tsv"), "--out", str(combined)])
    assert code == 0
    assert done.read_bytes() == combined.read_bytes()


def test_speedup_subcommand(tmp_path, capsys):
    out = tmp_path / "speedup.tsv"
    code = main(["speedup", "--workers", "1,2", "--synthetic", "5000",
                 "--method", "naive_bayes", "--dim", "256", "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[1].startswith("1\t")
    assert lines[1].endswith("\t1.0")


def write_keys(path: Path, n=2, quota=6000):
    path.write_text("".join(f"key{i}\t{quota}\n" for i in range(n)), encoding="utf-8")
    return path


def test_geocode_and_spatial_flow(synth_dir, tmp_path, capsys):
    keys = write_keys(tmp_path / "keys.tsv")
    coords = tmp_path / "coords.tsv"
    merged = tmp_path / "merged.tsv"
    code = main(["geocode", "--corpus", str(synth_dir / "corpus.tsv"), "--keys", str(keys),
                 "--provider", "mock", "--out", str(coords), "--merged-out", str(merged)])
    assert code == 0
    assert coords.is_file()

    kfile = tmp_path / "k.tsv"
    code = main(["kfunction", "--corpus", str(merged), "--radii", "50,200,800", "--out", str(kfile)])
    assert code == 0
    assert kfile.read_text(encoding="utf-8").splitlines()[0] == "r\tK\tpi_r2"

    geojson = tmp_path / "points.geojson"
    code = main(["export", "--corpus", str(merged), "--out", str(geojson),
                 "--from-year", "1995", "--to-year", "2015"])
    assert code == 0
    doc = json.loads(geojson.read_text(encoding="utf-8"))
    assert doc["features"], "year-window export should keep most records"


def test_spatial_commands_skip_rows_with_non_finite_coordinates(tmp_path):
    corpus = tmp_path / "located.tsv"
    rows = [(f"E{i}", 114.0 + i / 10, 30.0 + i / 20) for i in range(5)] + [("bad", "nan", 30.0)]
    corpus.write_text(
        "id\tname\tcategory\taddress\tpostcode\tdata_source\tlon\tlat\n"
        + "".join(f"{rid}\t\t\t\t\t2004_x\t{lon}\t{lat}\n" for rid, lon, lat in rows),
        encoding="utf-8",
    )
    assert main(["kfunction", "--corpus", str(corpus), "--radii", "10,50", "--out", str(tmp_path / "k.tsv")]) == 0
    geojson = tmp_path / "points.geojson"
    assert main(["export", "--corpus", str(corpus), "--out", str(geojson)]) == 0

    def no_constants(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(geojson.read_text(encoding="utf-8"), parse_constant=no_constants)
    assert [f["properties"]["id"] for f in doc["features"]] == [f"E{i}" for i in range(5)]


def located_corpus(path):
    rows = [(f"E{i}", 114.0 + i / 10, 30.0 + i / 20, 1990 + 5 * i) for i in range(6)]
    path.write_text(
        "id\tname\tcategory\taddress\tpostcode\tdata_source\tlon\tlat\n"
        + "".join(f"{rid}\t\tRE\t\t\t{year}_x\t{lon}\t{lat}\n" for rid, lon, lat, year in rows),
        encoding="utf-8",
    )
    return path


def spatial_commands(corpus, out):
    return [
        ["kfunction", "--corpus", str(corpus), "--radii", "10,50", "--out", str(out / "k.tsv")],
        ["export", "--corpus", str(corpus), "--out", str(out / "points.geojson"),
         "--from-year", "1995", "--to-year", "2010"],
    ]


def test_spatial_commands_build_no_records(tmp_path, monkeypatch):
    corpus = located_corpus(tmp_path / "located.tsv")
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    assert [main(argv) for argv in spatial_commands(corpus, first)] == [0, 0]

    def no_records(*args, **kwargs):
        raise AssertionError("an EnterpriseRecord was built")

    monkeypatch.setattr(records_module, "EnterpriseRecord", no_records)
    assert [main(argv) for argv in spatial_commands(corpus, second)] == [0, 0]
    for name in ("k.tsv", "points.geojson"):
        assert (second / name).read_bytes() == (first / name).read_bytes()


@pytest.mark.parametrize("radii", ["nan", "25,nan", "nan,25", "25,inf"])
def test_kfunction_rejects_non_finite_radii_before_reading(tmp_path, monkeypatch, capsys, radii):
    corpus = located_corpus(tmp_path / "located.tsv")
    read = []
    monkeypatch.setattr(cli_module, "ingest", lambda path: read.append(path))
    out = tmp_path / "k.tsv"
    assert main(["kfunction", "--corpus", str(corpus), "--radii", radii, "--out", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert read == []
    assert not out.exists()


def test_export_rejects_an_inverted_year_window_before_reading(tmp_path, monkeypatch, capsys):
    corpus = located_corpus(tmp_path / "located.tsv")
    read = []
    monkeypatch.setattr(cli_module, "ingest", lambda path: read.append(path))
    out = tmp_path / "points.geojson"
    assert main(["export", "--corpus", str(corpus), "--out", str(out), "--from-year", "2015", "--to-year", "1995"]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert read == []
    assert not out.exists()


def test_export_category_accepts_the_aliases_ingest_accepts(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "mixed.tsv"
    corpus.write_text(
        "id\tname\tcategory\taddress\tpostcode\tdata_source\tlon\tlat\n"
        + "".join(f"E{i}\t\t{'M' if i % 2 else 'RE'}\t\t\t2004_x\t{114.0 + i / 10}\t30.0\n" for i in range(6)),
        encoding="utf-8",
    )
    written = []
    for i, label in enumerate(("M", "Manufacturing", "制造业")):
        out = tmp_path / f"points{i}.geojson"
        assert main(["export", "--corpus", str(corpus), "--out", str(out), "--category", label]) == 0
        assert "written\t3\n" in capsys.readouterr().out
        written.append(out.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]

    read = []
    monkeypatch.setattr(cli_module, "ingest", lambda path: read.append(path))
    out = tmp_path / "unknown.geojson"
    assert main(["export", "--corpus", str(corpus), "--out", str(out), "--category", "ZZZ"]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert read == []
    assert not out.exists()


@pytest.fixture()
def half_located(synth_dir, tmp_path):
    """The synth corpus with every other record already georeferenced."""
    records = ingest(synth_dir / "corpus.tsv").records
    for rec in records[::2]:
        rec.coordinates = (100.0 + len(rec.id) / 10, 30.0)
    path = tmp_path / "half_located.tsv"
    write_records(records, path)
    return path, {rec.id: rec.coordinates for rec in records[::2]}


@pytest.fixture()
def requested(monkeypatch):
    """Addresses the mock provider is asked for, in request order."""
    addresses = []
    real = MockGeocoder.geocode

    def counting(self, address, api_key=None):
        addresses.append(address)
        return real(self, address, api_key=api_key)

    monkeypatch.setattr(MockGeocoder, "geocode", counting)
    return addresses


def assert_located_kept(path, located):
    records = ingest(path).records
    for rec in records:
        if rec.id in located:
            assert rec.coordinates == located[rec.id]
            assert rec.provenance_of("coordinates") == "original"
        elif rec.coordinates is not None:
            assert rec.provenance_of("coordinates") == "imputed"


def test_geocode_skips_located_records(half_located, tmp_path, requested):
    corpus, located = half_located
    merged = tmp_path / "merged.tsv"
    # quota covers exactly the records without coordinates
    keys = write_keys(tmp_path / "keys.tsv", n=1, quota=800 - len(located))
    code = main(["geocode", "--corpus", str(corpus), "--keys", str(keys), "--provider", "mock",
                 "--out", str(tmp_path / "coords.tsv"), "--merged-out", str(merged)])
    assert code == 0
    assert len(requested) == 800 - len(located)
    assert_located_kept(merged, located)
    statuses = [line.split("\t")[3] for line in (tmp_path / "coords.tsv").read_text(encoding="utf-8").splitlines()[1:]]
    assert statuses.count("original") == len(located)
    assert "quota-exhausted" not in statuses


# id, name, category, address, postcode, data_source, lon, lat, provenance
GEOCODE_ROWS = [
    ("E1", "武汉物业管理有限公司", "RE", "湖北省武汉市江岸区 南京路16号", "430014", "2004_x", "114.50", "30.5",
     "postcode=imputed;category=imputed"),
    ("E2", "", "", "湖北省武汉市江岸区 中山路4号", "", "", "", "", "coordinates=original"),
    ("E2", "汉口贸易", "M", "湖北省武汉市江汉区 解放大道8号", "430015", "1999", "", "", ""),
    ("E3", "", "", "湖北省武汉市江岸区 中山路4号", "", "", "1e1", "2.50", "coordinates=imputed"),
    ("E4", "无地址", "", "", "", "2010_y", "", "", "category=imputed"),
    ("E5", "", "SRTS", "江岸区 黄浦路2号", "", "2001", "-0.0", "1E-7", "coordinates=original;postcode=imputed"),
] + [
    (f"F{i}", f"企业{i}", ("RE", "", "M")[i % 3], f"湖北省武汉市{i % 4}区 路{i}号", ("", "430016")[i % 2],
     ("", f"{1990 + i}_z")[i % 2], *(("114.25", "30.125") if i % 5 == 0 else ("", "")),
     ("", "postcode=imputed;category=imputed", "coordinates=original", "ad=imputed;address=imputed")[i % 4])
    for i in range(14)
] + [("E2", "重复", "", "湖北省武汉市江岸区 南京路16号", "", "", "", "", "postcode=imputed")]


def geocode_reference(corpus, keys, out):
    """The geocode command through records: a per-record geocode of the
    records without coordinates, apply_results and write_records."""
    from regimpute.geocode import apply_results, ok_rate, read_keys

    records = ingest(corpus).records
    results = reference_geocode_missing(records, MockGeocoder(), read_keys(keys), rate=None)
    reference_write_results(results, out / "coordinates.tsv")
    apply_results(records, results)
    write_records(records, out / "merged.tsv")
    return f"ok_rate\t{ok_rate([r.status for r in results]):.4f}\n"


@pytest.mark.parametrize("quotas", [(1000,), (3, 100), (0, 2)], ids=["ample", "runs-out-mid-shard", "none-left"])
def test_geocode_command_equals_the_record_reference(tmp_path, monkeypatch, capsys, quotas):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        "\t".join(records_module._ALL_COLUMNS) + "\n" + "".join("\t".join(row) + "\n" for row in GEOCODE_ROWS),
        encoding="utf-8",
    )
    keys = tmp_path / "keys.tsv"
    keys.write_text("".join(f"k{i}\t{quota}\n" for i, quota in enumerate(quotas)), encoding="utf-8")
    reference, command = tmp_path / "reference", tmp_path / "command"
    reference.mkdir()
    command.mkdir()
    printed = geocode_reference(corpus, keys, reference)

    def no_records(result):
        raise AssertionError("the geocode command read IngestResult.records")

    monkeypatch.setattr(records_module.IngestResult, "records", property(no_records))
    assert main(["geocode", "--corpus", str(corpus), "--keys", str(keys), "--provider", "mock",
                 "--out", str(command / "coordinates.tsv"), "--merged-out", str(command / "merged.tsv")]) == 0
    assert capsys.readouterr().out == printed
    for name in ("coordinates.tsv", "merged.tsv"):
        assert (command / name).read_bytes() == (reference / name).read_bytes(), name
    lines = (command / "coordinates.tsv").read_text(encoding="utf-8").splitlines()[1:]
    statuses = {line.split("\t")[3] for line in lines}
    assert {"ok", "original"} <= statuses
    if quotas == (1000,):
        assert "no-result" in statuses and "quota-exhausted" not in statuses
    else:
        assert "quota-exhausted" in statuses


def refuse_records(monkeypatch):
    """Make building an EnterpriseRecord, through ingest or otherwise, fail."""
    def refuse(*args, **kwargs):
        raise AssertionError("an EnterpriseRecord was built")

    monkeypatch.setattr(records_module.IngestResult, "records", property(refuse))
    monkeypatch.setattr(records_module.EnterpriseRecord, "__init__", refuse)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("method", ["naive_bayes", "logistic_regression"])
def test_pipeline_builds_no_records(synth_dir, tmp_path, monkeypatch, method, workers):
    keys = write_keys(tmp_path / "keys.tsv")
    refuse_records(monkeypatch)
    args = pipeline_args(synth_dir, tmp_path / "out", keys)
    args[args.index("--method") + 1] = method
    assert main(args + ["--workers", workers]) == 0
    assert (tmp_path / "out" / "records_final.tsv").is_file()
    assert_reaped_and_clean(tmp_path)


def test_stage_commands_build_no_records(synth_dir, tmp_path, monkeypatch, capsys):
    keys = write_keys(tmp_path / "keys.tsv")
    corpus, gazetteer_args = corpus_args(synth_dir), ["--gazetteer", str(synth_dir / "gazetteer.tsv")]
    model = str(tmp_path / "model.json")
    refuse_records(monkeypatch)
    commands = [
        ["ingest", "--corpus", corpus[1], "--out", str(tmp_path / "ingested.tsv")],
        ["train", *corpus, "--method", "naive_bayes", "--dim", DIM, "--model", model],
        ["impute-category", *corpus, "--model", model, "--out", str(tmp_path / "categories.tsv"),
         "--truth", str(synth_dir / "truth.tsv"), "--report", str(tmp_path / "per_class.tsv")],
        ["impute-postcode", *corpus, *gazetteer_args, "--out", str(tmp_path / "postcodes.tsv")],
        ["impute-ad", *corpus, *gazetteer_args, "--out", str(tmp_path / "ad.tsv")],
        ["impute-location", *corpus, *gazetteer_args, "--out", str(tmp_path / "located.tsv"),
         "--report", str(tmp_path / "location_report.tsv")],
        ["geocode", "--corpus", corpus[1], "--keys", str(keys), "--out", str(tmp_path / "coordinates.tsv"),
         "--merged-out", str(tmp_path / "merged.tsv")],
        ["segment", *corpus, "--out", str(tmp_path / "tokens.tsv")],
        ["vectorize", *corpus, "--dim", DIM, "--out", str(tmp_path / "vectors.tsv")],
        ["validate-gazetteer", *corpus, *gazetteer_args],
    ]
    assert [main(argv) for argv in commands] == [0] * len(commands)
    # the ingest command writes its input back as it read it
    assert (tmp_path / "ingested.tsv").read_bytes() == (synth_dir / "corpus.tsv").read_bytes()


def test_pipeline_geocode_skips_located_records(synth_dir, half_located, tmp_path, requested):
    corpus, located = half_located
    keys = write_keys(tmp_path / "keys.tsv", n=1, quota=800 - len(located))
    out = tmp_path / "run_located"
    args = pipeline_args(synth_dir, out, keys)
    args[args.index("--corpus") + 1] = str(corpus)
    assert main(args + ["--skip", "train,impute-category,build-gazetteer,impute-location"]) == 0
    assert len(requested) == 800 - len(located)
    assert_located_kept(out / "records_final.tsv", located)


def pipeline_args(synth_dir, out_dir, keys):
    return [
        "pipeline",
        "--corpus", str(synth_dir / "corpus.tsv"),
        "--lexicon", str(synth_dir / "lexicon.tsv"),
        "--gazetteer", str(synth_dir / "gazetteer.tsv"),
        "--keys", str(keys),
        "--output-dir", str(out_dir),
        "--method", "naive_bayes",
        "--dim", DIM,
    ]


def test_pipeline_end_to_end(synth_dir, tmp_path):
    keys = write_keys(tmp_path / "keys.tsv")
    out = tmp_path / "run"
    assert main(pipeline_args(synth_dir, out, keys)) == 0
    for artifact in (
        "missingness_before.tsv", "model.json", "location_report.tsv",
        "coordinates.tsv", "records_final.tsv", "missingness_after.tsv",
        "summary.tsv", "timings.tsv",
    ):
        assert (out / artifact).is_file(), artifact

    records = ingest(out / "records_final.tsv").records
    assert len(records) == 800
    # every record ends with a category or had no name to classify from
    assert all(r.category is not None for r in records if r.name)

    # provenance reconciliation: original + imputed + missing = total
    for line in (out / "summary.tsv").read_text(encoding="utf-8").splitlines()[1:]:
        _, original, imputed, missing, total = line.split("\t")
        assert int(original) + int(imputed) + int(missing) == int(total)


@pytest.mark.parametrize("skip", [(), ("geocode",), ("report",)])
def test_pipeline_timings_have_a_row_per_stage(synth_dir, tmp_path, skip):
    keys = write_keys(tmp_path / "keys.tsv")
    for workers in ("1", "2"):
        out = tmp_path / f"timed_w{workers}"
        args = pipeline_args(synth_dir, out, keys) + (["--skip", ",".join(skip)] if skip else [])
        assert main(args + ["--workers", workers]) == 0
        lines = (out / "timings.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "stage\trecords\tseconds"
        # records_final.tsv is always written under `report`, so it keeps its row
        ran = [s for s in PIPELINE_STAGES if s not in skip or s == "report"]
        assert [line.split("\t")[0] for line in lines[1:]] == ran


def test_pipeline_skip_geocode(synth_dir, tmp_path):
    keys = write_keys(tmp_path / "keys.tsv")
    out = tmp_path / "run_nogeo"
    assert main(pipeline_args(synth_dir, out, keys) + ["--skip", "geocode"]) == 0
    assert not (out / "coordinates.tsv").exists()
    records = ingest(out / "records_final.tsv").records
    assert all(r.coordinates is None for r in records)


def test_pipeline_rerun_is_idempotent(synth_dir, tmp_path):
    keys = write_keys(tmp_path / "keys.tsv")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(pipeline_args(synth_dir, out1, keys)) == 0
    # second pipeline consumes the completed output of the first
    args = pipeline_args(synth_dir, out2, keys)
    args[args.index("--corpus") + 1] = str(out1 / "records_final.tsv")
    assert main(args + ["--skip", "train,impute-category"]) == 0
    a = (out1 / "records_final.tsv").read_bytes()
    b = (out2 / "records_final.tsv").read_bytes()
    assert a == b


@pytest.mark.parametrize("method", ["naive_bayes", "logistic_regression"])
def test_pipeline_deterministic_artifacts(synth_dir, tmp_path, method):
    # the reference run is a fresh `python -m regimpute.cli` process with
    # another hash seed, so no set or str-keyed dict order may reach an
    # artifact; in-process runs at workers 1 and 2 (where the category
    # track runs in a forked child) must write the same bytes
    keys = write_keys(tmp_path / "keys.tsv")

    def args(out, workers):
        argv = pipeline_args(synth_dir, out, keys) + ["--workers", workers]
        argv[argv.index("--method") + 1] = method
        return argv

    reference = tmp_path / "reference"
    src = str(Path(regimpute.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONHASHSEED": "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1",
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }
    child = subprocess.run([sys.executable, "-m", "regimpute.cli", *args(reference, "1")], env=env, capture_output=True)
    assert child.returncode == 0, child.stderr.decode()
    names = sorted(path.name for path in reference.iterdir())
    assert "model.json" in names and "records_final.tsv" in names
    for workers in ("1", "2"):
        out = tmp_path / f"w{workers}"
        assert main(args(out, workers)) == 0
        assert sorted(path.name for path in out.iterdir()) == names
        for name in names:
            if name != "timings.tsv":
                assert (out / name).read_bytes() == (reference / name).read_bytes(), (workers, name)
    assert_reaped_and_clean(tmp_path)


def test_lr_pipeline_model_does_not_depend_on_workers(synth_dir, tmp_path):
    keys = write_keys(tmp_path / "keys.tsv")
    models = []
    for workers in ("1", "2"):
        out = tmp_path / f"lr_w{workers}"
        args = pipeline_args(synth_dir, out, keys)
        args[args.index("--method") + 1] = "logistic_regression"
        skip = "impute-category,build-gazetteer,impute-location,geocode,report"
        assert main(args + ["--iters", "20", "--workers", workers, "--skip", skip]) == 0
        models.append((out / "model.json").read_bytes())
    assert models[0] == models[1]


@pytest.mark.parametrize("flag,value", [
    ("--provider", "bogus"),
    ("--method", "bogus"),
    ("--keys", "{tmp}/missing_keys.tsv"),
    ("--gazetteer", "{tmp}/missing_gazetteer.tsv"),
    ("--workers", "0"),
    ("--dim", "0"),
    ("--iters", "0"),
    ("--step", "0"),
    ("--step", "inf"),
    ("--l2", "-1"),
    ("--l2", "nan"),
    ("--alpha", "0"),
    ("--alpha", "nan"),
    ("--rate", "-5"),
    ("--rate", "nan"),
    ("--skip", "build-gazetteer"),
    ("--skip", "train"),
    ("--model", "{tmp}/nodir/sub/model.json"),
], ids=["provider", "method", "keys", "gazetteer", "workers", "dim", "iters", "step", "step-inf",
        "l2", "l2-nan", "alpha", "alpha-nan", "rate", "rate-nan", "skip-gazetteer", "skip-train",
        "model-dir"])
def test_config_error_exits_2_before_any_stage(synth_dir, tmp_path, capsys, flag, value):
    keys = write_keys(tmp_path / "keys.tsv")
    out = tmp_path / "never_run"
    # the last occurrence of a flag wins
    args = pipeline_args(synth_dir, out, keys) + [flag, value.format(tmp=tmp_path)]
    assert main(args) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


BAD_URL_TEMPLATES = {
    "unknown-field": "http://127.0.0.1:1/?q={address}&k={key}&x={other}",
    "positional-field": "http://127.0.0.1:1/?q={}&k={key}",
    "unbalanced-brace": "http://127.0.0.1:1/?q={address",
}


@pytest.mark.parametrize("command", ["geocode", "pipeline"])
@pytest.mark.parametrize("template", BAD_URL_TEMPLATES.values(), ids=BAD_URL_TEMPLATES.keys())
def test_bad_url_template_exits_2_before_reading(synth_dir, tmp_path, monkeypatch, capsys, command, template):
    # the template is filled only at the first request, after every other stage
    keys = write_keys(tmp_path / "keys.tsv")
    out = tmp_path / "out"
    out.mkdir()
    read, requested = [], []
    monkeypatch.setattr(cli_module, "ingest", lambda path: read.append(path))
    monkeypatch.setattr(HttpGeocoder, "geocode", lambda self, address, api_key=None: requested.append(address))
    argv = (["geocode", "--corpus", str(synth_dir / "corpus.tsv"), "--keys", str(keys),
             "--out", str(out / "coordinates.tsv")] if command == "geocode" else pipeline_args(synth_dir, out, keys))
    assert main(argv + ["--provider", "http", "--url-template", template]) == 2
    assert "configuration error: url_template" in capsys.readouterr().err
    assert read == [] and requested == []
    assert list(out.iterdir()) == []


def test_train_model_in_a_missing_directory_exits_2_before_reading(synth_dir, tmp_path, monkeypatch, capsys):
    read = []
    monkeypatch.setattr(cli_module, "ingest", lambda path: read.append(path))
    model = tmp_path / "nodir" / "sub" / "model.json"
    assert main(["train", *corpus_args(synth_dir), "--method", "naive_bayes", "--model", str(model)]) == 2
    assert "configuration error: model directory not found" in capsys.readouterr().err
    assert read == []
    assert list(tmp_path.iterdir()) == []


def test_plans_with_stand_ins_for_skipped_stages_run(synth_dir, tmp_path):
    keys = write_keys(tmp_path / "keys.tsv")
    full, saved, no_location = tmp_path / "full", tmp_path / "saved", tmp_path / "no_location"
    assert main(pipeline_args(synth_dir, full, keys)) == 0
    # a saved model stands in for the train stage
    model = full / "model.json"
    assert main(pipeline_args(synth_dir, saved, keys) + ["--skip", "train", "--model", str(model)]) == 0
    assert not (saved / "model.json").exists()
    assert (saved / "records_final.tsv").read_bytes() == (full / "records_final.tsv").read_bytes()
    # impute-location is skipped along with the gazetteer it needs
    assert main(pipeline_args(synth_dir, no_location, keys) + ["--skip", "build-gazetteer,impute-location"]) == 0
    assert not (no_location / "location_report.tsv").exists()
    assert (no_location / "records_final.tsv").is_file()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_model_file_stands_in_only_for_a_skipped_train_stage(synth_dir, tmp_path, capsys, workers):
    # train runs and finds no labeled record, so the model file an earlier
    # run left must not fill the categories
    model = tmp_path / "model.json"
    assert main(["train", *corpus_args(synth_dir), "--method", "naive_bayes", "--dim", DIM, "--model", str(model)]) == 0
    trained = model.read_bytes()
    records = ingest(synth_dir / "corpus.tsv").records
    for rec in records:
        rec.category = None
    write_records(records, tmp_path / "unlabeled.tsv")
    out = tmp_path / "out"
    args = pipeline_args(synth_dir, out, write_keys(tmp_path / "keys.tsv"))
    args[args.index("--corpus") + 1] = str(tmp_path / "unlabeled.tsv")
    assert main(args + ["--model", str(model), "--workers", workers]) == 1
    assert "pipeline failed at stage impute-category: no model available for category imputation" in (
        capsys.readouterr().err)
    assert model.read_bytes() == trained
    assert not (out / "records_final.tsv").exists()
    assert_reaped_and_clean(tmp_path)


def test_config_file_and_env_overrides(synth_dir, tmp_path, monkeypatch):
    keys = write_keys(tmp_path / "keys.tsv")
    out = tmp_path / "cfg_run"
    config = tmp_path / "pipeline.conf"
    config.write_text(
        "\n".join([
            "# pipeline configuration",
            f"corpus={synth_dir / 'corpus.tsv'}",
            f"lexicon={synth_dir / 'lexicon.tsv'}",
            f"gazetteer={synth_dir / 'gazetteer.tsv'}",
            f"keys={keys}",
            "method=naive_bayes",
            f"dim={DIM}",
            "output_dir=/nonexistent/overridden/by/env",
        ]) + "\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("REGIMPUTE_OUTPUT_DIR", str(out))
    assert main(["pipeline", "--config", str(config)]) == 0
    assert (out / "records_final.tsv").is_file()


def test_exit_code_2_on_config_error(tmp_path):
    code = main(["pipeline", "--corpus", str(tmp_path / "missing.tsv"),
                 "--lexicon", "x", "--gazetteer", "y", "--keys", "z",
                 "--output-dir", str(tmp_path / "o")])
    assert code == 2


def test_exit_code_2_on_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("no_such_key=1\n", encoding="utf-8")
    assert main(["pipeline", "--config", str(bad)]) == 2


def test_exit_code_1_on_stage_failure(synth_dir, tmp_path):
    keys = write_keys(tmp_path / "keys.tsv")
    broken = tmp_path / "broken_gazetteer.tsv"
    broken.write_text("wrong\theader\n", encoding="utf-8")
    for workers in ("1", "2"):
        args = pipeline_args(synth_dir, tmp_path / f"fail_run_w{workers}", keys)
        args[args.index("--gazetteer") + 1] = str(broken)
        assert main(args + ["--workers", workers]) == 1
        # artifacts from completed stages are retained
        assert (tmp_path / f"fail_run_w{workers}" / "missingness_before.tsv").is_file()


# --- output paths are checked before a command reads anything --------------


def output_path_cases(synth_dir, keys, good, bad):
    """case id -> (argv whose output flag names a file in a missing
    directory, that flag)."""
    corpus = corpus_args(synth_dir)
    gazetteer_args = ["--gazetteer", str(synth_dir / "gazetteer.tsv")]
    cases = {
        "ingest": (["ingest", "--corpus", corpus[1], "--out", bad], "--out"),
        "segment": (["segment", *corpus, "--out", bad], "--out"),
        "vectorize": (["vectorize", *corpus, "--dim", DIM, "--out", bad], "--out"),
        "impute-category": (["impute-category", *corpus, "--model", str(good / "m.json"), "--out", bad], "--out"),
        "impute-category-report": (["impute-category", *corpus, "--model", str(good / "m.json"),
                                    "--out", str(good / "o.tsv"), "--truth", str(synth_dir / "truth.tsv"),
                                    "--report", bad], "--report"),
        "impute-location-report": (["impute-location", *corpus, *gazetteer_args, "--out", str(good / "o.tsv"),
                                    "--report", bad], "--report"),
        "geocode": (["geocode", "--corpus", corpus[1], "--keys", str(keys), "--out", bad], "--out"),
        "geocode-merged": (["geocode", "--corpus", corpus[1], "--keys", str(keys), "--out", str(good / "c.tsv"),
                            "--merged-out", bad], "--merged-out"),
        "kfunction": (["kfunction", "--corpus", corpus[1], "--radii", "10,50", "--out", bad], "--out"),
        "export": (["export", "--corpus", corpus[1], "--out", bad], "--out"),
        "speedup": (["speedup", "--workers", "1,2", "--synthetic", "500", "--method", "naive_bayes",
                     "--dim", "64", "--out", bad], "--out"),
    }
    for command in ("impute-postcode", "impute-ad", "impute-location"):
        cases[command] = ([command, *corpus, *gazetteer_args, "--out", bad], "--out")
    return cases


OUTPUT_CASES = ("ingest", "segment", "vectorize", "impute-category", "impute-category-report", "impute-postcode",
                "impute-ad", "impute-location", "impute-location-report", "geocode", "geocode-merged",
                "kfunction", "export", "speedup")


@pytest.mark.parametrize("case", OUTPUT_CASES)
def test_output_in_a_missing_directory_exits_2_before_reading(synth_dir, tmp_path, monkeypatch, capsys,
                                                              requested, case):
    keys = write_keys(tmp_path / "keys.tsv")
    good = tmp_path / "good"
    good.mkdir()
    bad = tmp_path / "nodir" / "sub" / "out.tsv"
    argv, flag = output_path_cases(synth_dir, keys, good, str(bad))[case]
    read = []
    monkeypatch.setattr(cli_module, "_require_file", lambda path, what: read.append(path))
    monkeypatch.setattr(cli_module, "synth_labeled_points", lambda *a, **k: read.append("synthetic"))
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 2
    assert f"configuration error: {flag} directory not found: {bad.parent}" in capsys.readouterr().err
    assert read == [] and requested == []
    assert sorted(tmp_path.rglob("*")) == before


# --- input files are checked before a command reads any --------------------

# command -> the flags naming the files it reads (impute-category reads
# --truth only with --report)
INPUT_FILES = {
    "ingest": ("corpus",),
    "segment": ("lexicon", "corpus"),
    "vectorize": ("lexicon", "corpus"),
    "train": ("lexicon", "corpus"),
    "evaluate": ("lexicon", "corpus"),
    "speedup": ("lexicon", "corpus"),
    "impute-category": ("model", "lexicon", "corpus", "truth"),
    "build-gazetteer": ("gazetteer",),
    "validate-gazetteer": ("gazetteer", "lexicon", "corpus"),
    "impute-postcode": ("gazetteer", "lexicon", "corpus"),
    "impute-ad": ("gazetteer", "lexicon", "corpus"),
    "impute-location": ("gazetteer", "lexicon", "corpus"),
    "geocode": ("keys", "corpus"),
    "kfunction": ("corpus",),
    "export": ("corpus",),
}


def output_args(command, out):
    """The command's other arguments, every file it writes under out."""
    args = [] if command in ("train", "build-gazetteer", "validate-gazetteer") else ["--out", str(out / "o")]
    return args + {
        "train": ["--model", str(out / "model.json")],
        "speedup": ["--workers", "1,2"],
        "impute-category": ["--report", str(out / "r.tsv")],
        "impute-location": ["--report", str(out / "r.tsv")],
        "geocode": ["--merged-out", str(out / "m.tsv")],
        "kfunction": ["--radii", "10,50"],
    }.get(command, [])


@pytest.mark.parametrize("command,missing", [(c, m) for c, files in INPUT_FILES.items() for m in files])
def test_a_missing_input_exits_2_before_any_file_is_read(tmp_path, capsys, command, missing):
    # every other input is malformed, so reading one first would exit 1
    out = tmp_path / "out"
    out.mkdir()
    paths = {name: tmp_path / f"{name}.tsv" for name in INPUT_FILES[command]}
    for name, path in paths.items():
        if name != missing:
            path.write_text("wrong\theader\n", encoding="utf-8")
    argv = [command, *output_args(command, out)]
    for name, path in paths.items():
        argv += [f"--{name}", str(path)]
    assert main(argv) == 2
    assert f"configuration error: {missing} file not found: {paths[missing]}" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("truth", ["missing", "malformed"])
def test_impute_category_reads_the_truth_before_writing_out(synth_dir, tmp_path, capsys, truth):
    model = tmp_path / "model.json"
    assert main(["train", *corpus_args(synth_dir), "--method", "naive_bayes", "--dim", DIM,
                 "--model", str(model)]) == 0
    path = tmp_path / "truth.tsv"
    if truth == "malformed":
        path.write_text("wrong\theader\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    code = main(["impute-category", *corpus_args(synth_dir), "--model", str(model), "--out", str(out / "o.tsv"),
                 "--truth", str(path), "--report", str(out / "r.tsv")])
    err = capsys.readouterr().err
    if truth == "missing":
        assert code == 2 and f"configuration error: truth file not found: {path}" in err
    else:
        assert code == 1 and "not a ground-truth sidecar" in err
    assert list(out.iterdir()) == []


# --- option values are checked before a command reads or writes ------------

# case -> (the command's arguments, the option whose value is bad)
INPUTS = ["--corpus", "{synth}/corpus.tsv", "--lexicon", "{synth}/lexicon.tsv"]
BAD_OPTION_VALUES = {
    "synth-negative-n": (["synth", "--n", "-5", "--out", "{out}/made"], "--n"),
    "evaluate-one-fold": (["evaluate", *INPUTS, "--k", "1", "--out", "{out}/made"], "--k"),
    "speedup-without-1": (["speedup", *INPUTS, "--workers", "2", "--out", "{out}/s.tsv"], "--workers"),
    "speedup-zero-workers": (["speedup", *INPUTS, "--workers", "0,1", "--out", "{out}/s.tsv"], "--workers"),
    "speedup-not-a-number": (["speedup", *INPUTS, "--workers", "x", "--out", "{out}/s.tsv"], "--workers"),
    "impute-category-report-only": (["impute-category", *INPUTS, "--model", "{model}", "--out", "{out}/o.tsv",
                                     "--report", "{out}/r.tsv"], "--report"),
    "impute-category-truth-only": (["impute-category", *INPUTS, "--model", "{model}", "--out", "{out}/o.tsv",
                                    "--truth", "{synth}/truth.tsv"], "--truth"),
    "kfunction-not-a-number": (["kfunction", "--corpus", "{synth}/corpus.tsv", "--radii", "25,x",
                                "--out", "{out}/k.tsv"], "--radii"),
    "kfunction-decreasing": (["kfunction", "--corpus", "{synth}/corpus.tsv", "--radii", "50,25",
                              "--out", "{out}/k.tsv"], "--radii"),
}


@pytest.mark.parametrize("case", BAD_OPTION_VALUES)
def test_a_bad_option_value_exits_2_before_reading_or_writing(synth_dir, tmp_path, monkeypatch, capsys, case):
    args, flag = BAD_OPTION_VALUES[case]
    out = tmp_path / "out"
    out.mkdir()
    model = tmp_path / "model.json"
    model.write_text("{}", encoding="utf-8")
    read = []
    monkeypatch.setattr(cli_module, "ingest", lambda path: read.append(path))
    monkeypatch.setattr(cli_module.Lexicon, "from_tsv", classmethod(lambda cls, path: read.append(path)))
    before = sorted(tmp_path.rglob("*"))
    assert main([arg.format(synth=synth_dir, out=out, model=model) for arg in args]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and flag in err
    assert read == []
    assert sorted(tmp_path.rglob("*")) == before


# --- the category track beside the location track (workers >= 2) -----------


def assert_reaped_and_clean(path):
    """No child process is left to reap and no temporary file under path."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list(path.rglob("*.tmp")) == []


def broken_gazetteer(path):
    path.write_text("wrong\theader\n", encoding="utf-8")
    return str(path)


def failing_train(monkeypatch, how):
    """Patch classify.train to fail: raise a ValueError, or exit the
    process with status 3 (only in a forked child, never this process)."""
    parent = os.getpid()

    def train(*args, **kwargs):
        if how == "exit" and os.getpid() != parent:
            os._exit(3)
        raise ValueError("planted training failure")

    monkeypatch.setattr(cli_module.classify, "train", train)


def test_child_that_exits_without_a_result_fails_its_first_stage(synth_dir, tmp_path, monkeypatch, capsys, deadline):
    failing_train(monkeypatch, "exit")
    out = tmp_path / "out"
    assert main(pipeline_args(synth_dir, out, write_keys(tmp_path / "keys.tsv")) + ["--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert "pipeline failed at stage train: child process exited with status 3 before it sent a result" in err
    assert "Error" not in err  # no EOFError or UnpicklingError
    assert (out / "location_report.tsv").is_file()  # the location track ran to its end
    assert_reaped_and_clean(tmp_path)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("failing", [("train",), ("build-gazetteer",), ("train", "build-gazetteer")],
                         ids=["train", "build-gazetteer", "both"])
def test_the_first_failed_stage_is_reported(synth_dir, tmp_path, monkeypatch, capsys, workers, failing):
    if "train" in failing:
        failing_train(monkeypatch, "raise")
    out = tmp_path / "out"
    args = pipeline_args(synth_dir, out, write_keys(tmp_path / "keys.tsv"))
    if "build-gazetteer" in failing:
        args[args.index("--gazetteer") + 1] = broken_gazetteer(tmp_path / "broken.tsv")
    assert main(args + ["--workers", workers]) == 1
    err = capsys.readouterr().err
    if "train" in failing:
        assert "pipeline failed at stage train: planted training failure" in err
    else:  # the category track trained beside the failing location track
        assert "pipeline failed at stage build-gazetteer:" in err
        assert (out / "model.json").is_file()
    assert_reaped_and_clean(tmp_path)


def test_interrupted_location_track_waits_for_the_category_child(synth_dir, tmp_path, monkeypatch):
    def interrupted(entries):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli_module.gazetteer, "build", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(pipeline_args(synth_dir, out, write_keys(tmp_path / "keys.tsv")) + ["--workers", "2"])
    assert (out / "model.json").is_file()  # the child was let finish, not killed mid-write
    assert_reaped_and_clean(tmp_path)


@pytest.mark.parametrize("workers,skip", [("1", ""), ("2", "train,impute-category")])
def test_pipeline_forks_only_to_overlap_the_category_track(synth_dir, tmp_path, monkeypatch, workers, skip):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    args = pipeline_args(synth_dir, tmp_path / "out", write_keys(tmp_path / "keys.tsv"))
    assert main(args + ["--workers", workers] + (["--skip", skip] if skip else [])) == 0


# --- every command takes its configuration keys through PipelineConfig ----


def moved_command_args(synth_dir, located, out):
    """command -> (its configuration keys, its other arguments), for the
    commands that once declared their keys by hand."""
    corpus, lexicon, gaz = (str(synth_dir / name) for name in ("corpus.tsv", "lexicon.tsv", "gazetteer.tsv"))
    return {
        "ingest": ({"corpus": corpus}, ["--out", str(out / "records.tsv")]),
        "segment": ({"lexicon": lexicon, "corpus": corpus}, ["--out", str(out / "tokens.tsv")]),
        "vectorize": ({"corpus": corpus, "lexicon": lexicon, "dim": DIM}, ["--out", str(out / "vectors.tsv")]),
        "build-gazetteer": ({"gazetteer": gaz}, []),
        "validate-gazetteer": ({"gazetteer": gaz, "corpus": corpus, "lexicon": lexicon}, []),
        "kfunction": ({"corpus": str(located)}, ["--radii", "10,50", "--out", str(out / "k.tsv")]),
        "export": ({"corpus": str(located)}, ["--out", str(out / "points.geojson")]),
    }


MOVED_COMMANDS = ("ingest", "segment", "vectorize", "build-gazetteer", "validate-gazetteer", "kfunction", "export")


@pytest.mark.parametrize("command", MOVED_COMMANDS)
def test_keys_come_from_env_and_flags_beat_it(synth_dir, tmp_path, monkeypatch, capsys, command):
    located = located_corpus(tmp_path / "located.tsv")
    results = {}
    for how in ("flags", "env", "env-and-flags"):
        out = tmp_path / how
        out.mkdir()
        keys, rest = moved_command_args(synth_dir, located, out)[command]
        flags = [] if how == "env" else [arg for key, value in keys.items() for arg in (f"--{key}", value)]
        for key, value in keys.items():
            if how == "flags":
                monkeypatch.delenv(f"REGIMPUTE_{key.upper()}", raising=False)
            else:
                # under the flags, the environment names a missing file or another dim
                beaten = "16" if key == "dim" else str(tmp_path / "missing.tsv")
                monkeypatch.setenv(f"REGIMPUTE_{key.upper()}", value if how == "env" else beaten)
        assert main([command, *rest, *flags]) == 0, how
        results[how] = (capsys.readouterr().out, {p.name: p.read_bytes() for p in out.iterdir()})
    assert results["env"] == results["flags"]
    assert results["env-and-flags"] == results["flags"]


def test_unknown_env_key_stops_every_command_with_keys(synth_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REGIMPUTE_NO_SUCH_KEY", "1")
    out = tmp_path / "records.tsv"
    assert main(["ingest", "--corpus", str(synth_dir / "corpus.tsv"), "--out", str(out)]) == 2
    assert "configuration error: unknown config key 'no_such_key'" in capsys.readouterr().err
    assert not out.exists()


def test_vectorize_dim_0_is_a_configuration_error(synth_dir, tmp_path, capsys):
    out = tmp_path / "vectors.tsv"
    assert main(["vectorize", *corpus_args(synth_dir), "--dim", "0", "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


def test_kfunction_without_a_corpus_is_a_configuration_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("REGIMPUTE_CORPUS", raising=False)
    out = tmp_path / "k.tsv"
    assert main(["kfunction", "--radii", "10,50", "--out", str(out)]) == 2
    assert "configuration error: corpus path not configured" in capsys.readouterr().err
    assert not out.exists()


def test_config_keys_are_declared_only_by_add_config_flags():
    # a flag that sets a PipelineConfig field must be what _add_config_flags
    # makes: its own name, no default and the field's type, so that main's
    # PipelineConfig.load is the one place a command gets a key's value
    fields = {f.name: type(f.default) for f in dataclasses.fields(PipelineConfig)}
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    declared = 0
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            if action.dest in fields:
                declared += 1
                made = ([f"--{action.dest.replace('_', '-')}"], None, fields[action.dest], False)
                assert (action.option_strings, action.default, action.type, action.required) == made, \
                    (command, action.dest)
    assert declared > len(fields)
