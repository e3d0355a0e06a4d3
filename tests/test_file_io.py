"""The package's file layer: every writer is atomic, every reader accepts a
UTF-8 byte-order mark, and no module opens a file for writing itself."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest

import regimpute
from regimpute import records as records_module
from regimpute.classify import load_model
from regimpute.cli import (
    PipelineConfig, _config_overrides, _StageTimer, _write_missingness, _write_summary, build_parser,
)
from regimpute.evaluate import ClassAccuracy, EvalReport, SpeedupCurve, SpeedupPoint, write_category_accuracy
from regimpute.gazetteer import PostcodeEntry, read_gazetteer, write_gazetteer
from regimpute.geocode import read_keys, write_results
from regimpute.locimpute import LocationReport
from regimpute.records import EnterpriseRecord, GroundTruth, ingest, missingness, write_records
from regimpute.segmenter import Lexicon
from regimpute.spatial import KCurve, export_geojson
from regimpute.vectorizer import hash_rows, write_vectors
from record_forms import columns_of

SRC = Path(regimpute.__file__).resolve().parent
DEMO_LEXICON = SRC / "data" / "demo_lexicon.tsv"


# --- writers: a failed write keeps the previous file ----------------------


def _records(version: str) -> list[EnterpriseRecord]:
    return [EnterpriseRecord(id="1", name=version, category="RE" if version == "old" else None)]


def _entry(street: str) -> PostcodeEntry:
    return PostcodeEntry("湖北省", "武汉市", "江岸区", street, "430014")


def _stage_timer(d: Path, version: str) -> None:
    timer = _StageTimer()
    timer.rows.append((version, 1, 0.25))
    timer.write(d / "out.tsv")


def _eval_report(d: Path, version: str) -> None:
    scale = 1 if version == "old" else 2
    EvalReport(("A", "B"), np.eye(2, dtype=np.int64) * scale, 0.1, 0.1, scale).write(d)


def _segment(d: Path, version: str) -> None:
    args = build_parser().parse_args(
        ["segment", "--lexicon", str(DEMO_LEXICON), "--text", f"武汉{version}", "--out", str(d / "out.tsv")]
    )
    args.func(args, PipelineConfig.load(None, _config_overrides(args)))


# name -> writer(directory, version): writes its file(s) into the directory,
# with content that depends on the version
WRITERS = {
    "records": lambda d, v: write_records(_records(v), d / "out.tsv"),
    "truth": lambda d, v: GroundTruth({("1", "category"): v}).write(d / "out.tsv"),
    "lexicon": lambda d, v: Lexicon({v: "n"}).to_tsv(d / "out.tsv"),
    "vectors": lambda d, v: write_vectors(["1"], [v], hash_rows([["a", "a"]], 8), d / "out.tsv"),
    "gazetteer": lambda d, v: write_gazetteer([_entry(v)], d / "out.tsv"),
    "location_report": lambda d, v: LocationReport(total=len(v)).write(d / "out.tsv"),
    "geocode_results": lambda d, v: write_results([v], ["100.5"], ["30.25"], ["ok"], d / "out.tsv"),
    "k_curve": lambda d, v: KCurve((1.0,), (float(len(v)),)).write(d / "out.tsv"),
    "eval_report": _eval_report,
    "speedup": lambda d, v: SpeedupCurve((SpeedupPoint(1, float(len(v)), 1.0),)).write(d / "out.tsv"),
    "category_accuracy": lambda d, v: write_category_accuracy([ClassAccuracy(v, 1, 1)], d / "out.tsv"),
    "stage_timings": _stage_timer,
    "missingness": lambda d, v: _write_missingness(missingness(*columns_of(_records(v))), d / "out.tsv"),
    "summary": lambda d, v: _write_summary(missingness(*columns_of(_records(v))), d / "out.tsv"),
    "geojson": lambda d, v: export_geojson([EnterpriseRecord(id=v, coordinates=(100.0, 30.0))], d / "out.tsv"),
    "segment_out": _segment,
}


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


def _open_half_writer(file, mode="r", *args, **kwargs):
    fh = open(file, mode, *args, **kwargs)
    return _HalfWriter(fh) if "w" in mode else fh


def _refuse_rename(*args):
    raise OSError("rename refused")


@pytest.mark.parametrize("fault", ["write", "rename"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file_and_leaves_no_temporary(tmp_path, monkeypatch, writer, fault):
    write = WRITERS[writer]
    write(tmp_path, "old")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert before
    if fault == "write":
        monkeypatch.setattr(records_module, "open", _open_half_writer, raising=False)
    else:
        monkeypatch.setattr(records_module.os, "replace", _refuse_rename)
    with pytest.raises(OSError):
        write(tmp_path, "new")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


# --- readers: a leading byte-order mark is accepted -----------------------

CORPUS_HEADER = "id\tname\tcategory\taddress\tpostcode\tdata_source"


def _read_corpus(path: Path):
    result = ingest(path)
    return [(r.id, r.category, r.address) for r in result.records], result.diagnostics


def _read_model(path: Path):
    model = load_model(path)
    return model.method, model.dim, model.classes, model.params


# name -> (file text after the mark, reader, what the reader returns)
READERS = {
    "corpus": (
        CORPUS_HEADER + "\n1\t武汉物业管理有限公司\tRE\t南京路16号\t430014\t\n",
        _read_corpus,
        ([("1", "RE", "南京路16号")], []),
    ),
    "lexicon": ("武汉\tns\n物业\tn\n", lambda p: Lexicon.from_tsv(p).entries, {"武汉": "ns", "物业": "n"}),
    "gazetteer": (
        "province\tcity\tcounty\tstreet\tpostcode\n湖北省\t武汉市\t江岸区\t南京路\t430014\n",
        read_gazetteer,
        ([_entry("南京路")], []),
    ),
    "truth": ("id\tfield\tvalue\nE1\tcategory\tRE\n", lambda p: GroundTruth.read(p).values, {("E1", "category"): "RE"}),
    "keys": ("key-a\t5\n", lambda p: [(k.key_id, k.daily_quota) for k in read_keys(p)], [("key-a", 5)]),
    "config": ("method=naive_bayes\n", lambda p: PipelineConfig.load(str(p)).method, "naive_bayes"),
    "model": (
        '{"format":"regimpute-model","format_version":2,"method":"naive_bayes","dim":4,'
        '"classes":["RE"],"params":{"alpha":1.0},"state":{}}',
        _read_model,
        ("naive_bayes", 4, ("RE",), {"alpha": 1.0}),
    ),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_accepts_utf8_bom(tmp_path, reader):
    text, read, expected = READERS[reader]
    path = tmp_path / "input.tsv"
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert read(path) == expected


# --- guard: only atomic_writer opens a file for writing -------------------


def _writing_calls(path: Path, root: Path = SRC) -> list[tuple[str, str | None, int]]:
    """(file, enclosing function, line) of each call in `path` that may open
    a file for writing: open() with a mode that is not a read-only literal,
    an `x.open(...)` given a write-mode literal, and Path.write_text/bytes."""
    found = []

    def writes(mode) -> bool:
        return isinstance(mode, ast.Constant) and isinstance(mode.value, str) and bool(set(mode.value) & set("wax+"))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.Call):
                func = child.func
                modes = [kw.value for kw in child.keywords if kw.arg == "mode"]
                if isinstance(func, ast.Name) and func.id == "open":
                    mode = (modes or child.args[1:2] or [None])[0]
                    hit = mode is not None and (writes(mode) or not isinstance(mode, ast.Constant))
                elif isinstance(func, ast.Attribute) and func.attr == "open":
                    hit = any(writes(m) for m in modes + child.args[:2])
                else:
                    hit = isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes")
                if hit:
                    found.append((str(path.relative_to(root)), inner, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_atomic_writer_opens_files_for_writing():
    calls = [call for path in sorted(SRC.rglob("*.py")) for call in _writing_calls(path)]
    assert [(file, scope) for file, scope, _ in calls] == [("records.py", "atomic_writer")]


def test_guard_sees_each_form_of_writing_open(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def f(p, m):\n"
        "    open(p, 'w')\n"
        "    open(p, mode='a')\n"
        "    open(p, m)\n"
        "    p.open('r+')\n"
        "    p.write_text('')\n"
        "    open(p)\n"
        "    open(p, 'rb')\n"
        "    p.open()\n",
        encoding="utf-8",
    )
    assert [line for _, _, line in _writing_calls(path, tmp_path)] == [2, 3, 4, 5, 6]
