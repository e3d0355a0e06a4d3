"""Workload definitions and the seeded input generator.

Every input a workload reads is built here from the workload seed through
regimpute's public synth API, so the program under test only ever sees the
generated files. Generation is not timed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

# 2 keys, so geocode_batch runs 2 shard threads; the quota never runs out.
KEYS = (("key-a", 1_000_000), ("key-b", 1_000_000))
K_RADII = "25,50,100,200"
EXPORT_YEARS = ("1995", "2015")
PIPELINE_METHOD = "logistic_regression"
PIPELINE_DIM = 15000


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    kind: str  # "pipeline" runs `regimpute pipeline`; "geo" runs the analysis sequence
    workers: int = 1  # pipeline config: >1 takes parallel.map_partitions' forked path
    # False only where a known defect changes original values: geocode
    # re-geocodes rows that arrive with coordinates (ROADMAP open item 4).
    keeps_originals: bool = True


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pipeline_20k", 20_000, "pipeline"),
        Workload("pipeline_20k_w2", 20_000, "pipeline", workers=2),
        Workload("geo_analysis_100k", 100_000, "geo", keeps_originals=False),
    )
}


def import_regimpute(root: Path):
    """Import regimpute from <root>/src and refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "regimpute" / "cli.py").is_file():
        raise RuntimeError(f"no regimpute sources under {src}")
    sys.path.insert(0, str(src))
    import regimpute

    if Path(regimpute.__file__).resolve().parent.parent != src:
        raise RuntimeError(f"imported regimpute from {regimpute.__file__}, not from {src}")
    return regimpute


def generate(workload: Workload, seed: int, n: int, dest: Path) -> None:
    """Write corpus, truth, lexicon, gazetteer, keys and pipeline config.

    For the geo workload a seeded half of the records carries the mock
    geocoder's coordinates for its address, as rows that arrive already
    georeferenced."""
    from regimpute import gazetteer, geocode
    from regimpute.records import write_records
    from regimpute.synth import SynthConfig, synth, synth_world

    dest.mkdir(parents=True, exist_ok=True)
    config = SynthConfig(n=n, seed=seed)
    world = synth_world(config)
    records, truth = synth(config)
    if workload.kind == "geo":
        provider = geocode.MockGeocoder()
        for rec in random.Random(seed).sample(records, n // 2):
            rec.coordinates = provider.geocode(rec.address or "")
    write_records(records, dest / "corpus.tsv")
    truth.write(dest / "truth.tsv")
    world.lexicon.to_tsv(dest / "lexicon.tsv")
    gazetteer.write_gazetteer(world.gazetteer, dest / "gazetteer.tsv")
    with open(dest / "keys.tsv", "w", encoding="utf-8") as fh:
        for key, quota in KEYS:
            fh.write(f"{key}\t{quota}\n")
    with open(dest / "pipeline.conf", "w", encoding="utf-8") as fh:
        for key, value in (
            ("corpus", dest / "corpus.tsv"),
            ("lexicon", dest / "lexicon.tsv"),
            ("gazetteer", dest / "gazetteer.tsv"),
            ("keys", dest / "keys.tsv"),
            ("method", PIPELINE_METHOD),
            ("dim", PIPELINE_DIM),
            ("workers", workload.workers),
            ("rate", 0),
            ("provider", "mock"),
        ):
            fh.write(f"{key}={value}\n")


def commands(workload: Workload, inputs: Path, out: Path) -> list[list[str]]:
    """The user commands one iteration runs, as argv lists for cli.main."""
    if workload.kind == "pipeline":
        return [["pipeline", "--config", str(inputs / "pipeline.conf"), "--output-dir", str(out)]]
    merged = str(out / "merged.tsv")
    return [
        ["geocode", "--corpus", str(inputs / "corpus.tsv"), "--keys", str(inputs / "keys.tsv"),
         "--provider", "mock", "--rate", "0",
         "--out", str(out / "coordinates.tsv"), "--merged-out", merged],
        ["kfunction", "--corpus", merged, "--radii", K_RADII, "--out", str(out / "k.tsv")],
        ["export", "--corpus", merged, "--out", str(out / "points.geojson"),
         "--from-year", EXPORT_YEARS[0], "--to-year", EXPORT_YEARS[1]],
    ]


def final_records(workload: Workload, out: Path) -> Path:
    """The record file whose values the correctness checks score."""
    return out / ("records_final.tsv" if workload.kind == "pipeline" else "merged.tsv")
