"""regimpute benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 36] [--trace 0|1]

Run from the root of a regimpute checkout. The run generates the
workload's inputs from the seed (untimed), then runs as many iterations
as fit in --seconds (at least one). Each iteration is a fresh worker.py process that
imports regimpute.cli (a setup_s sample) and runs the workload's commands
through regimpute.cli.main. Every iteration's outputs are checked; the last line
printed is {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics; --trace 1 alternates untraced and traced
iterations and reports the per-layer metrics.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
SETUP_SAMPLES = 5
RUN_BUDGET_S = 150  # the whole run must end within 180 s
MAX_ITERATIONS = 50
# traced iterations: layer self times must add up to the worker's own
# measured wall to within this (it also times the root spans' entry and exit)
LAYER_SUM_TOLERANCE_S = 1e-3
PROBE = "import time, regimpute.cli; print(time.monotonic()); print(regimpute.cli.__file__)"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "category_accuracy": "ratio",
    "postcode_accuracy": "ratio",
    "unfilled_ratio": "ratio",
    "originals_kept_ratio": "ratio",
}
PER_LAYER = (
    list(tracing.SELF_TIME_METRICS) + list(tracing.CALL_METRICS) + list(tracing.COUNT_METRICS)
    + list(tracing.RATIO_METRICS)
    + ["cli.stage_timer_gap_s", "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans"]
)


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "segmenter.s":
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith("_bytes") else "count"


def program_env() -> dict[str, str]:
    """The caller's environment with regimpute taken from this checkout
    and no REGIMPUTE_* overrides leaking into the pipeline config."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REGIMPUTE_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def stage_timer_gap(iterations: list[dict]) -> float:
    """Median, over traced pipeline iterations, of wall time minus the
    stage seconds the pipeline wrote to timings.tsv; 0 without a pipeline."""
    gaps = []
    for it in iterations:
        timings = Path(it["out"]) / "timings.tsv"
        if it["traced"] and timings.is_file():
            with open(timings, encoding="utf-8") as fh:
                fh.readline()
                stages = sum(float(line.split("\t")[2]) for line in fh if line.strip())
            gaps.append(sum(it["seconds"]) - stages)
    return statistics.median(gaps) if gaps else 0.0


def in_checkout(path: str) -> bool:
    return Path(path).resolve().is_relative_to((ROOT / "src").resolve())


def measure_setup(env, probes: int) -> list[float]:
    """Seconds from starting a fresh interpreter until import regimpute.cli
    returns (CLOCK_MONOTONIC is shared across processes)."""
    samples = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        stamp, path = proc.stdout.split("\n")[:2]
        if not in_checkout(path):
            raise RuntimeError(f"setup probe imported {path}")
        samples.append(float(stamp) - t0)
    return samples


def run_worker(workload, workdir: Path, index: int, traced: bool, env, deadline: float) -> dict:
    """One iteration in a fresh worker process; its result record."""
    out = workdir / f"iter{index}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--inputs", str(workdir / "input"), "--out", str(out), "--trace", str(int(traced))]
    started = time.monotonic()
    with open(workdir / f"iter{index}.log", "w", encoding="utf-8") as log:
        subprocess.run(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                       timeout=max(1.0, deadline - time.monotonic()), check=True)
    with open(workdir / f"iter{index}.json", encoding="utf-8") as fh:
        result = json.load(fh)
    if not in_checkout(result["regimpute_file"]):
        raise RuntimeError(f"worker imported {result['regimpute_file']}")
    result["out"] = str(out)
    result["setup_s"] = result["imported_at"] - started
    return result


def check_iterations(workload, inputs: Path, iterations: list[dict],
                     n: int) -> tuple[int, checks.Score | None, list[str]]:
    """Failed iteration count, the first good iteration's score, problems.

    The first iteration whose commands all exit 0 is scored in full; every
    later one must write byte-identical outputs."""
    input_rows = checks.read_records(inputs / "corpus.tsv")
    failed, score, reference, problems = 0, None, None, []
    for i, it in enumerate(iterations):
        out = Path(it["out"])
        try:
            if any(code != 0 for code in it["exit_codes"]):
                raise ValueError(f"exit codes {it['exit_codes']}")
            digest = checks.digest_outputs(out)
            if reference is None:
                rows = checks.read_records(workloads.final_records(workload, out))
                score = checks.score(input_rows, rows, checks.read_truth(inputs / "truth.tsv"))
                if workload.keeps_originals and score.originals_changed:
                    raise ValueError(f"{score.originals_changed} original values changed")
                if workload.kind == "geo":
                    if len(checks.read_records(out / "coordinates.tsv")) != n:
                        raise ValueError("coordinates.tsv row count differs from the corpus")
                    radii = [float(r) for r in workloads.K_RADII.split(",")]
                    checks.check_k_curve(out / "k.tsv", rows, radii)
                    years = tuple(int(y) for y in workloads.EXPORT_YEARS)
                    checks.check_export(out / "points.geojson", rows, years)
                reference = digest
            elif digest != reference:
                raise ValueError("outputs differ from the first iteration's")
        except (OSError, ValueError, KeyError) as exc:
            failed += 1
            problems.append(f"iteration {i}: {exc}")
    return failed, score, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--records", type=int, help="override the workload's record count (smoke tests)")
    args = p.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    n = args.records or workload.n

    try:
        workloads.import_regimpute(ROOT)
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workdir = WORK / workload.name
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.generate(workload, args.seed, n, workdir / "input")

    env = program_env()
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        iterations = []
        step = 2 if args.trace else 1  # traced runs take iterations in (untraced, traced) pairs
        started = time.monotonic()
        while len(iterations) < MAX_ITERATIONS:
            for _ in range(step):
                traced = len(iterations) % 2 == 1 and bool(args.trace)
                iterations.append(run_worker(workload, workdir, len(iterations), traced, env, deadline))
            elapsed = time.monotonic() - started
            # stop before a step that would end past --seconds; the first always runs
            if elapsed + elapsed * step / len(iterations) > args.seconds:
                break
        # every worker start is a setup sample; fresh interpreters fill up the rest
        setup = [it["setup_s"] for it in iterations]
        if not args.trace:
            setup += measure_setup(env, SETUP_SAMPLES - len(setup))
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failed, score, problems = check_iterations(workload, workdir / "input", iterations, n)
    untraced = [sum(it["seconds"]) for it in iterations if not it["traced"]]
    # load from elsewhere on the host only ever adds time, so the fastest
    # iteration is the steadiest estimate of the program's own cost
    wall = min(untraced)
    print(f"workload {workload.name}  seed {args.seed}  records {n}  iterations {len(iterations)}  "
          f"untraced wall per iteration {[round(w, 3) for w in untraced]}  records/s {n / wall:.1f}")
    for problem in problems:
        print(f"FAILED {problem}")

    correct = failed == 0 and score is not None
    if args.trace:
        traced = [it["layers"] for it in iterations if it["traced"]]
        for i, layers in enumerate(traced):
            if abs(layers["check.layer_gap_s"]) > LAYER_SUM_TOLERANCE_S:
                correct = False
                print(f"FAILED traced iteration {i}: layer self times plus cli.unattributed_s "
                      f"miss the measured wall time by {layers['check.layer_gap_s']!r} s")
            if layers["check.orphan_spans"]:
                correct = False
                print(f"FAILED traced iteration {i}: {layers['check.orphan_spans']} spans "
                      f"outside cli.main have no parent")
            if layers["check.requests_mismatch"]:
                correct = False
                print(f"FAILED traced iteration {i}: provider requests differ from the results' attempts")
        if workload.workers > 1:
            print("note: spans inside forked workers are lost; parallel.map_s is the parent's whole map")
        layers = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        layers["trace.untraced_wall_s"] = statistics.median(untraced)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        layers["cli.stage_timer_gap_s"] = stage_timer_gap(iterations)
        metrics = {name: {"value": layers[name], "unit": layer_unit(name)} for name in PER_LAYER}
    elif score is None:
        metrics = {}
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(it["peak_rss_kb"] for it in iterations) / 1024,
            **score.metrics(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        print(f"setup_s samples {[round(s, 4) for s in setup]}")
        print(f"category {score.category_correct}/{score.category_total}  "
              f"postcode {score.postcode_correct}/{score.postcode_total}  "
              f"unfilled {score.still_absent}/{score.absent_in}  "
              f"originals_changed {score.originals_changed}/{score.present_in}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")

    for path in [workdir / "input"] + [Path(it["out"]) for it in iterations]:
        shutil.rmtree(path, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": len(iterations), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
