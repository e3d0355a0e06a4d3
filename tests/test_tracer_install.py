"""The benchmark's tracer wraps regimpute functions by name, so renaming one
in src/ breaks `perfbench/run.py --trace 1`; this checks it still installs,
and that a traced run of the geo commands passes the run's checks."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_tracer_installs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "perfbench"), str(ROOT / "src")))}
    child = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.Tracer().install()"], env=env, capture_output=True
    )
    assert child.returncode == 0, child.stderr.decode()


TRACED_GEO_RUN = """
import json, sys, time
from pathlib import Path
import regimpute.cli as cli
import tracing, workloads

work = Path(sys.argv[1])
workload = workloads.WORKLOADS["geo_analysis_100k"]
workloads.generate(workload, 5, 400, work / "input")  # a seeded half of the rows arrive located
tracer = tracing.Tracer()
tracer.install()
codes, wall = [], 0.0
for argv in workloads.commands(workload, work / "input", work):
    t0 = time.perf_counter()
    codes.append(tracer.call(tracing.CLI, "main", cli.main, argv))
    wall += time.perf_counter() - t0
print(json.dumps({"codes": codes, "metrics": tracing.layer_metrics(tracer, wall)}))
"""


def test_traced_geo_commands_pass_the_tracer_checks(tmp_path):
    # the tracer's hooks read the geocode shards and results, so a traced
    # geocode, kfunction and export must still account for every request
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(ROOT / "perfbench"), str(ROOT / "src")))}
    child = subprocess.run([sys.executable, "-c", TRACED_GEO_RUN, str(tmp_path)], env=env, capture_output=True)
    assert child.returncode == 0, child.stderr.decode()
    report = json.loads(child.stdout.decode().splitlines()[-1])
    metrics = report["metrics"]
    assert report["codes"] == [0, 0, 0]
    assert metrics["geocode.requests"] > 0 and metrics["spatial.features"] > 0
    assert metrics["check.requests_mismatch"] == 0
    assert metrics["check.orphan_spans"] == 0
