"""The benchmark's tracer wraps regimpute functions by name, so renaming one
in src/ breaks `perfbench/run.py --trace 1`; this checks it still installs."""

from __future__ import annotations

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
