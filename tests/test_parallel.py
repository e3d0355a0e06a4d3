from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from regimpute.parallel import map_partitions, split


@given(st.integers(0, 200), st.integers(1, 12))
def test_split_partitions_everything_evenly(n, parts):
    items = list(range(n))
    chunks = split(items, parts)
    assert [x for chunk in chunks for x in chunk] == items
    sizes = [len(c) for c in chunks]
    assert max(sizes) - min(sizes) <= 1
    if n:
        assert len(chunks) == min(parts, n)


def test_split_rejects_zero_parts():
    with pytest.raises(ValueError):
        split([1, 2], 0)


def test_map_partitions_preserves_order():
    parts = split(list(range(100)), 4)
    sums = map_partitions(parts, sum, workers=1)
    assert sums == [sum(p) for p in parts]


def test_threaded_map_equals_sequential_map():
    parts = split(list(range(1000)), 4)
    fn = lambda chunk: sum(x * x for x in chunk)
    assert map_partitions(parts, fn, workers=4) == map_partitions(parts, fn, workers=1)



def test_cli_import_does_not_load_multiprocessing():
    # the partitioned map runs on threads, so start-up imports no process pool
    code = "import sys, regimpute.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
