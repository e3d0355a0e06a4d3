from __future__ import annotations

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


def test_forked_map_equals_sequential_map():
    parts = split(list(range(1000)), 4)
    fn = lambda chunk: sum(x * x for x in chunk)
    assert map_partitions(parts, fn, workers=4) == map_partitions(parts, fn, workers=1)

