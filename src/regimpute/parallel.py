"""In-process partitioned map: split, map each partition independently;
callers merge the per-partition results in partition order.

Partitions run in threads that share the caller's memory, so nothing is
pickled. The maps that gain spend their time with the GIL released: Naive
Bayes' sparse count products and geocode's provider requests.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def split(items: Sequence[T], parts: int) -> list[Sequence[T]]:
    """Contiguous slices with sizes differing by at most one."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    n = len(items)
    parts = min(parts, n) if n else 1
    base, extra = divmod(n, parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        out.append(items[start : start + size])
        start += size
    return out


def map_partitions(
    partitions: Sequence[T],
    fn: Callable[[T], R],
    workers: int = 1,
) -> list[R]:
    """Apply fn to each partition; result order matches partition order."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(partitions) <= 1:
        return [fn(p) for p in partitions]
    with ThreadPoolExecutor(min(workers, len(partitions))) as pool:
        return list(pool.map(fn, partitions))
