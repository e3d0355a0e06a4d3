"""In-process partitioned map: split, map each partition independently;
callers merge the per-partition results in partition order.

Workers are forked processes so CPU-bound maps actually run in parallel.
Partitions are handed to workers through fork-inherited memory, not
pickled, so mapping over a large in-memory dataset costs no serialization
on the way in; only the (small) per-partition results travel back.

On platforms without fork the map degrades to sequential execution with
identical results.
"""

from __future__ import annotations

import multiprocessing
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Set in the parent immediately before forking; children read it.
_FORK_PAYLOAD = None


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


def _run_partition(index: int):
    fn, partitions = _FORK_PAYLOAD
    return fn(partitions[index])


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def map_partitions(
    partitions: Sequence[Sequence[T]],
    fn: Callable[[Sequence[T]], R],
    workers: int = 1,
) -> list[R]:
    """Apply fn to each partition; result order matches partition order."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if workers == 1 or len(partitions) <= 1 or not _fork_available():
        return [fn(p) for p in partitions]
    global _FORK_PAYLOAD
    _FORK_PAYLOAD = (fn, list(partitions))
    try:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(workers, len(partitions))) as pool:
            return pool.map(_run_partition, range(len(partitions)))
    finally:
        _FORK_PAYLOAD = None

