"""In-process partitioned map, and one call forked beside another.

map_partitions splits, maps each partition independently, and callers
merge the per-partition results in partition order. Partitions run in
threads that share the caller's memory, so nothing is pickled. The maps
that gain spend their time with the GIL released: Naive Bayes' sparse
count products and geocode's provider requests.

beside runs two calls as if in order, the first in one forked child. It
is for work that holds the GIL, such as the pipeline's category track
(many small numpy calls in LR training) beside its location track: in
threads the two take turns on one core. A forked child shares nothing
after the fork, so its value comes back pickled through a pipe.
"""

from __future__ import annotations

import os
import pickle
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")
A = TypeVar("A")
B = TypeVar("B")


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


def beside(first: Callable[[], A], second: Callable[[], B], fork: bool = False) -> tuple[A, B]:
    """(first(), second()), as if called in that order.

    With fork true, where os.fork exists, first runs in one forked child
    while second runs here; first's changes to memory stay in the child,
    so it must return what the caller needs. Of two failures the one
    raised is the one the calls in order would raise: first's, else
    second's. A child that exits without sending its result raises
    ChildProcessError naming its exit status. Every path waits for the
    child, and it is sent no signal, so an interrupt here lets it finish.
    """
    if not (fork and hasattr(os, "fork")):
        return first(), second()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _run_child(first, write_fd)
    os.close(write_fd)
    try:
        value = second()
    except Exception:
        _result(pid, read_fd)  # first's failure comes first
        raise
    except BaseException:
        _reap(pid, read_fd)
        raise
    return _result(pid, read_fd), value


def _run_child(fn: Callable[[], A], fd: int) -> None:
    """In the forked child: send fn's value or exception through fd and
    exit, never returning into the caller's frames."""
    status = 1
    try:
        try:
            outcome = (True, fn())
        except BaseException as exc:  # sent to the parent, which raises it
            outcome = (False, exc)
        data = memoryview(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(fd, data):]
        status = 0
    finally:
        os._exit(status)


def _reap(pid: int, fd: int) -> tuple[bytes, int]:
    """The child's bytes and exit code. The pipe is read to EOF before the
    wait, so a result larger than the pipe buffer cannot block the child."""
    try:
        with open(fd, "rb") as pipe:
            data = pipe.read()
    finally:
        _, status = os.waitpid(pid, 0)
    return data, os.waitstatus_to_exitcode(status)


def _result(pid: int, fd: int):
    data, code = _reap(pid, fd)
    if code or not data:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise ChildProcessError(f"child process {how} before it sent a result")
    ok, value = pickle.loads(data)  # bytes this program's own child wrote
    if ok:
        return value
    raise value
