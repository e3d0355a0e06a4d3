from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

from regimpute.parallel import beside, map_partitions, split


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


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_beside_calls_in_order_without_fork():
    calls = []
    assert beside(lambda: calls.append("first") or 1, lambda: calls.append("second") or 2) == (1, 2)
    assert calls == ["first", "second"]


def test_forked_first_runs_in_a_child_at_the_same_time_as_second(deadline):
    # first waits for a byte that second sends: called in order, first
    # would wait out its timeout
    read_fd, write_fd = os.pipe()

    def first():
        ready, _, _ = select.select([read_fd], [], [], 5)
        return os.getpid(), bool(ready)

    def second():
        os.write(write_fd, b"x")
        return os.getpid()

    try:
        (child, waited), parent = beside(first, second, fork=True)
    finally:
        os.close(read_fd)
        os.close(write_fd)
    assert waited and child != parent == os.getpid()
    assert_no_child_left()


def test_forked_result_larger_than_the_pipe_buffer(deadline):
    big = bytes(range(256)) * 8192  # 2 MiB
    assert beside(lambda: big, lambda: None, fork=True) == (big, None)
    assert_no_child_left()


def fail(exc):
    def call():
        raise exc

    return call


@pytest.mark.parametrize("fork", [False, True])
@pytest.mark.parametrize("first_fails,second_fails,raised", [
    (True, True, ValueError), (True, False, ValueError), (False, True, KeyError),
])
def test_beside_raises_the_failure_of_the_first_call_that_failed(deadline, fork, first_fails, second_fails, raised):
    first = fail(ValueError("first")) if first_fails else (lambda: 1)
    second = fail(KeyError("second")) if second_fails else (lambda: 2)
    with pytest.raises(raised):
        beside(first, second, fork=fork)
    assert_no_child_left()


@pytest.mark.parametrize("end,message", [
    (lambda: os._exit(3), "exited with status 3"),
    (lambda: os._exit(0), "exited with status 0"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    (lambda: (lambda: None), "exited with status 1"),  # a result that cannot be pickled
], ids=["exit-3", "exit-0", "killed", "unpicklable"])
def test_child_without_a_result_raises_child_process_error(deadline, end, message):
    with pytest.raises(ChildProcessError, match=message):
        beside(end, lambda: None, fork=True)
    assert_no_child_left()


def test_interrupt_beside_a_child_waits_for_it(deadline, tmp_path):
    done = tmp_path / "done"

    def first():
        time.sleep(0.2)
        done.touch()

    with pytest.raises(KeyboardInterrupt):
        beside(first, fail(KeyboardInterrupt()), fork=True)
    assert done.exists()
    assert_no_child_left()


def test_cli_import_does_not_load_multiprocessing():
    # the partitioned map runs on threads, so start-up imports no process pool
    code = "import sys, regimpute.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
