"""The forked-worker helper that ``timegrad.forecast`` and ``cli.cmd_train``
share, and a guard that it stays the package's only fork."""

import ast
import os
import signal
import threading
import time
from pathlib import Path

import pytest

import wellcast
from wellcast import workers


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def label(lo, hi):
    return f"worker for {lo} to {hi - 1}"


def run(work, cuts):
    taken = []
    workers.run(work, cuts, label, taken.append)
    return taken


def test_fork_and_exit_appear_at_one_place_in_src():
    found = {"fork": [], "_exit": []}
    for path in sorted(Path(wellcast.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in found
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "os"):
                found[node.attr].append(f"{path.name}:{node.lineno}")
    assert len(found["fork"]) == 1, found
    assert len(found["_exit"]) == 1, found
    assert found["fork"][0].startswith("workers.py:")
    assert found["_exit"][0].startswith("workers.py:")


def test_results_come_back_in_block_order():
    # the first block runs in this process, each other one in a worker;
    # a result larger than a pipe's buffer comes back whole
    big = bytes(range(256)) * 4096
    taken = run(lambda lo, hi: (lo, hi, os.getpid(), big), [0, 2, 3, 7])
    assert [t[:2] for t in taken] == [(0, 2), (2, 3), (3, 7)]
    assert taken[0][2] == os.getpid()
    assert len({t[2] for t in taken}) == 3
    assert all(t[3] == big for t in taken)
    assert no_child_left()


def test_one_block_runs_here_without_forking(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert run(lambda lo, hi: (lo, hi, os.getpid()), [0, 5]) == [
        (0, 5, os.getpid())]


def test_workers_are_pinned_to_their_share_of_the_cores():
    mine = os.sched_getaffinity(0)
    taken = run(lambda lo, hi: os.sched_getaffinity(0), [0, 1, 2])
    assert os.sched_getaffinity(0) == mine
    if len(mine) > 1:
        assert not taken[0] & taken[1]
    assert taken[0] | taken[1] <= mine
    assert no_child_left()


def test_a_refused_pin_is_no_error(monkeypatch):
    def refuse(pid, cores):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    assert run(lambda lo, hi: lo, [0, 1, 2]) == [0, 1]
    assert no_child_left()


def test_a_worker_never_forks(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cores: None,
                        raising=False)
    assert workers.count() == 4
    taken = run(lambda lo, hi: workers.count(), [0, 1, 2])
    assert taken == [4, 1]
    assert no_child_left()


@pytest.mark.parametrize("how,status", [
    ("raise", "exited with status 1"),
    ("exit", "exited with status 1"),
    ("unpicklable", "exited with status 1"),
    ("kill", "was killed by signal 9")])
def test_a_dead_worker_is_an_os_error_after_the_blocks_before_it(how, status):
    def work(lo, hi):
        if lo < 2:
            return lo
        if how == "raise":
            raise RuntimeError("worker fault")
        if how == "exit":
            os._exit(1)
        if how == "unpicklable":
            return threading.Lock()
        os.kill(os.getpid(), signal.SIGKILL)

    taken = []
    with pytest.raises(OSError, match=f"^worker for 2 to 2 {status}$"):
        workers.run(work, [0, 1, 2, 3], label, taken.append)
    assert taken == [0, 1]
    assert no_child_left()


def test_an_exception_here_kills_every_worker():
    mine = os.sched_getaffinity(0)

    def work(lo, hi):
        if lo == 0:
            raise KeyError("here")
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyError, match="here"):
        run(work, [0, 1, 2, 3])
    assert time.monotonic() - start < 30
    assert os.sched_getaffinity(0) == mine
    assert no_child_left()


def test_an_interrupt_while_waiting_kills_every_worker(interrupt_after):
    def work(lo, hi):
        if lo > 0:
            time.sleep(60)
        return lo

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt), interrupt_after(0.5):
        run(work, [0, 1, 2, 3])
    assert time.monotonic() - start < 30
    assert no_child_left()
