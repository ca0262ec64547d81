"""The forked-worker helper that ``timegrad.forecast`` and ``cli.cmd_train``
share, and guards that it stays the package's only fork and only
replacement of stdout."""

import ast
import os
import signal
import sys
import threading
import time
import weakref
from pathlib import Path

import pytest

import wellcast
from srcnames import dotted, imported
from wellcast import workers
from wellcast.errors import ParameterError

SOURCES = {p.name: p.read_text(encoding="utf-8")
           for p in sorted(Path(wellcast.__file__).parent.rglob("*.py"))}


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def label(lo, hi):
    return f"worker for {lo} to {hi - 1}"


def run(work, cuts):
    """The items that ``work``'s lists pass to ``take``, in order."""
    taken = []
    workers.run(work, cuts, label, taken.append)
    return taken


def forks(sources: dict[str, str]) -> list[str]:
    """"<name> in <file>" for each mention of ``os.fork``, ``os.forkpty`` or
    ``os._exit`` in ``sources``, however it was imported; sorted."""
    found = []
    for file, source in sources.items():
        names = imported("", tree := ast.parse(source))
        found += [f"{dotted(names, node)} in {file}" for node in ast.walk(tree)
                  if dotted(names, node) in ("os.fork", "os.forkpty",
                                             "os._exit")]
    return sorted(found)


def test_fork_and_exit_appear_at_one_place_in_src():
    assert forks(SOURCES) == ["os._exit in workers.py",
                              "os.fork in workers.py"]


def test_fork_guard_fails_on_src_plus_one_call():
    cli = SOURCES["cli.py"] + "\nfrom os import fork as spawn\nspawn()\n"
    assert forks({**SOURCES, "cli.py": cli}) == [
        "os._exit in workers.py", "os.fork in cli.py", "os.fork in workers.py"]


def test_fork_guard_sees_each_way_of_forking():
    assert forks({"m": "\n".join([
        "os.fork()", "import os as o; o.fork()", "f = os.forkpty",
        "from os import fork; fork()", "from os import _exit as q; q(0)",
        "fork_worker()", "s.fork()"])}) == [
        "os._exit in m", "os.fork in m", "os.fork in m", "os.fork in m",
        "os.forkpty in m"]


def stdout_replacements(sources: dict[str, str]) -> list[str]:
    """"<name> in <file>" for each mention of ``contextlib.redirect_stdout``
    and each assignment to (or deletion of) ``sys.stdout`` in ``sources``,
    however it was imported; sorted."""
    found = []
    for file, source in sources.items():
        names = imported("", tree := ast.parse(source))
        for node in ast.walk(tree):
            name = dotted(names, node)
            if (name == "contextlib.redirect_stdout"
                    or name == "sys.stdout"
                    and not isinstance(node.ctx, ast.Load)):
                found.append(f"{name} in {file}")
    return sorted(found)


def test_only_workers_replace_stdout():
    # a forked worker buffers its block's lines and the caller relays
    # them, so no other module redirects stdout
    assert stdout_replacements(SOURCES) == ["sys.stdout in workers.py"] * 2


def test_stdout_guard_fails_on_src_plus_one_call():
    cli = (SOURCES["cli.py"]
           + "\nfrom contextlib import redirect_stdout as quiet\n"
             "with quiet(None):\n    pass\n")
    assert stdout_replacements({**SOURCES, "cli.py": cli}) == [
        "contextlib.redirect_stdout in cli.py",
        "sys.stdout in workers.py", "sys.stdout in workers.py"]


def test_stdout_guard_sees_each_way_of_replacing_stdout():
    assert stdout_replacements({"m": "\n".join([
        "contextlib.redirect_stdout(b)", "import contextlib as c",
        "c.redirect_stdout(b)", "import sys as s; s.stdout = b",
        "sys.stdout, x = b, 1", "del sys.stdout", "print(sys.stdout)",
        "sys.stdout.write('x')", "redirect_stderr(b)",
        "s.stdout.flush()"])}) == [
        "contextlib.redirect_stdout in m", "contextlib.redirect_stdout in m",
        "sys.stdout in m", "sys.stdout in m", "sys.stdout in m"]


def test_results_come_back_in_block_order():
    # the first block runs in this process, each other one in a worker;
    # a result larger than a pipe's buffer comes back whole
    big = bytes(range(256)) * 4096
    taken = run(lambda lo, hi: [(lo, hi, os.getpid(), big)], [0, 2, 3, 7])
    assert [t[:2] for t in taken] == [(0, 2), (2, 3), (3, 7)]
    assert taken[0][2] == os.getpid()
    assert len({t[2] for t in taken}) == 3
    assert all(t[3] == big for t in taken)
    assert no_child_left()


def test_one_block_runs_here_without_forking(monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert run(lambda lo, hi: [(lo, hi, os.getpid())], [0, 5]) == [
        (0, 5, os.getpid())]


def test_workers_are_pinned_to_their_share_of_the_cores():
    mine = os.sched_getaffinity(0)
    taken = run(lambda lo, hi: [os.sched_getaffinity(0)], [0, 1, 2])
    assert os.sched_getaffinity(0) == mine
    if len(mine) > 1:
        assert not taken[0] & taken[1]
    assert taken[0] | taken[1] <= mine
    assert no_child_left()


def test_a_refused_pin_is_no_error(monkeypatch):
    def refuse(pid, cores):
        raise OSError(22, "Invalid argument")

    monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
    assert run(lambda lo, hi: [lo], [0, 1, 2]) == [0, 1]
    assert no_child_left()


def test_a_worker_never_forks(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cores: None,
                        raising=False)
    assert workers.count() == 4
    taken = run(lambda lo, hi: [workers.count()], [0, 1, 2])
    assert taken == [4, 1]
    assert no_child_left()


def test_a_worker_error_is_raised_here_after_the_blocks_before_it():
    # as in one process: the error itself, not an OSError
    def work(lo, hi):
        if lo < 2:
            return [lo]
        raise RuntimeError("worker fault")

    taken = []
    with pytest.raises(RuntimeError, match="^worker fault$"):
        workers.run(work, [0, 1, 2, 3], label, taken.append)
    assert taken == [0, 1]
    assert no_child_left()


@pytest.mark.parametrize("how,status", [
    ("exit", "exited with status 1"),
    ("unpicklable",
     "raised TypeError: cannot pickle '_thread.lock' object"),
    ("kill", "was killed by signal 9")], ids=["exit", "unpicklable", "kill"])
def test_a_dead_worker_is_an_os_error_after_the_blocks_before_it(how, status):
    def work(lo, hi):
        if lo < 2:
            return [lo]
        if how == "exit":
            os._exit(1)
        if how == "unpicklable":
            return [threading.Lock()]
        os.kill(os.getpid(), signal.SIGKILL)

    taken = []
    with pytest.raises(OSError, match=f"^worker for 2 to 2 {status}$"):
        workers.run(work, [0, 1, 2, 3], label, taken.append)
    assert taken == [0, 1]
    assert no_child_left()


class HoldsALock(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()  # so the exception does not pickle


def _raise_holding_a_lock():
    raise HoldsALock("the real message")


def test_an_error_that_does_not_pickle_keeps_its_message():
    # an OSError naming the block, as for a dead worker, with the message
    def work(lo, hi):
        if lo < 2:
            return [lo]
        _raise_holding_a_lock()

    taken = []
    with pytest.raises(OSError, match="^worker for 2 to 2 raised HoldsALock: "
                                      "the real message$") as caught:
        workers.run(work, [0, 1, 2, 3], label, taken.append)
    assert taken == [0, 1]
    assert "in _raise_holding_a_lock\n" in str(caught.value.__cause__)
    assert no_child_left()


def _refuse_in_a_worker():
    raise ParameterError("refused in a worker")


def test_a_relayed_error_carries_the_frame_that_raised_it():
    def work(lo, hi):
        if lo:
            _refuse_in_a_worker()
        return [lo]

    with pytest.raises(ParameterError, match="^refused in a worker$") as caught:
        workers.run(work, [0, 1, 2], label, [].append)
    cause = caught.value.__cause__
    assert isinstance(cause, workers.WorkerTraceback)
    assert str(cause).startswith("raised in the worker for 1 to 1:\n"
                                 "Traceback ")
    assert "in _refuse_in_a_worker\n" in str(cause)
    assert str(cause).endswith("ParameterError: refused in a worker\n")
    assert no_child_left()


def test_a_worker_killed_part_way_through_its_result_is_an_os_error():
    # the worker's pipe takes half of a result larger than its buffer, then
    # the worker is killed, leaving a truncated pickle to read
    big = bytes(range(256)) * 4096

    def work(lo, hi):
        if lo == 0:
            return [lo]
        write = os.write

        def write_half_then_die(fd, data):
            if len(data) < len(big):  # not the item's pair
                return write(fd, data)
            write(fd, data[:len(data) // 2])
            os.kill(os.getpid(), signal.SIGKILL)

        os.write = write_half_then_die  # in the worker only
        return [big]

    taken = []
    with pytest.raises(OSError, match="^worker for 1 to 1 was killed by "
                                      "signal 9$"):
        workers.run(work, [0, 1, 2], label, taken.append)
    assert taken == [0]
    assert no_child_left()


def test_each_item_of_each_list_is_taken_in_order():
    # items larger than a pipe's buffer, several to a worker
    items = [bytes([i]) * (1 << 20) for i in range(7)]
    assert run(lambda lo, hi: items[lo:hi], [0, 2, 5, 7]) == items
    assert no_child_left()


def _counted(n):
    Counted.loads += 1
    return Counted(n)


class Counted:
    """An item that counts, in ``Counted.loads``, each time it is
    unpickled."""

    loads = 0

    def __init__(self, n):
        self.n = n

    def __reduce__(self):
        return _counted, (self.n,)


def test_a_workers_items_are_loaded_one_at_a_time(monkeypatch):
    # each item is loaded just before it is taken, not its whole list
    monkeypatch.setattr(Counted, "loads", 0)
    taken = []
    workers.run(lambda lo, hi: [Counted(n) for n in range(lo, hi)],
                [0, 1, 4, 6], label,
                lambda item: taken.append((item.n, Counted.loads)))
    assert taken == [(n, n) for n in range(6)]
    assert no_child_left()


def printing(stop=None):
    """A ``work`` that prints a line before each item of its block and one
    after the last, or raises a ParameterError in place of item ``stop``."""
    def work(lo, hi):
        for n in range(lo, hi):
            print(f"before {n}")
            if n == stop:
                raise ParameterError(f"refused at {n}")
            yield n
        print(f"after {hi - 1}")
    return work


def test_printed_lines_come_back_in_order_before_their_items(capsys):
    # each take sees the lines printed before its item, and no more
    taken = []
    capsys.readouterr()
    workers.run(printing(), [0, 2, 3, 5], label,
                lambda n: taken.append((capsys.readouterr().out, n)))
    assert taken == [
        ("before 0\n", 0), ("before 1\n", 1), ("after 1\nbefore 2\n", 2),
        ("after 2\nbefore 3\n", 3), ("before 4\n", 4)]
    assert capsys.readouterr().out == "after 4\n"
    assert no_child_left()


def test_an_error_part_way_through_a_block_is_raised_here_after_its_items(
        capsys):
    # a ParameterError in place of item 3, in the second of two workers,
    # ends the run as it would in one process: items 0 to 2 and their
    # lines first, then the error, and nothing of the blocks after
    taken = []
    capsys.readouterr()
    with pytest.raises(ParameterError, match="^refused at 3$"):
        workers.run(printing(stop=3), [0, 1, 2, 5, 7], label,
                    lambda n: taken.append((capsys.readouterr().out, n)))
    assert taken == [("before 0\n", 0), ("after 0\nbefore 1\n", 1),
                     ("after 1\nbefore 2\n", 2)]
    assert capsys.readouterr().out == "before 3\n"
    assert no_child_left()


def test_an_item_that_does_not_pickle_ends_its_block_there(capsys):
    # the items before it and their lines are taken, then the lines before
    # it are written and the pickling error is raised as an OSError, with
    # the worker's traceback as its cause
    def work(lo, hi):
        for n in range(lo, hi):
            print(f"before {n}")
            yield threading.Lock() if n == 3 else n

    taken = []
    capsys.readouterr()
    with pytest.raises(OSError, match="^worker for 2 to 4 raised TypeError: "
                                      "cannot pickle '_thread.lock' object$"
                       ) as caught:
        workers.run(work, [0, 2, 5], label,
                    lambda n: taken.append((capsys.readouterr().out, n)))
    assert taken == [("before 0\n", 0), ("before 1\n", 1), ("before 2\n", 2)]
    assert capsys.readouterr().out == "before 3\n"
    assert isinstance(caught.value.__cause__, workers.WorkerTraceback)
    assert "TypeError: cannot pickle" in str(caught.value.__cause__)
    assert no_child_left()


def test_a_worker_never_flushes_the_stdout_it_inherits(tmp_path,
                                                     monkeypatch):
    # a stream that only sys.stdout holds, with a line still in its
    # buffer: the worker must not write that line a second time
    monkeypatch.setattr(sys, "stdout", open(tmp_path / "out", "w"))
    print("pending here")
    assert run(printing(), [0, 1, 2]) == [0, 1]
    sys.stdout.close()
    assert (tmp_path / "out").read_text() == (
        "pending here\nbefore 0\nafter 0\nbefore 1\nafter 1\n")


class Item:
    def __init__(self, n):
        self.n = n


def test_this_process_holds_one_item_of_its_block_at_a_time():
    # when item n + 1 is made, nothing here holds item n any more; work
    # is a generator expression, as cmd_train's is
    refs, live = [], []

    def make(n):
        live.append([r() is not None for r in refs])
        item = Item(n)
        refs.append(weakref.ref(item))
        return item

    taken = []
    workers.run(lambda lo, hi: (make(n) for n in range(lo, hi)), [0, 3],
                label, lambda item: taken.append(item.n))
    assert taken == [0, 1, 2]
    assert live == [[], [False], [False, False]]


class KillsItsWorker:
    def __init__(self, how):
        self.how = how

    def __reduce__(self):
        if self.how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        raise RuntimeError("worker fault")


@pytest.mark.parametrize("how,status", [
    ("raise", "raised RuntimeError: worker fault"),
    ("kill", "was killed by signal 9")], ids=["raise", "kill"])
def test_a_worker_dead_on_its_second_item_is_an_os_error_after_its_first(
        how, status):
    def work(lo, hi):
        return [lo] if lo == 0 else ["first", KillsItsWorker(how), "third"]

    taken = []
    with pytest.raises(OSError, match=f"^worker for 1 to 1 {status}$"):
        workers.run(work, [0, 1, 2], label, taken.append)
    assert taken == [0, "first"]
    assert no_child_left()


def _refuse():
    raise ValueError("refused here")


class RefusedHere:
    def __reduce__(self):
        return _refuse, ()


def test_a_result_that_fails_to_load_from_a_sound_worker_raises_its_error():
    # the load fails at the worker's first item, before the worker has
    # written the rest, which is larger than the pipe's buffer
    taken = []
    with pytest.raises(ValueError, match="^refused here$"):
        workers.run(lambda lo, hi: [RefusedHere(), bytes(1 << 20)] if lo
                    else [lo], [0, 1, 2], label, taken.append)
    assert taken == [0]
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
        return [lo]

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt), interrupt_after(0.5):
        run(work, [0, 1, 2, 3])
    assert time.monotonic() - start < 30
    assert no_child_left()
