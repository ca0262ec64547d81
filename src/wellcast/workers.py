"""Contiguous blocks of independent work, run in forked worker processes.

``run`` runs the first block in the calling process and each other block in
a forked worker, which writes nothing but its results, pickled, to a pipe:
each item with the lines printed before it, then an end slot of the lines
printed after and the exception that ended the block, or None.  The caller
relays them in block order, so a block ends as it would in one process.
``timegrad.forecast`` and ``cli.cmd_train`` run blocks this way.  This is
the package's one ``os.fork``, ``os._exit`` and replacement of stdout.
"""

import contextlib
import io
import os
import pickle
import signal
import sys

# set in a forked worker only, so that a worker never forks
_in_worker = False


def count() -> int:
    """Processes that work may be shared among: the cores this process may
    run on, shared out among OpenBLAS's threads per process (the first of
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS that is set,
    else one per core, as OpenBLAS reads them), or 1 in a worker or where
    the platform cannot fork.  Processes that each run more BLAS threads
    than their share of the cores spin against each other: under the
    Haswell kernel, two forked processes with two BLAS threads each made a
    2-core forecast 2 to 40 times slower."""
    if _in_worker or not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").split(",")[0].strip()
        if value.isdigit() and int(value) > 0:
            return max(1, cores // int(value))
    return 1


def _shares(blocks: int) -> list:
    """For each of ``blocks`` processes, a contiguous share of the cores
    this process may run on, or None where the platform cannot pin."""
    if not hasattr(os, "sched_setaffinity"):
        return [None] * blocks
    cores = sorted(os.sched_getaffinity(0))
    n = len(cores)
    return [set(cores[b * n // blocks:(b + 1) * n // blocks]
                or [cores[b * n // blocks]]) for b in range(blocks)]


def _pin(cores) -> None:
    """Pin this process to ``cores``; pinning only speeds work up, so a
    refusal (a cpuset changed under the process, say) is not an error."""
    if cores is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cores)


def _fork(work, lo: int, hi: int, cores) -> tuple:
    """Fork a worker, pinned to ``cores``, that runs ``work(lo, hi)`` with
    stdout set to a buffer and writes to a pipe, one pickle apiece, its item
    count, each (lines printed before it, item) and the end slot (lines
    printed after the last, the Exception that ended the block or None);
    return (its pid, the pipe's read end, opened).  The worker ends with
    os._exit, 0 once the end slot is written, else 1: it never flushes
    inherited stdio or runs exit handlers."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        global _in_worker
        code = 1
        try:
            _in_worker = True
            os.close(read_end)
            _pin(cores)
            pairs, error = [], None
            # kept: collecting it here would flush the caller's lines again
            inherited, sys.stdout = sys.stdout, io.StringIO()
            try:
                for item in work(lo, hi):
                    pairs.append((sys.stdout.getvalue(), item))
                    sys.stdout = io.StringIO()
            except Exception as exc:  # raised again by the caller, in order
                error = exc
            for obj in (len(pairs), *pairs, (sys.stdout.getvalue(), error)):
                data = memoryview(pickle.dumps(obj))
                while data:
                    data = data[os.write(write_end, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _load(pipe) -> tuple:
    """(the next object pickled on ``pipe``, None), or (None, the error) with
    the rest of the pipe read, so that its worker can end."""
    try:
        return pickle.load(pipe), None
    except Exception as exc:  # raised if the worker exits 0
        pipe.read()
        return None, exc


def run(work, cuts: list, label, take) -> None:
    """Run ``work(lo, hi)``, which returns an iterable, for each block
    [lo, hi) between consecutive ``cuts`` and pass each item to ``take``,
    in block order, each dropped before the next is made or loaded, so that
    this process holds one at a time: a train worker's items are whole
    checkpoints.  This process forks one worker for each block but the
    first, then runs the first itself.  Each process is pinned to its own
    share of the cores while the blocks run: left to the scheduler on a
    2-vCPU VM, a worker and this process often shared one vCPU, and
    training four groups took longer than in one process.  A worker's
    items are each taken after their lines are written to stdout.  A
    worker sends nothing until its whole block is done: a pipe holds 64 KB
    and this process reads only after its own block, so a worker that sent
    each item as it came would wait on this process's block.  A reaped
    worker's end-slot exception is raised; one that exits non-zero or dies
    by a signal, mid-result or not, raises OSError naming its block by
    ``label(lo, hi)``, and one that exits 0 any unpickling error, after the
    items before it are taken.  On any exception every live worker is
    killed and reaped.
    """
    blocks = list(zip(cuts[:-1], cuts[1:]))
    shares = _shares(len(blocks))
    mine = shares[0] and os.sched_getaffinity(0)
    live = {}  # block index -> (pid, pipe), while the worker is unreaped
    try:
        _pin(shares[0])
        for b, (lo, hi) in enumerate(blocks[1:], 1):
            live[b] = _fork(work, lo, hi, shares[b])
        for item in work(*blocks[0]):
            take(item)
            del item  # before the next one is made
        for b, (lo, hi) in enumerate(blocks[1:], 1):
            pid, pipe = live[b]
            items, error = _load(pipe)
            for i in range(0 if error else items + 1):  # and the end slot
                pair, error = _load(pipe)
                if error is not None:
                    break
                sys.stdout.write(pair[0])
                if i < items:
                    take(pair[1])
                else:  # the exception that ended the block, or None
                    error = pair[1]
                del pair  # before the next one is loaded
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            live.pop(b)[1].close()
            if code:
                how = (f"exited with status {code}" if code > 0
                       else f"was killed by signal {-code}")
                raise OSError(f"{label(lo, hi)} {how}")
            if error is not None:
                raise error
    finally:
        _pin(mine)
        for pid, pipe in live.values():
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            pipe.close()
