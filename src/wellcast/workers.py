"""Contiguous blocks of independent work, run in forked worker processes.

``run`` runs the first block in the calling process and each other block in
a forked worker, which writes nothing but its result, pickled, to a pipe;
the caller takes the results in block order.  ``timegrad.forecast`` rolls
blocks of paths out this way and ``cli.cmd_train`` trains blocks of groups.
This is the package's one ``os.fork`` and ``os._exit``.
"""

import contextlib
import os
import pickle
import signal

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
    """Fork a worker, pinned to ``cores``, that writes ``work(lo, hi)``,
    pickled, to a pipe; return (its pid, the pipe's read end, opened).  The
    worker ends with os._exit: status 0 once its result is written, 1 on
    any exception; it never flushes inherited stdio or runs exit handlers."""
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
            result = memoryview(pickle.dumps(work(lo, hi)))
            while result:
                result = result[os.write(write_end, result):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def run(work, cuts: list, label, take) -> None:
    """Run ``work(lo, hi)`` for each block [lo, hi) between consecutive
    ``cuts`` and pass each result to ``take``, in block order.  This process
    forks one worker for each block but the first, then runs the first
    itself.  Each process is pinned to its own share of the cores while
    the blocks run: left to the scheduler on a 2-vCPU VM, a worker and this
    process often shared one vCPU, and training four groups took longer
    than in one process.  A result is unpickled as it streams from the pipe
    (read whole first, it raised the reforecast benchmark's peak RSS by a
    fifth).  A worker that exits non-zero or dies by a signal, mid-result
    or not, raises OSError naming its block by ``label(lo, hi)``, after the
    blocks before it are taken; one that exits 0 raises any unpickling
    error.  On any exception every live worker is killed and reaped.
    """
    blocks = list(zip(cuts[:-1], cuts[1:]))
    shares = _shares(len(blocks))
    mine = shares[0] and os.sched_getaffinity(0)
    live = {}  # block index -> (pid, pipe), while the worker is unreaped
    try:
        _pin(shares[0])
        for b, (lo, hi) in enumerate(blocks[1:], 1):
            live[b] = _fork(work, lo, hi, shares[b])
        take(work(*blocks[0]))
        for b, (lo, hi) in enumerate(blocks[1:], 1):
            pid, pipe = live[b]
            try:
                result, error = pickle.load(pipe), None
            except Exception as exc:  # raised if the worker exits 0
                error = exc
                pipe.read()  # the rest, so that the worker can end
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            live.pop(b)[1].close()
            if code:
                how = (f"exited with status {code}" if code > 0
                       else f"was killed by signal {-code}")
                raise OSError(f"{label(lo, hi)} {how}")
            if error is not None:
                raise error
            take(result)
    finally:
        _pin(mine)
        for pid, pipe in live.values():
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            pipe.close()
