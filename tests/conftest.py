import contextlib
import os
import signal

import pytest


@pytest.fixture(autouse=True)
def no_leftover_child():
    """Fail a test that leaves a child process behind, running or unreaped
    (a forecast worker that nothing waited for, say)."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    if pid:
        pytest.fail(f"child process {pid} was left unreaped "
                    f"(wait status {status})")
    pytest.fail("a child process is still running")


@pytest.fixture
def interrupt_after():
    """A context manager that raises KeyboardInterrupt in this process the
    given seconds after it is entered, as a Ctrl-C would, in whatever the
    process is doing then (waiting on a worker, say); a forked worker
    inherits no timer."""
    @contextlib.contextmanager
    def interrupt(seconds):
        def handler(signum, frame):
            raise KeyboardInterrupt
        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return interrupt
