import os

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
