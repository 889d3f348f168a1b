"""Child processes, each the leader of a new session and ended with all it started.

``wait`` waits on a pidfd (subprocess's timed wait polls with sleeps), then
kills the child's group while the unreaped child still holds the group id.
"""

import os
import resource
import select
import signal
import subprocess

PIPE = subprocess.PIPE


def start(argv, env: dict[str, str], *, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
          stderr=subprocess.DEVNULL, cwd=None, limits=()) -> subprocess.Popen:
    """Start ``argv`` in a new session, with each stream ``PIPE``, ``/dev/null``
    or an open file or descriptor, and each ``(resource.RLIMIT_*, value)`` pair
    of ``limits`` as soft and hard limit. Raises ``OSError`` if it cannot start."""
    return subprocess.Popen(
        argv, env=env, cwd=cwd, stdin=stdin, stdout=stdout, stderr=stderr, bufsize=0,
        start_new_session=True,  # without a preexec function the child starts by vfork
        preexec_fn=(lambda: _set_limits(limits)) if limits else None)


def wait(proc: subprocess.Popen, timeout: float) -> int | None:
    """Wait up to ``timeout`` seconds for ``proc`` to exit, then kill its process
    group and reap it. Returns its returncode, or None past the timeout."""
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = bool(select.select([pidfd], [], [], timeout)[0])
        finally:
            os.close(pidfd)
    finally:
        kill_group(proc.pid)
        proc.wait()
    return proc.returncode if exited else None


def kill_group(pgid: int):
    """SIGKILL every process in group ``pgid``; an empty group is no error."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _set_limits(limits):
    for which, value in limits:
        resource.setrlimit(which, (value, value))
