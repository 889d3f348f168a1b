"""Fork server for Python targets: load the script once, fork a child that serves inputs.

Usage: python forkserver.py <stderr-file> <script.py> [args...]

Run by path with the interpreter that would run the script; it imports
nothing beyond the standard library, so it starts as fast as a bare
interpreter. It loads the script under a name other than ``__main__`` with
``sys.argv`` set to ``[script.py, args...]`` as a spawned interpreter would
see it, checks that the script defines a callable ``main``, and replies
``ready`` (or ``error <reason>`` and exits).

Then each byte read on stdin is one request for one input. With no child
alive, the server reads the request and forks a child. The child leads its
own process group, inherits the environment (``RF_TRACE_FILE`` included),
runs with stdin and stdout on ``/dev/null`` and stderr on the stderr file,
and serves this input and then reads the next requests itself, up to
``PERSISTENT_INPUTS`` inputs if the script declares
``REACHFUZZ_PERSISTENT = True`` at module level, else one. For each input it
truncates the stderr file, restores ``sys.argv``, calls ``main()`` and
flushes both streams. The input's status is the one the interpreter would
give: the ``SystemExit`` code, or 1 with a printed traceback (from ``main``
down) for an uncaught exception. A signal the script sends itself kills the
child with that signal. An uncaught exception, a signal, a kill past the
timeout, the last input of the count or end of input ends the child; the
server then kills the child's group and reaps it. Every other status is a
normal result, and the child goes on to the next request.

Replies are one line each, and each has one writer:

- ``<pid>``: the child, after its ``setpgid``, when it starts an input;
- ``<wait status>``: the child, when it finished an input and stays for the
  next; the wait status its exit with that code would give;
- ``died <wait status>``: the server, for a child that has ended, with its
  raw wait status. After a pid line it is that input's result; before one,
  the child ended between inputs, and the line answers no request.

End of input stops the server. The server starts no threads, so forking it
is safe.
"""

import importlib.util
import os
import signal
import sys

MODULE_NAME = "__reachfuzz_target__"
PERSISTENT_INPUTS = 1000  # inputs one child serves for a script that opts in


def load(script):
    """The script's ``main`` and the number of inputs one child serves."""
    spec = importlib.util.spec_from_file_location(MODULE_NAME, script)
    module = importlib.util.module_from_spec(spec)
    sys.modules[MODULE_NAME] = module
    spec.loader.exec_module(module)
    main = getattr(module, "main", None)
    if not callable(main):
        raise ImportError("defines no callable main()")
    return main, PERSISTENT_INPUTS if getattr(module, "REACHFUZZ_PERSISTENT", False) else 1


def exit_status(code):
    """Process status of ``SystemExit(code)``, as the interpreter computes it."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF
    sys.stderr.write(str(code) + "\n")
    return 1


def call(main):
    """Run ``main()`` once: its exit status, or None after an uncaught exception."""
    try:
        main()
        return 0
    except SystemExit as exc:
        return exit_status(exc.code)
    except BaseException:  # noqa: BLE001 - the interpreter exits 1 on any uncaught error
        exc_type, exc, tb = sys.exc_info()
        sys.excepthook(exc_type, exc, tb.tb_next)  # the target's frames, not this one
        return None


def child(main, inputs, stderr_fd, requests, replies):
    os.setpgid(0, 0)  # before the pid is sent: the orchestrator kills the group on timeout
    os.dup2(stderr_fd, 2)
    os.close(stderr_fd)
    argv = list(sys.argv)
    pid = os.getpid()
    for n in range(1, inputs + 1):
        if n > 1 and not os.read(requests, 1):
            os._exit(0)  # end of input
        os.ftruncate(2, 0)
        sys.argv = list(argv)
        os.write(replies, b"%d\n" % pid)
        status = call(main)
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):
                pass
        if status is None or n == inputs:
            break
        os.write(replies, b"%d\n" % (status << 8))
    os._exit(1 if status is None else status)  # the server replies for a child that ends


def serve(stderr_path, script):
    requests = os.dup(0)
    replies = os.dup(1)
    devnull = os.open(os.devnull, os.O_RDWR)
    os.dup2(devnull, 0)
    os.dup2(devnull, 1)
    os.close(devnull)
    sys.path[0] = os.path.dirname(os.path.realpath(script))  # as for `python script.py`
    try:
        main, inputs = load(script)
    except BaseException as exc:  # noqa: BLE001 - any load failure means "spawn instead"
        reason = " ".join(("%s: %s" % (type(exc).__name__, exc)).split())
        os.write(replies, ("error %s\n" % reason).encode("utf-8", "replace"))
        return 1
    # Output the script's top level left buffered must not reach every child.
    sys.stdout.flush()
    sys.stderr.flush()
    os.write(replies, b"ready\n")
    # Held open: closing a truncated, rewritten file makes ext4 flush it (~60 us).
    stderr_fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    while os.read(requests, 1):
        pid = os.fork()
        if pid == 0:
            child(main, inputs, stderr_fd, requests, replies)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # unreaped, it holds the group id
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:  # the child left its group, or died before it made one
            pass
        _, status = os.waitpid(pid, 0)
        os.write(replies, b"died %d\n" % status)
    return 0


if __name__ == "__main__":
    stderr_file, *target_argv = sys.argv[1:]
    sys.argv = target_argv
    sys.exit(serve(stderr_file, target_argv[0]))
