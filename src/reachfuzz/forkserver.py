"""Fork server for Python targets: load the script once, fork once per input.

Usage: python forkserver.py <stderr-file> <script.py> [args...]

Run by path with the interpreter that would run the script; it imports
nothing beyond the standard library, so it starts as fast as a bare
interpreter. It loads the script under a name other than ``__main__`` with
``sys.argv`` set to ``[script.py, args...]`` as a spawned interpreter would
see it, checks that the script defines a callable ``main``, and replies
``ready`` (or ``error <reason>`` and exits).

Then each line read on stdin is one request. The server forks; the child
inherits the environment (``RF_TRACE_FILE`` included) and ``sys.argv``,
runs with stdin and stdout on ``/dev/null`` and stderr on the truncated
stderr file, calls ``main()`` and leaves with the status the interpreter
would give: the ``SystemExit`` code, or 1 with a printed traceback (from
``main`` down) for an uncaught exception. A signal the script sends itself
kills the child with that signal. The server replies with the child's pid,
then with its raw wait status, one decimal number per line. End of input
stops the server.

The server starts no threads, so forking it is safe.
"""

import importlib.util
import os
import sys

MODULE_NAME = "__reachfuzz_target__"


def load(script):
    spec = importlib.util.spec_from_file_location(MODULE_NAME, script)
    module = importlib.util.module_from_spec(spec)
    sys.modules[MODULE_NAME] = module
    spec.loader.exec_module(module)
    main = getattr(module, "main", None)
    if not callable(main):
        raise ImportError("defines no callable main()")
    return main


def exit_status(code):
    """Process status of ``SystemExit(code)``, as the interpreter computes it."""
    if code is None:
        return 0
    if isinstance(code, int):
        return code & 0xFF
    sys.stderr.write(str(code) + "\n")
    return 1


def child(main, stderr_fd, protocol_fds):
    for fd in protocol_fds:
        os.close(fd)
    os.dup2(stderr_fd, 2)
    os.close(stderr_fd)
    try:
        main()
        status = 0
    except SystemExit as exc:
        status = exit_status(exc.code)
    except BaseException:  # noqa: BLE001 - the interpreter exits 1 on any uncaught error
        exc_type, exc, tb = sys.exc_info()
        sys.excepthook(exc_type, exc, tb.tb_next)  # the target's frames, not this one
        status = 1
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):
            pass
    os._exit(status)


def serve(stderr_path, script):
    requests = os.fdopen(os.dup(0), "rb", buffering=0)
    replies = os.dup(1)
    devnull = os.open(os.devnull, os.O_RDWR)
    os.dup2(devnull, 0)
    os.dup2(devnull, 1)
    os.close(devnull)
    sys.path[0] = os.path.dirname(os.path.realpath(script))  # as for `python script.py`
    try:
        main = load(script)
    except BaseException as exc:  # noqa: BLE001 - any load failure means "spawn instead"
        reason = " ".join(("%s: %s" % (type(exc).__name__, exc)).split())
        os.write(replies, ("error %s\n" % reason).encode("utf-8", "replace"))
        return 1
    # Output the script's top level left buffered must not reach every child.
    sys.stdout.flush()
    sys.stderr.flush()
    os.write(replies, b"ready\n")
    while requests.readline():
        stderr_fd = os.open(stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        pid = os.fork()
        if pid == 0:
            child(main, stderr_fd, (requests.fileno(), replies))
        os.close(stderr_fd)
        os.write(replies, b"%d\n" % pid)
        _, status = os.waitpid(pid, 0)
        os.write(replies, b"%d\n" % status)
    return 0


if __name__ == "__main__":
    stderr_file, *target_argv = sys.argv[1:]
    sys.argv = target_argv
    sys.exit(serve(stderr_file, target_argv[0]))
