"""Fork server for Python targets: load the script once, fork a child that serves inputs.

Usage: python forkserver.py <stderr-file> <script.py> [args...]

Run by path with the interpreter that would run the script; it imports
nothing beyond the standard library, so it starts as fast as a bare
interpreter. It loads the script under a name other than ``__main__`` with
``sys.argv`` set to ``[script.py, args...]`` as a spawned interpreter would
see it, checks that the script defines a callable ``main``, and replies
``ready`` (or ``error <reason>`` and exits).

Then each byte read on stdin is one request for one input, read by the one
child that serves. The server keeps one spare child forked ahead of need, so
that no input waits for a fork. A spare points its stderr at the stderr file
and blocks on a go pipe whose write end only the server holds; until it takes
its first request it stays in the server's process group. The server hands
the active child's place to the spare with one byte on that pipe, closes the
pipe, and only then forks the next spare, so that no spare holds another's
pipe end. The active child reads a request, makes its own process group (the
orchestrator kills that group on timeout), and serves the input; then it reads
the next requests itself, up to ``PERSISTENT_INPUTS`` inputs if the script
declares ``REACHFUZZ_PERSISTENT = True`` at module level, else one. Children
inherit the environment (``RF_TRACE_FILE`` included) and run with stdin and
stdout on ``/dev/null``. For each input the child truncates the stderr file,
restores ``sys.argv``, calls ``main()`` and flushes both streams. The input's
status is the one the interpreter would give: the ``SystemExit`` code, or 1
with a printed traceback (from ``main`` down) for an uncaught exception. A
signal the script sends itself kills the child with that signal. An uncaught
exception, a signal, a kill past the timeout, the last input of the count or
end of input ends the child. Every other status is a normal result, and the
child goes on to the next request.

When the active child ends, the server kills its group, reaps it, replies,
and stops if the request pipe has hung up; else it hands over to the spare
and forks a new one. A spare that died while it waited is reaped and
replaced, and its death answers nothing. A spare whose server is gone reads
end of file on its go pipe and exits; one the server never handed over dies
with the server's group. The server, and every child it forks, runs with a
soft core-size limit of 0, so a crashing input writes no core file.

Replies are one line each, and each has one writer:

- ``<pid>``: the child, after its ``setpgid``, when it starts an input;
- ``<wait status>``: the child, when it finished an input and stays for the
  next; the wait status its exit with that code would give;
- ``died <wait status>``: the server, for an active child that has ended,
  with its raw wait status. After a pid line it is that input's result;
  before one, the child ended between inputs, and the line answers no
  request.

The server starts no threads, so forking it is safe.
"""

import importlib.util
import os
import resource
import select
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


def child(main, inputs, stderr_fd, go, requests, replies):
    os.dup2(stderr_fd, 2)
    os.close(stderr_fd)
    if not os.read(go, 1) or not os.read(requests, 1):
        os._exit(0)  # the server is gone, or end of input
    os.close(go)
    os.setpgid(0, 0)  # before the pid is sent: the orchestrator kills the group on timeout
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


def fork_spare(main, inputs, stderr_fd, requests, replies):
    """Fork a spare child: its pid and the write end of its go pipe."""
    go, go_write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(go_write)
        child(main, inputs, stderr_fd, go, requests, replies)
    os.close(go)
    return pid, go_write


def serve(stderr_path, script):
    _, hard = resource.getrlimit(resource.RLIMIT_CORE)
    resource.setrlimit(resource.RLIMIT_CORE, (0, hard))  # inherited by every child
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
    serving = (main, inputs, stderr_fd, requests, replies)
    hangup = select.poll()
    hangup.register(requests, 0)  # reports only a hang-up
    spare, go = fork_spare(*serving)
    while True:
        try:
            os.write(go, b"g")
        except BrokenPipeError:  # the spare died while it waited
            os.close(go)
            os.waitpid(spare, 0)
            spare, go = fork_spare(*serving)
            continue
        os.close(go)
        pid = spare
        spare, go = fork_spare(*serving)  # after the close: it holds no other spare's go pipe
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # unreaped, it holds the group id
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:  # the child left its group, or died before it made one
            pass
        _, status = os.waitpid(pid, 0)
        os.write(replies, b"died %d\n" % status)
        if hangup.poll(0):  # the orchestrator closed the request pipe
            break
    os.close(go)  # the spare reads end of file and exits
    os.waitpid(spare, 0)
    return 0


if __name__ == "__main__":
    stderr_file, *target_argv = sys.argv[1:]
    sys.argv = target_argv
    sys.exit(serve(stderr_file, target_argv[0]))
