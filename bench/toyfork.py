"""Run the Python ppmcheck toy on many inputs, one forked child per input.

Usage: python3 toyfork.py <toy.py> <input-dir> <out.json>

The toy is loaded once under a name other than ``__main__``; each child
sets ``RF_TRACE_FILE`` and ``sys.argv`` as a spawned toy would see them,
calls ``main()`` and leaves with the status the interpreter would give:
the ``SystemExit`` code, 1 for an uncaught exception, 0 otherwise, or the
signal the toy sends itself. The output lists ``[returncode, trace lines]``
per input in file-name order, with a signal as a negative returncode.
This process starts no threads, so forking it is safe.
"""

import importlib.util
import json
import os
import sys
from pathlib import Path


def _child(toy, input_path: Path, trace_path: Path):
    os.environ["RF_TRACE_FILE"] = str(trace_path)
    sys.argv = [toy.__file__, str(input_path)]
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 2)
    try:
        toy.main()
    except SystemExit as exc:
        code = exc.code
        os._exit(code if isinstance(code, int) else (0 if code is None else 1))
    except BaseException:  # noqa: BLE001 - the interpreter exits 1 on any uncaught error
        os._exit(1)
    os._exit(0)


def main(argv: list[str]) -> int:
    toy_file, input_dir, out = argv
    spec = importlib.util.spec_from_file_location("ppmcheck_toy", toy_file)
    toy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(toy)
    trace_path = Path(out).with_name("toy-trace.log")
    results = []
    for input_path in sorted(Path(input_dir).iterdir()):
        trace_path.unlink(missing_ok=True)
        pid = os.fork()
        if pid == 0:
            _child(toy, input_path, trace_path)
        _pid, status = os.waitpid(pid, 0)
        returncode = (-os.WTERMSIG(status) if os.WIFSIGNALED(status)
                      else os.WEXITSTATUS(status))
        lines = trace_path.read_text(encoding="utf-8").split() if trace_path.exists() else []
        results.append([returncode, lines])
    Path(out).write_text(json.dumps(results), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
