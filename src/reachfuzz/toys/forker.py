"""forker: read the input file, fork two children, then hang with them.

Every process sleeps far longer than any exec timeout; each child's pid
goes to stderr as ``child <pid>``.
"""

import os
import sys
import time


def trace(name):
    path = os.environ.get("RF_TRACE_FILE")
    if path: open(path, "a").write(name + "\n")  # noqa: E701


def main():
    trace("main")
    open(sys.argv[1], "rb").read()
    for _ in range(2):
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            time.sleep(60)
            os._exit(0)
        sys.stderr.write("child %d\n" % pid)
    sys.stderr.flush()
    time.sleep(60)


if __name__ == "__main__":
    main()
