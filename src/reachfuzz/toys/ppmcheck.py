"""ppmcheck: validate a binary PPM (P6) image file.

Usage: ppmcheck <input-file>

Checks the P6 magic, parses the dimension header (width, height, maximum
component value), then reads the pixel payload the header declares. The
pixel reader trusts the declared dimensions, so a header whose width times
height times 3 exceeds the actual payload makes it read past the buffer and
crash. Exits 1 with a message for inputs rejected before the pixel reader.
"""

import os
import signal
import sys

REACHFUZZ_PERSISTENT = True


def trace(name):
    path = os.environ.get("RF_TRACE_FILE")
    if path: open(path, "a").write(name + "\n")  # noqa: E701


def reject_input(reason):
    trace("reject_input")
    sys.stderr.write("ppmcheck: " + reason + "\n")
    sys.exit(1)


def read_pixels(dims, body):
    trace("read_pixels")
    width, height, maxval = dims
    declared = width * height * 3
    row = body[:declared]
    if declared > len(body):
        # overread past the payload buffer
        os.kill(os.getpid(), signal.SIGSEGV)
    return row


def parse_dims(data):
    trace("parse_dims")
    lines = data.split(b"\n", 2)
    if len(lines) < 3:
        reject_input("truncated dimension header")
    fields = lines[0].split()
    if len(fields) != 2 or not all(f.isdigit() for f in fields):
        reject_input("bad width/height line")
    if not lines[1].strip().isdigit():
        reject_input("bad maxval line")
    width, height = int(fields[0]), int(fields[1])
    maxval = int(lines[1])
    if maxval > 255:
        reject_input("unsupported component depth")
    return read_pixels((width, height, maxval), lines[2])


def parse_header(data):
    trace("parse_header")
    if data[:3] != b"P6\n":
        reject_input("not a raw PPM (P6) file")
    return parse_dims(data[3:])


def main():
    trace("main")
    if len(sys.argv) != 2:
        reject_input("expected exactly one input file")
    try:
        data = open(sys.argv[1], "rb").read()
    except OSError as exc:
        reject_input("cannot read input: %s" % exc)
    parse_header(data)


if __name__ == "__main__":
    main()
