"""Generate the inputs of the prepare-large workload from a seed.

The workspace is the shipped ppmcheck demo, built by ``reachfuzz.demo``,
with its source, manual, bug report, fixture and call graph left unchanged.
The generator adds:

- ``corpus/gen/unit-NNN.c``: 400 files of 50 C-like functions each, about
  8 000 retrieval chunks in all. Their comments draw on the image-format
  words of the bug report, so they compete with the manual for retrieval.
- ``corpus/docs/notes-N.txt``: four identical copies of one note about the
  pixel reader. Their chunks tie exactly, so retrieval must break ties by
  ascending chunk id.
- 20 000 ``node`` lines (one per generated function) and their ``edge``
  lines appended to ``callgraph.txt``. Each generated function calls three
  others; 300 of them call ``read_pixels`` and 100 call ``parse_dims``;
  ``main`` calls 40 of them. No generated function that ``main`` calls
  calls ``read_pixels`` itself, so the shortest entry-to-``read_pixels``
  chain keeps its length of three. The generated names all sort after
  ``parse_header``, so the equally short decoy chains lose the tie-break.

The same seed gives byte-identical files, and every seed gives the same
counts of files, functions, edges and words.

Regenerate the inputs by hand with
``PYTHONPATH=src python3 bench/gen_large.py --seed 7 --out /tmp/large``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
from pathlib import Path

from reachfuzz import demo

FILES = 400
FUNCS_PER_FILE = 50
CALLS_PER_FUNC = 3
MAIN_CALLS = 40
READERS = 300
DIMS_CALLERS = 100
NOTE_COPIES = 4
FIRST_ID = 5  # ids 0-4 are the ppmcheck functions of the shipped graph

PREFIXES = ("raster", "scan", "tile", "unpack", "verify", "write")
WORDS = (
    "pixel", "pixels", "header", "width", "height", "buffer", "payload", "reader",
    "reads", "declared", "dimension", "bytes", "overflow", "heap", "image", "row",
    "column", "stride", "channel", "sample", "maxval", "depth", "scanline",
    "palette", "color", "component", "bounds", "length", "offset", "parse",
    "validate", "tile", "block", "decode", "encode", "raw", "binary", "format",
    "line", "field", "count", "check", "copy", "store", "table", "index", "cache",
    "limit", "value", "follow", "multiplies", "crash", "end", "past", "input",
)
NOTE = """\
Notes on the pixel reader

The pixel reader takes the width and the height declared in the dimension
header and multiplies them by three to get the number of payload bytes to
read. A raw PPM image stores the P6 magic, the width and height line, the
maxval line and then the pixel payload. The reader trusts the declared
width and height: when the header declares more pixel bytes than the
payload that follows actually holds, the read runs past the end of the
buffer. Validate the declared dimension against the payload length first.
"""


def _function_text(name: str, callees: list[str], rng: random.Random) -> str:
    comment = " ".join(rng.choice(WORDS) for _ in range(14))
    calls = "".join(
        f"    if (len > {rng.randrange(3, 64)}) return {callee}(img, buf + 3, len - 3);\n"
        for callee in callees)
    return (f"/* {name}: {comment} */\n"
            f"int {name}(struct image *img, const unsigned char *buf, size_t len)\n"
            f"{{\n{calls}    return 0;\n}}\n\n")


def generate(dest: str | Path, seed: int) -> Path:
    """Build the prepare-large workspace under ``dest``; returns its config path."""
    dest = Path(dest)
    with contextlib.redirect_stdout(io.StringIO()):
        demo.main([str(dest)])
    rng = random.Random(seed)
    count = FILES * FUNCS_PER_FILE
    ids = list(range(FIRST_ID, FIRST_ID + count))
    names = {nid: f"{PREFIXES[nid % len(PREFIXES)]}_{rng.choice(WORDS)}_{nid:05d}"
             for nid in ids}
    readers = set(rng.sample(ids, READERS))
    dims_callers = set(rng.sample(ids, DIMS_CALLERS))
    roots = rng.sample([nid for nid in ids if nid not in readers], MAIN_CALLS)
    callees = {nid: rng.sample(ids, CALLS_PER_FUNC) for nid in ids}

    graph_lines = [f"# {count} generated functions, seed {seed}"]
    graph_lines += [f"edge 0 {nid}" for nid in roots]
    gen_dir = dest / "corpus" / "gen"
    gen_dir.mkdir(parents=True)
    for f in range(FILES):
        rel = f"gen/unit-{f:03d}.c"
        parts = []
        for nid in ids[f * FUNCS_PER_FILE:(f + 1) * FUNCS_PER_FILE]:
            graph_lines.append(f"node {nid} {names[nid]} {rel}")
            calls = [names[c] for c in callees[nid]]
            graph_lines += [f"edge {nid} {c}" for c in callees[nid]]
            if nid in readers:
                calls.append("read_pixels")
                graph_lines.append(f"edge {nid} 3")
            if nid in dims_callers:
                calls.append("parse_dims")
                graph_lines.append(f"edge {nid} 2")
            parts.append(_function_text(names[nid], calls, rng))
        (gen_dir / f"unit-{f:03d}.c").write_text("".join(parts), encoding="utf-8")

    docs = dest / "corpus" / "docs"
    docs.mkdir()
    for n in range(NOTE_COPIES):
        (docs / f"notes-{n}.txt").write_text(NOTE, encoding="utf-8")
    with open(dest / "callgraph.txt", "a", encoding="utf-8") as fh:
        fh.write("\n".join(graph_lines) + "\n")
    return dest / "project.conf"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    print(generate(args.out, args.seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
