"""Correctness checks computed apart from reachfuzz.

Nothing here imports the package. Each check reads the files the program
wrote (or runs the target directly) and recomputes the expected answer its
own way: a P6 header reader, a target runner with its own trace capture, a
breadth-first search over the call-graph file, a brute-force ``math.fsum``
cosine ranking over the saved index, and an agreement check of the C port
against the Python toy on a fixed enumeration of inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import os
import random
import re
import struct
import subprocess
import sys
from array import array
from pathlib import Path

TARGET = "read_pixels"
SIGSEGV_STATUS = -11
MAX_INT_DIGITS = 4300  # Python's int() refuses longer digit strings
_WS = rb"[ \t\r\x0b\x0c]"
_HEADER = re.compile(rb"P6\n" + _WS + rb"*(\d+)" + _WS + rb"+(\d+)" + _WS + rb"*\n"
                     + _WS + rb"*(\d+)" + _WS + rb"*\n")


# --- crash inputs ----------------------------------------------------------------

def declares_overread(data: bytes) -> bool:
    """True when ``data`` is a P6 header the toy accepts whose declared pixel
    bytes (width * height * 3) exceed the payload after the maxval line."""
    m = _HEADER.match(data)
    if m is None or any(len(g) > MAX_INT_DIGITS for g in m.groups()):
        return False
    width, height, maxval = (int(g) for g in m.groups())
    return maxval <= 255 and width * height * 3 > len(data) - m.end()


def run_target(argv: list[str], data: bytes, scratch: Path) -> tuple[int, list[str]]:
    """Run the target once on ``data``; returns (returncode, trace lines)."""
    scratch.mkdir(parents=True, exist_ok=True)
    input_path, trace_path = scratch / "input.bin", scratch / "trace.log"
    input_path.write_bytes(data)
    trace_path.unlink(missing_ok=True)
    env = dict(os.environ, RF_TRACE_FILE=str(trace_path))
    proc = subprocess.run(argv + [str(input_path)], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=20)
    lines = trace_path.read_text(encoding="utf-8").split() if trace_path.exists() else []
    return proc.returncode, lines


def crashes_in_target(argv: list[str], data: bytes, scratch: Path) -> bool:
    returncode, lines = run_target(argv, data, scratch)
    return returncode == SIGSEGV_STATUS and TARGET in lines


def seed_reaches_target(argv: list[str], data: bytes, scratch: Path) -> bool:
    returncode, lines = run_target(argv, data, scratch)
    return returncode == 0 and TARGET in lines


# --- call graph ------------------------------------------------------------------

def _read_graph(path: Path):
    names, succ, entry = {}, {}, None
    for raw in path.read_text(encoding="utf-8").splitlines():
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "node":
            names[int(parts[1])] = parts[2]
        elif parts[0] == "edge":
            succ.setdefault(int(parts[1]), set()).add(int(parts[2]))
        elif parts[0] == "entry":
            entry = int(parts[1])
    return names, succ, entry


def shortest_chain(graph_file: Path, target_name: str = TARGET) -> list[str]:
    """Lexicographically smallest shortest entry-to-target chain, by names.

    A forward breadth-first search from the entry keeps, per node, the
    smallest name sequence that reaches it in the fewest steps; sequences
    of one BFS layer have equal length, so comparing them is comparing names
    step by step.
    """
    names, succ, entry = _read_graph(graph_file)
    best = {entry: [names[entry]]}
    layer = [entry]
    while layer:
        nxt: dict[int, list[str]] = {}
        for node in layer:
            for callee in succ.get(node, ()):
                if callee in best:
                    continue
                path = best[node] + [names[callee]]
                if callee not in nxt or path < nxt[callee]:
                    nxt[callee] = path
        best.update(nxt)
        for node, path in nxt.items():
            if path[-1] == target_name:
                return path
        layer = list(nxt)
    raise ValueError(f"{target_name} is unreachable from the entry")


# --- retrieval -------------------------------------------------------------------

def hash_embedding(text: str, dim: int) -> list[float]:
    """Token-hash bag of words: blake2b-8 per lowercased ``\\w+`` token, the
    low bit picks the sign and the rest the bucket (not normalised)."""
    vec = [0.0] * dim
    for token in re.findall(r"\w+", text.lower()):
        h = int.from_bytes(hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(),
                           "little")
        vec[(h >> 1) % dim] += 1.0 if h & 1 else -1.0
    return vec


def read_index(path: Path):
    """Parse an RFIX file: (dim, float32 rows, [(id, source, start, end)])."""
    data = path.read_bytes()
    if data[:4] != b"RFIX":
        raise ValueError(f"{path}: bad magic")
    _version, dim, count = struct.unpack("<III", data[4:16])
    end = 16 + count * dim * 4
    flat = array("f", data[16:end])
    if sys.byteorder != "little":
        flat.byteswap()
    manifest = []
    for line in data[end:].decode("utf-8").splitlines():
        cid, rel, start, stop, _lossy = line.split("\t")
        manifest.append((int(cid), rel, int(start), int(stop)))
    return dim, flat, manifest


def retrieval_matches(ranked_ids: list[int], index_file: Path, corpus_root: Path,
                      query: str, tol: float = 1e-6) -> bool:
    """The program's top-k equals the brute-force ranking by (-cosine, id).

    Stored vectors are float32, so two scores within ``tol`` count as a tie
    in either order; identical chunks tie exactly and must come by
    ascending id. The stored vectors of the retrieved chunks must also equal
    a fresh embedding of their text.
    """
    dim, flat, manifest = read_index(index_file)
    q = hash_embedding(query, dim)
    q_norm = math.sqrt(math.fsum(x * x for x in q))
    rows = {cid: flat[i * dim:(i + 1) * dim] for i, (cid, _rel, _a, _b) in enumerate(manifest)}
    scores = {}
    for cid, row in rows.items():
        r_norm = math.sqrt(math.fsum(x * x for x in row))
        scores[cid] = (math.fsum(map(operator.mul, q, row)) / (q_norm * r_norm)
                       if q_norm and r_norm else -1.0)
    expected = sorted(scores, key=lambda cid: (-scores[cid], cid))[:len(ranked_ids)]
    if len(ranked_ids) != len(expected):
        return False
    for got, want in zip(ranked_ids, expected):
        if got != want and (rows[got] == rows[want]
                            or abs(scores[got] - scores[want]) > tol):
            return False
    spans = {cid: (rel, start, stop) for cid, rel, start, stop in manifest}
    for cid in ranked_ids:
        rel, start, stop = spans[cid]
        text = (corpus_root / rel).read_bytes()[start:stop].decode("utf-8")
        fresh = hash_embedding(text, dim)
        norm = math.sqrt(math.fsum(x * x for x in fresh)) or 1.0
        if any(abs(x / norm - y) > tol for x, y in zip(fresh, rows[cid])):
            return False
    return True


# --- C port against the Python toy -------------------------------------------------

def _header_variants() -> list[bytes]:
    dims = [b"2 2", b" 2 2", b"2 2 ", b"\t2\t2", b"2\r2", b"2\x0b2", b"2\x0c2", b"2  2",
            b"2 2\r", b"2\x002", b"2\xa02", b"\x1c2 2", b"+2 2", b"-2 2", b"2 +2", b"2 -2",
            b"02 2", b"2 0002", b"0 2", b"2 0", b"0 0", b"2", b"2 2 2", b"", b" ", b"a 2",
            b"2 b", b"\xef\xbc\x92 2", b"1 4", b"4 1", b"99999999999999999999 2",
            b"18446744073709551617 18446744073709551617", b"1" * MAX_INT_DIGITS + b" 1",
            b"1" * (MAX_INT_DIGITS + 1) + b" 1", b"0" * (MAX_INT_DIGITS + 1) + b" 1",
            b"1 " + b"0" * MAX_INT_DIGITS + b"1"]
    maxvals = [b"255", b"256", b" 255 ", b"\t255\r", b"+255", b"-1", b"0255", b"0", b"",
               b"25 5", b"255\x00", b"99999999999999999999", b"1" * (MAX_INT_DIGITS + 1)]
    payloads = [b"", b"\x00" * 11, b"\x01" * 12, b"\x02" * 13, b"\n" * 100]
    inputs = []
    for d in dims:
        for p in payloads:
            inputs.append(b"P6\n" + d + b"\n255\n" + p)
    for m in maxvals:
        for p in payloads[:3]:
            inputs.append(b"P6\n2 2\n" + m + b"\n" + p)
    for magic in (b"", b"P", b"P6", b"P6 ", b"p6\n", b"P5\n", b"P6\r\n", b"P6\n\n"):
        inputs.append(magic + b"2 2\n255\n" + b"\x00" * 12)
    inputs += [b"P6\n2 2", b"P6\n2 2\n", b"P6\n2 2\n255", b"P6\n\n\n", b"P6\n2 2\n\n",
               b"P6\n2 2\n255\n\n"]
    return inputs


def _mutants(seed: int, count: int) -> list[bytes]:
    rng = random.Random(seed)
    bases = [b"P6\n2 2\n255\n" + b"\x00" * 12, b"P6\n9 2\n255\n" + b"\x00" * 8]
    out = []
    for _ in range(count):
        buf = bytearray(rng.choice(bases))
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(buf) + 1)
            op = rng.randrange(4)
            if op == 0 and pos < len(buf):
                buf[pos] = rng.choice(b" \t\r\n\x0b\x0c0123456789+-P6\x00\xff")
            elif op == 1:
                buf.insert(pos, rng.choice(b" \t\n0123456789+-"))
            elif op == 2 and pos < len(buf):
                del buf[pos]
            else:
                buf[pos:pos] = buf[rng.randrange(len(buf)):][:rng.randint(1, 6)]
        out.append(bytes(buf))
    return out


def port_disagreements(native: Path, toy: Path, seed: int, scratch: Path) -> list[str]:
    """Run the fixed enumeration plus 150 mutants drawn from ``seed`` on the
    C port (spawned) and on the Python toy (forked from one preloaded
    helper); returns the inputs whose exit status or trace lines differ."""
    inputs = _header_variants() + _mutants(seed, 150)
    scratch.mkdir(parents=True, exist_ok=True)
    input_dir = scratch / "inputs"
    input_dir.mkdir(exist_ok=True)
    for i, data in enumerate(inputs):
        (input_dir / f"{i:04d}.bin").write_bytes(data)
    helper = Path(__file__).with_name("toyfork.py")
    out = scratch / "toy.json"
    subprocess.run([sys.executable, str(helper), str(toy), str(input_dir), str(out)],
                   check=True, timeout=120)
    toy_results = json.loads(out.read_text(encoding="utf-8"))
    mismatches = []
    for i, data in enumerate(inputs):
        native_result = list(run_target([str(native)], data, scratch / "native"))
        if native_result != toy_results[i]:
            mismatches.append(f"{data[:40]!r}: port {native_result} toy {toy_results[i]}")
    return mismatches
