"""Benchmark of reachfuzz on the shipped ppmcheck project.

Run from the root of a checkout:

    python3 bench/run.py --workload demo-py --seed 1 --seconds 30 --trace 0

Workloads: ``demo-py`` (the demo with the Python toy target), ``native-ppm``
(the same with a C port of the toy) and ``prepare-large`` (a generated
corpus and call graph of about 8k chunks and 20k functions around the
project). Each run starts three fresh processes (``session.py``) in turn:
the middle one sets the workload up, runs whole rounds for about
``--seconds`` and checks the outputs; the others only set it up, and
``setup_s`` is the median of the three set-up times. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics: the end-to-end ones with ``--trace 0``, the
per-layer ones from a traced round with ``--trace 1``. End-to-end times are
corrected for the host's speed (``hostspeed.py``). See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("demo-py", "native-ppm", "prepare-large")
SETUPS_BEFORE = 1  # set-up-only sessions before the measured one
SETUPS_AFTER = 1  # and after it, so that setup_s samples the whole run
PROBES_PER_SETUP = 3  # host-speed probes before each set-up
TIMEOUT_S = 170


def _session(args, work: Path, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Start one session; returns (seconds until READY, its RESULT payload)."""
    argv = [sys.executable, str(BENCH_DIR / "session.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        argv.append("--setup-only")
    src = str(Path.cwd() / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    watchdog.start()
    ready = None
    result = ""
    try:
        for line in proc.stdout:
            if line.strip() == "READY" and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = line[len("RESULT "):]
    finally:
        proc.wait()
        watchdog.cancel()
    if proc.returncode != 0 or ready is None or (not setup_only and not result):
        raise RuntimeError(f"session {' '.join(argv[2:])} exited with {proc.returncode}")
    return ready, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (Path.cwd() / "src" / "reachfuzz" / "__init__.py").is_file():
        print("error: run from the root of a reachfuzz checkout (no src/reachfuzz here)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIMEOUT_S
    work = Path.cwd() / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    speed = hostspeed.SpeedLog()
    setups = []
    try:
        for i in range(SETUPS_BEFORE + SETUPS_AFTER + 1):
            for _ in range(PROBES_PER_SETUP):
                speed.probe()
            if i == SETUPS_BEFORE:
                ready, payload = _session(args, work / "run", False, deadline)
            else:
                ready, _ = _session(args, work / f"setup-{i}", True, deadline)
                shutil.rmtree(work / f"setup-{i}")
            setups.append(ready)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for _ in range(PROBES_PER_SETUP):
        speed.probe()
    result = json.loads(payload)
    if not args.trace:
        print(f"set-up: measured {setups}, probe median {speed.median_ms():.1f} ms",
              file=sys.stderr)
        setup = speed.reference_s(statistics.median(setups))
        result["metrics"] = {"setup_s": {"value": setup, "unit": "s"}, **result["metrics"]}
    for name, metric in result["metrics"].items():
        print(f"{name:30} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'attempted':30} {result['attempted']:14d}\n{'failed':30} {result['failed']:14d}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
