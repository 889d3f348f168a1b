"""Measure the host's drift floor: how much a fixed piece of work varies.

Usage: python3 bench/drift.py [--repeats 30] [--windows 10 --window-s 30]

Short scale: times ``--repeats`` runs of a fixed 3M-iteration Python loop
and of a bare interpreter spawn, and prints min, max and IQR/median of each.

Long scale (``--windows``): alternates a 0.7M-iteration loop and a bare
spawn for ``--windows`` windows of ``--window-s`` seconds, then prints the
IQR/median of the per-window means of each, of their ratio, and their
correlation. A metric summed over one window cannot be steadier from run to
run than these means; the ratio shows what correcting by the spawn probe
(``hostspeed.py``) leaves.
"""

import argparse
import statistics
import subprocess
import time

import hostspeed


def _spin(n: int) -> None:
    total = 0
    for i in range(n):
        total += i


def _spawn() -> None:
    subprocess.run(hostspeed.PROBE_ARGV, check=True)


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _spread(values) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--windows", type=int, default=0)
    parser.add_argument("--window-s", type=float, default=30.0)
    args = parser.parse_args(argv)
    probes = {"spin loop (3M iterations)": lambda: _spin(3_000_000),
              "bare interpreter spawn": _spawn}
    for name, fn in probes.items():
        times = [_timed(fn) for _ in range(args.repeats)]
        print(f"{name:28} min {min(times):.4f} s  max {max(times):.4f} s  "
              f"IQR/median {_spread(times):.2f}  ({args.repeats} repeats)")
    if args.windows:
        spins, spawns = [], []
        for _ in range(args.windows):
            window_spins, window_spawns = [], []
            end = time.perf_counter() + args.window_s
            while time.perf_counter() < end:
                window_spins.append(_timed(lambda: _spin(700_000)))
                window_spawns.append(_timed(_spawn))
            spins.append(statistics.fmean(window_spins))
            spawns.append(statistics.fmean(window_spawns))
        ratios = [a / b for a, b in zip(spins, spawns)]
        print(f"{args.windows} windows of {args.window_s:g} s: IQR/median of window means: "
              f"spin {_spread(spins):.3f}, spawn {_spread(spawns):.3f}, "
              f"spin/spawn {_spread(ratios):.3f}; "
              f"correlation {statistics.correlation(spins, spawns):.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
