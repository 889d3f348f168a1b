"""One fresh benchmark process: set up a workload, then run and check it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. It prints ``READY`` on stdout when the workload is set up; with
``--setup-only`` it stops there. Otherwise it runs whole rounds of the
workload through ``reachfuzz.cli.main``, checks every output with the
oracles, and prints ``RESULT <json>`` as its last line.

A round is made of units spread evenly over it: ``prepare`` (once, or
three times on prepare-large); for each rng seed of the workload's fixed
list, in an order shuffled by ``--seed``, one ``fuzz`` with the mutator mix
and one ``fuzz --random-only``, each stopping at the first target crash;
and a few fixed-duration ``fuzz --keep-going`` campaigns. Bare interpreter
spawns between the commands probe the host's speed, and the reported times
are corrected by it (``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import random
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reachfuzz
from reachfuzz import callgraph, cli, demo, knowledge

import gen_large
import hostspeed
import oracles
import tracing

BENCH_DIR = Path(__file__).resolve().parent
FUZZ_CAP = "30s"  # safety cap of one stop-at-first-crash campaign
PROBE_INTERVAL_S = 0.4  # least time between two host-speed probes


@dataclasses.dataclass(frozen=True)
class Workload:
    native: bool  # target is the C port instead of the Python toy
    large: bool  # generated corpus and call graph around the project
    rng_seeds: range  # fixed list of campaign rng seeds for time-to-bug
    prepares: int  # prepare commands per round
    keep_going: int  # keep-going campaigns per round
    keep_going_s: float  # duration of each keep-going campaign


WORKLOADS = {
    "demo-py": Workload(native=False, large=False, rng_seeds=range(1, 21), prepares=1,
                        keep_going=4, keep_going_s=1.5),
    "native-ppm": Workload(native=True, large=False, rng_seeds=range(1, 201), prepares=1,
                           keep_going=4, keep_going_s=1.5),
    "prepare-large": Workload(native=True, large=True, rng_seeds=range(1, 11), prepares=3,
                              keep_going=2, keep_going_s=4.0),
}
KEEP_GOING_RNG_SEED = 1000  # keep-going campaign k uses rng seed 1000 + k
FIXED_WORK = ("prepare_s", "ttb_s", "ttb_random_s")  # their amount of work is fixed


@dataclasses.dataclass
class Round:
    """Measured times of one round and the host-speed probes taken in it."""
    speed: hostspeed.SpeedLog = dataclasses.field(default_factory=hostspeed.SpeedLog)
    prepare_s: list = dataclasses.field(default_factory=list)
    llm_requests: list = dataclasses.field(default_factory=list)
    ttb_s: float = 0.0
    ttb_random_s: float = 0.0
    execs_to_bug: int = 0
    execs_to_bug_random: int = 0
    keep_going_execs: int = 0
    keep_going_s: float = 0.0  # campaign time, from the campaigns' stats.json

    def metrics(self, trial_s: float) -> dict[str, float]:
        """Time metrics of the round in reference time. The mutator trial
        inside prepare is a time box of ``trial_s``."""
        ref = self.speed.reference_s
        return {
            "prepare_s": statistics.median(ref(p, trial_s) for p in self.prepare_s),
            "ttb_s": ref(self.ttb_s),
            "ttb_random_s": ref(self.ttb_random_s),
            "execs_per_s": self.keep_going_execs / ref(self.keep_going_s),
        }

    def measured(self) -> str:
        return (f"probe median {self.speed.median_ms():.1f} ms over {len(self.speed.probes)} "
                f"probes; measured prepare_s {self.prepare_s}, ttb_s {self.ttb_s:.4f}, "
                f"ttb_random_s {self.ttb_random_s:.4f}, "
                f"execs_per_s {self.keep_going_execs / self.keep_going_s:.2f}")


class Session:
    def __init__(self, workload: Workload, work: Path, config: Path, seed: int):
        self.workload = workload
        self.work = work
        self.config = config
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.check_failures: list[str] = []
        self.prepared: list[Path] = []  # snapshots of each prepare's outputs
        self.crash_sets: list[set[str]] = []  # target crash hashes per fuzz command
        self.crash_inputs: dict[str, bytes] = {}
        # The mutator trial is a time box: it lasts this long on any host.
        self.trial_s = cli.load_config(config).trial_duration
        self._last_probe = -PROBE_INTERVAL_S

    # --- program calls -----------------------------------------------------------

    def _cli(self, rnd: Round, *argv: str) -> tuple[int, float]:
        """Run one command, after a host-speed probe when the last one is
        PROBE_INTERVAL_S old; returns (exit code, wall seconds)."""
        if time.perf_counter() - self._last_probe >= PROBE_INTERVAL_S:
            rnd.speed.probe()
            self._last_probe = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = cli.main(list(argv))
            return rc, time.perf_counter() - start

    def prepare(self, rnd: Round):
        rc, seconds = self._cli(rnd, "prepare", "--config", str(self.config), "--force")
        prepare_dir = self.config.parent / "work" / "prepare"
        bundle = json.loads((prepare_dir / "bundle.json").read_text(encoding="utf-8"))
        rnd.prepare_s.append(seconds)
        rnd.llm_requests.append(bundle["llm_requests"])
        self.attempted += 1
        self.failed += rc != 0 or not bundle["mutator_accepted"]
        snapshot = self.work / "checks" / f"prepare-{len(self.prepared)}"
        shutil.copytree(prepare_dir, snapshot, ignore=shutil.ignore_patterns("exec", "gen"))
        self.prepared.append(snapshot)

    def fuzz(self, rnd: Round, *extra: str) -> tuple[float, dict]:
        """Run one fuzz command; returns (wall seconds, its stats.json)."""
        rc, seconds = self._cli(rnd, "fuzz", "--config", str(self.config), "--workers", "1",
                                *extra)
        fuzz_dir = self.config.parent / "work" / "fuzz"
        stats = json.loads((fuzz_dir / "stats.json").read_text(encoding="utf-8"))
        hashes = {c["input_hash"] for c in stats["crashes"] if c["reached_target"]}
        for sha in hashes - self.crash_inputs.keys():
            self.crash_inputs[sha] = (fuzz_dir / "crashes" / f"{sha}.bin").read_bytes()
        self.crash_sets.append(hashes)
        self.attempted += 1
        self.failed += rc != cli.EXIT_OK or not hashes
        return seconds, stats

    def round(self) -> Round:
        """One round, its units spread evenly over it so that every metric
        samples the whole round, with host-speed probes between commands. The
        first unit is a prepare, which the fuzzing needs."""
        wl = self.workload
        order = list(wl.rng_seeds)
        random.Random(self.seed).shuffle(order)
        units = [(k / wl.prepares, "prepare", k) for k in range(wl.prepares)]
        units += [((k + 0.5) / len(order), "seed", s) for k, s in enumerate(order)]
        units += [((k + 0.5) / wl.keep_going, "keep-going", k) for k in range(wl.keep_going)]
        rnd = Round()
        self._last_probe = -PROBE_INTERVAL_S
        for _position, kind, arg in sorted(units):
            if kind == "prepare":
                self.prepare(rnd)
            elif kind == "seed":
                seconds, stats = self.fuzz(rnd, "--rng-seed", str(arg), "--duration", FUZZ_CAP)
                rnd.ttb_s += seconds
                rnd.execs_to_bug += stats["total_execs"]
                seconds, stats = self.fuzz(rnd, "--rng-seed", str(arg), "--duration", FUZZ_CAP,
                                           "--random-only")
                rnd.ttb_random_s += seconds
                rnd.execs_to_bug_random += stats["total_execs"]
            else:
                _seconds, stats = self.fuzz(rnd, "--rng-seed", str(KEEP_GOING_RNG_SEED + arg),
                                            "--keep-going", "--duration", f"{wl.keep_going_s}s")
                rnd.keep_going_execs += stats["total_execs"]
                rnd.keep_going_s += stats["wall_time"]
        rnd.speed.probe()
        return rnd

    # --- checks ------------------------------------------------------------------

    def check(self, name: str, ok: bool):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.check_failures.append(name)

    def run_checks(self):
        settings = cli.load_config(self.config)
        argv = shlex.split(settings.program_exec)
        scratch = self.work / "checks" / "run"
        first, *others = self.prepared
        seeds = sorted((first / "seeds").glob("seed-*.bin"))
        self.check(f"prepared seed reaches {oracles.TARGET} cleanly",
                   bool(seeds) and all(oracles.seed_reaches_target(
                       argv, p.read_bytes(), scratch) for p in seeds))
        graph = callgraph.load(settings.graph_file)
        chain = callgraph.complete_chain(graph, graph.id_of(oracles.TARGET))
        self.check("SA chain is the shortest chain",
                   [graph.name_of(n) for n in chain.functions]
                   == oracles.shortest_chain(settings.graph_file))
        bug = knowledge.BugInfo(**json.loads(
            (first / "bug_info.json").read_text(encoding="utf-8")))
        index = knowledge.load_index(first / "index.rfix", settings.corpus_root)
        ranked = [c.id for c, _ in knowledge.retrieve_top_k(index, bug.query_text())]
        self.check("top-k equals the brute-force ranking",
                   oracles.retrieval_matches(ranked, first / "index.rfix",
                                             settings.corpus_root, bug.query_text()))
        for i, snapshot in enumerate(others, start=1):
            self.check(f"prepare {i} wrote what prepare 0 wrote",
                       _same_outputs(first, snapshot))
        verdicts = {sha: (oracles.declares_overread(data),
                          oracles.crashes_in_target(argv, data, scratch))
                    for sha, data in self.crash_inputs.items()}
        for n, hashes in enumerate(self.crash_sets):
            self.check(f"fuzz {n}: crash inputs declare more pixels than they hold",
                       all(verdicts[sha][0] for sha in hashes))
            self.check(f"fuzz {n}: crash inputs crash the target in {oracles.TARGET}",
                       all(verdicts[sha][1] for sha in hashes))
        if self.workload.native:
            mismatches = oracles.port_disagreements(
                Path(argv[0]), BENCH_DIR.parent / "src" / "reachfuzz" / "toys" / "ppmcheck.py",
                self.seed, self.work / "checks" / "agree")
            self.check("C port agrees with the Python toy", not mismatches)
            for line in mismatches[:10]:
                print(f"port disagreement: {line}", file=sys.stderr)


def _same_outputs(a: Path, b: Path) -> bool:
    """Equal files under both directories, apart from the wall-clock ones."""
    def files(root: Path) -> dict:
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*")
                if p.is_file() and p.name not in ("stage_timings.json", "trial.json")}
    return files(a) == files(b)


# --- set-up ------------------------------------------------------------------------

def set_up(workload: Workload, ws: Path, seed: int) -> Path:
    """Build the workload's workspace under ``ws``; returns its config path."""
    if workload.large:
        config = gen_large.generate(ws, seed)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            demo.main([str(ws)])
        config = ws / "project.conf"
    if workload.native:
        binary = ws / "bin" / "ppmcheck"
        binary.parent.mkdir()
        subprocess.run(["cc", "-O2", "-o", str(binary), str(BENCH_DIR / "ppmcheck.c")],
                       check=True, timeout=120)
        lines = [f"program_exec = {binary}" if line.startswith("program_exec") else line
                 for line in config.read_text(encoding="utf-8").splitlines()]
        config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return config


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    src = (BENCH_DIR.parent / "src").resolve()
    if src not in Path(reachfuzz.__file__).resolve().parents:
        print(f"reachfuzz was imported from {reachfuzz.__file__}, not {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    config = set_up(workload, args.work / "ws", args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    session = Session(workload, args.work, config, args.seed)
    if args.trace:
        # An untraced round, then the same round traced: their ratio is the
        # tracing overhead.
        plain = session.round()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = session.round()
        finally:
            tracer.restore()
        session.run_checks()
        session.check("campaign.run time is exec, mutation, observe and loop time",
                      tracing.campaign_accounting(tracer))
        metrics = tracing.per_layer(tracer)
        plain_times, traced_times = (r.metrics(session.trial_s) for r in (plain, traced))
        metrics["trace.overhead_ratio"] = (
            sum(traced_times[name] for name in FIXED_WORK)
            / sum(plain_times[name] for name in FIXED_WORK), "ratio")
    else:
        rounds: list[Round] = []
        started = time.perf_counter()
        while not rounds or (time.perf_counter() - started) * (len(rounds) + 1) / len(rounds) \
                <= args.seconds:
            rounds.append(session.round())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        session.run_checks()
        times = [r.metrics(session.trial_s) for r in rounds]
        metrics = {name: (statistics.median(t[name] for t in times), unit)
                   for name, unit in (("prepare_s", "s"), ("ttb_s", "s"),
                                      ("ttb_random_s", "s"), ("execs_per_s", "1/s"))}
        metrics.update({
            "llm_requests": (statistics.median(
                n for r in rounds for n in r.llm_requests), "count"),
            "execs_to_bug": (statistics.median(r.execs_to_bug for r in rounds), "count"),
            "execs_to_bug_random": (statistics.median(
                r.execs_to_bug_random for r in rounds), "count"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        })
        for r in rounds:
            print(f"round: {r.measured()}", file=sys.stderr)
    for name in session.check_failures:
        print(f"check failed: {name}", file=sys.stderr)
    result = {
        "correct": not session.check_failures,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
