"""Target execution with trace capture and the directed fuzzing loop.

The child process appends one executed function name per line to the file
named by the ``RF_TRACE_FILE`` environment variable. Crashes are classified
from the process termination status. The loop interleaves the bug-specific
mutation program with baseline random mutations, admits inputs that cover
new functions into the corpus, and refreshes the mutation program on a
period.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import re
import select
import signal
import subprocess
import threading
import time
import weakref
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import callgraph, mutator
from .callgraph import CallGraph, TraceObservation
from .errors import ReachFuzzError
from .seedgen import CommandLine

log = logging.getLogger(__name__)

TRACE_ENV_VAR = "RF_TRACE_FILE"
DEFAULT_EXEC_TIMEOUT = 1.0
DEFAULT_MIX_RATIO = 0.8
STDERR_EXCERPT_LIMIT = 500


@dataclass
class ExecResult:
    exit_kind: str  # clean | crash | timeout
    trace: TraceObservation
    duration: float
    stderr_excerpt: str = ""
    crash_class: str | None = None

    def __post_init__(self):
        if self.exit_kind == "crash" and not self.crash_class:
            raise ValueError("a crash result must carry its crash class")


class Executor:
    """Runs the target with trace capture; one executor per worker context.

    A command whose mapped head is ``<python interpreter> <script>.py`` runs
    through a fork server (``forkserver.py``) that the executor starts on
    first use: the script is loaded once and each input runs in a forked
    child. Every other command, a script the server cannot preload, and
    every command when ``fork_server`` is false (the reference the tests
    compare the server against) spawn one process per input. ``close()``
    stops the servers; so does collecting the executor, or interpreter exit.
    """

    def __init__(self, graph: CallGraph, workdir: str | Path,
                 exec_timeout: float = DEFAULT_EXEC_TIMEOUT,
                 program_map: dict[str, list[str]] | None = None,
                 tag: str = "0", *, fork_server: bool = True):
        self.graph = graph
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.exec_timeout = exec_timeout
        self.program_map = program_map or {}
        self.fork_server = fork_server
        self.missing_traces = 0
        self._input_path = self.workdir / f"input-{tag}.bin"
        self._trace_path = self.workdir / f"trace-{tag}.log"
        self._stderr_path = self.workdir / f"stderr-{tag}.log"
        # argv -> its running server, or None where argv is spawned
        self._servers: dict[tuple[str, ...], ForkServer | None] = {}
        weakref.finalize(self, _stop_servers, self._servers)

    def argv_for(self, command: CommandLine, input_path: Path) -> list[str]:
        head = self.program_map.get(command.program, [command.program])
        return list(head) + [arg.replace("@@", str(input_path)) for arg in command.args]

    def run(self, command: CommandLine, data: bytes,
            exec_timeout: float | None = None) -> ExecResult:
        argv = tuple(self.argv_for(command, self._input_path))
        timeout = exec_timeout if exec_timeout is not None else self.exec_timeout
        start = time.monotonic()
        # Resolve the server first: a script's top level, run once while the
        # server loads it, may append to the trace file.
        server = self._server(argv)
        self._input_path.write_bytes(data)
        self._trace_path.unlink(missing_ok=True)
        outcome = None
        if server is not None:
            outcome = server.run(timeout)
            if outcome is None:  # the server died; spawn this input, restart next time
                server.close()
                del self._servers[argv]
        if outcome is None:
            outcome = self._spawn(argv, timeout)
        returncode, stderr = outcome
        duration = time.monotonic() - start
        trace = self._read_trace()
        excerpt = stderr[:STDERR_EXCERPT_LIMIT].decode("utf-8", errors="replace")
        if returncode is None:
            return ExecResult("timeout", trace, duration, excerpt)
        if returncode < 0:
            try:
                crash_class = signal.Signals(-returncode).name
            except ValueError:
                crash_class = f"signal-{-returncode}"
            return ExecResult("crash", trace, duration, excerpt, crash_class=crash_class)
        return ExecResult("clean", trace, duration, excerpt)

    def close(self):
        """Stop every fork server this executor started."""
        _stop_servers(self._servers)

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        env[TRACE_ENV_VAR] = str(self._trace_path)
        return env

    def _server(self, argv: tuple[str, ...]) -> ForkServer | None:
        if argv not in self._servers:
            self._servers[argv] = (
                ForkServer.start(argv, self._env(), self._stderr_path)
                if self.fork_server and _preloadable(argv) else None)
        return self._servers[argv]

    def _spawn(self, argv: tuple[str, ...], timeout: float) -> tuple[int | None, bytes]:
        """One process for one input: (returncode or None on timeout, stderr)."""
        try:
            proc = subprocess.run(argv, env=self._env(), stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            return None, exc.stderr or b""
        except FileNotFoundError as exc:
            raise ReachFuzzError(f"cannot spawn target: {exc}") from None
        return proc.returncode, proc.stderr or b""

    def _read_trace(self) -> TraceObservation:
        try:
            names = self._trace_path.read_text(encoding="utf-8").split()
        except FileNotFoundError:
            self.missing_traces += 1
            if self.missing_traces == 1:
                log.warning("trace file missing after execution; treating trace as "
                            "empty (warned once, counted per executor)")
            return TraceObservation([])
        except OSError:
            log.warning("trace file unreadable; treating trace as empty")
            return TraceObservation([])
        return callgraph.observe(self.graph, names)


# --- fork server -------------------------------------------------------------------

FORKSERVER_SCRIPT = Path(__file__).with_name("forkserver.py")
FORKSERVER_START_TIMEOUT = 10.0  # seconds for the helper to load the script
_PYTHON = re.compile(r"python[0-9.]*")


def _preloadable(argv: tuple[str, ...]) -> bool:
    """True when argv is ``<python interpreter> <script>.py [args...]``."""
    return (len(argv) >= 2 and _PYTHON.fullmatch(os.path.basename(argv[0])) is not None
            and argv[1].endswith(".py"))


def _stop_servers(servers: dict[tuple[str, ...], ForkServer | None]):
    for server in servers.values():
        if server is not None:
            server.close()
    servers.clear()


class ForkServer:
    """Orchestrator side of one ``forkserver.py`` helper process.

    The helper serves one fixed argv; each request forks one child. It is
    single-threaded and owned by one executor, so no orchestrator thread
    ever forks.
    """

    def __init__(self, proc: subprocess.Popen, stderr_path: Path):
        self.proc = proc
        self.stderr_path = stderr_path

    @classmethod
    def start(cls, argv: tuple[str, ...], env: dict[str, str],
              stderr_path: Path) -> ForkServer | None:
        """Start the helper and wait for it to load the script; None (with
        one warning) when it cannot, so that the caller spawns instead."""
        python, script, *args = argv
        try:
            proc = subprocess.Popen(
                [python, str(FORKSERVER_SCRIPT), str(stderr_path), script, *args],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, env=env, bufsize=0)
        except OSError as exc:
            log.warning("cannot start a fork server for %s: %s", script, exc)
            return None
        server = cls(proc, stderr_path)
        reply = server._reply(FORKSERVER_START_TIMEOUT)
        if reply == b"ready\n":
            return server
        server.close()
        reason = (reply.decode("utf-8", "replace").strip() if reply
                  else "not ready in time")
        log.warning("cannot preload %s (%s); spawning one interpreter per input",
                    script, reason)
        return None

    def run(self, timeout: float) -> tuple[int | None, bytes] | None:
        """Run one input: (returncode or None on timeout, stderr), or None
        when the helper is gone. A child past the timeout is killed."""
        try:
            self.proc.stdin.write(b"\n")
            pid = int(self.proc.stdout.readline())
        except (OSError, ValueError):
            return None
        reply = self._reply(timeout)
        returncode = None
        if reply is None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            reply = self._reply(None)  # the helper reaps the child
        elif reply:
            returncode = os.waitstatus_to_exitcode(int(reply))
        if not reply:
            return None
        with open(self.stderr_path, "rb") as fh:
            return returncode, fh.read(STDERR_EXCERPT_LIMIT)

    def close(self):
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()

    def _reply(self, timeout: float | None) -> bytes | None:
        """One reply line; b"" when the helper is gone, None on timeout."""
        if timeout is not None and not select.select([self.proc.stdout], [], [], timeout)[0]:
            return None
        return self.proc.stdout.readline()


# --- baseline random mutation --------------------------------------------------

_RANDOM_OPS = ("flip", "set", "insert", "delete", "arith", "dup")
RANDOM_DUP_MAX = 16


def random_mutate(data: bytes, rng: random.Random) -> bytes:
    """One baseline mutation: bit flip, byte set/insert/delete, LE arithmetic,
    or block duplication, at a random position."""
    if not data:
        raise ValueError("input must be non-empty")
    buf = bytearray(data)
    op = rng.choice(_RANDOM_OPS)
    if op == "flip":
        i = rng.randrange(len(buf))
        buf[i] ^= 1 << rng.randrange(8)
    elif op == "set":
        buf[rng.randrange(len(buf))] = rng.randrange(256)
    elif op == "insert":
        buf.insert(rng.randrange(len(buf) + 1), rng.randrange(256))
    elif op == "delete":
        del buf[rng.randrange(len(buf))]
    elif op == "arith":
        width = rng.choice([w for w in (1, 2, 4) if w <= len(buf)] or [1])
        if len(buf) >= width:
            off = rng.randrange(len(buf) - width + 1)
            delta = rng.choice((-1, 1)) * rng.randint(1, 16)
            value = int.from_bytes(buf[off:off + width], "little")
            value = (value + delta) % (1 << (8 * width))
            buf[off:off + width] = value.to_bytes(width, "little")
    else:
        n = rng.randint(1, min(len(buf), RANDOM_DUP_MAX))
        src = rng.randrange(len(buf) - n + 1)
        dst = rng.randrange(len(buf) + 1)
        buf[dst:dst] = buf[src:src + n]
    return bytes(buf)


# --- campaign ------------------------------------------------------------------

@dataclass
class CampaignConfig:
    command: CommandLine
    seeds: list  # list[Seed]
    target_function: int
    duration_limit: float
    exec_timeout: float = DEFAULT_EXEC_TIMEOUT
    rng_seed: int = 0
    mix_ratio: float = DEFAULT_MIX_RATIO
    refresh_period: float = mutator.DEFAULT_REFRESH_PERIOD
    stop_on_first: bool = True
    workers: int = 1

    def __post_init__(self):
        if not self.seeds or any(not s.data for s in self.seeds):
            raise ValueError("seeds must carry non-empty byte strings")
        if not 0.0 <= self.mix_ratio <= 1.0:
            raise ValueError("mix_ratio must be in [0, 1]")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.refresh_period <= 0:
            raise ValueError("refresh_period must be positive")


@dataclass
class CrashRecord:
    """One distinct crash input, as first seen; ``count`` counts its sightings."""

    input_hash: str
    crash_class: str
    reached_target: bool
    count: int = 1


@dataclass
class CampaignStats:
    """Campaign outcome counters.

    Measured wall-clock durations are carried for reporting but excluded
    from equality: two reproducible runs execute the identical sequence yet
    never measure identical times.
    """

    total_execs: int = 0
    execs_reaching_target: int = 0
    crashes: list[CrashRecord] = field(default_factory=list)
    refresh_events: int = 0
    clamp_events: int = 0
    random_only: bool = False
    time_to_first_target_crash: float | None = field(default=None, compare=False)
    wall_time: float = field(default=0.0, compare=False)

    @property
    def found_target_crash(self) -> bool:
        return any(c.reached_target for c in self.crashes)


@dataclass
class RefreshResult:
    program: mutator.MutationProgram
    strategies: list[mutator.MutationStrategy]
    trial: mutator.TrialReport | None = None


class MutatorProvider:
    """Source of the bug-specific mutation program for a campaign.

    ``initial()`` returns the starting program (or None for random-only) and
    ``refresh(prior)`` builds a replacement strategy set and program; a
    refresh failure returns None and the campaign degrades to the previous
    accepted program.
    """

    def initial(self) -> mutator.MutationProgram | None:
        raise NotImplementedError

    def refresh(self, prior: list[mutator.MutationStrategy]) -> RefreshResult | None:
        raise NotImplementedError

    def strategies(self) -> list[mutator.MutationStrategy]:
        return []


class StaticProvider(MutatorProvider):
    """Fixed program; refresh re-issues the same program (still counted)."""

    def __init__(self, program: mutator.MutationProgram | None):
        self._program = program

    def initial(self):
        return self._program

    def refresh(self, prior):
        if self._program is None:
            return None
        return RefreshResult(self._program, list(prior))


class LlmProvider(MutatorProvider):
    """Regenerates strategies and programs through the query engine."""

    def __init__(self, engine, analysis: mutator.BugAnalysis, seed_bytes: bytes,
                 runner, initial_program: mutator.MutationProgram | None,
                 initial_strategies: list[mutator.MutationStrategy],
                 trial_duration: float = mutator.DEFAULT_TRIAL_DURATION,
                 thresholds: mutator.TrialThresholds | None = None):
        self.engine = engine
        self.analysis = analysis
        self.seed_bytes = seed_bytes
        self.runner = runner
        self._initial = initial_program
        self._strategies = initial_strategies
        self.trial_duration = trial_duration
        self.thresholds = thresholds

    def initial(self):
        return self._initial

    def strategies(self):
        return self._strategies

    def refresh(self, prior):
        build = mutator.build_mutator(
            self.analysis, self.engine, self.seed_bytes, self.runner,
            prior=prior, trial_duration=self.trial_duration,
            thresholds=self.thresholds,
        )
        if not build.accepted:
            return None
        return RefreshResult(build.program, build.strategies, build.trial)


@dataclass
class _SharedState:
    corpus: list[bytes]
    covered: set[int]
    stats: CampaignStats
    events: list[dict]
    next_index: int = 0
    stop: bool = False
    next_refresh: float = 0.0
    corpus_files: int = 0
    fatal: Exception | None = None
    crash_by_hash: dict[str, CrashRecord] = field(default_factory=dict)


def run(config: CampaignConfig, provider: MutatorProvider | None, graph: CallGraph,
        workdir: str | Path, program_map: dict[str, list[str]] | None = None) -> CampaignStats:
    """Run the directed campaign until the duration limit or the first
    target-attributed crash (when stop_on_first is set).

    Inputs whose trace covers a new function join the corpus. A crash counts
    toward time-to-bug only if its trace contains the target function.
    Events are logged with logical exec indices so reproducible runs produce
    byte-identical logs.
    """
    workdir = Path(workdir)
    for sub in ("corpus", "crashes", "mutators", "exec"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)

    program = provider.initial() if provider is not None else None
    strategies = provider.strategies() if provider is not None else []
    if program is not None:
        (workdir / "mutators" / "active-0.mut").write_text(
            program.render() + "\n", encoding="utf-8")

    state = _SharedState(
        corpus=[bytes(s.data) for s in config.seeds],
        covered=set(),
        stats=CampaignStats(random_only=program is None),
        events=[],
        next_refresh=config.refresh_period,
    )
    counters = mutator.MutationCounters()
    lock = threading.Lock()
    program_box: list[mutator.MutationProgram | None] = [program]
    strategies_box: list[list[mutator.MutationStrategy]] = [strategies]
    start = time.monotonic()
    deadline = start + config.duration_limit

    state.events.append({"event": "start", "seeds": len(config.seeds),
                         "random_only": program is None})

    def worker(widx: int):
        rng = random.Random((config.rng_seed << 8) ^ widx)
        executor = Executor(graph, workdir / "exec", config.exec_timeout,
                            program_map, tag=str(widx))
        try:
            while True:
                now = time.monotonic()
                with lock:
                    if state.stop or now >= deadline:
                        return
                    _maybe_refresh(now - start, state, config, provider,
                                   program_box, strategies_box, workdir)
                    parent = state.corpus[state.next_index % len(state.corpus)]
                    state.next_index += 1
                    active = program_box[0]
                use_program = active is not None and rng.random() < config.mix_ratio
                if use_program:
                    data = mutator.apply(active, parent, rng, counters)
                else:
                    data = random_mutate(parent, rng)
                if not data:
                    continue  # degenerate mutation; next iteration re-seeds from the corpus
                result = executor.run(config.command, data)
                with lock:
                    if state.stop:
                        return
                    _record(result, data, config, state, workdir, use_program,
                            elapsed=time.monotonic() - start)
        finally:
            executor.close()

    def guarded_worker(widx: int):
        try:
            worker(widx)
        except ReachFuzzError as exc:
            with lock:
                state.fatal = exc
                state.stop = True

    if config.workers == 1:
        worker(0)
    else:
        threads = [threading.Thread(target=guarded_worker, args=(i,))
                   for i in range(config.workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if state.fatal is not None:
            raise state.fatal

    state.stats.clamp_events = counters.clamp_events
    state.stats.wall_time = time.monotonic() - start
    state.events.append({"event": "finish", "total_execs": state.stats.total_execs})
    with open(workdir / "events.log", "w", encoding="utf-8") as fh:
        for event in state.events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    return state.stats


def _maybe_refresh(elapsed: float, state: _SharedState, config: CampaignConfig,
                   provider: MutatorProvider | None,
                   program_box, strategies_box, workdir: Path):
    if provider is None or program_box[0] is None:
        return
    while elapsed >= state.next_refresh:
        state.next_refresh += config.refresh_period
        state.stats.refresh_events += 1
        outcome = provider.refresh(strategies_box[0])
        if outcome is None:
            state.events.append({"event": "refresh", "n": state.stats.refresh_events,
                                 "swapped": False})
            continue  # keep the previous accepted program
        program_box[0] = outcome.program
        strategies_box[0] = outcome.strategies
        n = state.stats.refresh_events
        (workdir / "mutators" / f"active-{n}.mut").write_text(
            outcome.program.render() + "\n", encoding="utf-8")
        if outcome.trial is not None:
            (workdir / "mutators" / f"active-{n}.trial.json").write_text(
                json.dumps(asdict(outcome.trial), indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        state.events.append({"event": "refresh", "n": n, "swapped": True})


def _record(result: ExecResult, data: bytes, config: CampaignConfig,
            state: _SharedState, workdir: Path, used_program: bool, elapsed: float):
    stats = state.stats
    stats.total_execs += 1
    exec_index = stats.total_execs
    reached = result.trace.contains(config.target_function)
    if reached:
        stats.execs_reaching_target += 1
    new_functions = set(result.trace.reached) - state.covered
    if new_functions:
        state.covered |= new_functions
        if data:
            state.corpus.append(data)
            state.corpus_files += 1
            (workdir / "corpus" / f"id-{state.corpus_files}.bin").write_bytes(data)
        state.events.append({
            "event": "admit", "exec": exec_index,
            "new": sorted(new_functions), "sha": _sha(data),
        })
    if result.exit_kind == "crash":
        sha = _sha(data)
        record = state.crash_by_hash.get(sha)
        if record is not None:
            record.count += 1
        else:
            record = CrashRecord(sha, result.crash_class or "unknown", reached)
            state.crash_by_hash[sha] = record
            stats.crashes.append(record)
            (workdir / "crashes" / f"{sha}.bin").write_bytes(data)
            state.events.append({
                "event": "crash", "exec": exec_index, "class": record.crash_class,
                "reached_target": reached, "sha": sha,
                "mutation": "program" if used_program else "random",
            })
        if reached and stats.time_to_first_target_crash is None:
            stats.time_to_first_target_crash = elapsed
            if config.stop_on_first:
                state.stop = True


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


# --- reporting -------------------------------------------------------------------

STAGE_ORDER = ("SA", "RAG", "Opt", "Mutator")
TIMEOUT_MARK = "T.O."


@dataclass
class StageTiming:
    name: str
    seconds: float
    timed_out: bool = False


def render_report(stage_timings: list[StageTiming],
                  stats: CampaignStats | None = None) -> str:
    """Render the preparation table (stage rows then Total) and, when
    campaign stats are present, the campaign counters."""
    by_name = {t.name: t for t in stage_timings}
    lines = ["== Preparation =="]
    total = 0
    any_timeout = False
    for name in STAGE_ORDER:
        timing = by_name.get(name)
        if timing is None:
            continue
        if timing.timed_out:
            cell = TIMEOUT_MARK
            any_timeout = True
        else:
            cell = f"{int(round(timing.seconds))}s"
            total += int(round(timing.seconds))
        lines.append(f"{name + ':':<9}{cell}")
    lines.append(f"{'Total:':<9}{TIMEOUT_MARK if any_timeout else str(total) + 's'}")
    if stats is not None:
        lines.append("")
        lines.append("== Campaign ==")
        if stats.time_to_first_target_crash is not None:
            ttb = f"{int(round(stats.time_to_first_target_crash))}s"
        else:
            ttb = TIMEOUT_MARK
        lines.append(f"time to bug:            {ttb}")
        lines.append(f"total execs:            {stats.total_execs}")
        lines.append(f"execs reaching target:  {stats.execs_reaching_target}")
        lines.append(f"crashes:                {len(stats.crashes)}")
        lines.append(f"refresh events:         {stats.refresh_events}")
        lines.append(f"clamp events:           {stats.clamp_events}")
        lines.append(f"mode:                   {'random-only' if stats.random_only else 'bug-specific mix'}")
    return "\n".join(lines) + "\n"


def save_stats(stats: CampaignStats, path: str | Path):
    payload = asdict(stats)
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_stats(path: str | Path) -> CampaignStats:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    crashes = [CrashRecord(**c) for c in payload.pop("crashes", [])]
    return CampaignStats(crashes=crashes, **payload)


def save_stage_timings(timings: list[StageTiming], path: str | Path):
    payload = [asdict(t) for t in timings]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def load_stage_timings(path: str | Path) -> list[StageTiming]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return [StageTiming(**t) for t in payload]
