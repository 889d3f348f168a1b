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

    ``program_exec``, when not empty, is the argv head that replaces the
    command's program, whatever name the command gives it.

    A command whose head is ``<python interpreter> <script>.py`` runs
    through a fork server (``forkserver.py``) that the executor starts on
    first use: the script is loaded once and each input runs in a forked
    child. Every other command, a script the server cannot preload, and
    every command when ``fork_server`` is false (the reference the tests
    compare the server against) spawn one process per input. ``close()``
    stops the servers; so does collecting the executor, or interpreter exit.
    """

    def __init__(self, graph: CallGraph, workdir: str | Path,
                 exec_timeout: float = DEFAULT_EXEC_TIMEOUT,
                 program_exec: list[str] | None = None,
                 tag: str = "0", *, fork_server: bool = True):
        self.graph = graph
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.exec_timeout = exec_timeout
        self.program_exec = program_exec
        self.fork_server = fork_server
        self.missing_traces = 0
        self._input_path = self.workdir / f"input-{tag}.bin"
        self._trace_path = self.workdir / f"trace-{tag}.log"
        self._stderr_path = self.workdir / f"stderr-{tag}.log"
        # argv -> its running server, or None where argv is spawned
        self._servers: dict[tuple[str, ...], ForkServer | None] = {}
        weakref.finalize(self, _stop_servers, self._servers)

    def argv_for(self, command: CommandLine, input_path: Path) -> list[str]:
        head = self.program_exec or [command.program]
        return head + [arg.replace("@@", str(input_path)) for arg in command.args]

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


def run(config: CampaignConfig, program: mutator.MutationProgram | None, graph: CallGraph,
        workdir: str | Path, program_exec: list[str] | None = None,
        strategies: list[mutator.MutationStrategy] | None = None,
        rebuild=None) -> CampaignStats:
    """Run the directed campaign until the duration limit or the first
    target-attributed crash (when stop_on_first is set).

    ``program`` is the starting mutation program, or None for random-only.
    ``rebuild(prior_strategies, runner)`` returns a ``mutator.MutatorBuild``
    for each periodic refresh; without it a refresh re-issues the current
    program. The first exception raised in any worker stops the campaign
    and is re-raised here.
    """
    return Campaign(config, program, graph, workdir, program_exec,
                    strategies or [], rebuild).run()


class Campaign:
    """The state of one campaign, shared by its workers under one lock.

    Inputs whose trace covers a new function join the corpus. A crash counts
    toward time-to-bug only if its trace contains the target function.
    Events are logged with logical exec indices so reproducible runs produce
    byte-identical logs. A refresh is claimed under the lock, built outside
    it on the claiming worker's executor while the other workers fuzz on,
    and swapped in under the lock; one refresh is in flight at a time.
    """

    def __init__(self, config: CampaignConfig, program: mutator.MutationProgram | None,
                 graph: CallGraph, workdir: str | Path, program_exec: list[str] | None,
                 strategies: list[mutator.MutationStrategy], rebuild):
        self.config = config
        self.graph = graph
        self.workdir = Path(workdir)
        self.program_exec = program_exec
        self.rebuild = rebuild
        self.program = program
        self.strategies = strategies
        self.corpus = [bytes(s.data) for s in config.seeds]
        self.covered: set[int] = set()
        self.stats = CampaignStats(random_only=program is None)
        self.events: list[dict] = []
        self.crash_by_hash: dict[str, CrashRecord] = {}
        self.counters = mutator.MutationCounters()
        self.lock = threading.Lock()
        self.next_index = 0
        self.next_refresh = config.refresh_period
        self.refreshing = False
        self.stop = False
        self.error: Exception | None = None
        self.start = self.deadline = 0.0

    def run(self) -> CampaignStats:
        for sub in ("corpus", "crashes", "mutators", "exec"):
            (self.workdir / sub).mkdir(parents=True, exist_ok=True)
        if self.program is not None:
            self._write_program(0)
        self.start = time.monotonic()
        self.deadline = self.start + self.config.duration_limit
        self.events.append({"event": "start", "seeds": len(self.config.seeds),
                            "random_only": self.program is None})
        if self.config.workers == 1:
            self._work(0)
        else:
            threads = [threading.Thread(target=self._work, args=(i,))
                       for i in range(self.config.workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if self.error is not None:
            raise self.error

        self.stats.clamp_events = self.counters.clamp_events
        self.stats.wall_time = time.monotonic() - self.start
        self.events.append({"event": "finish", "total_execs": self.stats.total_execs})
        with open(self.workdir / "events.log", "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        return self.stats

    def _work(self, widx: int):
        """One worker; its first exception stops every worker."""
        executor = Executor(self.graph, self.workdir / "exec", self.config.exec_timeout,
                            self.program_exec, tag=str(widx))
        try:
            self._fuzz(random.Random((self.config.rng_seed << 8) ^ widx), executor)
        except Exception as exc:  # noqa: BLE001 - re-raised by run()
            with self.lock:
                self.stop = True
                if self.error is None:
                    self.error = exc
        finally:
            executor.close()

    def _fuzz(self, rng: random.Random, executor: Executor):
        config = self.config
        while True:
            picked = self._pick(time.monotonic(), executor)
            if picked is None:
                return
            parent, active = picked
            use_program = active is not None and rng.random() < config.mix_ratio
            if use_program:
                data = mutator.apply(active, parent, rng, self.counters)
            else:
                data = random_mutate(parent, rng)
            if not data:
                continue  # degenerate mutation; next iteration re-seeds from the corpus
            result = executor.run(config.command, data)
            with self.lock:
                if self.stop:
                    return
                self._record(result, data, use_program, time.monotonic() - self.start)

    def _pick(self, now: float, executor: Executor):
        """The next parent input and the active program, after running the
        refreshes due at ``now``; None when the campaign is over."""
        while True:
            with self.lock:
                if self.stop or now >= self.deadline:
                    return None
                n = self._claim_refresh(now)
                if n is None:
                    parent = self.corpus[self.next_index % len(self.corpus)]
                    self.next_index += 1
                    return parent, self.program
            self._refresh(n, executor)

    def _claim_refresh(self, now: float) -> int | None:
        """Under the lock: the number of a due refresh this worker now owns."""
        if (self.program is None or self.refreshing
                or now - self.start < self.next_refresh):
            return None
        self.next_refresh += self.config.refresh_period
        self.stats.refresh_events += 1
        self.refreshing = True
        return self.stats.refresh_events

    def _refresh(self, n: int, executor: Executor):
        """Build refresh ``n`` outside the lock, then swap it in under it."""
        build = None
        if self.rebuild is not None:
            # only the refreshing worker writes the strategies
            build = self.rebuild(self.strategies,
                                 lambda data: executor.run(self.config.command, data))
        with self.lock:
            self.refreshing = False
            if build is not None and not build.accepted:
                self.events.append({"event": "refresh", "n": n, "swapped": False})
                return  # keep the previous accepted program
            if build is not None:
                self.program, self.strategies = build.program, build.strategies
            self._write_program(n)
            if build is not None and build.trial is not None:
                (self.workdir / "mutators" / f"active-{n}.trial.json").write_text(
                    json.dumps(asdict(build.trial), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
            self.events.append({"event": "refresh", "n": n, "swapped": True})

    def _write_program(self, n: int):
        (self.workdir / "mutators" / f"active-{n}.mut").write_text(
            self.program.render() + "\n", encoding="utf-8")

    def _record(self, result: ExecResult, data: bytes, used_program: bool, elapsed: float):
        stats = self.stats
        stats.total_execs += 1
        exec_index = stats.total_execs
        reached = result.trace.contains(self.config.target_function)
        if reached:
            stats.execs_reaching_target += 1
        new_functions = set(result.trace.reached) - self.covered
        if new_functions:
            self.covered |= new_functions
            self.corpus.append(data)
            corpus_id = len(self.corpus) - len(self.config.seeds)
            (self.workdir / "corpus" / f"id-{corpus_id}.bin").write_bytes(data)
            self.events.append({
                "event": "admit", "exec": exec_index,
                "new": sorted(new_functions), "sha": _sha(data),
            })
        if result.exit_kind == "crash":
            sha = _sha(data)
            record = self.crash_by_hash.get(sha)
            if record is not None:
                record.count += 1
            else:
                record = CrashRecord(sha, result.crash_class or "unknown", reached)
                self.crash_by_hash[sha] = record
                stats.crashes.append(record)
                (self.workdir / "crashes" / f"{sha}.bin").write_bytes(data)
                self.events.append({
                    "event": "crash", "exec": exec_index, "class": record.crash_class,
                    "reached_target": reached, "sha": sha,
                    "mutation": "program" if used_program else "random",
                })
            if reached and stats.time_to_first_target_crash is None:
                stats.time_to_first_target_crash = elapsed
                if self.config.stop_on_first:
                    self.stop = True


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
