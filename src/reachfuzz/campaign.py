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
import threading
import time
import weakref
from dataclasses import dataclass, field, asdict
from pathlib import Path

from . import callgraph, mutator, process
from .callgraph import TraceObservation
from .errors import ReachFuzzError
from .llm_client import child_environment
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
    stderr_excerpt: str = ""
    crash_class: str | None = None

    def __post_init__(self):
        if self.exit_kind == "crash" and not self.crash_class:
            raise ValueError("a crash result must carry its crash class")


class Executor:
    """Runs one command with trace capture; one executor per worker context.

    ``ids`` maps traced function names to call-graph ids (``CallGraph.ids``);
    a traced name it lacks is dropped, with one warning per executor for each
    such name. The argv, with ``@@`` naming the executor's input file, and the
    child environment are fixed at construction. ``program_exec``, when not
    empty, is the argv head that replaces the command's program, whatever
    name the command gives it. Children see this process's environment
    without the ``RF_LLM_*`` backend settings, plus ``RF_TRACE_FILE``.

    An argv of the form ``<python interpreter> <script>.py`` runs through a
    fork server (``forkserver.py``) that the executor starts on first use
    and restarts on the next input after it dies: the script is loaded once
    and each input runs in a forked child, which serves many inputs for a
    script that declares ``REACHFUZZ_PERSISTENT = True``. Every other argv,
    a script the server cannot preload, and every argv when ``fork_server``
    is false (the reference the tests compare the server against) spawn one
    process per input. ``close()`` stops the server.
    """

    def __init__(self, ids: dict[str, int], workdir: str | Path, command: CommandLine,
                 exec_timeout: float = DEFAULT_EXEC_TIMEOUT,
                 program_exec: list[str] | None = None,
                 tag: str = "0", *, fork_server: bool = True):
        self.ids = ids
        self._unknown_names: set[str] = set()  # warned about once each
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.exec_timeout = exec_timeout
        self.missing_traces = 0
        self._input_path = workdir / f"input-{tag}.bin"
        self._trace_path = workdir / f"trace-{tag}.log"
        self._stderr_path = workdir / f"stderr-{tag}.log"
        # Held open: closing a truncated, rewritten file makes ext4 flush it (~60 us).
        self._stderr_fd = os.open(self._stderr_path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        self._input_fd = os.open(self._input_path, os.O_WRONLY | os.O_CREAT, 0o644)
        weakref.finalize(self, os.close, self._stderr_fd)
        weakref.finalize(self, os.close, self._input_fd)
        head = program_exec or [command.program]
        self.argv = tuple(head + [arg.replace("@@", str(self._input_path))
                                  for arg in command.args])
        self.env = child_environment() | {TRACE_ENV_VAR: str(self._trace_path)}
        self.fork_server = fork_server and _preloadable(self.argv)
        self.server: ForkServer | None = None

    def run(self, data: bytes) -> ExecResult:
        if self.fork_server and self.server is None:
            # Started before the input is written: a script's top level, run
            # once while the server loads it, may append to the trace file.
            self.server = ForkServer.start(self.argv, self.env, self._stderr_path)
            self.fork_server = self.server is not None
        self._write_input(data)
        self._trace_path.unlink(missing_ok=True)
        if self.server is not None:
            try:
                returncode = self.server.run(self.exec_timeout)
            except EOFError:  # the server died; spawn this input, restart next time
                self.close()
        if self.server is None:
            returncode = self._spawn()
        trace = self._read_trace()
        excerpt = os.pread(self._stderr_fd, STDERR_EXCERPT_LIMIT, 0).decode("utf-8", "replace")
        if returncode is None:
            return ExecResult("timeout", trace, excerpt)
        if returncode < 0:
            try:
                crash_class = signal.Signals(-returncode).name
            except ValueError:
                crash_class = f"signal-{-returncode}"
            return ExecResult("crash", trace, excerpt, crash_class=crash_class)
        return ExecResult("clean", trace, excerpt)

    def close(self):
        """Stop the fork server, if one runs."""
        if self.server is not None:
            self.server.close()
            self.server = None

    def _write_input(self, data: bytes):
        """Rewrite the input file in place, through the descriptor held open."""
        if os.fstat(self._input_fd).st_nlink == 0:  # the target removed it
            fd = os.open(self._input_path, os.O_WRONLY | os.O_CREAT, 0o644)
            os.dup2(fd, self._input_fd, inheritable=False)  # the number the finalizer closes
            os.close(fd)
        os.pwrite(self._input_fd, data, 0)
        os.ftruncate(self._input_fd, len(data))

    def _spawn(self) -> int | None:
        """One process for one input: its returncode, or None on timeout."""
        os.ftruncate(self._stderr_fd, 0)
        try:
            proc = process.start(self.argv, self.env, stderr=self._stderr_fd)
        except FileNotFoundError as exc:
            raise ReachFuzzError(f"cannot spawn target: {exc}") from None
        return process.wait(proc, self.exec_timeout)

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
        trace = callgraph.observe(self.ids, names)
        if len(trace.reached) < len(names):
            self._warn_unknown(names)
        return trace

    def _warn_unknown(self, names: list[str]):
        new = {name for name in names if name not in self.ids} - self._unknown_names
        if new:
            self._unknown_names |= new
            log.warning("trace names not in the call graph, dropped (warned once each): %s",
                        sorted(new))


# --- fork server -------------------------------------------------------------------

FORKSERVER_SCRIPT = Path(__file__).with_name("forkserver.py")
FORKSERVER_START_TIMEOUT = 10.0  # seconds for the helper to load the script
_PYTHON = re.compile(r"python[0-9.]*")
DIED = b"died "  # starts the helper's reply for a child that has ended


def _preloadable(argv: tuple[str, ...]) -> bool:
    """True when argv is ``<python interpreter> <script>.py [args...]``."""
    return (len(argv) >= 2 and _PYTHON.fullmatch(os.path.basename(argv[0])) is not None
            and argv[1].endswith(".py"))


class ForkServer:
    """Orchestrator side of one ``forkserver.py`` helper process.

    The helper serves one fixed argv. It forks a child, which leads its own
    process group from its first input on and serves one input, or up to
    ``PERSISTENT_INPUTS`` of a script that opts in. It keeps one spare child
    forked ahead, in the helper's process group until it takes an input; the
    reply protocol is in ``forkserver.py``. The helper is single-threaded and
    owned by one executor, so no orchestrator thread ever forks. ``close()``
    kills a child waiting for its next input, then stops the helper with its
    group, spare included; collecting the server and interpreter exit stop the
    helper too, all through one finalizer.
    """

    def __init__(self, proc):
        self.proc = proc
        self.child: int | None = None  # the pid of a child that waits for the next input
        self._finalizer = weakref.finalize(self, _stop_helper, proc)

    @classmethod
    def start(cls, argv: tuple[str, ...], env: dict[str, str],
              stderr_path: Path) -> ForkServer | None:
        """Start the helper and wait for it to load the script; None (with
        one warning) when it cannot, so that the caller spawns instead."""
        python, script, *args = argv
        try:
            proc = process.start(
                [python, str(FORKSERVER_SCRIPT), str(stderr_path), script, *args], env,
                stdin=process.PIPE, stdout=process.PIPE)
        except OSError as exc:
            log.warning("cannot start a fork server for %s: %s", script, exc)
            return None
        server = cls(proc)
        reply = server._reply(FORKSERVER_START_TIMEOUT)
        if reply == b"ready\n":
            return server
        server.close()
        reason = (reply.decode("utf-8", "replace").strip() if reply
                  else "not ready in time")
        log.warning("cannot preload %s (%s); spawning one interpreter per input",
                    script, reason)
        return None

    def run(self, timeout: float) -> int | None:
        """Run one input: its returncode, or None when its group was killed past
        the timeout. Raises ``EOFError`` when the helper is gone, or sends no
        pid within the timeout."""
        try:
            self.proc.stdin.write(b"\n")
            self.child = None
            reply = self._reply(timeout)
            while reply and reply.startswith(DIED):  # a child that ended between inputs
                reply = self._reply(timeout)
            pid = int(reply)  # TypeError past the timeout, ValueError once the helper is gone
            reply = None
            try:
                reply = self._reply(timeout)
            finally:
                if not reply:  # past the timeout, helper gone, or interrupted
                    process.kill_group(pid)
            if reply is None:  # killed past the timeout: wait until the helper reaps it
                for _ in range(2):  # the child may have replied as it was killed
                    if self._reply(None).startswith(DIED):
                        return None
                raise EOFError("the fork server is gone")
            if reply.startswith(DIED):
                status = int(reply[len(DIED):])
            else:
                status = int(reply)
                self.child = pid  # idle until the next request
        except (OSError, TypeError, ValueError):
            raise EOFError("the fork server is gone") from None
        return os.waitstatus_to_exitcode(status)

    def close(self):
        if self.child is not None:  # alive and unreaped, so its pid is still its group's id
            process.kill_group(self.child)
            self.child = None
        self._finalizer()

    def _reply(self, timeout: float | None) -> bytes | None:
        """One reply line; b"" when the helper is gone, None on timeout."""
        if timeout is not None and not select.select([self.proc.stdout], [], [], timeout)[0]:
            return None
        return self.proc.stdout.readline()


def _stop_helper(proc):
    process.wait(proc, 0)  # no wait: kill its group, then reap it
    proc.stdin.close()
    proc.stdout.close()


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
    program_exec: list[str]  # replaces the command's program when not empty
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


def run(config: CampaignConfig, program: mutator.MutationProgram | None, ids: dict[str, int],
        workdir: str | Path, strategies: list[mutator.MutationStrategy] | None = None,
        rebuild=None) -> CampaignStats:
    """Run the directed campaign until the duration limit or the first
    target-attributed crash (when stop_on_first is set).

    ``program`` is the starting mutation program, or None for random-only;
    ``ids`` maps traced function names to call-graph ids (``CallGraph.ids``).
    ``rebuild(prior_strategies, runner)`` returns a ``mutator.MutatorBuild``
    for each periodic refresh; without it a refresh re-issues the current
    program. ``events.log`` and ``stats.json`` are written on every exit.
    The first exception raised in any worker, or a ``KeyboardInterrupt``
    in the calling thread, which also runs worker 0, stops every worker and
    is re-raised here after both files are written, ``events.log`` without
    its ``finish`` event.
    """
    return Campaign(config, program, ids, workdir, strategies or [], rebuild).run()


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
                 ids: dict[str, int], workdir: str | Path,
                 strategies: list[mutator.MutationStrategy], rebuild):
        self.config = config
        self.ids = ids
        self.workdir = Path(workdir)
        self.rebuild = rebuild
        self.program = program
        self.strategies = strategies
        self.corpus = [bytes(s.data) for s in config.seeds]
        self.covered: set[int] = set()
        self.stats = CampaignStats(random_only=program is None)
        self.events: list[dict] = []
        self.crash_by_hash: dict[str, CrashRecord] = {}
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
        # Worker 0 runs on the calling thread. That saves a thread start and
        # its lock hand-offs per campaign: 0.4-0.7 ms on a 2-core VM, about a
        # tenth of a native campaign that stops at its first crash.
        threads = [threading.Thread(target=self._work, args=(i,))
                   for i in range(1, self.config.workers)]
        for t in threads:
            t.start()
        try:
            self._work(0)
            for t in threads:
                t.join()
        except KeyboardInterrupt as exc:
            with self.lock:
                self.stop = True
                self.error = self.error or exc
            for t in threads:
                t.join()
        self.stats.wall_time = time.monotonic() - self.start
        if self.error is None:
            self.events.append({"event": "finish", "total_execs": self.stats.total_execs})
        with open(self.workdir / "events.log", "w", encoding="utf-8") as fh:
            for event in self.events:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        save_stats(self.stats, self.workdir / "stats.json")
        if self.error is not None:
            raise self.error
        return self.stats

    def _work(self, widx: int):
        """One worker; its first exception stops every worker."""
        config = self.config
        executor = Executor(self.ids, self.workdir / "exec", config.command,
                            config.exec_timeout, config.program_exec, tag=str(widx))
        try:
            self._fuzz(random.Random((config.rng_seed << 8) ^ widx), executor)
        except Exception as exc:  # noqa: BLE001 - re-raised by run()
            with self.lock:
                self.stop = True
                if self.error is None:
                    self.error = exc
        finally:
            executor.close()

    def _fuzz(self, rng: random.Random, executor: Executor):
        config = self.config
        clamps = 0
        try:
            while True:
                picked = self._pick(time.monotonic(), executor)
                if picked is None:
                    return
                parent, active = picked
                use_program = active is not None and rng.random() < config.mix_ratio
                if use_program:
                    data, clamped = mutator.apply(active, parent, rng)
                    clamps += clamped
                else:
                    data = random_mutate(parent, rng)
                if not data:
                    continue  # degenerate mutation; next iteration re-seeds from the corpus
                result = executor.run(data)
                with self.lock:
                    if self.stop:
                        return
                    self._record(result, data, use_program, time.monotonic() - self.start)
        finally:  # every applied program's clamps count, on every exit
            with self.lock:
                self.stats.clamp_events += clamps

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
            build = self.rebuild(self.strategies, executor.run)
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
    total = 0.0
    any_timeout = False
    for name in STAGE_ORDER:
        timing = by_name.get(name)
        if timing is None:
            continue
        if timing.timed_out:
            cell = TIMEOUT_MARK
            any_timeout = True
        else:
            cell = _seconds(timing.seconds)
            total += round(timing.seconds, 3)  # the Total is the sum of the printed cells
        lines.append(f"{name + ':':<9}{cell}")
    lines.append(f"{'Total:':<9}{TIMEOUT_MARK if any_timeout else _seconds(total)}")
    if stats is not None:
        lines.append("")
        lines.append("== Campaign ==")
        ttb = stats.time_to_first_target_crash
        lines.append(f"time to bug:            {TIMEOUT_MARK if ttb is None else _seconds(ttb)}")
        lines.append(f"total execs:            {stats.total_execs}")
        lines.append(f"execs reaching target:  {stats.execs_reaching_target}")
        lines.append(f"crashes:                {len(stats.crashes)}")
        lines.append(f"refresh events:         {stats.refresh_events}")
        lines.append(f"clamp events:           {stats.clamp_events}")
        lines.append(f"mode:                   {'random-only' if stats.random_only else 'bug-specific mix'}")
    return "\n".join(lines) + "\n"


def _seconds(seconds: float) -> str:
    return f"{seconds:.3f}s"  # a demo stage takes milliseconds


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
