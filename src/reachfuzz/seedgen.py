"""Reachable seed generation.

A preliminary seed plus its fixed command line come first; the seed is then
optimized step by step along the entry-to-target call chain, or via direct
callers of the target when no complete chain exists, until its execution
trace contains the target function or the time budget runs out.
"""

from __future__ import annotations

import base64
import binascii
import logging
import random
import resource
import shlex
import signal
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import callgraph, process
from .callgraph import CallChain, CallGraph
from .errors import AnswerParseError, MaterializeError, TaskError
from .llm_client import TEMPERATURE_GENERATION, child_environment
from .query_engine import Engine

log = logging.getLogger(__name__)

DEFAULT_OPT_BUDGET = 3600.0
MAX_CANDIDATES_PER_STEP = 4
MAX_KEPT_SEEDS = 8
SCRIPT_CPU_LIMIT = 10  # seconds
SCRIPT_WALL_LIMIT = 30.0
SCRIPT_FILE_LIMIT = 16 << 20  # bytes in any file a script writes, its stdout included
SCRIPT_LIMITS = ((resource.RLIMIT_CPU, SCRIPT_CPU_LIMIT),
                 (resource.RLIMIT_FSIZE, SCRIPT_FILE_LIMIT), (resource.RLIMIT_CORE, 0))
FILE_LIMIT_NOTE = (f"script files, stdout included, are capped at {SCRIPT_FILE_LIMIT} bytes: past "
                   "it a write fails with 'File too large', or SIGXFSZ kills the runtime")
SCRIPT_ERROR_LIMIT = 4096  # bytes of a script's stderr, its end, kept for the repair prompt
INPUT_DUMP_LIMIT = 4096


@dataclass(frozen=True)
class CommandLine:
    """Fixed program invocation with exactly one ``@@`` input placeholder.

    The command is chosen once per campaign; only the seed mutates afterward.
    """

    program: str
    args: tuple[str, ...]
    description: str = ""

    def __post_init__(self):
        if not self.program:
            raise ValueError("program must be non-empty")
        placeholders = sum(arg.count("@@") for arg in self.args)
        if placeholders != 1:
            raise ValueError("args must contain the @@ placeholder exactly once")

    def render(self) -> str:
        return " ".join((self.program,) + self.args)


@dataclass(frozen=True)
class Seed:
    data: bytes
    command: CommandLine
    provenance: tuple[dict, ...] = ()

    def derived(self, data: bytes, step: dict) -> "Seed":
        return replace(self, data=data, provenance=self.provenance + (step,))


@dataclass(frozen=True)
class GeneratorSpec:
    """Either literal input bytes or a script that writes them to stdout."""

    kind: str  # literal | script
    payload: str
    runtime_label: str = "python3"
    encoding: str = "utf-8"

    def __post_init__(self):
        if self.kind not in ("literal", "script"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == "script" and not self.payload.strip():
            raise ValueError("script payload must be non-empty")


@dataclass
class OptimizationOutcome:
    status: str  # reached | partial | isolated-target | timeout
    best_seed: Seed
    candidates: list[Seed] = field(default_factory=list)


def hexdump(data: bytes) -> str:
    """Hex plus printable dump of the input, truncated at INPUT_DUMP_LIMIT bytes."""
    rows = []
    shown = data[:INPUT_DUMP_LIMIT]
    for off in range(0, len(shown), 16):
        row = shown[off:off + 16]
        hexpart = " ".join(f"{b:02x}" for b in row)
        text = "".join(chr(b) if 32 <= b < 127 else "." for b in row)
        rows.append(f"{off:08x}  {hexpart:<47}  |{text}|")
    if len(data) > INPUT_DUMP_LIMIT:
        rows.append(f"... {len(data) - INPUT_DUMP_LIMIT} more bytes")
    if not rows:
        rows.append("(empty input)")
    return "\n".join(rows)


# --- command selection and preliminary generation ---------------------------

def _flag_base(token: str) -> str:
    return token.split("=", 1)[0]


def parse_command_line(text: str) -> CommandLine:
    tokens = shlex.split(text.strip())
    if len(tokens) < 2:
        raise ValueError(f"command line needs a program and arguments: {text!r}")
    return CommandLine(program=tokens[0], args=tuple(tokens[1:]))


def select_command(bug_info, usage, target_summary, engine: Engine) -> CommandLine:
    """Pick the command line most likely to activate the target function.

    An answer that is not a command line with one ``@@``, or that names
    option flags absent from the program usage, is asked for again with the
    reason, within the query engine's repair bound.
    """
    known_flags = {_flag_base(flag) for flag in usage.flags()}
    fillers = {
        "program_usage": usage.render(),
        "target_function_summary": target_summary.render(),
    }

    def usable(answer) -> CommandLine:
        try:
            command = parse_command_line(answer.text("command"))
        except ValueError as exc:
            raise AnswerParseError(f"{exc}. Give program, options, and one @@.") from None
        unknown = [t for t in command.args
                   if t.startswith("-") and _flag_base(t) not in known_flags]
        if unknown:
            raise AnswerParseError("these options are not in the program usage: "
                                   + " ".join(unknown) + ". Use only listed options.")
        return replace(command, description=answer.text("description"))

    return engine.run("command_selection", fillers, check=usable)


def _spec_from_answer(answer, payload_field: str) -> GeneratorSpec:
    kind = answer.text("kind").strip().lower()
    encoding = (answer.values.get("encoding", "") or "utf-8").strip().lower() or "utf-8"
    runtime = (answer.values.get("runtime", "") or "python3").strip() or "python3"
    try:
        return GeneratorSpec(kind=kind, payload=answer.text(payload_field),
                             runtime_label=runtime, encoding=encoding)
    except ValueError as exc:
        raise MaterializeError(str(exc)) from None


def generate_preliminary(command: CommandLine, bug_info, engine: Engine) -> GeneratorSpec:
    """Ask for the first input: literal bytes for simple formats, a generator
    script for complex ones."""
    answer = engine.run(
        "preliminary_seed",
        {"command": command.render(),
         "bug_summary": bug_info.query_text(),
         "input_expectations": command.description or "(none)"},
        temperature=TEMPERATURE_GENERATION,
    )
    return _spec_from_answer(answer, "payload")


# --- materialization ----------------------------------------------------------

def _decode_literal(spec: GeneratorSpec) -> bytes:
    payload = spec.payload
    try:
        if spec.encoding == "utf-8":
            return payload.encode("utf-8")
        if spec.encoding == "hex":
            return bytes.fromhex("".join(payload.split()))
        if spec.encoding == "base64":
            return base64.b64decode("".join(payload.split()), validate=True)
    except (ValueError, binascii.Error) as exc:
        raise MaterializeError(f"payload does not decode as {spec.encoding}: {exc}") from None
    raise MaterializeError(f"unknown literal encoding {spec.encoding!r}")


def _runtime_argv(runtime_label: str) -> list[str]:
    if runtime_label in ("python", "python3"):
        return [sys.executable]
    return [runtime_label]


def _run_script(payload: str, runtime_label: str, sandbox: Path) -> tuple[bytes, str]:
    """Run a generator script in the sandbox dir, with no ``RF_LLM_*`` name in
    its environment, under ``SCRIPT_LIMITS``; returns its stdout and the error
    that an empty stdout reports."""
    sandbox.mkdir(parents=True, exist_ok=True)
    script = sandbox / "generator.py"
    script.write_text(payload, encoding="utf-8")
    out_path, err_path = sandbox / "generator.out", sandbox / "generator.err"
    with open(out_path, "wb") as stdout, open(err_path, "wb") as stderr:
        try:
            proc = process.start(_runtime_argv(runtime_label) + [str(script)],
                                 child_environment(), stdout=stdout, stderr=stderr,
                                 cwd=sandbox, limits=SCRIPT_LIMITS)
        except OSError as exc:
            return b"", f"cannot launch runtime {runtime_label!r}: {exc}"
    returncode = process.wait(proc, SCRIPT_WALL_LIMIT)
    if returncode is None:
        return b"", "generator script exceeded its time limit"
    stderr = _tail(err_path)
    if returncode == -signal.SIGXFSZ or out_path.stat().st_size >= SCRIPT_FILE_LIMIT:
        return b"", f"{stderr}\n{FILE_LIMIT_NOTE}".lstrip()
    if returncode != 0:
        return b"", stderr or f"generator script exited {returncode}"
    return out_path.read_bytes(), stderr or "generator script produced no output"


_CUT_NOTE = "[first {} bytes cut]\n"


def _tail(path: Path) -> str:
    """The file's text, or past ``SCRIPT_ERROR_LIMIT`` bytes a note of how many
    bytes were cut and then its end, the two within the limit. A traceback is
    at the end."""
    size = path.stat().st_size
    with open(path, "rb") as fh:
        if size <= SCRIPT_ERROR_LIMIT:
            return fh.read().decode("utf-8", errors="replace")
        # the note with the cut count is no longer than this one, with the size
        keep = SCRIPT_ERROR_LIMIT - len(_CUT_NOTE.format(size))
        fh.seek(size - keep)
        return _CUT_NOTE.format(size - keep) + fh.read(keep).decode("utf-8", errors="replace")


def materialize(spec: GeneratorSpec, sandbox: str | Path, engine: Engine | None = None,
                input_expectations: str = "") -> bytes:
    """Turn a generator spec into input bytes.

    A failing script goes, with its error, to one ``generator_repair`` task
    whose check runs each revised script; without an engine the first failure
    is final.
    """
    if spec.kind == "literal":
        data = _decode_literal(spec)
        if not data:
            raise MaterializeError("literal payload decoded to zero bytes")
        return data
    sandbox = Path(sandbox)
    output, error = _run_script(spec.payload, spec.runtime_label, sandbox)
    if output:
        return output
    if engine is None:
        raise MaterializeError(f"generator script never produced output: {error}")

    def runs(answer) -> bytes:
        payload = answer.text("payload")
        data, failure = _run_script(payload, spec.runtime_label, sandbox)
        if not data:
            raise AnswerParseError(f"the revised script failed too:\n{failure}\n"
                                   f"The revised script:\n```\n{payload}\n```")
        return data

    fillers = {"script": spec.payload, "error_output": error, "runtime": spec.runtime_label,
               "input_expectations": input_expectations or "(none)"}
    try:
        return engine.run("generator_repair", fillers, temperature=TEMPERATURE_GENERATION,
                          check=runs)
    except TaskError as exc:
        raise MaterializeError(f"generator script never produced output: {exc}") from None


# --- optimization loops ---------------------------------------------------------

_EXPIRED = object()  # _Opt.first_reaching's result once the budget has run out


def _candidate_fields(answer) -> list[str]:
    """The answer's non-empty ``candidate_<i>`` fields, in order."""
    names = [f"candidate_{i}" for i in range(1, MAX_CANDIDATES_PER_STEP + 1)]
    return [name for name in names if str(answer.values.get(name) or "").strip()]


class _Opt:
    """One optimization run: its deadline, the target's distance map, and the
    executed candidates with their distance level, for subset selection."""

    def __init__(self, graph: CallGraph, target: int, runner, engine: Engine,
                 budget: float, definition_source, sandbox: str | Path):
        if budget <= 0:
            raise ValueError("budget must be positive")
        self.deadline = time.monotonic() + budget
        self.graph = graph
        self.dist = callgraph.distances_to(graph, target)
        self.runner = runner
        self.engine = engine
        self.definition_source = definition_source
        self.sandbox = sandbox
        self.attempts: list[tuple[int, Seed]] = []

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def run(self, seed: Seed):
        """Execute the seed, record its level if it has one, return its trace."""
        trace = self.runner(seed.data).trace
        levels = [self.dist[fn] for fn in trace.reached if fn in self.dist]
        if levels:
            self.attempts.append((min(levels), seed))
        return trace

    def first_reaching(self, answer, base: Seed, step: dict, goals: tuple[int, ...]):
        """Run the answer's candidates in order; the first whose trace contains
        a goal is returned with that trace, as the accepted seed derived from
        ``base``. None when no candidate does, ``_EXPIRED`` on the deadline."""
        for name in _candidate_fields(answer):
            if self.expired():
                return _EXPIRED
            try:
                data = materialize(_spec_from_answer(answer, name), self.sandbox,
                                   self.engine, base.command.description)
            except MaterializeError as exc:
                log.warning("candidate failed to materialize: %s", exc)
                continue
            trace = self.run(base.derived(data, step | {"accepted": False}))
            if any(trace.contains(goal) for goal in goals):
                return base.derived(data, step | {"accepted": True}), trace
        return None

    def outcome(self, status: str, seed: Seed) -> OptimizationOutcome:
        """The smallest executed seed per distance level, closest levels first."""
        best: dict[int, Seed] = {}
        for level, attempt in self.attempts:
            if level not in best or len(attempt.data) < len(best[level].data):
                best[level] = attempt
        kept = [best[level].derived(best[level].data,
                                    {"task": "keep", "level": level, "accepted": True})
                for level in sorted(best)[:MAX_KEPT_SEEDS]]
        return OptimizationOutcome(status, seed, kept)

    def along_chain(self, seed: Seed, trace, chain: CallChain) -> OptimizationOutcome:
        """Adjust ``seed``, whose execution gave ``trace``, until its trace
        contains the chain target."""
        graph = self.graph
        target = chain.target
        while True:
            if trace.contains(target):
                return OptimizationOutcome("reached", seed, [seed])
            if self.expired():
                return self.outcome("timeout", seed)
            dev, goal = callgraph.deviation(self.dist, chain, trace)
            goal_name = graph.name_of(goal)
            answer = self.engine.run(
                "chain_step",
                {
                    "deviation_function": self.definition_source(graph.name_of(dev)),
                    "next_goal": goal_name,
                    "executed_path": " -> ".join(graph.name_of(f) for f in trace.reached),
                    "current_input": hexdump(seed.data),
                },
                temperature=TEMPERATURE_GENERATION,
            )
            found = self.first_reaching(answer, seed, {"task": "chain_step", "goal": goal_name},
                                        (goal, target))
            if found is _EXPIRED:
                return self.outcome("timeout", seed)
            if found is not None:
                seed, trace = found
            # else re-query next round; useless answers burn budget, not progress.


def optimize_along_chain(seed: Seed, chain: CallChain, graph: CallGraph, runner,
                         engine: Engine, budget: float,
                         definition_source, sandbox: str | Path) -> OptimizationOutcome:
    """Iteratively adjust the seed until its trace reaches the chain target.

    Each round executes the current seed, finds the deviation function and
    the next goal on the chain, asks for candidate modifications (several
    when branch constraints are ambiguous), and adopts the first candidate
    whose trace reaches the goal. Stops at the target or the budget.
    """
    opt = _Opt(graph, chain.target, runner, engine, budget, definition_source, sandbox)
    return opt.along_chain(seed, opt.run(seed), chain)


def optimize_by_functionality(seed: Seed, graph: CallGraph, target: int, runner,
                              engine: Engine, budget: float, rng: random.Random,
                              usage, summary_source, definition_source,
                              sandbox: str | Path) -> OptimizationOutcome:
    """Reach the target through one of its direct callers when no complete
    chain exists.

    Callers are probed in seeded-random order; once an input reaches one, the
    chain suffix from that caller to the target is optimized within the same
    budget, from that input and its trace. With no callers at all the target
    is isolated and reported as such.
    """
    opt = _Opt(graph, target, runner, engine, budget, definition_source, sandbox)
    order = list(graph.predecessors(target))
    if not order:
        return OptimizationOutcome("isolated-target", seed, [])
    rng.shuffle(order)
    for neighbor in order:
        if opt.expired():
            return opt.outcome("timeout", seed)
        neighbor_name = graph.name_of(neighbor)
        answer = engine.run(
            "neighbor_probe",
            {
                "neighbor_name": neighbor_name,
                "neighbor_summary": summary_source(neighbor_name).render(),
                "program_usage": usage.render(),
                "command": seed.command.render(),
            },
            temperature=TEMPERATURE_GENERATION,
        )
        found = opt.first_reaching(answer, seed,
                                   {"task": "neighbor_probe", "goal": neighbor_name},
                                   (neighbor,))
        if found is _EXPIRED:
            return opt.outcome("timeout", seed)
        if found is not None:
            suffix = (target,) if neighbor == target else (neighbor, target)
            return opt.along_chain(*found, CallChain(suffix))
    return opt.outcome("partial", seed)


def write_outcome(outcome: OptimizationOutcome, directory: str | Path) -> list[Path]:
    """Persist kept seeds as ``seed-<level>-<n>.bin`` plus a provenance log."""
    import json

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    seeds = outcome.candidates or [outcome.best_seed]
    with open(directory / "provenance.jsonl", "w", encoding="utf-8") as fh:
        for n, seed in enumerate(seeds):
            level = 0
            for entry in reversed(seed.provenance):
                if "level" in entry:
                    level = entry["level"]
                    break
            path = directory / f"seed-{level}-{n}.bin"
            path.write_bytes(seed.data)
            paths.append(path)
            fh.write(json.dumps({
                "file": path.name,
                "status": outcome.status,
                "command": seed.command.render(),
                "provenance": list(seed.provenance),
            }, sort_keys=True) + "\n")
    return paths
