"""Bug-specific mutation programs.

The synthesized mutators are expressed in a small sandboxed mutation
language interpreted here, one operation per line. Programs are pure:
applying one to an input depends only on the input bytes and the supplied
random stream, so every mutation is replayable byte for byte.
"""

from __future__ import annotations

import logging
import random
import re
import time
from dataclasses import dataclass, field

from .errors import DslError, TaskError
from .query_engine import Engine
from .llm_client import TEMPERATURE_GENERATION

log = logging.getLogger(__name__)

DEFAULT_REFRESH_PERIOD = 3600.0
DEFAULT_TRIAL_DURATION = 5.0
DEFAULT_MIN_EXECS_PER_SEC = 10.0
DEFAULT_MAX_REGENERATIONS = 3

LE_WIDTHS = (1, 2, 4, 8)


@dataclass
class BugAnalysis:
    cause: str
    trigger_conditions: list[str]
    relevant_fields: list[tuple[str, str]]

    def __post_init__(self):
        if not self.cause.strip():
            raise ValueError("analysis cause must be non-empty")

    def render(self) -> str:
        lines = ["Cause: " + self.cause, "Trigger conditions:"]
        lines += [f"- {c}" for c in self.trigger_conditions]
        if self.relevant_fields:
            lines.append("Relevant input regions:")
            lines += [f"- {region} : {role}" for region, role in self.relevant_fields]
        return "\n".join(lines)


@dataclass(frozen=True)
class MutationStrategy:
    description: str
    rationale: str = ""

    def __post_init__(self):
        if not self.description.strip():
            raise ValueError("strategy description must be non-empty")

    def render(self) -> str:
        if self.rationale:
            return f"{self.description} :: {self.rationale}"
        return self.description


# --- offset / length expressions ------------------------------------------

@dataclass(frozen=True)
class Expr:
    """Absolute, end-relative, or uniform-random integer expression."""

    kind: str  # "abs" | "end" | "rand"
    a: int = 0
    b: int = 0
    label: str = ""

    def resolve(self, buf_len: int, rng: random.Random) -> int:
        # rand always consumes the stream, even if the result is clamped
        # later, so replaying the stream reproduces the mutation exactly.
        if self.kind == "abs":
            return self.a
        if self.kind == "end":
            return buf_len - self.a
        return rng.randint(self.a, self.b)

    def render(self) -> str:
        prefix = f"@{self.label}=" if self.label else ""
        if self.kind == "abs":
            return prefix + str(self.a)
        if self.kind == "end":
            return prefix + (f"end-{self.a}" if self.a else "end")
        return prefix + f"rand({self.a},{self.b})"


# --- operations -------------------------------------------------------------

@dataclass(frozen=True)
class FlipBit:
    offset: Expr
    bit: int


@dataclass(frozen=True)
class SetByte:
    offset: Expr
    value: int


@dataclass(frozen=True)
class InsertBytes:
    offset: Expr
    data: bytes


@dataclass(frozen=True)
class DeleteRange:
    offset: Expr
    length: Expr


@dataclass(frozen=True)
class Overwrite:
    offset: Expr
    data: bytes


@dataclass(frozen=True)
class AddToLE:
    offset: Expr
    width: int
    delta: int


@dataclass(frozen=True)
class ResizeTo:
    length: Expr
    fill: int


@dataclass(frozen=True)
class CopyRegion:
    src: Expr
    dst: Expr
    length: Expr


Op = FlipBit | SetByte | InsertBytes | DeleteRange | Overwrite | AddToLE | ResizeTo | CopyRegion


@dataclass
class MutationProgram:
    ops: list[Op]
    strategy_refs: list[int] = field(default_factory=list)

    def __post_init__(self):
        if not self.ops:
            raise DslError("a mutation program needs at least one operation")

    def render(self) -> str:
        return "\n".join(_render_op(op) for op in self.ops)


def _render_op(op: Op) -> str:
    if isinstance(op, FlipBit):
        return f"FlipBit({op.offset.render()}, {op.bit})"
    if isinstance(op, SetByte):
        return f"SetByte({op.offset.render()}, {op.value:#04x})"
    if isinstance(op, InsertBytes):
        return f"InsertBytes({op.offset.render()}, {op.data.hex().upper()})"
    if isinstance(op, DeleteRange):
        return f"DeleteRange({op.offset.render()}, {op.length.render()})"
    if isinstance(op, Overwrite):
        return f"Overwrite({op.offset.render()}, {op.data.hex().upper()})"
    if isinstance(op, AddToLE):
        return f"AddToLE({op.offset.render()}, {op.width}, {op.delta:+d})"
    if isinstance(op, ResizeTo):
        return f"ResizeTo({op.length.render()}, {op.fill:#04x})"
    return f"CopyRegion({op.src.render()}, {op.dst.render()}, {op.length.render()})"


# --- concrete syntax ---------------------------------------------------------

_RAND = re.compile(r"^rand\(\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*\)$")
_END = re.compile(r"^end(?:-(\d+))?$")
_INT = re.compile(r"^[+-]?(?:0x[0-9a-fA-F]+|\d+)$")
_HEXBYTES = re.compile(r"^(?:[0-9a-fA-F]{2})+$")
_OP_LINE = re.compile(r"^([A-Za-z]+)\s*\((.*)\)$")


def _parse_int(token: str, where: str) -> int:
    if not _INT.match(token):
        raise DslError(f"{where}: expected an integer, got {token!r}")
    return int(token, 0)


def _parse_expr(token: str, where: str) -> Expr:
    label = ""
    if token.startswith("@"):
        name, sep, rest = token[1:].partition("=")
        if not sep or not name:
            raise DslError(f"{where}: malformed annotation {token!r}")
        label, token = name, rest.strip()
    m = _RAND.match(token)
    if m:
        a, b = int(m.group(1)), int(m.group(2))
        if a > b or a < 0:
            raise DslError(f"{where}: rand bounds must satisfy 0 <= a <= b")
        return Expr("rand", a, b, label=label)
    m = _END.match(token)
    if m:
        return Expr("end", int(m.group(1) or 0), label=label)
    if _INT.match(token):
        return Expr("abs", int(token, 0), label=label)
    raise DslError(f"{where}: bad offset/length expression {token!r}")


def _parse_hex(token: str, where: str) -> bytes:
    cleaned = token.replace(" ", "")
    if not _HEXBYTES.match(cleaned):
        raise DslError(f"{where}: expected a hex byte string, got {token!r}")
    return bytes.fromhex(cleaned)


def _split_args(body: str) -> list[str]:
    # no nesting beyond rand(...) parens, so a depth counter suffices
    args, depth, current = [], 0, []
    for ch in body:
        if ch == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        current.append(ch)
    tail = "".join(current).strip()
    if tail or args:
        args.append(tail)
    return args


def parse_program(text: str, strategy_refs: list[int] | None = None) -> MutationProgram:
    """Parse mutation-language text: one op per line, ``;`` also separates ops."""
    ops: list[Op] = []
    for lineno, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        for stmt in filter(None, (s.strip() for s in line.split(";"))):
            where = f"line {lineno}"
            m = _OP_LINE.match(stmt)
            if not m:
                raise DslError(f"{where}: expected OpName(args), got {stmt!r}")
            name, body = m.group(1), m.group(2)
            args = _split_args(body)
            ops.append(_build_op(name, args, where))
    if not ops:
        raise DslError("program contains no operations")
    return MutationProgram(ops=ops, strategy_refs=strategy_refs or [])


def _build_op(name: str, args: list[str], where: str) -> Op:
    def arity(n: int):
        if len(args) != n:
            raise DslError(f"{where}: {name} takes {n} arguments, got {len(args)}")

    if name == "FlipBit":
        arity(2)
        bit = _parse_int(args[1], where)
        if not 0 <= bit <= 7:
            raise DslError(f"{where}: bit index must be 0..7")
        return FlipBit(_parse_expr(args[0], where), bit)
    if name == "SetByte":
        arity(2)
        value = _parse_int(args[1], where)
        if not 0 <= value <= 255:
            raise DslError(f"{where}: byte value must be 0..255")
        return SetByte(_parse_expr(args[0], where), value)
    if name == "InsertBytes":
        arity(2)
        return InsertBytes(_parse_expr(args[0], where), _parse_hex(args[1], where))
    if name == "DeleteRange":
        arity(2)
        return DeleteRange(_parse_expr(args[0], where), _parse_expr(args[1], where))
    if name == "Overwrite":
        arity(2)
        return Overwrite(_parse_expr(args[0], where), _parse_hex(args[1], where))
    if name == "AddToLE":
        arity(3)
        width = _parse_int(args[1], where)
        if width not in LE_WIDTHS:
            raise DslError(f"{where}: width must be one of {LE_WIDTHS}")
        return AddToLE(_parse_expr(args[0], where), width, _parse_int(args[2], where))
    if name == "ResizeTo":
        arity(2)
        fill = _parse_int(args[1], where)
        if not 0 <= fill <= 255:
            raise DslError(f"{where}: fill byte must be 0..255")
        return ResizeTo(_parse_expr(args[0], where), fill)
    if name == "CopyRegion":
        arity(3)
        return CopyRegion(_parse_expr(args[0], where), _parse_expr(args[1], where),
                          _parse_expr(args[2], where))
    raise DslError(f"{where}: unknown operation {name!r}")


# --- interpreter -------------------------------------------------------------

@dataclass
class MutationCounters:
    clamp_events: int = 0


def _clamp(value: int, lo: int, hi: int, counters: MutationCounters | None) -> int:
    if value < lo or value > hi:
        if counters is not None:
            counters.clamp_events += 1
        return min(max(value, lo), hi)
    return value


def apply(program: MutationProgram, data: bytes, rng: random.Random,
          counters: MutationCounters | None = None) -> bytes:
    """Run every op in order on a working copy of the input.

    Out-of-range offsets clamp to the valid range (counted, never an error)
    so programs written against one input shape stay usable on another.
    """
    buf = bytearray(data)
    for op in program.ops:
        if isinstance(op, FlipBit):
            off = op.offset.resolve(len(buf), rng)
            if buf:
                buf[_clamp(off, 0, len(buf) - 1, counters)] ^= 1 << op.bit
            elif counters is not None:
                counters.clamp_events += 1
        elif isinstance(op, SetByte):
            off = op.offset.resolve(len(buf), rng)
            if buf:
                buf[_clamp(off, 0, len(buf) - 1, counters)] = op.value
            elif counters is not None:
                counters.clamp_events += 1
        elif isinstance(op, InsertBytes):
            off = _clamp(op.offset.resolve(len(buf), rng), 0, len(buf), counters)
            buf[off:off] = op.data
        elif isinstance(op, DeleteRange):
            off = op.offset.resolve(len(buf), rng)
            n = op.length.resolve(len(buf), rng)
            off = _clamp(off, 0, len(buf), counters)
            n = _clamp(n, 0, len(buf) - off, counters)
            del buf[off:off + n]
        elif isinstance(op, Overwrite):
            off = _clamp(op.offset.resolve(len(buf), rng), 0, len(buf), counters)
            writable = min(len(op.data), len(buf) - off)
            if writable < len(op.data) and counters is not None:
                counters.clamp_events += 1
            buf[off:off + writable] = op.data[:writable]
        elif isinstance(op, AddToLE):
            off = op.offset.resolve(len(buf), rng)
            if len(buf) >= op.width:
                off = _clamp(off, 0, len(buf) - op.width, counters)
                value = int.from_bytes(buf[off:off + op.width], "little")
                value = (value + op.delta) % (1 << (8 * op.width))
                buf[off:off + op.width] = value.to_bytes(op.width, "little")
            elif counters is not None:
                counters.clamp_events += 1
        elif isinstance(op, ResizeTo):
            n = op.length.resolve(len(buf), rng)
            if n < 0:
                if counters is not None:
                    counters.clamp_events += 1
                n = 0
            if n <= len(buf):
                del buf[n:]
            else:
                buf.extend(bytes([op.fill]) * (n - len(buf)))
        elif isinstance(op, CopyRegion):
            src = _clamp(op.src.resolve(len(buf), rng), 0, len(buf), counters)
            dst = _clamp(op.dst.resolve(len(buf), rng), 0, len(buf), counters)
            n = op.length.resolve(len(buf), rng)
            n = _clamp(n, 0, min(len(buf) - src, len(buf) - dst), counters)
            chunk = bytes(buf[src:src + n])
            buf[dst:dst + n] = chunk
    return bytes(buf)


# --- trial run ---------------------------------------------------------------

@dataclass
class TrialThresholds:
    min_execs_per_sec: float = DEFAULT_MIN_EXECS_PER_SEC


@dataclass
class TrialReport:
    execs_per_sec: float
    harness_crashes: int
    verdict: str  # accepted | rejected-crash | rejected-slow | rejected-invalid
    execs: int = 0
    target_crashes: int = 0

    @property
    def accepted(self) -> bool:
        return self.verdict == "accepted"


def trial_run(program: MutationProgram, seed_bytes: bytes, runner,
              duration: float = DEFAULT_TRIAL_DURATION,
              thresholds: TrialThresholds | None = None,
              rng: random.Random | None = None,
              fault_injector=None) -> TrialReport:
    """Short mutate-and-execute run validating stability and throughput.

    Harness crashes are faults in the mutation machinery itself (interpreter
    errors, injected faults, spawn failures); the target crashing is a
    finding, not a defect. A program whose outputs never differ from the
    seed, or are always empty, is rejected as invalid.
    """
    thresholds = thresholds or TrialThresholds()
    rng = rng or random.Random(0)
    start = time.monotonic()
    execs = 0
    harness_crashes = 0
    target_crashes = 0
    produced_change = False
    while time.monotonic() - start < duration:
        try:
            if fault_injector is not None:
                fault_injector(execs)
            data = apply(program, seed_bytes, rng)
        except Exception as exc:  # noqa: BLE001 - harness instability is the point
            log.warning("harness fault during trial: %s", exc)
            harness_crashes += 1
            execs += 1
            break
        if data and data != seed_bytes:
            produced_change = True
        try:
            result = runner(data)
        except OSError as exc:
            log.warning("runner failed during trial: %s", exc)
            harness_crashes += 1
            execs += 1
            break
        if getattr(result, "exit_kind", "clean") == "crash":
            target_crashes += 1
        execs += 1
    elapsed = max(time.monotonic() - start, 1e-9)
    eps = execs / elapsed
    if harness_crashes > 0:
        verdict = "rejected-crash"
    elif not produced_change:
        verdict = "rejected-invalid"
    elif eps < thresholds.min_execs_per_sec:
        verdict = "rejected-slow"
    else:
        verdict = "accepted"
    return TrialReport(execs_per_sec=eps, harness_crashes=harness_crashes,
                       verdict=verdict, execs=execs, target_crashes=target_crashes)


# --- synthesis pipeline -------------------------------------------------------

GRAMMAR_HELP = """\
One operation per line (# starts a comment, ; also separates operations):
  FlipBit(offset, bit)          flip one bit (bit 0..7) of the byte at offset
  SetByte(offset, value)        set the byte at offset to value (0..255)
  InsertBytes(offset, HEX)      insert the hex byte string at offset
  DeleteRange(offset, len)      delete len bytes starting at offset
  Overwrite(offset, HEX)        overwrite bytes at offset with the hex string
  AddToLE(offset, width, delta) add delta to the little-endian integer of
                                width 1, 2, 4 or 8 bytes at offset
  ResizeTo(len, fill)           truncate or extend the input to len bytes,
                                padding with the fill byte (0..255)
  CopyRegion(src, dst, len)     copy len bytes from src to dst
Offsets and lengths are decimal or 0x-hex integers, end-relative positions
written end-k, or rand(a,b) for a uniform random value in [a, b]. An offset
may carry a doc annotation: @name=expr.
"""

WORKED_EXAMPLES = """\
Example 1 - grow a declared length field past the data that follows it:
  AddToLE(@len_field=10, 4, +65536)
  Overwrite(end-4, FFFFFFFF)
Example 2 - corrupt a random spot in the header region:
  SetByte(rand(0,15), 0xFF)
  FlipBit(rand(0,15), 7)
"""

EXAMPLE_STRATEGIES = """\
- Inflate a declared length or dimension field beyond the data actually present :: parsers that trust the field read past the buffer
- Truncate the payload while keeping the header intact :: size checks derived from the header no longer match the data
- Saturate numeric fields at type boundaries :: arithmetic on extreme values wraps or overflows
"""


def analyze_bug(bug_info, target_summary, engine: Engine,
                stage: str = "mutator") -> BugAnalysis:
    """Summarize cause and trigger conditions for the target bug."""
    answer = engine.run(
        "bug_analysis",
        {"bug_summary": _bug_summary_text(bug_info),
         "target_function_summary": target_summary.render()},
        stage=stage,
    )
    fields: list[tuple[str, str]] = []
    for line in answer.lines("relevant_fields"):
        region, _, role = line.partition(" : ")
        fields.append((region.strip(), role.strip()))
    return BugAnalysis(
        cause=answer.text("cause"),
        trigger_conditions=answer.lines("trigger_conditions"),
        relevant_fields=fields,
    )


def _bug_summary_text(bug_info) -> str:
    parts = [f"Program: {bug_info.program}", f"Bug type: {bug_info.bug_type}"]
    if bug_info.vulnerable_file:
        parts.append(f"File: {bug_info.vulnerable_file}")
    parts.append(f"Function: {bug_info.vulnerable_function}")
    if bug_info.cause_summary:
        parts.append(f"Cause: {bug_info.cause_summary}")
    return "\n".join(parts)


def propose_strategies(analysis: BugAnalysis, engine: Engine,
                       prior: list[MutationStrategy] | None = None,
                       stage: str = "mutator") -> list[MutationStrategy]:
    """Ask for mutation strategies; on refresh, demand ones distinct from prior.

    A refresh answer that only repeats prior descriptions gets one repair
    round; if the repeat persists it is accepted with a duplicate warning so
    the campaign can keep running.
    """
    prior = prior or []
    fillers = {
        "bug_analysis": analysis.render(),
        "example_strategies": EXAMPLE_STRATEGIES,
        "prior_strategies": "\n".join(s.render() for s in prior) if prior else "(none)",
    }
    strategies = _run_strategy_task(engine, fillers, stage)
    if prior:
        prior_descriptions = {s.description for s in prior}
        if all(s.description in prior_descriptions for s in strategies):
            retry = _run_strategy_task(
                engine, fillers, stage,
                extra_suggestion="Every strategy you proposed was already in the prior "
                                 "list above; propose different ones.",
            )
            if all(s.description in prior_descriptions for s in retry):
                log.warning("strategy refresh kept returning duplicates; accepting as-is")
            strategies = retry
    return strategies


def _run_strategy_task(engine: Engine, fillers: dict[str, str], stage: str,
                       extra_suggestion: str = "") -> list[MutationStrategy]:
    answer = engine.run("strategy_proposal", fillers, stage=stage,
                        temperature=TEMPERATURE_GENERATION,
                        extra_suggestion=extra_suggestion)
    strategies = []
    for line in answer.lines("strategies"):
        description, _, rationale = line.partition(" :: ")
        strategies.append(MutationStrategy(description.strip(), rationale.strip()))
    return strategies


def synthesize(strategies: list[MutationStrategy], engine: Engine,
               stage: str = "mutator", feedback: str = "",
               max_repairs: int = 3) -> MutationProgram:
    """Turn strategies into a parsed, grammar-valid mutation program.

    Parse failures feed the bounded repair loop with the offending code and
    the parser's error text.
    """
    if not strategies:
        raise ValueError("at least one strategy is required")
    fillers = {
        "strategies": "\n".join(f"{i + 1}. {s.render()}" for i, s in enumerate(strategies)),
        "grammar": GRAMMAR_HELP,
        "worked_examples": WORKED_EXAMPLES,
        "feedback": feedback or "(none)",
    }
    answer = engine.run("mutator_synthesis", fillers, stage=stage,
                        temperature=TEMPERATURE_GENERATION)
    raw_programs = [answer.text("program")]
    refs = _parse_refs(answer.values.get("strategy_refs", "") or "", len(strategies))
    for _ in range(max_repairs + 1):
        try:
            return parse_program(raw_programs[-1], strategy_refs=refs)
        except DslError as exc:
            if len(raw_programs) > max_repairs:
                break
            repair = engine.run(
                "mutator_repair",
                {"original_program": raw_programs[-1], "parse_error": str(exc),
                 "grammar": GRAMMAR_HELP},
                stage=stage, temperature=TEMPERATURE_GENERATION,
            )
            raw_programs.append(repair.text("program"))
    raise TaskError("mutation program synthesis exhausted its repair budget",
                    raw_responses=raw_programs)


def _parse_refs(text: str, n_strategies: int) -> list[int]:
    refs = []
    for token in re.split(r"[,\s]+", text.strip()):
        if token.isdigit() and 1 <= int(token) <= n_strategies:
            refs.append(int(token))
    return refs


@dataclass
class MutatorBuild:
    """Outcome of one synthesize-trial-regenerate pipeline run."""

    program: MutationProgram | None
    trial: TrialReport | None
    strategies: list[MutationStrategy]
    regenerations: int
    rejected: list[tuple[MutationProgram, TrialReport]] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return self.program is not None


def build_mutator(analysis: BugAnalysis, engine: Engine, seed_bytes: bytes, runner,
                  prior: list[MutationStrategy] | None = None,
                  trial_duration: float = DEFAULT_TRIAL_DURATION,
                  thresholds: TrialThresholds | None = None,
                  max_regenerations: int = DEFAULT_MAX_REGENERATIONS,
                  rng: random.Random | None = None,
                  stage: str = "mutator") -> MutatorBuild:
    """Propose strategies, synthesize, trial; regenerate on rejection.

    After ``max_regenerations`` rejected programs the build gives up and the
    campaign falls back to random-only mutation with a warning.
    """
    strategies = propose_strategies(analysis, engine, prior=prior, stage=stage)
    rejected: list[tuple[MutationProgram, TrialReport]] = []
    feedback = ""
    for attempt in range(1 + max_regenerations):
        try:
            program = synthesize(strategies, engine, stage=stage, feedback=feedback)
        except TaskError:
            log.warning("mutator synthesis failed; falling back to random-only mutation")
            return MutatorBuild(None, None, strategies, attempt, rejected)
        report = trial_run(program, seed_bytes, runner, duration=trial_duration,
                           thresholds=thresholds, rng=rng)
        if report.accepted:
            return MutatorBuild(program, report, strategies, attempt, rejected)
        rejected.append((program, report))
        feedback = (
            f"The previous program was rejected ({report.verdict}, "
            f"{report.execs_per_sec:.1f} execs/sec). Generate a replacement mutator."
        )
    log.warning("all synthesized mutators were rejected; falling back to random-only mutation")
    return MutatorBuild(None, None, strategies, max_regenerations, rejected)
