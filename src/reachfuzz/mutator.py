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
import typing
from dataclasses import dataclass, fields

from .errors import AnswerParseError, DslError, TaskError
from .query_engine import Engine
from .llm_client import TEMPERATURE_GENERATION

log = logging.getLogger(__name__)

DEFAULT_REFRESH_PERIOD = 3600.0
DEFAULT_TRIAL_DURATION = 5.0
TRIAL_EXECS = 100  # a trial stops after this many execs, or at its duration
DEFAULT_MIN_EXECS_PER_SEC = 10.0

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
#
# Each operation is declared once, as a frozen dataclass whose fields are its
# arguments in source order. ``apply`` edits the buffer in place and returns
# how many offsets or lengths it clamped: out-of-range positions clamp to the
# valid range (counted, never an error) so programs written against one input
# shape stay usable on another.

def _clamp(value: int, lo: int, hi: int) -> tuple[int, int]:
    """``value`` limited to ``[lo, hi]``, and 1 if that moved it, else 0."""
    if lo <= value <= hi:
        return value, 0
    return min(max(value, lo), hi), 1


@dataclass(frozen=True)
class FlipBit:
    offset: Expr
    bit: int

    def apply(self, buf: bytearray, rng: random.Random) -> int:
        off = self.offset.resolve(len(buf), rng)
        if not buf:
            return 1
        off, clamps = _clamp(off, 0, len(buf) - 1)
        buf[off] ^= 1 << self.bit
        return clamps


@dataclass(frozen=True)
class SetByte:
    offset: Expr
    value: int

    def apply(self, buf: bytearray, rng: random.Random) -> int:
        off = self.offset.resolve(len(buf), rng)
        if not buf:
            return 1
        off, clamps = _clamp(off, 0, len(buf) - 1)
        buf[off] = self.value
        return clamps


@dataclass(frozen=True)
class InsertBytes:
    offset: Expr
    data: bytes

    def apply(self, buf: bytearray, rng: random.Random) -> int:
        off, clamps = _clamp(self.offset.resolve(len(buf), rng), 0, len(buf))
        buf[off:off] = self.data
        return clamps


@dataclass(frozen=True)
class DeleteRange:
    offset: Expr
    length: Expr

    def apply(self, buf: bytearray, rng: random.Random) -> int:
        off = self.offset.resolve(len(buf), rng)
        n = self.length.resolve(len(buf), rng)
        off, clamps = _clamp(off, 0, len(buf))
        n, more = _clamp(n, 0, len(buf) - off)
        del buf[off:off + n]
        return clamps + more


@dataclass(frozen=True)
class Overwrite:
    offset: Expr
    data: bytes

    def apply(self, buf: bytearray, rng: random.Random) -> int:
        off, clamps = _clamp(self.offset.resolve(len(buf), rng), 0, len(buf))
        writable = min(len(self.data), len(buf) - off)
        buf[off:off + writable] = self.data[:writable]
        return clamps + (writable < len(self.data))


@dataclass(frozen=True)
class AddToLE:
    offset: Expr
    width: int
    delta: int

    def apply(self, buf: bytearray, rng: random.Random) -> int:
        off = self.offset.resolve(len(buf), rng)
        if len(buf) < self.width:
            return 1
        off, clamps = _clamp(off, 0, len(buf) - self.width)
        end = off + self.width
        value = (int.from_bytes(buf[off:end], "little") + self.delta) % (1 << (8 * self.width))
        buf[off:end] = value.to_bytes(self.width, "little")
        return clamps


@dataclass(frozen=True)
class ResizeTo:
    length: Expr
    fill: int

    def apply(self, buf: bytearray, rng: random.Random) -> int:
        n = self.length.resolve(len(buf), rng)
        if n <= len(buf):
            del buf[max(n, 0):]
        else:
            buf.extend(bytes([self.fill]) * (n - len(buf)))
        return int(n < 0)


@dataclass(frozen=True)
class CopyRegion:
    src: Expr
    dst: Expr
    length: Expr

    def apply(self, buf: bytearray, rng: random.Random) -> int:
        src, clamps = _clamp(self.src.resolve(len(buf), rng), 0, len(buf))
        dst, more = _clamp(self.dst.resolve(len(buf), rng), 0, len(buf))
        n, most = _clamp(self.length.resolve(len(buf), rng), 0, len(buf) - max(src, dst))
        buf[dst:dst + n] = buf[src:src + n]
        return clamps + more + most


Op = FlipBit | SetByte | InsertBytes | DeleteRange | Overwrite | AddToLE | ResizeTo | CopyRegion


@dataclass
class MutationProgram:
    ops: list[Op]

    def __post_init__(self):
        if not self.ops:
            raise DslError("a mutation program needs at least one operation")

    def render(self) -> str:
        return "\n".join(_render_op(op) for op in self.ops)


def apply(program: MutationProgram, data: bytes, rng: random.Random) -> tuple[bytes, int]:
    """Run every op in order on a working copy of the input; returns the
    output and the number of offsets and lengths the ops clamped."""
    buf = bytearray(data)
    clamps = 0
    for op in program.ops:
        clamps += op.apply(buf, rng)
    return bytes(buf), clamps


# --- concrete syntax ---------------------------------------------------------

_RAND = re.compile(r"^rand\(\s*([+-]?\d+)\s*,\s*([+-]?\d+)\s*\)$")
_END = re.compile(r"^end(?:-(\d+))?$")
_INT = re.compile(r"^[+-]?(?:0x[0-9a-fA-F]+|\d+)$")
_HEXBYTES = re.compile(r"^(?:[0-9a-fA-F]{2})+$")
_OP_LINE = re.compile(r"^([A-Za-z]+)\s*\((.*)\)$")


def _parse_int(token: str, where: str) -> int:
    try:
        if _INT.match(token):
            return int(token, 0)
    except ValueError:  # _INT admits a decimal with a leading zero, as in 01
        pass
    raise DslError(f"{where}: expected an integer, got {token!r}")


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
        return Expr("abs", _parse_int(token, where), label=label)
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


def parse_program(text: str) -> MutationProgram:
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
    return MutationProgram(ops=ops)


def _ranged(allowed, message: str):
    def parse(token: str, where: str) -> int:
        value = _parse_int(token, where)
        if value not in allowed:
            raise DslError(f"{where}: {message}")
        return value
    return parse


_EXPR = (_parse_expr, Expr.render)
_BYTE = "{:#04x}".format
# Every argument kind, keyed by the field names the operations use:
# (parse(token, where), render(value)).
_ARGS = {
    "offset": _EXPR, "length": _EXPR, "src": _EXPR, "dst": _EXPR,
    "data": (_parse_hex, lambda data: data.hex().upper()),
    "bit": (_ranged(range(8), "bit index must be 0..7"), str),
    "value": (_ranged(range(256), "byte value must be 0..255"), _BYTE),
    "fill": (_ranged(range(256), "fill byte must be 0..255"), _BYTE),
    "width": (_ranged(LE_WIDTHS, f"width must be one of {LE_WIDTHS}"), str),
    "delta": (_parse_int, "{:+d}".format),
}
# Range-checked constants are parsed before the other arguments, so of several
# bad arguments a constant's error is the one reported.
_CHECKED_FIRST = ("bit", "value", "fill", "width")
_OPS = {op.__name__: op for op in typing.get_args(Op)}


def _build_op(name: str, args: list[str], where: str) -> Op:
    op = _OPS.get(name)
    if op is None:
        raise DslError(f"{where}: unknown operation {name!r}")
    names = [f.name for f in fields(op)]
    if len(args) != len(names):
        raise DslError(f"{where}: {name} takes {len(names)} arguments, got {len(args)}")
    pairs = sorted(zip(names, args), key=lambda pair: pair[0] not in _CHECKED_FIRST)
    return op(**{key: _ARGS[key][0](token, where) for key, token in pairs})


def _render_op(op: Op) -> str:
    args = (_ARGS[f.name][1](getattr(op, f.name)) for f in fields(op))
    return f"{type(op).__name__}({', '.join(args)})"


# --- trial run ---------------------------------------------------------------

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
              min_execs_per_sec: float = DEFAULT_MIN_EXECS_PER_SEC,
              rng: random.Random | None = None) -> TrialReport:
    """Short mutate-and-execute run validating stability and throughput.

    The run stops after ``TRIAL_EXECS`` execs, or sooner once ``duration``
    seconds have passed, which caps it on a slow target. Harness crashes are
    faults in the mutation machinery itself (interpreter errors, spawn
    failures); the target crashing is a finding, not a defect. A program whose
    outputs never differ from the seed, or are always empty, is rejected as
    invalid.
    """
    rng = rng or random.Random(0)
    start = time.monotonic()
    execs = 0
    harness_crashes = 0
    target_crashes = 0
    produced_change = False
    while execs < TRIAL_EXECS and time.monotonic() - start < duration:
        try:
            data, _ = apply(program, seed_bytes, rng)
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
        if result.exit_kind == "crash":
            target_crashes += 1
        execs += 1
    elapsed = max(time.monotonic() - start, 1e-9)
    eps = execs / elapsed
    if harness_crashes > 0:
        verdict = "rejected-crash"
    elif not produced_change:
        verdict = "rejected-invalid"
    elif eps < min_execs_per_sec:
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


def analyze_bug(bug_info, target_summary, engine: Engine) -> BugAnalysis:
    """Summarize cause and trigger conditions for the target bug."""
    answer = engine.run(
        "bug_analysis",
        {"bug_summary": _bug_summary_text(bug_info),
         "target_function_summary": target_summary.render()},
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
                       prior: list[MutationStrategy] | None = None) -> list[MutationStrategy]:
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
    strategies = _run_strategy_task(engine, fillers)
    if prior:
        prior_descriptions = {s.description for s in prior}
        if all(s.description in prior_descriptions for s in strategies):
            retry = _run_strategy_task(
                engine, fillers,
                extra_suggestion="Every strategy you proposed was already in the prior "
                                 "list above; propose different ones.",
            )
            if all(s.description in prior_descriptions for s in retry):
                log.warning("strategy refresh kept returning duplicates; accepting as-is")
            strategies = retry
    return strategies


def _run_strategy_task(engine: Engine, fillers: dict[str, str],
                       extra_suggestion: str = "") -> list[MutationStrategy]:
    answer = engine.run("strategy_proposal", fillers, temperature=TEMPERATURE_GENERATION,
                        extra_suggestion=extra_suggestion)
    strategies = []
    for line in answer.lines("strategies"):
        description, _, rationale = line.partition(" :: ")
        strategies.append(MutationStrategy(description.strip(), rationale.strip()))
    return strategies


def synthesize(strategies: list[MutationStrategy], engine: Engine, check=None):
    """Turn strategies into a parsed, grammar-valid mutation program, or into
    ``check(program)``'s value when a check is given.

    A program the parser or ``check`` rejects is asked for again with the
    error, within the query engine's repair bound.
    """
    if not strategies:
        raise ValueError("at least one strategy is required")
    fillers = {
        "strategies": "\n".join(f"{i + 1}. {s.render()}" for i, s in enumerate(strategies)),
        "grammar": GRAMMAR_HELP,
        "worked_examples": WORKED_EXAMPLES,
    }

    def usable(answer):
        text = answer.text("program")
        try:
            program = parse_program(text)
        except DslError as exc:
            raise AnswerParseError(
                f"the program was rejected by the mutation-language parser: {exc}. "
                "Fix only what the error reports; keep every other operation unchanged.\n"
                f"The rejected program:\n```\n{text}\n```") from None
        return program if check is None else check(program)

    return engine.run("mutator_synthesis", fillers, temperature=TEMPERATURE_GENERATION,
                      check=usable)


@dataclass
class MutatorBuild:
    """Outcome of one synthesize-and-trial pipeline run."""

    program: MutationProgram | None
    trial: TrialReport | None
    strategies: list[MutationStrategy]

    @property
    def accepted(self) -> bool:
        return self.program is not None


def build_mutator(analysis: BugAnalysis, engine: Engine, seed_bytes: bytes, runner,
                  prior: list[MutationStrategy] | None = None,
                  trial_duration: float = DEFAULT_TRIAL_DURATION,
                  min_execs_per_sec: float = DEFAULT_MIN_EXECS_PER_SEC,
                  rng: random.Random | None = None) -> MutatorBuild:
    """Propose strategies, then synthesize programs until one passes its trial.

    Each program the trial rejects is logged with its verdict and asked for
    again, within the query engine's repair bound. When no program is usable
    the campaign falls back to random-only mutation with a warning.
    """
    strategies = propose_strategies(analysis, engine, prior=prior)

    def trial(program: MutationProgram) -> MutatorBuild:
        report = trial_run(program, seed_bytes, runner, duration=trial_duration,
                           min_execs_per_sec=min_execs_per_sec, rng=rng)
        if not report.accepted:
            log.warning("mutation program failed its trial: %s", report.verdict)
            raise AnswerParseError(f"the trial rejected the program: {report.verdict}")
        return MutatorBuild(program, report, strategies)

    try:
        return synthesize(strategies, engine, check=trial)
    except TaskError as exc:
        log.warning("falling back to random-only mutation: %s", exc)
        return MutatorBuild(None, None, strategies)
