from __future__ import annotations

import random
import time

import pytest

from conftest import HarnessFault, declared_growth, dedent, engine_from_rules
from reachfuzz import mutator
from reachfuzz.errors import DslError, TaskError
from reachfuzz.knowledge import BugInfo, FunctionSummary
from reachfuzz.mutator import (
    BugAnalysis,
    Expr,
    MutationCounters,
    MutationProgram,
    MutationStrategy,
    SetByte,
    TrialThresholds,
    analyze_bug,
    apply,
    build_mutator,
    parse_program,
    propose_strategies,
    synthesize,
    trial_run,
)


def prog(text: str) -> MutationProgram:
    return parse_program(text)


# --- parsing ------------------------------------------------------------------

def test_parse_two_op_line_with_annotation():
    program = prog("AddToLE(@len_field=10, 4, +65536); Overwrite(end-4, FFFFFFFF)")
    assert len(program.ops) == 2
    add, over = program.ops
    assert add.offset.a == 10 and add.offset.label == "len_field"
    assert add.width == 4 and add.delta == 65536
    assert over.offset.kind == "end" and over.offset.a == 4
    assert over.data == b"\xff\xff\xff\xff"


def test_parse_comments_hex_and_rand():
    program = prog(dedent("""
        # tweak the header
        SetByte(0x10, 0xff)
        FlipBit(rand(0,15), 7)
        ResizeTo(end-2, 0x00)
    """))
    assert len(program.ops) == 3
    assert program.ops[0].offset.a == 16 and program.ops[0].value == 255
    assert program.ops[1].offset.kind == "rand"


@pytest.mark.parametrize("bad, message", [
    ("", "no operations"),
    ("Bogus(1, 2)", "unknown operation"),
    ("SetByte(0)", "takes 2 arguments"),
    ("SetByte(0, 300)", "byte value"),
    ("FlipBit(0, 9)", "bit index"),
    ("AddToLE(0, 3, 1)", "width"),
    ("InsertBytes(0, FFF)", "hex byte string"),
    ("SetByte(zzz, 1)", "expression"),
    ("SetByte 0, 1", "expected OpName"),
    ("DeleteRange(rand(5,2), 1)", "rand bounds"),
    ("ResizeTo(0, 256)", "fill byte"),
])
def test_parse_errors(bad, message):
    with pytest.raises(DslError, match=message):
        parse_program(bad)


def test_render_parse_round_trip():
    text = dedent("""
        FlipBit(3, 1)
        SetByte(end-1, 0x7f)
        InsertBytes(rand(0,8), DEADBEEF)
        DeleteRange(2, rand(1,4))
        Overwrite(@hdr=0, 5036)
        AddToLE(4, 2, -9)
        ResizeTo(64, 0x20)
        CopyRegion(0, end-8, 8)
    """)
    program = prog(text)
    again = parse_program(program.render())
    assert again.ops == program.ops


def test_program_requires_ops():
    with pytest.raises(DslError):
        MutationProgram(ops=[])


# --- interpreter -----------------------------------------------------------------

def rng0() -> random.Random:
    return random.Random(0)


def test_flip_bit():
    assert apply(prog("FlipBit(0, 0)"), b"\x00", rng0()) == b"\x01"


def test_add_to_le():
    assert apply(prog("AddToLE(0, 4, +1)"), b"\x01\x00\x00\x00", rng0()) == b"\x02\x00\x00\x00"


def test_add_to_le_wraps():
    assert apply(prog("AddToLE(0, 2, +1)"), b"\xff\xff", rng0()) == b"\x00\x00"


def test_set_insert_delete_overwrite():
    assert apply(prog("SetByte(1, 0xaa)"), b"\x00\x00", rng0()) == b"\x00\xaa"
    assert apply(prog("InsertBytes(1, BBCC)"), b"\x00\x00", rng0()) == b"\x00\xbb\xcc\x00"
    assert apply(prog("DeleteRange(1, 2)"), b"\x00\x11\x22\x33", rng0()) == b"\x00\x33"
    assert apply(prog("Overwrite(1, AABB)"), b"\x00\x00\x00\x00", rng0()) == b"\x00\xaa\xbb\x00"


def test_resize_and_copy():
    assert apply(prog("ResizeTo(4, 0x2e)"), b"ab", rng0()) == b"ab.."
    assert apply(prog("ResizeTo(1, 0x00)"), b"abcd", rng0()) == b"a"
    assert apply(prog("CopyRegion(0, 2, 2)"), b"abcd", rng0()) == b"abab"


def test_end_relative_addressing():
    assert apply(prog("SetByte(end-1, 0x21)"), b"hello", rng0()) == b"hell!"
    assert apply(prog("DeleteRange(end-2, 2)"), b"hello", rng0()) == b"hel"


def test_offsets_clamp_and_are_counted():
    counters = MutationCounters()
    out = apply(prog("SetByte(100, 0x41)"), b"ab", rng0(), counters)
    assert out == b"aA"
    assert counters.clamp_events == 1
    counters = MutationCounters()
    out = apply(prog("Overwrite(1, AABBCC)"), b"xy", rng0(), counters)
    assert out == b"x\xaa"  # write truncated at the buffer end
    assert counters.clamp_events == 1


def test_ops_on_empty_input_skip_with_clamp():
    counters = MutationCounters()
    assert apply(prog("FlipBit(0, 0)\nAddToLE(0, 4, 1)"), b"", rng0(), counters) == b""
    assert counters.clamp_events == 2


def test_negative_resize_target_clamps_to_empty():
    counters = MutationCounters()
    assert apply(prog("ResizeTo(end-9, 0x00)"), b"abc", rng0(), counters) == b""
    assert counters.clamp_events == 1


def test_rand_consumes_stream_deterministically():
    program = prog("SetByte(rand(0,7), 0xff)\nFlipBit(rand(0,7), 0)")
    a = apply(program, b"\x00" * 8, random.Random(42))
    b = apply(program, b"\x00" * 8, random.Random(42))
    c = apply(program, b"\x00" * 8, random.Random(43))
    assert a == b
    assert a != c  # different stream, different positions


def random_program(rng: random.Random) -> MutationProgram:
    ops = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.randrange(8)
        def expr():
            choice = rng.randrange(3)
            if choice == 0:
                return Expr("abs", rng.randint(0, 64))
            if choice == 1:
                return Expr("end", rng.randint(0, 16))
            lo = rng.randint(0, 32)
            return Expr("rand", lo, lo + rng.randint(0, 32))
        if kind == 0:
            ops.append(mutator.FlipBit(expr(), rng.randint(0, 7)))
        elif kind == 1:
            ops.append(mutator.SetByte(expr(), rng.randint(0, 255)))
        elif kind == 2:
            ops.append(mutator.InsertBytes(expr(), rng.randbytes(rng.randint(1, 64))))
        elif kind == 3:
            ops.append(mutator.DeleteRange(expr(), expr()))
        elif kind == 4:
            ops.append(mutator.Overwrite(expr(), rng.randbytes(rng.randint(1, 16))))
        elif kind == 5:
            ops.append(mutator.AddToLE(expr(), rng.choice((1, 2, 4, 8)),
                                       rng.randint(-(2 ** 16), 2 ** 16)))
        elif kind == 6:
            ops.append(mutator.ResizeTo(Expr("abs", rng.randint(0, 4096)), rng.randint(0, 255)))
        else:
            ops.append(mutator.CopyRegion(expr(), expr(), expr()))
    return MutationProgram(ops=ops)


def test_purity_and_growth_sweep_smoke():
    rng = random.Random(99)
    for _ in range(500):
        program = random_program(rng)
        data = rng.randbytes(rng.randint(0, 128))
        seed = rng.randrange(2 ** 32)
        first = apply(program, data, random.Random(seed))
        second = apply(program, data, random.Random(seed))
        assert first == second
        assert len(first) <= len(data) + declared_growth(program)


def test_render_parse_round_trip_on_random_programs():
    rng = random.Random(6502)
    for _ in range(200):
        program = random_program(rng)
        assert parse_program(program.render()).ops == program.ops


def test_parse_program_rejects_garbage_without_crashing():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def inner(text):
        try:
            parse_program(text)
        except DslError:
            pass

    inner()


def test_declared_growth():
    program = prog("InsertBytes(0, AABB)\nResizeTo(100, 0x00)\nResizeTo(end-4, 0x00)")
    assert declared_growth(program) == 102  # 2 inserted + absolute resize target


# --- knowledge-driven steps --------------------------------------------------------

def overflow_bug() -> BugInfo:
    return BugInfo("cjpeg", ["2.0.4"], "rdppm.c", "get_rgb_row",
                   "Heap Buffer Overflow", "row buffer overflow")


def row_summary() -> FunctionSummary:
    return FunctionSummary("get_rgb_row", "Reads one RGB row into a fixed row buffer.",
                           [("cinfo", "state")], ["copies row bytes"])


ANALYSIS_RESPONSE = dedent("""
    CAUSE: The row reader writes pixels past the end of the row buffer when
    the header declares more samples than the buffer holds, an out-of-bounds
    write past the row buffer.
    TRIGGER_CONDITIONS:
    - header declares a row longer than the allocated buffer
    RELEVANT_FIELDS:
    - width field : controls samples written per row
""").strip()


def test_analyze_bug_mentions_overflow(catalog):
    engine = engine_from_rules(catalog, ("Provide a bug analysis report", ANALYSIS_RESPONSE))
    analysis = analyze_bug(overflow_bug(), row_summary(), engine)
    assert "past the row buffer" in analysis.cause
    assert analysis.trigger_conditions
    assert analysis.relevant_fields[0][0] == "width field"


def test_analyze_bug_null_deref_conditions(catalog):
    engine = engine_from_rules(catalog, (
        "Provide a bug analysis report",
        "CAUSE: missing section pointer is dereferenced\n"
        "TRIGGER_CONDITIONS:\n- input omits the section header entirely",
    ))
    bug = BugInfo("strip", [], "elf.c", "section_match", "NULL Pointer Dereference", "")
    analysis = analyze_bug(bug, row_summary(), engine)
    assert any("omits the section" in c for c in analysis.trigger_conditions)


def test_analyze_bug_without_cause_summary(catalog):
    engine = engine_from_rules(catalog, ("Provide a bug analysis report", ANALYSIS_RESPONSE))
    bug = overflow_bug()
    bug.cause_summary = ""
    analysis = analyze_bug(bug, row_summary(), engine)
    assert analysis.cause


def analysis() -> BugAnalysis:
    return BugAnalysis("overflow past the row buffer",
                       ["declared length exceeds buffer"],
                       [("width field", "scales the copy")])


def test_propose_strategies_in_order(catalog):
    engine = engine_from_rules(catalog, (
        "Generate fuzzing mutation strategies",
        "STRATEGIES:\n- s-one :: r1\n- s-two :: r2\n- s-three :: r3",
    ))
    strategies = propose_strategies(analysis(), engine)
    assert [s.description for s in strategies] == ["s-one", "s-two", "s-three"]
    assert strategies[1].rationale == "r2"


def test_propose_strategies_refresh_demands_distinct(catalog):
    engine = engine_from_rules(catalog, (
        "Generate fuzzing mutation strategies",
        "STRATEGIES:\n- s-one :: same again",
    ))
    prior = [MutationStrategy("s-one", "r")]
    strategies = propose_strategies(analysis(), engine, prior=prior)
    # one repair round was spent asking for different strategies
    assert engine.client.accounting().total_requests == 2
    assert [s.description for s in strategies] == ["s-one"]


def test_strategy_and_analysis_require_content():
    with pytest.raises(ValueError):
        MutationStrategy("   ")
    with pytest.raises(ValueError):
        BugAnalysis("  ", [], [])


def test_propose_strategies_refresh_accepts_new(catalog):
    engine = engine_from_rules(
        catalog,
        ("Generate fuzzing mutation strategies", "STRATEGIES:\n- brand new :: idea"),
    )
    strategies = propose_strategies(analysis(), engine, prior=[MutationStrategy("old", "")])
    assert engine.client.accounting().total_requests == 1
    assert strategies[0].description == "brand new"


SYNTH_OK = "PROGRAM:\n```\nSetByte(0, 0x41)\nFlipBit(1, 0)\n```\nSTRATEGY_REFS: 1"


def test_synthesize_parses_program(catalog):
    engine = engine_from_rules(catalog, ("Translate the mutation strategies", SYNTH_OK))
    program = synthesize([MutationStrategy("s", "r")], engine)
    assert len(program.ops) == 2
    assert program.strategy_refs == [1]


def test_synthesize_repairs_bad_program(catalog):
    engine = engine_from_rules(
        catalog,
        ("Translate the mutation strategies", "PROGRAM:\n```\nBogusOp(1)\n```"),
        ("rejected by the mutation-language parser", "PROGRAM:\n```\nSetByte(0, 1)\n```"),
    )
    program = synthesize([MutationStrategy("s", "r")], engine)
    assert engine.client.accounting().total_requests == 2
    assert program.ops == [SetByte(Expr("abs", 0), 1)]


def test_synthesize_exhausts_repairs(catalog):
    engine = engine_from_rules(
        catalog,
        ("Translate the mutation strategies", "PROGRAM:\n```\nBogusOp(1)\n```"),
        ("rejected by the mutation-language parser", "PROGRAM:\n```\nStillBogus(2)\n```"),
    )
    with pytest.raises(TaskError):
        synthesize([MutationStrategy("s", "r")], engine, max_repairs=3)
    assert engine.client.accounting().total_requests == 4


def test_synthesize_requires_strategies(catalog):
    with pytest.raises(ValueError):
        synthesize([], engine_from_rules(catalog))


# --- trial run ----------------------------------------------------------------------

class FakeResult:
    def __init__(self, exit_kind="clean"):
        self.exit_kind = exit_kind


def fast_runner(data):
    return FakeResult()


def test_trial_accepted():
    report = trial_run(prog("SetByte(0, 0x41)"), b"zz", fast_runner, duration=0.2,
                       thresholds=TrialThresholds(min_execs_per_sec=10))
    assert report.verdict == "accepted"
    assert report.execs_per_sec > 10
    assert report.harness_crashes == 0


def test_trial_rejected_slow():
    def slow_runner(data):
        time.sleep(0.15)
        return FakeResult()

    report = trial_run(prog("SetByte(0, 0x41)"), b"zz", slow_runner, duration=0.3,
                       thresholds=TrialThresholds(min_execs_per_sec=10))
    assert report.verdict == "rejected-slow"


def test_trial_rejected_crash_on_injected_fault():
    def injector(i):
        if i == 1:
            raise HarnessFault("injected")

    report = trial_run(prog("SetByte(0, 0x41)"), b"zz", fast_runner, duration=0.2,
                       fault_injector=injector)
    assert report.verdict == "rejected-crash"
    assert report.harness_crashes == 1


def test_trial_rejected_invalid_noop_program():
    # overwriting byte 0 with its current value never changes the input
    report = trial_run(prog("SetByte(0, 0x7a)"), b"zz", fast_runner, duration=0.2)
    assert report.verdict == "rejected-invalid"


def test_trial_counts_target_crashes_without_rejecting():
    def crashing_runner(data):
        return FakeResult("crash")

    report = trial_run(prog("SetByte(0, 0x41)"), b"zz", crashing_runner, duration=0.2,
                       thresholds=TrialThresholds(min_execs_per_sec=10))
    assert report.verdict == "accepted"
    assert report.target_crashes == report.execs


STRATEGY_RESPONSE = "STRATEGIES:\n- grow declared size :: overruns the buffer"


def test_build_mutator_accepts_first_program(catalog):
    engine = engine_from_rules(
        catalog,
        ("Generate fuzzing mutation strategies", STRATEGY_RESPONSE),
        ("Translate the mutation strategies", SYNTH_OK),
    )
    build = build_mutator(analysis(), engine, b"seed bytes", fast_runner,
                          trial_duration=0.2)
    assert build.accepted
    assert build.regenerations == 0
    assert build.trial.verdict == "accepted"


def test_build_mutator_regeneration_bound(catalog):
    # every synthesized program is an input-independent no-op, so each trial
    # rejects it and regeneration runs up to its bound, then falls back
    engine = engine_from_rules(
        catalog,
        ("Generate fuzzing mutation strategies", STRATEGY_RESPONSE),
        ("Translate the mutation strategies", "PROGRAM:\n```\nSetByte(0, 0x7a)\n```"),
    )
    build = build_mutator(analysis(), engine, b"zz", fast_runner,
                          trial_duration=0.1, max_regenerations=3)
    assert not build.accepted
    assert build.regenerations == 3
    assert len(build.rejected) == 4  # initial attempt plus three regenerations
    synth_requests = engine.client.accounting().total_requests - 1  # minus strategies
    assert synth_requests == 4
