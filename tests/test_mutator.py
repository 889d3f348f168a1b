from __future__ import annotations

import random
import time

import pytest

from conftest import (PPM_SEED, HarnessFault, declared_growth, dedent, engine_from_rules,
                      trial_verdicts,
                      random_program)
from reachfuzz import llm_client, mutator
from reachfuzz.errors import DslError, TaskError
from reachfuzz.knowledge import BugInfo, FunctionSummary
from reachfuzz.mutator import (
    BugAnalysis,
    Expr,
    MutationProgram,
    MutationStrategy,
    SetByte,
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
    ("SetByte(01, 1)", "expected an integer"),
    ("SetByte(0, 07)", "expected an integer"),
])
def test_parse_errors(bad, message):
    with pytest.raises(DslError, match=message):
        parse_program(bad)


@pytest.mark.parametrize("bad, message", [
    ("FlipBit(zzz, 9)", "bit index"),
    ("SetByte(zzz, 300)", "byte value"),
    ("AddToLE(zzz, 3, zzz)", "width"),
    ("ResizeTo(zzz, 256)", "fill byte"),
    ("AddToLE(zzz, 4, zzz)", "expression"),
])
def test_parse_reports_a_bad_constant_before_other_arguments(bad, message):
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
    assert apply(prog("FlipBit(0, 0)"), b"\x00", rng0()) == (b"\x01", 0)


def test_add_to_le():
    assert apply(prog("AddToLE(0, 4, +1)"), b"\x01\x00\x00\x00", rng0()) == (
        b"\x02\x00\x00\x00", 0)


def test_add_to_le_wraps():
    assert apply(prog("AddToLE(0, 2, +1)"), b"\xff\xff", rng0()) == (b"\x00\x00", 0)


def test_set_insert_delete_overwrite():
    assert apply(prog("SetByte(1, 0xaa)"), b"\x00\x00", rng0()) == (b"\x00\xaa", 0)
    assert apply(prog("InsertBytes(1, BBCC)"), b"\x00\x00", rng0()) == (b"\x00\xbb\xcc\x00", 0)
    assert apply(prog("DeleteRange(1, 2)"), b"\x00\x11\x22\x33", rng0()) == (b"\x00\x33", 0)
    assert apply(prog("Overwrite(1, AABB)"), b"\x00\x00\x00\x00", rng0()) == (
        b"\x00\xaa\xbb\x00", 0)


def test_resize_and_copy():
    assert apply(prog("ResizeTo(4, 0x2e)"), b"ab", rng0()) == (b"ab..", 0)
    assert apply(prog("ResizeTo(1, 0x00)"), b"abcd", rng0()) == (b"a", 0)
    assert apply(prog("CopyRegion(0, 2, 2)"), b"abcd", rng0()) == (b"abab", 0)


def test_end_relative_addressing():
    assert apply(prog("SetByte(end-1, 0x21)"), b"hello", rng0()) == (b"hell!", 0)
    assert apply(prog("DeleteRange(end-2, 2)"), b"hello", rng0()) == (b"hel", 0)


def test_offsets_clamp_and_are_counted():
    assert apply(prog("SetByte(100, 0x41)"), b"ab", rng0()) == (b"aA", 1)
    # the write is truncated at the buffer end
    assert apply(prog("Overwrite(1, AABBCC)"), b"xy", rng0()) == (b"x\xaa", 1)


def test_ops_on_empty_input_skip_with_clamp():
    assert apply(prog("FlipBit(0, 0)\nAddToLE(0, 4, 1)"), b"", rng0()) == (b"", 2)


def test_negative_resize_target_clamps_to_empty():
    assert apply(prog("ResizeTo(end-9, 0x00)"), b"abc", rng0()) == (b"", 1)


def test_rand_consumes_stream_deterministically():
    program = prog("SetByte(rand(0,7), 0xff)\nFlipBit(rand(0,7), 0)")
    a = apply(program, b"\x00" * 8, random.Random(42))
    b = apply(program, b"\x00" * 8, random.Random(42))
    c = apply(program, b"\x00" * 8, random.Random(43))
    assert a == b
    assert a != c  # different stream, different positions


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


SYNTH_OK = "PROGRAM:\n```\nSetByte(0, 0x41)\nFlipBit(1, 0)\n```"


def test_synthesize_parses_program(catalog):
    engine = engine_from_rules(catalog, ("Translate the mutation strategies", SYNTH_OK))
    program = synthesize([MutationStrategy("s", "r")], engine)
    assert len(program.ops) == 2


def test_synthesize_repairs_bad_program(catalog):
    engine = engine_from_rules(
        catalog,
        ("rejected by the mutation-language parser", "PROGRAM:\n```\nSetByte(0, 1)\n```"),
        ("Translate the mutation strategies", "PROGRAM:\n```\nBogusOp(1)\n```"),
    )
    program = synthesize([MutationStrategy("s", "r")], engine)
    assert engine.client.accounting().total_requests == 2
    assert program.ops == [SetByte(Expr("abs", 0), 1)]


def test_synthesize_repairs_a_leading_zero_literal(catalog):
    engine = engine_from_rules(
        catalog,
        ("rejected by the mutation-language parser", "PROGRAM:\n```\nSetByte(1, 0xFF)\n```"),
        ("Translate the mutation strategies", "PROGRAM:\n```\nSetByte(01, 0xFF)\n```"),
    )
    program = synthesize([MutationStrategy("s", "r")], engine)
    assert engine.client.accounting().total_requests == 2
    assert program.ops == [SetByte(Expr("abs", 1), 255)]


def test_synthesize_exhausts_repairs(catalog):
    engine = engine_from_rules(
        catalog,
        ("rejected by the mutation-language parser", "PROGRAM:\n```\nStillBogus(2)\n```"),
        ("Translate the mutation strategies", "PROGRAM:\n```\nBogusOp(1)\n```"),
    )
    with pytest.raises(TaskError):
        synthesize([MutationStrategy("s", "r")], engine)
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
                       min_execs_per_sec=10)
    assert report.verdict == "accepted"
    assert report.execs_per_sec > 10
    assert report.harness_crashes == 0


def test_trial_rejected_slow():
    def slow_runner(data):
        time.sleep(0.15)
        return FakeResult()

    report = trial_run(prog("SetByte(0, 0x41)"), b"zz", slow_runner, duration=0.3,
                       min_execs_per_sec=10)
    assert report.verdict == "rejected-slow"


def test_trial_rejected_crash_on_injected_fault(monkeypatch):
    calls = []
    real_apply = mutator.apply

    def faulty_apply(*args):
        calls.append(args)
        if len(calls) == 2:
            raise HarnessFault("injected")
        return real_apply(*args)

    monkeypatch.setattr(mutator, "apply", faulty_apply)
    report = trial_run(prog("SetByte(0, 0x41)"), b"zz", fast_runner, duration=0.2)
    assert report.verdict == "rejected-crash"
    assert report.harness_crashes == 1
    assert report.execs == len(calls) == 2


def test_trial_rejected_invalid_noop_program():
    # overwriting byte 0 with its current value never changes the input
    report = trial_run(prog("SetByte(0, 0x7a)"), b"zz", fast_runner, duration=0.2)
    assert report.verdict == "rejected-invalid"


def test_trial_counts_target_crashes_without_rejecting():
    def crashing_runner(data):
        return FakeResult("crash")

    report = trial_run(prog("SetByte(0, 0x41)"), b"zz", crashing_runner, duration=0.2,
                       min_execs_per_sec=10)
    assert report.verdict == "accepted"
    assert report.target_crashes == report.execs


def test_trial_stops_after_its_exec_budget():
    calls = []

    def counting_runner(data):
        calls.append(data)
        return FakeResult()

    report = trial_run(prog("SetByte(0, 0x41)"), b"zz", counting_runner, duration=60)
    assert report.verdict == "accepted"
    assert len(calls) == report.execs == mutator.TRIAL_EXECS


def spawn_fails_third_time():
    calls = []

    def run(data):
        calls.append(data)
        if len(calls) == 3:
            raise OSError("cannot spawn the target")
        return FakeResult()
    return run


def sleeping_runner(data):
    time.sleep(0.15)
    return FakeResult()


# verdict -> (program, seed, a fresh runner from the test's request, trial
# duration); the accepted program is the demo's, run on the Python toy
TRIAL_ORACLE = {
    "accepted": ("Overwrite(3, 39)\nDeleteRange(end-4, 4)", PPM_SEED,
                 lambda request: request.getfixturevalue("ppm_runner"), 1.0),
    "rejected-invalid": ("SetByte(0, 0x7a)", b"zz", lambda request: fast_runner, 0.2),
    "rejected-crash": ("SetByte(0, 0x41)", b"zz", lambda request: spawn_fails_third_time(), 0.2),
    "rejected-slow": ("SetByte(0, 0x41)", b"zz", lambda request: sleeping_runner, 0.3),
}


@pytest.mark.parametrize("verdict", sorted(TRIAL_ORACLE))
def test_budgeted_trial_gives_the_verdict_of_the_time_box(verdict, request, monkeypatch):
    # the time box the exec budget replaced: a budget no trial reaches
    text, seed, runner, duration = TRIAL_ORACLE[verdict]
    budgeted = trial_run(prog(text), seed, runner(request), duration=duration,
                         min_execs_per_sec=10)
    monkeypatch.setattr(mutator, "TRIAL_EXECS", 1 << 62)
    boxed = trial_run(prog(text), seed, runner(request), duration=duration,
                      min_execs_per_sec=10)
    assert budgeted.verdict == boxed.verdict == verdict


STRATEGY_RESPONSE = "STRATEGIES:\n- grow declared size :: overruns the buffer"


def test_build_mutator_accepts_first_program(catalog, caplog):
    engine = engine_from_rules(
        catalog,
        ("Generate fuzzing mutation strategies", STRATEGY_RESPONSE),
        ("Translate the mutation strategies", SYNTH_OK),
    )
    build = build_mutator(analysis(), engine, b"seed bytes", fast_runner,
                          trial_duration=0.2)
    assert build.accepted
    assert engine.client.accounting().total_requests == 2  # strategies, one synthesis
    assert trial_verdicts(caplog) == []
    assert build.trial.verdict == "accepted"


def test_build_mutator_regeneration_bound(catalog, caplog):
    # every synthesized program is an input-independent no-op, so each trial
    # rejects it and regeneration runs up to its bound, then falls back
    engine = engine_from_rules(
        catalog,
        ("Generate fuzzing mutation strategies", STRATEGY_RESPONSE),
        ("Translate the mutation strategies", "PROGRAM:\n```\nSetByte(0, 0x7a)\n```"),
    )
    build = build_mutator(analysis(), engine, b"zz", fast_runner,
                          trial_duration=0.1)
    assert not build.accepted
    # initial attempt plus three regenerations, each rejected with its verdict logged
    assert trial_verdicts(caplog) == ["rejected-invalid"] * 4
    synth_requests = engine.client.accounting().total_requests - 1  # minus strategies
    assert synth_requests == 4


def test_regeneration_prompts_do_not_depend_on_host_speed(catalog, monkeypatch):
    # the same no-op program is rejected on a fast and on a slow runner; the
    # prompts sent after each rejection must be the same bytes
    prompts: list[str] = []
    complete = llm_client.ScriptedBackend.complete

    def recording(self, request):
        prompts.append(request.prompt_text)
        return complete(self, request)

    def slow_runner(data):
        time.sleep(0.001)
        return FakeResult()

    monkeypatch.setattr(llm_client.ScriptedBackend, "complete", recording)
    sent = []
    for runner in (fast_runner, slow_runner):
        engine = engine_from_rules(
            catalog,
            ("Generate fuzzing mutation strategies", STRATEGY_RESPONSE),
            ("Translate the mutation strategies", "PROGRAM:\n```\nSetByte(0, 0x7a)\n```"),
        )
        build = build_mutator(analysis(), engine, b"zz", runner, trial_duration=0.1)
        assert not build.accepted
        sent.append(prompts[:])
        prompts.clear()
    assert len(sent[0]) == 5  # strategies, then four synthesis requests
    assert sent[0] == sent[1]
