from __future__ import annotations

import random
import resource
import time

import pytest

from conftest import PPM_SEED, engine_from_rules, make_graph, processes_end
from reachfuzz import callgraph, seedgen
from reachfuzz.errors import MaterializeError, TaskError
from reachfuzz.knowledge import BugInfo, FunctionSummary, ProgramUsage
from reachfuzz.seedgen import (
    CommandLine,
    GeneratorSpec,
    Seed,
    generate_preliminary,
    hexdump,
    materialize,
    optimize_along_chain,
    optimize_by_functionality,
    parse_command_line,
    select_command,
    write_outcome,
)


def readelf_usage() -> ProgramUsage:
    return ProgramUsage("readelf", [
        ("--debug-dump", "dump the named debug section contents"),
        ("input-file", "the ELF file to inspect"),
    ], "")


def frame_summary() -> FunctionSummary:
    return FunctionSummary("display_debug_frames",
                           "Displays DWARF call frame sections.",
                           [], ["parses .debug_frame entries"])


def readelf_bug() -> BugInfo:
    return BugInfo("readelf", [], "readelf.c", "display_debug_frames",
                   "Heap Buffer Overflow", "crafted frame section overread")


def test_select_command_grounded(catalog):
    engine = engine_from_rules(catalog, (
        "most likely to activate the target function",
        "COMMAND: readelf --debug-dump=frames @@\n"
        "DESCRIPTION: dumps call frame information from the input ELF.",
    ))
    command = select_command(readelf_bug(), readelf_usage(), frame_summary(), engine)
    assert command.render() == "readelf --debug-dump=frames @@"
    assert "frame" in command.description


def test_select_command_single_operand(catalog):
    engine = engine_from_rules(catalog, (
        "most likely to activate the target function",
        "COMMAND: prog @@\nDESCRIPTION: the only operand is the input.",
    ))
    usage = ProgramUsage("prog", [("input-file", "the input")], "")
    bug = BugInfo("prog", [], "", "f", "Crash", "")
    command = select_command(bug, usage, frame_summary(), engine)
    assert command.render() == "prog @@"


def test_select_command_repairs_unknown_flag(catalog):
    engine = engine_from_rules(
        catalog,
        ("most likely to activate the target function",
         "COMMAND: readelf --bogus @@\nDESCRIPTION: wrong."),
        ("not in the program usage",
         "COMMAND: readelf --debug-dump=frames @@\nDESCRIPTION: fixed."),
        ordinals={0: 1},
    )
    command = select_command(readelf_bug(), readelf_usage(), frame_summary(), engine)
    assert "--debug-dump=frames" in command.args
    assert engine.client.accounting().total_requests == 2


def test_select_command_gives_up_after_bound(catalog):
    engine = engine_from_rules(catalog, (
        "most likely to activate the target function",
        "COMMAND: readelf --never-valid @@\nDESCRIPTION: nope.",
    ))
    with pytest.raises(TaskError, match=r"command_selection failed after 4 attempts: "
                                        r"these options .*--never-valid"):
        select_command(readelf_bug(), readelf_usage(), frame_summary(), engine)
    assert engine.client.accounting().total_requests == 4  # 1 + DEFAULT_MAX_REPAIRS


def test_parse_command_line_errors():
    with pytest.raises(ValueError):
        parse_command_line("onlyprog")
    with pytest.raises(ValueError):
        parse_command_line("prog no placeholder")


def test_generate_preliminary_literal(catalog):
    engine = engine_from_rules(catalog, (
        "Generate a preliminary input file",
        "KIND: literal\nPAYLOAD:\n```\n_Z3foov\n```",
    ))
    command = CommandLine("cxxfilt", ("@@",))
    bug = BugInfo("cxxfilt", [], "cplus-dem.c", "demangle", "Crash", "")
    spec = generate_preliminary(command, bug, engine)
    assert spec.kind == "literal"
    assert materialize(spec, "/tmp/unused") == b"_Z3foov"


def test_generate_preliminary_script_emits_ppm(catalog, tmp_path):
    script = 'import sys\nsys.stdout.buffer.write(b"P6\\n2 2\\n255\\n" + bytes(12))\n'
    engine = engine_from_rules(catalog, (
        "Generate a preliminary input file",
        f"KIND: script\nRUNTIME: python3\nPAYLOAD:\n```\n{script}```",
    ))
    command = CommandLine("cjpeg", ("@@",))
    bug = BugInfo("cjpeg", [], "rdppm.c", "get_rgb_row", "Heap Buffer Overflow", "")
    spec = generate_preliminary(command, bug, engine)
    assert spec.kind == "script"
    data = materialize(spec, tmp_path / "sandbox")
    assert data.startswith(b"P6")
    assert len(data) == 23


def test_generate_preliminary_empty_payload_fails(catalog):
    engine = engine_from_rules(catalog, (
        "Generate a preliminary input file",
        "KIND: literal\nPAYLOAD:\n```\n```",
    ))
    command = CommandLine("p", ("@@",))
    with pytest.raises(TaskError):
        generate_preliminary(command, readelf_bug(), engine)


def test_generate_preliminary_unknown_kind_is_materialize_error(catalog):
    engine = engine_from_rules(catalog, (
        "Generate a preliminary input file",
        "KIND: hex\nPAYLOAD:\n```\n50 36\n```",
    ))
    with pytest.raises(MaterializeError, match="unknown generator kind 'hex'"):
        generate_preliminary(CommandLine("p", ("@@",)), readelf_bug(), engine)


def test_materialize_encodings(tmp_path):
    assert materialize(GeneratorSpec("literal", "abc"), tmp_path) == b"abc"
    assert materialize(GeneratorSpec("literal", "50 36 0a", encoding="hex"),
                       tmp_path) == b"P6\n"
    assert materialize(GeneratorSpec("literal", "UDY=", encoding="base64"),
                       tmp_path) == b"P6"
    with pytest.raises(MaterializeError):
        materialize(GeneratorSpec("literal", "zz", encoding="hex"), tmp_path)
    with pytest.raises(MaterializeError):
        materialize(GeneratorSpec("literal", "xx", encoding="rot13"), tmp_path)


def test_materialize_script_repair(catalog, tmp_path):
    fixed = 'import sys\nsys.stdout.buffer.write(b"ok")\n'
    engine = engine_from_rules(catalog, (
        "input-generator script below failed",
        f"PAYLOAD:\n```\n{fixed}```",
    ))
    spec = GeneratorSpec("script", "raise RuntimeError('broken generator')\n")
    data = materialize(spec, tmp_path / "sb", engine)
    assert data == b"ok"
    assert engine.client.accounting().total_requests == 1


def test_materialize_script_repair_bound(catalog, tmp_path):
    engine = engine_from_rules(catalog, (
        "input-generator script below failed",
        "PAYLOAD:\n```\nraise RuntimeError('still broken')\n```",
    ))
    spec = GeneratorSpec("script", "raise RuntimeError('broken')\n")
    with pytest.raises(MaterializeError, match="never produced output"):
        materialize(spec, tmp_path / "sb", engine)
    assert engine.client.accounting().total_requests == 4  # 1 + DEFAULT_MAX_REPAIRS


def test_repair_prompt_gets_the_end_of_a_flood_of_stderr(catalog, tmp_path):
    fixed = 'import sys\nsys.stdout.buffer.write(b"ok")\n'
    engine = engine_from_rules(catalog, (
        "input-generator script below failed",
        f"PAYLOAD:\n```\n{fixed}```",
    ))
    fillers = []
    run = engine.run

    def recording(task, values, **kwargs):
        fillers.append(values)
        return run(task, values, **kwargs)

    engine.run = recording
    flood = "x" * (1 << 20) + "\nTraceback: the last line\n"
    spec = GeneratorSpec("script", f"import sys\nsys.stderr.write('x' * {1 << 20} + "
                                   "'\\nTraceback: the last line\\n')\n")
    assert materialize(spec, tmp_path / "sb", engine) == b"ok"
    error = fillers[0]["error_output"]
    assert len(error) <= seedgen.SCRIPT_ERROR_LIMIT
    note, kept = error.split("\n", 1)
    assert note == f"[first {len(flood) - len(kept)} bytes cut]"
    assert flood.endswith(kept) and kept.endswith("Traceback: the last line\n")


def test_materialize_script_without_engine(tmp_path):
    spec = GeneratorSpec("script", "import sys; sys.exit(3)\n")
    with pytest.raises(MaterializeError):
        materialize(spec, tmp_path / "sb")


def test_generator_script_sees_no_llm_settings(tmp_path, monkeypatch):
    monkeypatch.setenv("RF_LLM_API_KEY", "secret-key")
    spec = GeneratorSpec("script", "import os, sys\n"
                         "sys.stderr.write('key=' + os.environ.get('RF_LLM_API_KEY', ''))\n"
                         "sys.exit(1)\n")
    with pytest.raises(MaterializeError) as failure:
        materialize(spec, tmp_path / "sb")
    assert str(failure.value).endswith("output: key=")


def test_endless_generator_output_fails_fast_within_the_cap(tmp_path):
    spec = GeneratorSpec("script", "import sys\n"
                         "while True:\n    sys.stdout.buffer.write(b'A' * 65536)\n")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.monotonic()
    with pytest.raises(MaterializeError) as failure:
        materialize(spec, tmp_path / "sb")
    assert time.monotonic() - start < 1.0
    assert "File too large" in str(failure.value)
    assert str(failure.value).endswith(seedgen.FILE_LIMIT_NOTE)
    grown_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
    assert grown_kib < seedgen.SCRIPT_FILE_LIMIT // 1024 // 2
    assert (tmp_path / "sb" / "generator.out").stat().st_size == seedgen.SCRIPT_FILE_LIMIT


def test_generator_file_past_the_cap_fails_and_stops_at_the_cap(tmp_path):
    spec = GeneratorSpec("script", "with open('big.bin', 'wb') as out:\n"
                         "    while True:\n        out.write(b'A' * 65536)\n")
    with pytest.raises(MaterializeError) as failure:
        materialize(spec, tmp_path / "sb")
    assert "File too large" in str(failure.value)
    assert (tmp_path / "sb" / "big.bin").stat().st_size == seedgen.SCRIPT_FILE_LIMIT


def test_generator_grandchild_neither_delays_nor_outlives_it(tmp_path):
    spec = GeneratorSpec("script", "import subprocess\n"
                         "child = subprocess.Popen(['sleep', '30'])\n"
                         "open('grandchild.pid', 'w').write(str(child.pid))\n"
                         "print('seed')\n")
    start = time.monotonic()
    assert materialize(spec, tmp_path / "sb") == b"seed\n"
    assert time.monotonic() - start < 2.0  # not held until the grandchild's sleep ends
    assert processes_end([int((tmp_path / "sb" / "grandchild.pid").read_text())])


def test_hexdump_shapes():
    dump = hexdump(b"P6\n2 2\n255\n\x00\x01")
    assert dump.startswith("00000000  50 36 0a")
    assert "|P6.2 2.255" in dump
    assert hexdump(b"") == "(empty input)"
    assert "more bytes" in hexdump(bytes(5000))


# --- chain optimization on the toy target -----------------------------------------

P6_CANDIDATE_HEX = "50 36 0a 32 20 32 0a 32 35 35 0a" + " 00" * 12

CHAIN_FIX = (
    "how should the input be modified",
    f"KIND: literal\nENCODING: hex\nCANDIDATE_1:\n```\n{P6_CANDIDATE_HEX}\n```",
)


def ppm_definitions(name: str) -> str:
    return f"def {name}(data):\n    ...  # source of {name}\n"


def test_optimize_reaches_target_in_one_step(catalog, ppm_graph, ppm_runner,
                                             ppm_command, tmp_path):
    engine = engine_from_rules(catalog, CHAIN_FIX)
    chain = callgraph.complete_chain(ppm_graph, ppm_graph.id_of("read_pixels"))
    seed = Seed(b"P2\n2 2\n255\n", ppm_command)
    outcome = optimize_along_chain(seed, chain, ppm_graph, ppm_runner, engine,
                                   budget=30.0, definition_source=ppm_definitions,
                                   sandbox=tmp_path / "sb")
    assert outcome.status == "reached"
    assert outcome.best_seed.data.startswith(b"P6\n2 2\n255\n")
    assert engine.client.accounting().total_requests == 1
    accepted = [st for st in outcome.best_seed.provenance if st.get("accepted")]
    assert accepted and accepted[-1]["goal"] == "parse_dims"


def test_optimize_skips_candidates_of_unknown_kind(catalog, ppm_graph, ppm_runner,
                                                  ppm_command, tmp_path):
    # a round whose answer names no known kind is skipped like an undecodable
    # payload; the next round's answer still reaches the target
    engine = engine_from_rules(
        catalog,
        ("how should the input be modified",
         f"KIND: hex\nCANDIDATE_1:\n```\n{P6_CANDIDATE_HEX}\n```"),
        CHAIN_FIX,
        ordinals={0: 1},
    )
    chain = callgraph.complete_chain(ppm_graph, ppm_graph.id_of("read_pixels"))
    outcome = optimize_along_chain(Seed(b"P2\n2 2\n255\n", ppm_command), chain, ppm_graph,
                                   ppm_runner, engine, budget=30.0,
                                   definition_source=ppm_definitions,
                                   sandbox=tmp_path / "sb")
    assert outcome.status == "reached"
    assert engine.client.accounting().total_requests == 2


def test_optimize_zero_iterations_when_already_reaching(catalog, ppm_graph,
                                                        ppm_runner, ppm_command, tmp_path):
    engine = engine_from_rules(catalog)  # strict and empty: any request would fail
    chain = callgraph.complete_chain(ppm_graph, ppm_graph.id_of("read_pixels"))
    outcome = optimize_along_chain(Seed(PPM_SEED, ppm_command), chain, ppm_graph,
                                   ppm_runner, engine, budget=30.0,
                                   definition_source=ppm_definitions,
                                   sandbox=tmp_path / "sb")
    assert outcome.status == "reached"
    assert engine.client.accounting().total_requests == 0


def test_optimize_times_out_on_useless_answers(catalog, ppm_graph, ppm_runner,
                                               ppm_command, tmp_path):
    import time

    engine = engine_from_rules(catalog, (
        "how should the input be modified",
        "KIND: literal\nCANDIDATE_1:\n```\nP3 still wrong\n```",
    ))
    chain = callgraph.complete_chain(ppm_graph, ppm_graph.id_of("read_pixels"))
    seed = Seed(b"P2\n2 2\n255\n", ppm_command)
    start = time.monotonic()
    outcome = optimize_along_chain(seed, chain, ppm_graph, ppm_runner, engine,
                                   budget=1.0, definition_source=ppm_definitions,
                                   sandbox=tmp_path / "sb")
    elapsed = time.monotonic() - start
    assert outcome.status == "timeout"
    assert outcome.candidates  # the level subset is kept for fuzzing anyway
    assert elapsed <= 1.0 + 1.0  # budget plus one execution of slack


def test_optimize_provenance_deterministic(catalog, ppm_graph, ppm_command,
                                           ppm_program_exec, tmp_path):
    from reachfuzz.campaign import Executor

    def run_once(tag: str):
        executor = Executor(ppm_graph.ids, tmp_path / tag, ppm_command, 5.0, ppm_program_exec)
        engine = engine_from_rules(catalog, CHAIN_FIX)
        chain = callgraph.complete_chain(ppm_graph, ppm_graph.id_of("read_pixels"))
        return optimize_along_chain(
            Seed(b"P2\n2 2\n255\n", ppm_command), chain, ppm_graph,
            executor.run, engine, budget=30.0,
            definition_source=ppm_definitions, sandbox=tmp_path / tag / "sb")

    first, second = run_once("one"), run_once("two")
    assert first.status == second.status == "reached"
    assert first.best_seed.provenance == second.best_seed.provenance
    assert [s.data for s in first.candidates] == [s.data for s in second.candidates]


def test_optimize_progress_is_sound(catalog, ppm_graph, ppm_runner, ppm_command, tmp_path):
    # whenever the seed advances, the newly reached function sits strictly
    # closer to the target than the previous deviation function
    engine = engine_from_rules(catalog, CHAIN_FIX)
    target = ppm_graph.id_of("read_pixels")
    chain = callgraph.complete_chain(ppm_graph, target)
    dist = callgraph.distances_to(ppm_graph, target)
    seed = Seed(b"P2\n2 2\n255\n", ppm_command)
    first = ppm_runner(seed.data)
    dev, goal = callgraph.deviation(dist, chain, first.trace)
    outcome = optimize_along_chain(seed, chain, ppm_graph, ppm_runner, engine,
                                   budget=30.0, definition_source=ppm_definitions,
                                   sandbox=tmp_path / "sb")
    final = ppm_runner(outcome.best_seed.data)
    assert min(dist[f] for f in final.trace.reached if f in dist) < dist[dev]


def test_candidate_script_repair_gets_the_input_expectations(catalog, ppm_graph, ppm_runner,
                                                            tmp_path):
    fixed = f'import sys\nsys.stdout.buffer.write(bytes.fromhex("{P6_CANDIDATE_HEX}"))\n'
    engine = engine_from_rules(
        catalog,
        ("how should the input be modified",
         "KIND: script\nCANDIDATE_1:\n```\nraise RuntimeError('broken')\n```"),
        ("re:input-generator script below failed.*a binary PPM image",
         f"PAYLOAD:\n```\n{fixed}```"),
    )
    command = CommandLine("ppmcheck", ("@@",), "a binary PPM image")
    chain = callgraph.complete_chain(ppm_graph, ppm_graph.id_of("read_pixels"))
    outcome = optimize_along_chain(Seed(b"P2\n2 2\n255\n", command), chain, ppm_graph,
                                   ppm_runner, engine, budget=30.0,
                                   definition_source=ppm_definitions,
                                   sandbox=tmp_path / "sb")
    assert outcome.status == "reached"
    assert engine.client.accounting().total_requests == 2  # one step, one repair


def test_budget_must_be_positive(catalog, ppm_graph, ppm_command, ppm_runner, tmp_path):
    engine = engine_from_rules(catalog)
    chain = callgraph.complete_chain(ppm_graph, ppm_graph.id_of("read_pixels"))
    with pytest.raises(ValueError):
        optimize_along_chain(Seed(PPM_SEED, ppm_command), chain, ppm_graph, ppm_runner,
                             engine, budget=0.0, definition_source=ppm_definitions,
                             sandbox=tmp_path / "sb")


# --- functionality-based fallback ----------------------------------------------------

def gap_graph():
    """Call graph with the entry edge missing: the target is only reachable
    through its direct caller, as when an indirect call breaks the chain."""
    graph = make_graph(
        ["main", "parse_header", "parse_dims", "read_pixels", "reject_input"],
        [(1, 2), (2, 3), (0, 4), (1, 4), (2, 4)],
        source="ppmcheck.py",
    )
    return graph


def ppm_usage() -> ProgramUsage:
    return ProgramUsage("ppmcheck", [("input-file", "image to validate")], "")


def ppm_summaries(name: str) -> FunctionSummary:
    return FunctionSummary(name, f"{name} handles part of the PPM parse.", [], ["parses"])


NEIGHBOR_FIX = (
    "execute the caller function",
    f"KIND: literal\nENCODING: hex\nCANDIDATE_1:\n```\n{P6_CANDIDATE_HEX}\n```",
)


def test_functionality_fallback_hands_off_to_chain(catalog, ppm_command,
                                                   ppm_program_exec, tmp_path):
    graph = gap_graph()
    target = graph.id_of("read_pixels")
    assert callgraph.complete_chain(graph, target) is None
    from reachfuzz.campaign import Executor

    executor = Executor(graph.ids, tmp_path / "exec", ppm_command, 5.0, ppm_program_exec)
    runner = executor.run
    engine = engine_from_rules(catalog, NEIGHBOR_FIX)
    outcome = optimize_by_functionality(
        Seed(b"P2\n", ppm_command), graph, target, runner, engine, budget=30.0,
        rng=random.Random(5), usage=ppm_usage(), summary_source=ppm_summaries,
        definition_source=ppm_definitions, sandbox=tmp_path / "sb")
    assert outcome.status == "reached"
    assert outcome.best_seed.data.startswith(b"P6\n")


def test_functionality_fallback_hands_off_without_recomputing(catalog, ppm_command,
                                                               ppm_program_exec, tmp_path,
                                                               monkeypatch):
    # the probe and the chain suffix share one distance map, and the input
    # that reached the caller is not executed again after the handoff
    dist_calls = []
    distances_to = callgraph.distances_to

    def counting_distances_to(graph, dst):
        dist_calls.append(dst)
        return distances_to(graph, dst)

    monkeypatch.setattr(callgraph, "distances_to", counting_distances_to)
    graph = gap_graph()
    target = graph.id_of("read_pixels")
    from reachfuzz.campaign import Executor

    executor = Executor(graph.ids, tmp_path / "exec", ppm_command, 5.0, ppm_program_exec)
    executed = []

    def runner(data):
        executed.append(data)
        return executor.run(data)

    engine = engine_from_rules(catalog, NEIGHBOR_FIX)
    try:
        outcome = optimize_by_functionality(
            Seed(b"P2\n", ppm_command), graph, target, runner, engine, budget=30.0,
            rng=random.Random(5), usage=ppm_usage(), summary_source=ppm_summaries,
            definition_source=ppm_definitions, sandbox=tmp_path / "sb")
    finally:
        executor.close()
    assert outcome.status == "reached"
    assert [st["task"] for st in outcome.best_seed.provenance] == ["neighbor_probe"]
    assert engine.client.accounting().total_requests == 1
    assert dist_calls == [target]
    assert executed == [outcome.best_seed.data]


def test_functionality_fallback_isolated_target(catalog, ppm_command, tmp_path):
    graph = make_graph(["main", "read_pixels"], [])
    engine = engine_from_rules(catalog)
    outcome = optimize_by_functionality(
        Seed(b"x", ppm_command), graph, 1, lambda d: None, engine, budget=5.0,
        rng=random.Random(0), usage=ppm_usage(), summary_source=ppm_summaries,
        definition_source=ppm_definitions, sandbox=tmp_path / "sb")
    assert outcome.status == "isolated-target"


def test_functionality_fallback_partial_when_probes_fail(catalog, ppm_command,
                                                         ppm_program_exec, tmp_path):
    graph = gap_graph()
    target = graph.id_of("read_pixels")
    from reachfuzz.campaign import Executor

    executor = Executor(graph.ids, tmp_path / "exec", ppm_command, 5.0, ppm_program_exec)
    runner = executor.run
    engine = engine_from_rules(catalog, (
        "execute the caller function",
        "KIND: literal\nCANDIDATE_1:\n```\nnot even close\n```",
    ))
    outcome = optimize_by_functionality(
        Seed(b"P2\n", ppm_command), graph, target, runner, engine, budget=10.0,
        rng=random.Random(5), usage=ppm_usage(), summary_source=ppm_summaries,
        definition_source=ppm_definitions, sandbox=tmp_path / "sb")
    assert outcome.status == "partial"
    assert outcome.candidates


def test_functionality_fallback_skips_candidates_of_unknown_kind(catalog, ppm_command,
                                                                 tmp_path):
    executed = []
    engine = engine_from_rules(catalog, (
        "execute the caller function",
        f"KIND: hex\nCANDIDATE_1:\n```\n{P6_CANDIDATE_HEX}\n```",
    ))
    outcome = optimize_by_functionality(
        Seed(b"P2\n", ppm_command), gap_graph(), 3, executed.append, engine, budget=10.0,
        rng=random.Random(5), usage=ppm_usage(), summary_source=ppm_summaries,
        definition_source=ppm_definitions, sandbox=tmp_path / "sb")
    assert (outcome.status, outcome.candidates, executed) == ("partial", [], [])
    assert engine.client.accounting().total_requests == 1


def test_functionality_fallback_order_is_seeded(catalog, ppm_command, tmp_path):
    # two callers of the target; record the probe order via prompts
    graph = make_graph(["main", "alpha", "zeta", "target"],
                       [(1, 3), (2, 3)])
    prompts: list[str] = []

    class SpyClient:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request):
            prompts.append(request.prompt_text)
            return self.inner.complete(request)

        def accounting(self):
            return self.inner.accounting()

    from conftest import client_from_rules
    from reachfuzz.query_engine import Engine

    def run_once(seed: int) -> list[str]:
        prompts.clear()
        client = SpyClient(client_from_rules((
            "execute the caller function",
            "KIND: literal\nCANDIDATE_1:\n```\nnope\n```",
        )))
        engine = Engine(catalog, client)
        optimize_by_functionality(
            Seed(b"x", ppm_command), graph, 3, lambda d: _clean_result(), engine,
            budget=10.0, rng=random.Random(seed), usage=ppm_usage(),
            summary_source=ppm_summaries, definition_source=ppm_definitions,
            sandbox=tmp_path / "sb")
        return [("alpha" if "-- neighbor_name --\nalpha" in p else "zeta")
                for p in prompts]

    def _clean_result():
        from reachfuzz.callgraph import TraceObservation
        from reachfuzz.campaign import ExecResult

        return ExecResult("clean", TraceObservation([0]))

    assert run_once(1) == run_once(1)
    orders = {tuple(run_once(s)) for s in range(6)}
    assert len(orders) > 1  # different seeds really do shuffle the order


def test_write_outcome_files(tmp_path, ppm_command):
    seed_a = Seed(b"aaaa", ppm_command, ({"task": "keep", "level": 1, "accepted": True},))
    seed_b = Seed(b"bb", ppm_command, ({"task": "keep", "level": 0, "accepted": True},))
    outcome = seedgen.OptimizationOutcome("timeout", seed_a, [seed_b, seed_a])
    paths = write_outcome(outcome, tmp_path / "seeds")
    assert [p.name for p in paths] == ["seed-0-0.bin", "seed-1-1.bin"]
    assert (tmp_path / "seeds" / "provenance.jsonl").exists()
    assert (tmp_path / "seeds" / "seed-0-0.bin").read_bytes() == b"bb"
