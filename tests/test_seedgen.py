from __future__ import annotations

import random

import pytest

from conftest import PPM_SEED, engine_from_rules, make_graph
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
    with pytest.raises(TaskError, match="invalid commands"):
        select_command(readelf_bug(), readelf_usage(), frame_summary(), engine,
                       max_retries=2)
    assert engine.client.accounting().total_requests == 3


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
        materialize(spec, tmp_path / "sb", engine, max_repairs=2)
    assert engine.client.accounting().total_requests == 2


def test_materialize_script_without_engine(tmp_path):
    spec = GeneratorSpec("script", "import sys; sys.exit(3)\n")
    with pytest.raises(MaterializeError):
        materialize(spec, tmp_path / "sb")


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
        executor = Executor(ppm_graph, tmp_path / tag, 5.0, ppm_program_exec)
        engine = engine_from_rules(catalog, CHAIN_FIX)
        chain = callgraph.complete_chain(ppm_graph, ppm_graph.id_of("read_pixels"))
        return optimize_along_chain(
            Seed(b"P2\n2 2\n255\n", ppm_command), chain, ppm_graph,
            lambda data: executor.run(ppm_command, data), engine, budget=30.0,
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
    dev, goal = callgraph.deviation(ppm_graph, chain, first.trace)
    outcome = optimize_along_chain(seed, chain, ppm_graph, ppm_runner, engine,
                                   budget=30.0, definition_source=ppm_definitions,
                                   sandbox=tmp_path / "sb")
    final = ppm_runner(outcome.best_seed.data)
    assert min(dist[f] for f in final.trace.reached if f in dist) < dist[dev]


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

    executor = Executor(graph, tmp_path / "exec", 5.0, ppm_program_exec)
    runner = lambda data: executor.run(ppm_command, data)  # noqa: E731
    engine = engine_from_rules(catalog, NEIGHBOR_FIX)
    outcome = optimize_by_functionality(
        Seed(b"P2\n", ppm_command), graph, target, runner, engine, budget=30.0,
        rng=random.Random(5), usage=ppm_usage(), summary_source=ppm_summaries,
        definition_source=ppm_definitions, sandbox=tmp_path / "sb")
    assert outcome.status == "reached"
    assert outcome.best_seed.data.startswith(b"P6\n")


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

    executor = Executor(graph, tmp_path / "exec", 5.0, ppm_program_exec)
    runner = lambda data: executor.run(ppm_command, data)  # noqa: E731
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


def test_functionality_fallback_order_is_seeded(catalog, ppm_command, tmp_path):
    # two callers of the target; record the probe order via prompts
    graph = make_graph(["main", "alpha", "zeta", "target"],
                       [(1, 3), (2, 3)])
    prompts: list[str] = []

    class SpyClient:
        def __init__(self, inner):
            self.inner = inner

        def complete(self, request, stage="other"):
            prompts.append(request.prompt_text)
            return self.inner.complete(request, stage)

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

        return ExecResult("clean", TraceObservation([0]), 0.0)

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
