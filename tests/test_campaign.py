from __future__ import annotations

import json
import logging
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import PPM_CRASH, PPM_SEED, make_graph
from reachfuzz import campaign, mutator
from reachfuzz.campaign import (
    CampaignConfig,
    CampaignStats,
    CrashRecord,
    Executor,
    StageTiming,
    load_stage_timings,
    load_stats,
    random_mutate,
    render_report,
    save_stage_timings,
    save_stats,
)
from reachfuzz.seedgen import CommandLine, Seed
from reachfuzz.toys import toy_path

GOLDEN = Path(__file__).parent / "golden"


def test_command_line_placeholder_rules():
    CommandLine("prog", ("@@",))
    with pytest.raises(ValueError):
        CommandLine("prog", ("input",))
    with pytest.raises(ValueError):
        CommandLine("prog", ("@@", "@@"))
    with pytest.raises(ValueError):
        CommandLine("", ("@@",))


# --- executor -------------------------------------------------------------------

def test_execute_clean_run_traces_chain(ppm_executor, ppm_command, ppm_graph):
    result = ppm_executor.run(ppm_command, PPM_SEED)
    assert result.exit_kind == "clean"
    names = [ppm_graph.name_of(f) for f in result.trace.reached]
    assert names == ["main", "parse_header", "parse_dims", "read_pixels"]


def test_execute_overflow_crashes_at_target(ppm_executor, ppm_command, ppm_graph):
    result = ppm_executor.run(ppm_command, PPM_CRASH)
    assert result.exit_kind == "crash"
    assert result.crash_class == "SIGSEGV"
    assert result.trace.contains(ppm_graph.id_of("read_pixels"))


def test_execute_reject_path(ppm_executor, ppm_command, ppm_graph):
    result = ppm_executor.run(ppm_command, b"BM not a ppm")
    assert result.exit_kind == "clean"  # diagnostic exit, not a crash
    names = [ppm_graph.name_of(f) for f in result.trace.reached]
    assert names == ["main", "parse_header", "reject_input"]
    assert "not a raw PPM" in result.stderr_excerpt


def test_execute_timeout(tmp_path, ppm_program_exec):
    import sys

    from reachfuzz.toys import toy_path

    graph = make_graph(["main"], [])
    executor = Executor(graph, tmp_path, exec_timeout=0.2,
                        program_exec=[sys.executable, str(toy_path("sleeper"))])
    result = executor.run(CommandLine("sleeper", ("@@",)), b"anything")
    assert result.exit_kind == "timeout"


def test_execute_missing_program(tmp_path):
    graph = make_graph(["main"], [])
    executor = Executor(graph, tmp_path, exec_timeout=1.0)
    with pytest.raises(Exception, match="spawn"):
        executor.run(CommandLine("no-such-binary-xyz", ("@@",)), b"x")


def test_execute_missing_trace_file_yields_empty_trace(tmp_path, caplog):
    import logging

    # `true` ignores the trace protocol entirely, so no trace file appears
    graph = make_graph(["main"], [])
    executor = Executor(graph, tmp_path, exec_timeout=2.0, program_exec=["true"])
    with caplog.at_level(logging.WARNING, logger="reachfuzz.campaign"):
        result = executor.run(CommandLine("quiet", ("@@",)), b"x")
    assert result.exit_kind == "clean"
    assert result.trace.reached == []
    assert any("trace file missing" in r.message for r in caplog.records)


def test_execute_missing_trace_warns_once_and_counts(tmp_path, caplog):
    graph = make_graph(["main"], [])
    executor = Executor(graph, tmp_path, exec_timeout=2.0, program_exec=["true"])
    with caplog.at_level(logging.WARNING, logger="reachfuzz.campaign"):
        for _ in range(3):
            executor.run(CommandLine("quiet", ("@@",)), b"x")
    assert executor.missing_traces == 3
    assert sum("trace file missing" in r.message for r in caplog.records) == 1


# --- fork server ------------------------------------------------------------------

@pytest.fixture(params=["fork-server", "spawn"])
def backend_executor(request, ppm_graph, ppm_program_exec, tmp_path):
    executor = Executor(ppm_graph, tmp_path / "exec", exec_timeout=5.0,
                        program_exec=ppm_program_exec,
                        fork_server=request.param == "fork-server")
    yield executor
    executor.close()


def process_gone(pid: int) -> bool:
    return not Path(f"/proc/{pid}").exists()


def children_of(pid: int) -> list[int]:
    children = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            ppid = int(stat.read_text().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we looked
        if ppid == pid:
            children.append(int(stat.parent.name))
    return children


def test_fork_server_matches_spawn_on_mutants(ppm_graph, ppm_command, ppm_program_exec,
                                              tmp_path, started_servers):
    rng = random.Random(2024)
    inputs = [PPM_SEED, PPM_CRASH]
    for base in (PPM_SEED, PPM_CRASH):
        for _ in range(20):
            data = base
            for _ in range(rng.randint(1, 4)):
                data = random_mutate(data, rng) or base
            inputs.append(data)
    forked = Executor(ppm_graph, tmp_path / "fork", 5.0, ppm_program_exec)
    spawned = Executor(ppm_graph, tmp_path / "spawn", 5.0, ppm_program_exec,
                       fork_server=False)
    kinds = set()
    try:
        for data in inputs:
            got, want = forked.run(ppm_command, data), spawned.run(ppm_command, data)
            assert (got.exit_kind, got.crash_class, got.trace.reached, got.stderr_excerpt) \
                == (want.exit_kind, want.crash_class, want.trace.reached,
                    want.stderr_excerpt), f"input {data!r}"
            kinds.add((want.exit_kind, bool(want.stderr_excerpt)))
    finally:
        forked.close()
        spawned.close()
    assert len(started_servers) == 1 and started_servers[0] is not None
    assert {("crash", False), ("clean", True), ("clean", False)} <= kinds


STATUS_SCRIPT = """\
import os, sys

def main():
    mode = open(sys.argv[1]).read()
    print("stdout is discarded")
    if mode == "code":
        sys.exit(3)
    if mode == "wide":
        sys.exit(2 ** 40 + 7)
    if mode == "message":
        sys.exit("bad input")
    if mode == "raise":
        raise ValueError("boom")
    if mode == "abort":
        os.kill(os.getpid(), 6)
    sys.stderr.write("no newline")


if __name__ == "__main__":
    main()
"""


def test_fork_server_exit_status_matches_interpreter(tmp_path):
    script = tmp_path / "status.py"
    script.write_text(STATUS_SCRIPT)
    input_path = tmp_path / "input.bin"
    argv = (sys.executable, str(script), str(input_path))
    server = campaign.ForkServer.start(argv, dict(os.environ), tmp_path / "stderr.log")
    assert server is not None
    try:
        for mode in (b"code", b"wide", b"message", b"raise", b"abort", b"return"):
            input_path.write_bytes(mode)
            returncode, stderr = server.run(5.0)
            spawned = subprocess.run(argv, capture_output=True, timeout=30)
            assert returncode == spawned.returncode, mode
            if mode == b"raise":  # the fork server's traceback starts at main()
                assert stderr.startswith(b"Traceback (most recent call last):")
                assert stderr.endswith(b"ValueError: boom\n")
                assert spawned.stderr.endswith(b"ValueError: boom\n")
            else:
                assert stderr == spawned.stderr, mode
    finally:
        server.close()


def test_fork_server_timeout_kills_child_and_serves_on(ppm_graph, tmp_path, started_servers):
    # no program_exec: each command names its interpreter and script itself
    sleeper = CommandLine(sys.executable, (str(toy_path("sleeper")), "@@"))
    ppm_command = CommandLine(sys.executable, (str(toy_path("ppmcheck")), "@@"))
    executor = Executor(ppm_graph, tmp_path, exec_timeout=5.0)
    try:
        for _ in range(2):
            start = time.monotonic()
            result = executor.run(sleeper, b"anything", exec_timeout=0.5)
            assert result.exit_kind == "timeout"
            assert time.monotonic() - start < 5.0  # the 60 s sleep was cut short
            helper = started_servers[0]
            assert helper is not None and helper.proc.poll() is None
            assert children_of(helper.proc.pid) == []  # killed and reaped
        result = executor.run(ppm_command, PPM_CRASH)
        assert (result.exit_kind, result.crash_class) == ("crash", "SIGSEGV")
        assert [ppm_graph.name_of(f) for f in result.trace.reached] == [
            "main", "parse_header", "parse_dims", "read_pixels"]
        assert len(started_servers) == 2  # the sleeper's helper was not restarted
    finally:
        executor.close()


def test_script_without_main_falls_back_to_spawn(tmp_path, caplog, started_servers):
    script = tmp_path / "nomain.py"
    script.write_text(
        "import os, sys\n"
        "open(os.environ['RF_TRACE_FILE'], 'a').write('main\\n')\n"
        "sys.stderr.write('read ' + open(sys.argv[1]).read() + '\\n')\n"
        "sys.exit(3)\n")
    graph = make_graph(["main"], [])
    executor = Executor(graph, tmp_path / "exec", 5.0, [sys.executable, str(script)])
    with caplog.at_level(logging.WARNING, logger="reachfuzz.campaign"):
        results = [executor.run(CommandLine("nomain", ("@@",)), data)
                   for data in (b"one", b"two")]
    executor.close()
    assert started_servers == [None]  # tried once, then every input spawned
    assert "cannot preload" in caplog.text
    for result, text in zip(results, ("one", "two")):
        assert result.exit_kind == "clean"
        assert result.trace.reached == [0]  # nothing left over from the failed preload
        assert result.stderr_excerpt == f"read {text}\n"


def test_close_and_campaign_end_stop_fork_servers(
        tmp_path, ppm_graph, ppm_command, ppm_program_exec, started_servers):
    executor = Executor(ppm_graph, tmp_path / "exec", 5.0, ppm_program_exec)
    assert executor.run(ppm_command, PPM_SEED).exit_kind == "clean"
    config = ppm_campaign_config(ppm_command, duration_limit=0.5, stop_on_first=False)
    stats = campaign.run(config, None, ppm_graph, tmp_path / "c", ppm_program_exec)
    assert stats.total_execs > 0
    own, campaigns = started_servers
    assert own is not None and campaigns is not None
    assert process_gone(campaigns.proc.pid)
    assert not process_gone(own.proc.pid)
    executor.close()
    assert process_gone(own.proc.pid)


def predicted_trace(data: bytes) -> tuple[list[str], str]:
    """Reference model of the toy validator's control flow."""
    names = ["main", "parse_header"]
    if data[:3] != b"P6\n":
        return names + ["reject_input"], "clean"
    names.append("parse_dims")
    lines = data[3:].split(b"\n", 2)
    if len(lines) < 3:
        return names + ["reject_input"], "clean"
    fields = lines[0].split()
    if len(fields) != 2 or not all(f.isdigit() for f in fields):
        return names + ["reject_input"], "clean"
    if not lines[1].strip().isdigit():
        return names + ["reject_input"], "clean"
    if int(lines[1]) > 255:
        return names + ["reject_input"], "clean"
    names.append("read_pixels")
    width, height = int(fields[0]), int(fields[1])
    if width * height * 3 > len(lines[2]):
        return names, "crash"
    return names, "clean"


def test_trace_fidelity_over_input_enumeration(backend_executor, ppm_command, ppm_graph,
                                               started_servers):
    ppm_executor = backend_executor
    # every combination of magic, dimension line, maxval line, and body length
    magics = [b"P6\n", b"P2\n", b"", b"P6 "]
    dim_lines = [b"2 2\n", b"0 1\n", b"2\n", b"a b\n", b""]
    maxval_lines = [b"255\n", b"256\n", b"x\n"]
    bodies = [b"", b"\x00" * 12, b"\x00" * 5]
    for magic in magics:
        for dims in dim_lines:
            for maxval in maxval_lines:
                for body in bodies:
                    data = magic + dims + maxval + body
                    if not data:
                        continue
                    expected_names, expected_kind = predicted_trace(data)
                    result = ppm_executor.run(ppm_command, data)
                    got = [ppm_graph.name_of(f) for f in result.trace.reached]
                    assert got == expected_names, f"input {data!r}"
                    assert result.exit_kind == expected_kind, f"input {data!r}"
    if backend_executor.fork_server:  # one preloaded helper served every input
        assert len(started_servers) == 1 and started_servers[0] is not None
    else:
        assert not started_servers


# --- random mutation ----------------------------------------------------------------

def test_random_mutate_deterministic():
    data = bytes(range(50))
    assert random_mutate(data, random.Random(9)) == random_mutate(data, random.Random(9))
    assert random_mutate(data, random.Random(9)) != random_mutate(data, random.Random(10))


def test_random_mutate_one_byte_delete_allows_empty():
    outcomes = {random_mutate(b"x", random.Random(seed)) for seed in range(200)}
    assert b"" in outcomes  # the delete op on a 1-byte input


def test_random_mutate_requires_input():
    with pytest.raises(ValueError):
        random_mutate(b"", random.Random(0))


def test_random_mutate_length_bounds_sweep():
    rng = random.Random(4)
    data = bytes(100)
    for _ in range(10_000):
        out = random_mutate(data, rng)
        assert 99 <= len(out) <= 100 + campaign.RANDOM_DUP_MAX


# --- campaign loop --------------------------------------------------------------------

CRASH_PROGRAM = "Overwrite(3, 39)\nDeleteRange(end-4, 4)"


def ppm_campaign_config(ppm_command, seeds=None, **overrides) -> CampaignConfig:
    defaults = dict(
        command=ppm_command,
        seeds=seeds or [Seed(PPM_SEED, ppm_command)],
        target_function=3,
        duration_limit=30.0,
        exec_timeout=5.0,
        rng_seed=7,
        mix_ratio=0.8,
        refresh_period=3600.0,
        stop_on_first=True,
        workers=1,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


def test_config_validation(ppm_command):
    with pytest.raises(ValueError):
        ppm_campaign_config(ppm_command, seeds=[Seed(b"", ppm_command)])
    with pytest.raises(ValueError):
        ppm_campaign_config(ppm_command, mix_ratio=1.5)
    with pytest.raises(ValueError):
        ppm_campaign_config(ppm_command, workers=0)
    with pytest.raises(ValueError):
        ppm_campaign_config(ppm_command, refresh_period=0.0)


def test_run_finds_target_crash(tmp_path, ppm_graph, ppm_command, ppm_program_exec):
    config = ppm_campaign_config(ppm_command)
    program = mutator.parse_program(CRASH_PROGRAM)
    stats = campaign.run(config, program, ppm_graph, tmp_path / "c", ppm_program_exec)
    assert stats.found_target_crash
    assert stats.time_to_first_target_crash is not None
    assert stats.execs_reaching_target >= 1
    assert not stats.random_only
    crash_files = list((tmp_path / "c" / "crashes").glob("*.bin"))
    assert crash_files
    assert (tmp_path / "c" / "events.log").exists()


def test_run_random_only_flagged(tmp_path, ppm_graph, ppm_command, ppm_program_exec):
    config = ppm_campaign_config(ppm_command, duration_limit=0.5)
    stats = campaign.run(config, None, ppm_graph, tmp_path / "c", ppm_program_exec)
    assert stats.random_only
    assert stats.total_execs > 0


def test_run_zero_duration(tmp_path, ppm_graph, ppm_command, ppm_program_exec):
    config = ppm_campaign_config(ppm_command, duration_limit=0.0)
    stats = campaign.run(config, None, ppm_graph, tmp_path / "c", ppm_program_exec)
    assert stats.total_execs == 0
    assert stats.time_to_first_target_crash is None
    assert not stats.crashes


def test_run_corpus_grows_monotonically(tmp_path, ppm_graph, ppm_command, ppm_program_exec):
    config = ppm_campaign_config(ppm_command, duration_limit=1.5, stop_on_first=False)
    program = mutator.parse_program(CRASH_PROGRAM)
    workdir = tmp_path / "c"
    campaign.run(config, program, ppm_graph, workdir, ppm_program_exec)
    covered: set[int] = set()
    for line in (workdir / "events.log").read_text().splitlines():
        event = json.loads(line)
        if event["event"] == "admit":
            assert not set(event["new"]) & covered  # only genuinely new functions admit
            covered |= set(event["new"])
    assert covered  # the corpus covered something


def test_run_stop_on_first_records_nothing_after_crash(
        tmp_path, ppm_graph, ppm_command, ppm_program_exec):
    config = ppm_campaign_config(ppm_command)
    program = mutator.parse_program(CRASH_PROGRAM)
    workdir = tmp_path / "c"
    stats = campaign.run(config, program, ppm_graph, workdir, ppm_program_exec)
    events = [json.loads(line) for line in (workdir / "events.log").read_text().splitlines()]
    crash_execs = [e["exec"] for e in events if e["event"] == "crash" and e["reached_target"]]
    assert crash_execs
    assert stats.total_execs == crash_execs[0]  # nothing recorded past the stop


def test_run_records_each_crash_input_once(tmp_path, ppm_graph, ppm_command,
                                          ppm_program_exec):
    # the program has no random operands, so it yields the same few crash inputs
    config = ppm_campaign_config(ppm_command, duration_limit=1.0, stop_on_first=False,
                                 mix_ratio=1.0)
    program = mutator.parse_program(CRASH_PROGRAM)
    workdir = tmp_path / "c"
    stats = campaign.run(config, program, ppm_graph, workdir, ppm_program_exec)
    hashes = [c.input_hash for c in stats.crashes]
    assert len(hashes) == len(set(hashes))
    events = [json.loads(line) for line in (workdir / "events.log").read_text().splitlines()]
    assert sorted(e["sha"] for e in events if e["event"] == "crash") == sorted(hashes)
    assert sorted(p.stem for p in (workdir / "crashes").glob("*.bin")) == sorted(hashes)
    assert sum(c.count for c in stats.crashes) == stats.total_execs  # every exec crashed
    assert max(c.count for c in stats.crashes) > 1


def test_run_reproducible_events_and_stats(tmp_path, ppm_graph, ppm_command, ppm_program_exec):
    program = mutator.parse_program(CRASH_PROGRAM)
    runs = []
    for name in ("one", "two"):
        config = ppm_campaign_config(ppm_command, rng_seed=1234)
        stats = campaign.run(config, program, ppm_graph,
                             tmp_path / name, ppm_program_exec)
        runs.append((stats, (tmp_path / name / "events.log").read_bytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_run_refresh_events_counted(tmp_path, ppm_graph, ppm_command, ppm_program_exec):
    config = ppm_campaign_config(ppm_command, duration_limit=2.0, refresh_period=0.5,
                                 stop_on_first=False)
    program = mutator.parse_program(CRASH_PROGRAM)
    stats = campaign.run(config, program, ppm_graph, tmp_path / "c", ppm_program_exec)
    assert 3 <= stats.refresh_events <= 5  # floor(2.0 / 0.5) give or take one


def test_run_persists_refreshed_program_with_trial(tmp_path, ppm_graph, ppm_command,
                                                   ppm_program_exec):
    from reachfuzz.mutator import MutatorBuild, TrialReport

    program = mutator.parse_program(CRASH_PROGRAM)

    def rebuild(prior, runner):
        report = TrialReport(execs_per_sec=50.0, harness_crashes=0,
                             verdict="accepted", execs=25)
        return MutatorBuild(program, report, list(prior), 0)

    config = ppm_campaign_config(ppm_command, duration_limit=1.0, refresh_period=0.3,
                                 stop_on_first=False)
    workdir = tmp_path / "c"
    stats = campaign.run(config, program, ppm_graph, workdir, ppm_program_exec,
                         rebuild=rebuild)
    assert stats.refresh_events >= 1
    assert (workdir / "mutators" / "active-1.mut").exists()
    trial = json.loads((workdir / "mutators" / "active-1.trial.json").read_text())
    assert trial["verdict"] == "accepted"


def test_run_multi_worker_smoke(tmp_path, ppm_graph, ppm_command, ppm_program_exec):
    config = ppm_campaign_config(ppm_command, workers=2)
    program = mutator.parse_program(CRASH_PROGRAM)
    stats = campaign.run(config, program, ppm_graph, tmp_path / "c", ppm_program_exec)
    assert stats.found_target_crash


def read_events(workdir: Path) -> list[dict]:
    return [json.loads(line) for line in (workdir / "events.log").read_text().splitlines()]


def test_llm_rebuild_swaps_in_program_and_strategies(catalog, tmp_path, ppm_graph,
                                                     ppm_command, ppm_program_exec):
    from conftest import engine_from_rules
    from reachfuzz.mutator import BugAnalysis, MutationStrategy

    engine = engine_from_rules(
        catalog,
        ("Generate fuzzing mutation strategies",
         "STRATEGIES:\n- fresh idea :: different angle"),
        ("Translate the mutation strategies",
         "PROGRAM:\n```\nOverwrite(3, 39)\n```"),
    )
    priors = []

    def rebuild(prior, runner):
        priors.append([s.description for s in prior])
        return mutator.build_mutator(BugAnalysis("overread", ["oversized header"], []),
                                     engine, PPM_SEED, runner, prior=prior,
                                     trial_duration=0.2)

    config = ppm_campaign_config(ppm_command, duration_limit=2.0, refresh_period=0.5,
                                 stop_on_first=False)
    workdir = tmp_path / "c"
    stats = campaign.run(config, mutator.parse_program(CRASH_PROGRAM), ppm_graph, workdir,
                         ppm_program_exec, [MutationStrategy("old idea", "")], rebuild)
    assert len(priors) == stats.refresh_events >= 2
    assert priors[0] == ["old idea"]
    assert all(prior == ["fresh idea"] for prior in priors[1:])
    assert (workdir / "mutators" / "active-1.mut").read_text() == "Overwrite(3, 39)\n"
    trial = json.loads((workdir / "mutators" / "active-1.trial.json").read_text())
    assert trial["verdict"] == "accepted" and trial["execs"] > 0
    refreshes = [e for e in read_events(workdir) if e["event"] == "refresh"]
    assert refreshes == [{"event": "refresh", "n": n, "swapped": True}
                         for n in range(1, len(priors) + 1)]


def test_llm_rebuild_failure_keeps_program(catalog, tmp_path, ppm_graph, ppm_command,
                                           ppm_program_exec):
    from conftest import engine_from_rules
    from reachfuzz.mutator import BugAnalysis, MutationStrategy

    # synthesis never parses, so every rebuild gives up and the program stays
    engine = engine_from_rules(
        catalog,
        ("Generate fuzzing mutation strategies", "STRATEGIES:\n- idea :: r"),
        ("Translate the mutation strategies", "PROGRAM:\n```\nNope(1)\n```"),
        ("rejected by the mutation-language parser", "PROGRAM:\n```\nNope(2)\n```"),
    )

    def rebuild(prior, runner):
        return mutator.build_mutator(BugAnalysis("overread", ["oversized"], []), engine,
                                     PPM_SEED, runner, prior=prior, trial_duration=0.2)

    config = ppm_campaign_config(ppm_command, duration_limit=1.0, refresh_period=0.3,
                                 stop_on_first=False, mix_ratio=1.0)
    workdir = tmp_path / "c"
    stats = campaign.run(config, mutator.parse_program(CRASH_PROGRAM), ppm_graph, workdir,
                         ppm_program_exec, [MutationStrategy("old", "")], rebuild)
    assert stats.refresh_events >= 1
    refreshes = [e for e in read_events(workdir) if e["event"] == "refresh"]
    assert refreshes == [{"event": "refresh", "n": n, "swapped": False}
                         for n in range(1, stats.refresh_events + 1)]
    assert [p.name for p in (workdir / "mutators").iterdir()] == ["active-0.mut"]
    assert sum(c.count for c in stats.crashes) == stats.total_execs  # still the program


def counting_executor_run(monkeypatch, on_call):
    """Patch Executor.run to call ``on_call(n)`` with its call number first."""
    lock = threading.Lock()
    calls = [0]
    original = Executor.run

    def run(self, *args, **kwargs):
        with lock:
            calls[0] += 1
            n = calls[0]
        on_call(n)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Executor, "run", run)
    return calls


def test_refresh_runs_while_other_workers_fuzz(tmp_path, ppm_graph, ppm_command,
                                               ppm_program_exec, monkeypatch):
    others_ran = threading.Event()
    refresher = {}

    def on_call(n):
        if refresher and threading.get_ident() != refresher["ident"]:
            refresher["others"] += 1
            if refresher["others"] >= 20:
                others_ran.set()

    counting_executor_run(monkeypatch, on_call)
    program = mutator.parse_program(CRASH_PROGRAM)
    waited = []

    def rebuild(prior, runner):
        if not refresher:
            refresher.update(ident=threading.get_ident(), others=0)
            waited.append(others_ran.wait(timeout=5.0))
        return mutator.MutatorBuild(program, None, list(prior), 0)

    config = ppm_campaign_config(ppm_command, duration_limit=1.5, refresh_period=0.2,
                                 stop_on_first=False, workers=2)
    stats = campaign.run(config, program, ppm_graph, tmp_path / "c", ppm_program_exec,
                         rebuild=rebuild)
    assert waited == [True], "the other worker ran fewer than 20 execs during a refresh"
    assert stats.refresh_events >= 1


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_error_stops_campaign_and_is_raised(workers, tmp_path, ppm_graph,
                                                   ppm_command, ppm_program_exec,
                                                   monkeypatch):
    def on_call(n):
        if n == 5:
            raise OSError("injected on the 5th exec")

    calls = counting_executor_run(monkeypatch, on_call)
    config = ppm_campaign_config(ppm_command, duration_limit=10.0, stop_on_first=False,
                                 workers=workers)
    start = time.monotonic()
    with pytest.raises(OSError, match="5th exec"):
        campaign.run(config, mutator.parse_program(CRASH_PROGRAM), ppm_graph,
                     tmp_path / "c", ppm_program_exec)
    assert time.monotonic() - start < 5.0
    assert calls[0] <= 5 + (workers - 1)  # each other worker ends its exec in flight


def test_shared_state_survives_many_workers_and_refreshes(tmp_path, ppm_graph, ppm_command,
                                                          ppm_program_exec, monkeypatch):
    calls = counting_executor_run(monkeypatch, lambda n: None)
    config = ppm_campaign_config(ppm_command, duration_limit=1.5, refresh_period=0.05,
                                 stop_on_first=False, workers=4)
    workdir = tmp_path / "c"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        stats = campaign.run(config, mutator.parse_program(CRASH_PROGRAM), ppm_graph,
                             workdir, ppm_program_exec)
    finally:
        sys.setswitchinterval(interval)
    assert stats.total_execs == calls[0] > 0  # every exec recorded once
    events = read_events(workdir)
    refreshes = [e["n"] for e in events if e["event"] == "refresh"]
    assert refreshes == list(range(1, stats.refresh_events + 1))
    assert all((workdir / "mutators" / f"active-{n}.mut").exists() for n in refreshes)
    admits = [e["exec"] for e in events if e["event"] == "admit"]
    assert admits == sorted(set(admits))
    assert len(list((workdir / "corpus").glob("id-*.bin"))) == len(admits)


# --- reporting ------------------------------------------------------------------------

TABLE_TIMINGS = [StageTiming("SA", 24), StageTiming("RAG", 95),
                 StageTiming("Opt", 693), StageTiming("Mutator", 145)]


def test_report_total_arithmetic():
    text = render_report(TABLE_TIMINGS)
    assert "Total:   957s" in text
    lines = text.splitlines()
    assert lines[1].startswith("SA:") and lines[2].startswith("RAG:")
    assert lines[3].startswith("Opt:") and lines[4].startswith("Mutator:")


def test_report_matches_golden_full():
    stats = CampaignStats(total_execs=1234, execs_reaching_target=56,
                          crashes=[CrashRecord("ab12", "SIGSEGV", True)],
                          refresh_events=3, clamp_events=7,
                          time_to_first_target_crash=42.6)
    assert render_report(TABLE_TIMINGS, stats) == (GOLDEN / "report_full.txt").read_text()


def test_report_timeout_matches_golden():
    timings = [StageTiming("SA", 47), StageTiming("RAG", 285),
               StageTiming("Opt", 3600, timed_out=True), StageTiming("Mutator", 101)]
    text = render_report(timings, CampaignStats(total_execs=9))
    assert text == (GOLDEN / "report_timeout.txt").read_text()
    assert "Opt:     T.O." in text
    assert "Total:   T.O." in text
    assert "time to bug:            T.O." in text


def test_report_zero_exec_stats():
    text = render_report(TABLE_TIMINGS, CampaignStats())
    assert "total execs:            0" in text


def test_report_partial_stages_only():
    text = render_report([StageTiming("SA", 10), StageTiming("RAG", 20)])
    assert "Opt:" not in text
    assert "Total:   30s" in text


def test_stats_round_trip(tmp_path):
    stats = CampaignStats(total_execs=5, execs_reaching_target=2,
                          crashes=[CrashRecord("ff", "SIGSEGV", True)],
                          refresh_events=1, clamp_events=4,
                          time_to_first_target_crash=1.25)
    save_stats(stats, tmp_path / "stats.json")
    assert load_stats(tmp_path / "stats.json") == stats


def test_load_stats_without_crash_counts(tmp_path):
    save_stats(CampaignStats(total_execs=2, crashes=[CrashRecord("ff", "SIGSEGV", True, 2)]),
               tmp_path / "stats.json")
    payload = json.loads((tmp_path / "stats.json").read_text())
    del payload["crashes"][0]["count"]  # written before crash inputs were counted
    (tmp_path / "stats.json").write_text(json.dumps(payload))
    assert load_stats(tmp_path / "stats.json").crashes == [CrashRecord("ff", "SIGSEGV", True)]


def test_stage_timings_round_trip(tmp_path):
    save_stage_timings(TABLE_TIMINGS, tmp_path / "t.json")
    assert load_stage_timings(tmp_path / "t.json") == TABLE_TIMINGS


def test_stats_equality_ignores_measured_time():
    lhs = CampaignStats(total_execs=3, time_to_first_target_crash=1.0, wall_time=9.0)
    rhs = CampaignStats(total_execs=3, time_to_first_target_crash=2.0, wall_time=8.0)
    assert lhs == rhs
    assert lhs != CampaignStats(total_execs=4)
