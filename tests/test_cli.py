from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reachfuzz
from conftest import dedent
from reachfuzz import callgraph, cli, demo, llm_client
from reachfuzz.campaign import load_stats
from reachfuzz.cli import (
    EXIT_ISOLATED_TARGET,
    EXIT_OK,
    EXIT_STAGE_FAILURE,
    EXIT_TIMEOUT_NO_BUG,
    load_config,
    parse_duration,
)


def test_parse_duration():
    assert parse_duration("30s") == 30.0
    assert parse_duration("500ms") == 0.5
    assert parse_duration("10m") == 600.0
    assert parse_duration("1h") == 3600.0
    assert parse_duration("2.5") == 2.5
    with pytest.raises(ValueError):
        parse_duration("soon")


def test_load_config_resolves_and_validates(demo_config):
    config = load_config(demo_config)
    assert config.corpus_root.is_dir()
    assert config.graph_file.name == "callgraph.txt"
    assert config.opt_budget == 120.0
    assert config.trial_duration == 1.5
    assert config.mix_ratio == 0.8


def test_load_config_missing_key(tmp_path):
    path = tmp_path / "p.conf"
    path.write_text("corpus_root = .\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing required key"):
        load_config(path)


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "p.conf"
    path.write_text(dedent("""
        corpus_root = .
        graph_file = p.conf
        bug_report_file = p.conf
        work_dir = work
        mystery = 1
    """), encoding="utf-8")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)


def test_load_config_missing_path(tmp_path):
    path = tmp_path / "p.conf"
    path.write_text(dedent("""
        corpus_root = nowhere
        graph_file = p.conf
        bug_report_file = p.conf
        work_dir = work
    """), encoding="utf-8")
    with pytest.raises(ValueError, match="does not exist"):
        load_config(path)


def test_prepare_fuzz_report_round_trip(demo_config, capsys):
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_OK
    work = demo_config.parent / "work"
    bundle = json.loads((work / "prepare" / "bundle.json").read_text())
    assert bundle["status"] == "reached"
    assert bundle["mutator_accepted"] is True
    assert bundle["command"] == "ppmcheck @@"
    assert (work / "prepare" / "mutator" / "program.mut").exists()
    assert list((work / "prepare" / "seeds").glob("seed-*.bin"))

    # a second prepare refuses to clobber the bundle without --force
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_STAGE_FAILURE
    assert cli.main(["prepare", "--config", str(demo_config), "--force"]) == EXIT_OK

    assert cli.main(["fuzz", "--config", str(demo_config), "--duration", "30s"]) == EXIT_OK
    stats = json.loads((work / "fuzz" / "stats.json").read_text())
    assert stats["time_to_first_target_crash"] is not None
    assert (work / "fuzz" / "report.txt").exists()

    capsys.readouterr()
    assert cli.main(["report", "--dir", str(work)]) == EXIT_OK
    out = capsys.readouterr().out
    for row in ("SA:", "RAG:", "Opt:", "Mutator:", "Total:"):
        assert row in out
    assert "time to bug:" in out


def test_prepare_starts_one_fork_server_and_stops_it(demo_config, started_servers):
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_OK
    assert len(started_servers) == 1 and started_servers[0] is not None
    assert not Path(f"/proc/{started_servers[0].proc.pid}").exists()


def test_prepare_failing_after_opt_stops_the_fork_server(demo_config, started_servers,
                                                          capsys):
    # a bug analysis answer without its required CAUSE fails stage Mutator
    fixture = demo_config.parent / "ppmcheck.fixture"
    text = fixture.read_text(encoding="utf-8")
    cause = "CAUSE: read_pixels trusts"
    assert cause in text
    fixture.write_text(text.replace(cause, "REASON: read_pixels trusts"), encoding="utf-8")
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_STAGE_FAILURE
    assert "prepare failed in stage Mutator" in capsys.readouterr().err
    timings = json.loads((demo_config.parent / "work" / "prepare" / "stage_timings.json")
                         .read_text(encoding="utf-8"))
    assert [t["name"] for t in timings] == ["SA", "RAG", "Opt"]
    assert len(started_servers) == 1 and started_servers[0] is not None
    assert not Path(f"/proc/{started_servers[0].proc.pid}").exists()


def test_report_is_pure_function_of_files(demo_config, capsys):
    cli.main(["prepare", "--config", str(demo_config)])
    work = demo_config.parent / "work"
    capsys.readouterr()
    assert cli.main(["report", "--dir", str(work)]) == EXIT_OK
    first = capsys.readouterr().out
    before = sorted(p.name for p in work.rglob("*"))
    assert cli.main(["report", "--dir", str(work)]) == EXIT_OK
    second = capsys.readouterr().out
    after = sorted(p.name for p in work.rglob("*"))
    assert first == second
    assert before == after  # rendering never mutates the artifacts


def test_report_partial_prepare_only_available_stages(tmp_path, capsys):
    from reachfuzz.campaign import StageTiming, save_stage_timings

    prepare = tmp_path / "work" / "prepare"
    prepare.mkdir(parents=True)
    save_stage_timings([StageTiming("SA", 5), StageTiming("RAG", 6)],
                       prepare / "stage_timings.json")
    assert cli.main(["report", "--dir", str(tmp_path / "work")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "SA:" in out and "RAG:" in out
    assert "Opt:" not in out and "Mutator:" not in out


def test_report_missing_artifacts(tmp_path):
    assert cli.main(["report", "--dir", str(tmp_path)]) == EXIT_STAGE_FAILURE


def test_fuzz_requires_bundle(demo_config):
    assert cli.main(["fuzz", "--config", str(demo_config)]) == EXIT_STAGE_FAILURE


def test_fuzz_random_only_flagged(demo_config):
    cli.main(["prepare", "--config", str(demo_config)])
    code = cli.main(["fuzz", "--config", str(demo_config), "--duration", "2s",
                     "--random-only"])
    work = demo_config.parent / "work"
    stats = json.loads((work / "fuzz" / "stats.json").read_text())
    assert stats["random_only"] is True
    # random mutation of the reachable seed may or may not stumble into the
    # crash within two seconds; both exits are legitimate here
    assert code in (EXIT_OK, EXIT_TIMEOUT_NO_BUG)


def test_second_fuzz_replaces_the_first(demo_config):
    cli.main(["prepare", "--config", str(demo_config)])
    crashes = demo_config.parent / "work" / "fuzz" / "crashes"
    cli.main(["fuzz", "--config", str(demo_config), "--keep-going", "--duration", "2s",
              "--rng-seed", "1"])
    first = sorted(path.name for path in crashes.iterdir())
    cli.main(["fuzz", "--config", str(demo_config), "--duration", "2s", "--rng-seed", "2"])
    stats = json.loads((crashes.parent / "stats.json").read_text())
    listed = sorted(f"{crash['input_hash']}.bin" for crash in stats["crashes"])
    assert sorted(path.name for path in crashes.iterdir()) == listed
    assert len(first) > len(listed)  # the first campaign's crashes were there to remove


def test_fuzz_zero_duration_empty_stats(demo_config):
    cli.main(["prepare", "--config", str(demo_config)])
    code = cli.main(["fuzz", "--config", str(demo_config), "--duration", "0s"])
    assert code == EXIT_TIMEOUT_NO_BUG
    work = demo_config.parent / "work"
    stats = json.loads((work / "fuzz" / "stats.json").read_text())
    assert stats["total_execs"] == 0
    assert stats["time_to_first_target_crash"] is None


def test_prepare_isolated_target_exit(demo_config):
    # rewrite the call graph so the target has no chain and no callers
    graph_file = demo_config.parent / "callgraph.txt"
    graph_file.write_text(dedent("""
        node 0 main ppmcheck.py
        node 1 parse_header ppmcheck.py
        node 2 parse_dims ppmcheck.py
        node 3 read_pixels ppmcheck.py
        node 4 reject_input ppmcheck.py
        edge 0 1
        edge 1 2
        edge 0 4
        entry 0
    """), encoding="utf-8")
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_ISOLATED_TARGET


def test_prepare_opt_timeout_reported(demo_config, capsys):
    # make the seed-adjustment answers useless so the optimization budget
    # expires; preparation still completes with the kept-seed subset
    fixture = demo_config.parent / "ppmcheck.fixture"
    text = fixture.read_text(encoding="utf-8")
    useless = ("KIND: literal\nCANDIDATE_1:\n~~~\nP5 never right\n~~~"
               .replace("~~~", "```"))
    head, _, tail = text.partition("match: how should the input be modified")
    _, _, rest = tail.partition("````")
    _, _, rest = rest.partition("````")
    fixture.write_text(
        head + "match: how should the input be modified\nresponse: ````\n"
        + useless + "\n````\n" + rest, encoding="utf-8")
    text = demo_config.read_text(encoding="utf-8")
    assert "opt_budget = 120s\n" in text
    demo_config.write_text(text.replace("opt_budget = 120s\n", "opt_budget = 1s\n"),
                           encoding="utf-8")
    code = cli.main(["prepare", "--config", str(demo_config)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "Opt:     T.O." in out
    assert "Total:   T.O." in out
    work = demo_config.parent / "work"
    bundle = json.loads((work / "prepare" / "bundle.json").read_text())
    assert bundle["status"] == "timeout"
    assert list((work / "prepare" / "seeds").glob("seed-*.bin"))


def test_prepare_stage_failure_names_stage(demo_config, capsys):
    # a bug report whose extraction answer is missing cannot pass stage SA
    fixture = demo_config.parent / "ppmcheck.fixture"
    fixture.write_text("match: nothing ever matches this\nresponse: x\n",
                       encoding="utf-8")
    code = cli.main(["prepare", "--config", str(demo_config)])
    assert code == EXIT_STAGE_FAILURE
    err = capsys.readouterr().err
    assert "SA" in err


def test_prepare_unknown_generator_kind_fails_in_stage_opt(demo_config, capsys):
    fixture = demo_config.parent / "ppmcheck.fixture"
    text = fixture.read_text(encoding="utf-8")
    preliminary = "match: Generate a preliminary input file\nresponse: ````\nKIND: literal"
    assert preliminary in text
    fixture.write_text(text.replace(preliminary, preliminary.replace("literal", "hex")),
                       encoding="utf-8")
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_STAGE_FAILURE
    err = capsys.readouterr().err
    assert "prepare failed in stage Opt" in err and "unknown generator kind 'hex'" in err
    timings = json.loads((demo_config.parent / "work" / "prepare" / "stage_timings.json")
                         .read_text(encoding="utf-8"))
    assert [t["name"] for t in timings] == ["SA", "RAG"]


def test_demo_prepare_prompts_match_golden(demo_config, monkeypatch):
    # every request of the demo prepare, in order, is pinned by its sha256
    prompts = []
    complete = llm_client.ScriptedBackend.complete

    def recording(self, request):
        prompts.append(request.prompt_text)
        return complete(self, request)

    monkeypatch.setattr(llm_client.ScriptedBackend, "complete", recording)
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_OK
    golden = (Path(__file__).parent / "golden" / "demo_prompts.sha256").read_text().split()
    assert [hashlib.sha256(p.encode("utf-8")).hexdigest() for p in prompts] == golden


def test_demo_prepare_computes_the_distance_map_twice(demo_config, monkeypatch):
    # once in complete_chain and once for Opt, both to the bug's target
    targets = []
    distances_to = callgraph.distances_to

    def counting_distances_to(graph, dst):
        targets.append(dst)
        return distances_to(graph, dst)

    monkeypatch.setattr(callgraph, "distances_to", counting_distances_to)
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_OK
    assert len(targets) == 2 and len(set(targets)) == 1


@pytest.fixture(scope="module")
def prepared_demo(tmp_path_factory) -> Path:
    """A demo workspace after one prepare; tests change only copies of it."""
    config = demo.build_workspace(tmp_path_factory.mktemp("prepared") / "demo")
    assert cli.main(["prepare", "--config", str(config)]) == EXIT_OK
    return config


@pytest.fixture
def prepared_config(prepared_demo, tmp_path) -> Path:
    shutil.copytree(prepared_demo.parent, tmp_path / "demo")
    return tmp_path / "demo" / prepared_demo.name


def targets_file(config: Path) -> Path:
    return config.parent / "work" / "prepare" / "targets.json"


def test_prepared_target_map_is_the_graph_map(prepared_config):
    # the map fuzz reads against the graph parse it replaces
    saved = json.loads(targets_file(prepared_config).read_text(encoding="utf-8"))
    graph = callgraph.load(load_config(prepared_config).graph_file)
    assert saved["ids"] == graph.ids


def test_two_prepares_write_the_same_target_map(prepared_demo, prepared_config):
    assert cli.main(["prepare", "--config", str(prepared_config), "--force"]) == EXIT_OK
    assert targets_file(prepared_config).read_bytes() == targets_file(prepared_demo).read_bytes()


def test_two_prepares_write_the_same_trial_apart_from_its_rate(prepared_demo, prepared_config):
    assert cli.main(["prepare", "--config", str(prepared_config), "--force"]) == EXIT_OK
    trials = []
    for config in (prepared_demo, prepared_config):
        trial_path = config.parent / "work" / "prepare" / "mutator" / "trial.json"
        trial = json.loads(trial_path.read_text(encoding="utf-8"))
        del trial["execs_per_sec"]
        trials.append(trial)
    assert trials[0] == trials[1]


def test_fuzz_refuses_what_a_failed_prepare_left(prepared_config, capsys):
    # the graph changes, then a prepare --force fails after SA has saved the new map
    graph_file = prepared_config.parent / "callgraph.txt"
    graph_file.write_text(graph_file.read_text(encoding="utf-8") + "node 5 extra ppmcheck.py\n",
                          encoding="utf-8")
    fixture = prepared_config.parent / "ppmcheck.fixture"
    fixture.write_text(fixture.read_text(encoding="utf-8").replace(
        "match: Provide a bug analysis report", "match: nothing asks for this"), encoding="utf-8")
    assert cli.main(["prepare", "--config", str(prepared_config), "--force"]) == EXIT_STAGE_FAILURE
    assert "prepare failed in stage Mutator" in capsys.readouterr().err
    assert cli.main(["fuzz", "--config", str(prepared_config)]) == EXIT_STAGE_FAILURE
    assert "run prepare first" in capsys.readouterr().err


def test_a_rejected_re_prepare_leaves_no_mutation_program(prepared_config, capsys):
    prepare_dir = prepared_config.parent / "work" / "prepare"
    stale_seed = prepare_dir / "seeds" / "seed-9-0.bin"
    stale_seed.write_bytes(b"P6\n1 1\n255\n\x00\x00\x00")
    fixture = prepared_config.parent / "ppmcheck.fixture"
    program = ("Overwrite(@width_digit=3, 39)\n# and shave the tail so the body falls short\n"
               "DeleteRange(end-4, 4)\n")
    text = fixture.read_text(encoding="utf-8")
    assert program in text
    # an always-empty output is rejected-invalid on every regeneration
    fixture.write_text(text.replace(program, "ResizeTo(0, 0x00)\n"), encoding="utf-8")
    assert cli.main(["prepare", "--config", str(prepared_config), "--force"]) == EXIT_OK
    bundle = json.loads((prepare_dir / "bundle.json").read_text(encoding="utf-8"))
    assert not bundle["mutator_accepted"]
    assert sorted(p.name for p in (prepare_dir / "mutator").iterdir()) == ["strategies.json"]
    assert not stale_seed.exists()
    capsys.readouterr()
    assert cli.main(["fuzz", "--config", str(prepared_config)]) == EXIT_STAGE_FAILURE
    assert "--random-only" in capsys.readouterr().err


def test_fuzz_does_not_load_the_call_graph(prepared_config, monkeypatch):
    def refuse(path):
        raise AssertionError(f"fuzz loaded {path}")

    monkeypatch.setattr(callgraph, "load", refuse)
    assert cli.main(["fuzz", "--config", str(prepared_config), "--duration", "30s"]) == EXIT_OK


def test_fuzz_refuses_a_graph_changed_since_prepare(prepared_config, capsys):
    graph_file = prepared_config.parent / "callgraph.txt"
    graph_file.write_text(graph_file.read_text(encoding="utf-8") + "node 5 extra ppmcheck.py\n",
                          encoding="utf-8")
    assert cli.main(["fuzz", "--config", str(prepared_config)]) == EXIT_STAGE_FAILURE
    assert "prepare --force" in capsys.readouterr().err


def test_fuzz_refuses_a_missing_target_map(prepared_config, capsys):
    targets_file(prepared_config).unlink()
    assert cli.main(["fuzz", "--config", str(prepared_config)]) == EXIT_STAGE_FAILURE
    assert "prepare --force" in capsys.readouterr().err


def test_exit_codes_are_distinct_and_stable():
    codes = {EXIT_OK, cli.EXIT_USAGE, EXIT_STAGE_FAILURE, EXIT_ISOLATED_TARGET,
             EXIT_TIMEOUT_NO_BUG}
    assert codes == {0, 2, 3, 4, 5}


def test_program_exec_replaces_any_command_program_name(demo_config):
    fixture = demo_config.parent / "ppmcheck.fixture"
    text = fixture.read_text(encoding="utf-8")
    assert "COMMAND: ppmcheck @@" in text
    fixture.write_text(text.replace("COMMAND: ppmcheck @@", "COMMAND: ./ppmcheck @@"),
                       encoding="utf-8")
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_OK
    work = demo_config.parent / "work"
    bundle = json.loads((work / "prepare" / "bundle.json").read_text())
    assert bundle["command"] == "./ppmcheck @@"
    assert cli.main(["fuzz", "--config", str(demo_config), "--duration", "30s"]) == EXIT_OK


def test_fuzz_refresh_rebuilds_on_the_worker_executor(demo_config, started_servers,
                                                      monkeypatch, caplog):
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_OK
    text = demo_config.read_text(encoding="utf-8")
    for old, new in (("refresh_period = 1h", "refresh_period = 400ms"),
                     ("trial_duration = 1500ms", "trial_duration = 200ms")):
        assert old in text
        text = text.replace(old, new)
    demo_config.write_text(text, encoding="utf-8")
    started_servers.clear()
    prompts = []
    complete = llm_client.ScriptedBackend.complete

    def recording(self, request):
        prompts.append(request.prompt_text)
        return complete(self, request)

    monkeypatch.setattr(llm_client.ScriptedBackend, "complete", recording)
    code = cli.main(["fuzz", "--config", str(demo_config), "--duration", "1500ms",
                     "--keep-going"])
    assert code in (EXIT_OK, EXIT_TIMEOUT_NO_BUG)
    fuzz = demo_config.parent / "work" / "fuzz"
    events = [json.loads(line) for line in (fuzz / "events.log").read_text().splitlines()]
    refreshes = [e for e in events if e["event"] == "refresh"]
    assert refreshes and all(e["swapped"] for e in refreshes)
    # each refresh asks once for strategies and once for their program: the
    # fixture answers a refresh with strategies new to it, so no retry
    strategy_requests = [p for p in prompts if "Generate fuzzing mutation strategies" in p]
    assert len(strategy_requests) == len(refreshes) and len(prompts) == 2 * len(refreshes)
    assert "kept returning duplicates" not in caplog.text
    trial = json.loads((fuzz / "mutators" / "active-1.trial.json").read_text())
    assert trial["verdict"] == "accepted"
    # the refresh trial ran on the worker's own executor and fork server
    assert len(started_servers) == 1 and started_servers[0] is not None


def test_fuzz_worker_error_exits_3_with_several_workers(demo_config, monkeypatch, capsys):
    from reachfuzz import campaign

    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_OK
    calls = itertools.count(1)  # next() on it is atomic across the worker threads
    original = campaign.Executor.run

    def failing_run(self, data):
        if next(calls) == 5:
            raise OSError("injected on the 5th exec")
        return original(self, data)

    monkeypatch.setattr(campaign.Executor, "run", failing_run)
    code = cli.main(["fuzz", "--config", str(demo_config), "--duration", "30s",
                     "--workers", "2", "--keep-going"])
    assert code == EXIT_STAGE_FAILURE
    assert "injected on the 5th exec" in capsys.readouterr().err


@pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
@pytest.mark.parametrize("workers", [1, 2])
def test_fuzz_interrupt_exits_130_and_keeps_the_record(demo_config, workers, signame):
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_OK
    fuzz = demo_config.parent / "work" / "fuzz"
    env = dict(os.environ, PYTHONPATH=str(Path(reachfuzz.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-m", "reachfuzz.cli", "fuzz", "--config", str(demo_config),
         "--keep-going", "--duration", "60s", "--workers", str(workers)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        # a shell may start the test run with SIGINT ignored; the child must not be
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 30.0
        while not (fuzz / "corpus" / "id-1.bin").exists():
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        os.kill(child.pid, getattr(signal, signame))
        sent = time.monotonic()
        _, stderr = child.communicate(timeout=5.0)
        assert time.monotonic() - sent < 5.0
    finally:
        child.kill()
        child.wait()
    assert child.returncode == cli.EXIT_INTERRUPTED, stderr.decode()
    events = [json.loads(line)["event"] for line in (fuzz / "events.log").read_text().splitlines()]
    assert events[0] == "start" and "admit" in events and "finish" not in events
    assert load_stats(fuzz / "stats.json").total_execs > 0
