from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from conftest import dedent
from reachfuzz import cli
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
    code = cli.main(["prepare", "--config", str(demo_config), "--opt-budget", "1s"])
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


def test_fuzz_refresh_rebuilds_on_the_worker_executor(demo_config, started_servers):
    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_OK
    text = demo_config.read_text(encoding="utf-8")
    for old, new in (("refresh_period = 1h", "refresh_period = 400ms"),
                     ("trial_duration = 1500ms", "trial_duration = 200ms")):
        assert old in text
        text = text.replace(old, new)
    demo_config.write_text(text, encoding="utf-8")
    started_servers.clear()
    code = cli.main(["fuzz", "--config", str(demo_config), "--duration", "1500ms",
                     "--keep-going"])
    assert code in (EXIT_OK, EXIT_TIMEOUT_NO_BUG)
    fuzz = demo_config.parent / "work" / "fuzz"
    events = [json.loads(line) for line in (fuzz / "events.log").read_text().splitlines()]
    refreshes = [e for e in events if e["event"] == "refresh"]
    assert refreshes and all(e["swapped"] for e in refreshes)
    trial = json.loads((fuzz / "mutators" / "active-1.trial.json").read_text())
    assert trial["verdict"] == "accepted"
    # the refresh trial ran on the worker's own executor and fork server
    assert len(started_servers) == 1 and started_servers[0] is not None


def test_fuzz_worker_error_exits_3_with_several_workers(demo_config, monkeypatch, capsys):
    from reachfuzz import campaign

    assert cli.main(["prepare", "--config", str(demo_config)]) == EXIT_OK
    calls = itertools.count(1)  # next() on it is atomic across the worker threads
    original = campaign.Executor.run

    def failing_run(self, *args, **kwargs):
        if next(calls) == 5:
            raise OSError("injected on the 5th exec")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(campaign.Executor, "run", failing_run)
    code = cli.main(["fuzz", "--config", str(demo_config), "--duration", "30s",
                     "--workers", "2", "--keep-going"])
    assert code == EXIT_STAGE_FAILURE
    assert "injected on the 5th exec" in capsys.readouterr().err
