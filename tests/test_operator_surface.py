"""Pin the settings an operator can make: config keys and CLI flags.

Every ``ProjectConfig`` field is a config-file key, and every flag that a
subcommand's ``--help`` lists is a CLI flag. Each one is listed below with the
caller or workload that sets it, so a new knob fails this test until it is
listed with a reason.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from reachfuzz import cli

SETTINGS = {
    # config-file keys
    "corpus_root": "required; the demo workspace and every benchmark workload",
    "graph_file": "required; the demo workspace and every benchmark workload",
    "bug_report_file": "required; the demo workspace and every benchmark workload",
    "work_dir": "required; the demo workspace and every benchmark workload",
    "fixture_file": "the demo config: the scripted backend of the demo and every workload",
    "program_exec": "the demo config; bench/session.py swaps in the native binary",
    "opt_budget": "the demo config (120s)",
    "trial_duration": "the demo config (1500ms); test_fuzz_refresh_rebuilds_on_the_worker_executor",
    "campaign_duration": "the demo config (60s)",
    "exec_timeout": "the demo config (2s)",
    "refresh_period": "the demo config (1h); test_fuzz_refresh_rebuilds_on_the_worker_executor",
    "mix_ratio": "the demo config (0.8)",
    "rng_seed": "the demo config (1)",
    "min_execs_per_sec": "operator: the trial's throughput floor for a slow target",
    # CLI flags
    "prepare --config": "required; every prepare",
    "prepare --opt-budget": "test_prepare_opt_timeout_reported",
    "prepare --force": "bench/session.py prepares again in one work dir",
    "fuzz --config": "required; every fuzz",
    "fuzz --duration": "bench/session.py caps every fuzz command; the demo's printed steps",
    "fuzz --workers": "bench/session.py passes 1; the interrupt test runs 2",
    "fuzz --random-only": "bench/session.py's random-only runs (ttb_random_s)",
    "fuzz --rng-seed": "bench/session.py's seed sweep",
    "fuzz --keep-going": "bench/session.py's keep-going runs",
    "report --dir": "required; every report",
}


def cli_flags(capsys) -> set[str]:
    flags = set()
    for sub in ("prepare", "fuzz", "report"):
        with pytest.raises(SystemExit):
            cli.main([sub, "--help"])
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        flags |= {f"{sub} {flag}" for flag in listed}
    return flags


def test_config_keys_and_cli_flags_are_the_listed_ones(capsys):
    keys = {f.name for f in dataclasses.fields(cli.ProjectConfig)}
    assert keys | cli_flags(capsys) == set(SETTINGS)
