from __future__ import annotations

import sys
import textwrap
from pathlib import Path

import pytest

from reachfuzz import campaign, demo
from reachfuzz.callgraph import CallGraph, FunctionNode
from reachfuzz.llm_client import FixtureRule, LlmClient, ScriptedBackend, ScriptedFixture
from reachfuzz.query_engine import Engine, load_catalog
from reachfuzz.seedgen import CommandLine
from reachfuzz.toys import toy_path


def make_graph(names: list[str], edges: list[tuple[int, int]], entry: int = 0,
               source: str = "prog.py") -> CallGraph:
    nodes = {i: FunctionNode(i, name, source) for i, name in enumerate(names)}
    return CallGraph(nodes=nodes, edges=set(edges), entry=entry)


@pytest.fixture
def branch_graph() -> CallGraph:
    """Entry E calls A; A branches to B or C; only C calls the target T."""
    return make_graph(["E", "A", "B", "C", "T"],
                      [(0, 1), (1, 2), (1, 3), (3, 4)])


def client_from_rules(*rules: tuple[str, str], strict: bool = True,
                      ordinals: dict[int, int] | None = None) -> LlmClient:
    fixture_rules = []
    for i, (pattern, response) in enumerate(rules):
        ordinal = (ordinals or {}).get(i, 0)
        regex = pattern.startswith("re:")
        fixture_rules.append(FixtureRule(pattern[3:] if regex else pattern,
                                         response, regex=regex, ordinal=ordinal))
    return LlmClient(ScriptedBackend(ScriptedFixture(fixture_rules, strict=strict)))


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


def engine_from_rules(catalog, *rules, strict: bool = True,
                      ordinals: dict[int, int] | None = None) -> Engine:
    return Engine(catalog, client_from_rules(*rules, strict=strict, ordinals=ordinals))


def dedent(text: str) -> str:
    return textwrap.dedent(text).lstrip("\n")


# --- toy target helpers ------------------------------------------------------

PPM_SEED = b"P6\n2 2\n255\n" + b"\x00" * 12
PPM_CRASH = b"P6\n200 200\n255\n" + b"\x00" * 12


@pytest.fixture(scope="session")
def ppm_graph() -> CallGraph:
    return make_graph(
        ["main", "parse_header", "parse_dims", "read_pixels", "reject_input"],
        [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4)],
        source="ppmcheck.py",
    )


@pytest.fixture(scope="session")
def ppm_command() -> CommandLine:
    return CommandLine("ppmcheck", ("@@",))


@pytest.fixture(scope="session")
def ppm_program_map() -> dict[str, list[str]]:
    return {"ppmcheck": [sys.executable, str(toy_path("ppmcheck"))]}


@pytest.fixture
def started_servers(monkeypatch):
    """Every ForkServer.start result in order, None where preloading failed."""
    started = []
    start = campaign.ForkServer.start

    def spy(*args, **kwargs):
        server = start(*args, **kwargs)
        started.append(server)
        return server

    monkeypatch.setattr(campaign.ForkServer, "start", spy)
    return started


@pytest.fixture
def ppm_executor(ppm_graph, ppm_program_map, tmp_path) -> campaign.Executor:
    return campaign.Executor(ppm_graph, tmp_path / "exec", exec_timeout=5.0,
                             program_map=ppm_program_map)


@pytest.fixture
def ppm_runner(ppm_executor, ppm_command):
    return lambda data: ppm_executor.run(ppm_command, data)


@pytest.fixture
def demo_config(tmp_path) -> Path:
    """Fully assembled demo workspace; returns the project config path."""
    return demo.build_workspace(tmp_path / "demo")
