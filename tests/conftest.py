from __future__ import annotations

import random
import sys
import textwrap
import time
from pathlib import Path

import pytest

from reachfuzz import campaign, demo, mutator
from reachfuzz.callgraph import CallGraph, FunctionNode
from reachfuzz.errors import ReachFuzzError
from reachfuzz.llm_client import FixtureRule, LlmClient, ScriptedBackend, ScriptedFixture
from reachfuzz.mutator import Expr, InsertBytes, MutationProgram, ResizeTo
from reachfuzz.query_engine import AnswerSchema, Engine, load_catalog
from reachfuzz.seedgen import CommandLine
from reachfuzz.toys import toy_path


def process_gone(pid: int) -> bool:
    """True when ``pid`` has exited: a zombie counts, since a killed
    grandchild is reparented and may wait a while to be reaped."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def processes_end(pids: list[int]) -> bool:
    """True when every pid is gone within 2 s (a kill is delivered
    asynchronously)."""
    deadline = time.monotonic() + 2.0
    while not all(process_gone(pid) for pid in pids):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def make_graph(names: list[str], edges: list[tuple[int, int]], entry: int = 0,
               source: str = "prog.py") -> CallGraph:
    nodes = {i: FunctionNode(i, name, source) for i, name in enumerate(names)}
    return CallGraph(nodes=nodes, edges=set(edges), entry=entry)


@pytest.fixture
def branch_graph() -> CallGraph:
    """Entry E calls A; A branches to B or C; only C calls the target T."""
    return make_graph(["E", "A", "B", "C", "T"],
                      [(0, 1), (1, 2), (1, 3), (3, 4)])


def client_from_rules(*rules: tuple[str, str],
                      ordinals: dict[int, int] | None = None) -> LlmClient:
    fixture_rules = []
    for i, (pattern, response) in enumerate(rules):
        ordinal = (ordinals or {}).get(i, 0)
        regex = pattern.startswith("re:")
        fixture_rules.append(FixtureRule(pattern[3:] if regex else pattern,
                                         response, regex=regex, ordinal=ordinal))
    return LlmClient(ScriptedBackend(ScriptedFixture(fixture_rules)))


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


def engine_from_rules(catalog, *rules, ordinals: dict[int, int] | None = None) -> Engine:
    return Engine(catalog, client_from_rules(*rules, ordinals=ordinals))


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
def ppm_program_exec() -> list[str]:
    return [sys.executable, str(toy_path("ppmcheck"))]


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
def ppm_executor(ppm_graph, ppm_command, ppm_program_exec, tmp_path) -> campaign.Executor:
    return campaign.Executor(ppm_graph.ids, tmp_path / "exec", ppm_command, exec_timeout=5.0,
                             program_exec=ppm_program_exec)


@pytest.fixture
def ppm_runner(ppm_executor):
    return ppm_executor.run


@pytest.fixture
def demo_config(tmp_path) -> Path:
    """Fully assembled demo workspace; returns the project config path."""
    return demo.build_workspace(tmp_path / "demo")


# --- oracles used only by the tests --------------------------------------------

class HarnessFault(ReachFuzzError):
    """Injected fault in the mutation harness itself."""


def declared_growth(program: MutationProgram) -> int:
    """Upper bound on a program's output-length growth over any input."""
    growth = 0
    for op in program.ops:
        if isinstance(op, InsertBytes):
            growth += len(op.data)
        elif isinstance(op, ResizeTo) and op.length.kind != "end":
            # an absolute length, or the upper end of a random one
            growth += max(0, op.length.a if op.length.kind == "abs" else op.length.b)
    return growth


def random_program(rng: random.Random) -> MutationProgram:
    """Up to six random operations of every kind. The golden mutation-sweep
    digest depends on the exact sequence of draws made here."""
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


def format_answer(schema: AnswerSchema, values: dict[str, str | list[str]]) -> str:
    """Embed values back into the schema's own labeled-answer shape."""
    out: list[str] = []
    for f in schema.fields:
        if f.name not in values:
            continue
        value = values[f.name]
        if f.kind == "text-line":
            out.append(f"{f.label}: {value}")
        elif f.kind == "text-block":
            out.append(f"{f.label}: {value}")
        elif f.kind == "list-of-lines":
            out.append(f"{f.label}:")
            items = value if isinstance(value, list) else [value]
            out.extend(f"- {item}" for item in items)
        else:
            body = value if isinstance(value, str) else "\n".join(value)
            fence = "```"
            while fence in body:
                fence += "`"
            out.append(f"{f.label}:")
            out.append(fence)
            if body:
                out.append(body)
            out.append(fence)
    return "\n".join(out)
