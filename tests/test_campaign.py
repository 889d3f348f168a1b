from __future__ import annotations

import json
import logging
import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from conftest import PPM_CRASH, PPM_SEED, make_graph, process_gone, processes_end
from reachfuzz import campaign, forkserver, mutator
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
    result = ppm_executor.run(PPM_SEED)
    assert result.exit_kind == "clean"
    names = [ppm_graph.name_of(f) for f in result.trace.reached]
    assert names == ["main", "parse_header", "parse_dims", "read_pixels"]


def test_execute_overflow_crashes_at_target(ppm_executor, ppm_command, ppm_graph):
    result = ppm_executor.run(PPM_CRASH)
    assert result.exit_kind == "crash"
    assert result.crash_class == "SIGSEGV"
    assert result.trace.contains(ppm_graph.id_of("read_pixels"))


def test_execute_reject_path(ppm_executor, ppm_command, ppm_graph):
    result = ppm_executor.run(b"BM not a ppm")
    assert result.exit_kind == "clean"  # diagnostic exit, not a crash
    names = [ppm_graph.name_of(f) for f in result.trace.reached]
    assert names == ["main", "parse_header", "reject_input"]
    assert "not a raw PPM" in result.stderr_excerpt


def test_execute_timeout(tmp_path):
    import sys

    from reachfuzz.toys import toy_path

    graph = make_graph(["main"], [])
    executor = Executor(graph.ids, tmp_path, CommandLine("sleeper", ("@@",)), exec_timeout=0.2,
                        program_exec=[sys.executable, str(toy_path("sleeper"))])
    result = executor.run(b"anything")
    assert result.exit_kind == "timeout"


def test_execute_missing_program(tmp_path):
    graph = make_graph(["main"], [])
    executor = Executor(graph.ids, tmp_path, CommandLine("no-such-binary-xyz", ("@@",)),
                        exec_timeout=1.0)
    with pytest.raises(Exception, match="spawn"):
        executor.run(b"x")


def test_execute_missing_trace_file_yields_empty_trace(tmp_path, caplog):
    import logging

    # `true` ignores the trace protocol entirely, so no trace file appears
    graph = make_graph(["main"], [])
    executor = Executor(graph.ids, tmp_path, CommandLine("quiet", ("@@",)), exec_timeout=2.0,
                        program_exec=["true"])
    with caplog.at_level(logging.WARNING, logger="reachfuzz.campaign"):
        result = executor.run(b"x")
    assert result.exit_kind == "clean"
    assert result.trace.reached == []
    assert any("trace file missing" in r.message for r in caplog.records)


def test_execute_missing_trace_warns_once_and_counts(tmp_path, caplog):
    graph = make_graph(["main"], [])
    executor = Executor(graph.ids, tmp_path, CommandLine("quiet", ("@@",)), exec_timeout=2.0,
                        program_exec=["true"])
    with caplog.at_level(logging.WARNING, logger="reachfuzz.campaign"):
        for _ in range(3):
            executor.run(b"x")
    assert executor.missing_traces == 3
    assert sum("trace file missing" in r.message for r in caplog.records) == 1


def test_unknown_trace_name_warns_once_per_executor(ppm_graph, ppm_command, ppm_program_exec,
                                                    tmp_path, caplog):
    ids = {name: nid for name, nid in ppm_graph.ids.items() if name != "reject_input"}
    executor = Executor(ids, tmp_path, ppm_command, 5.0, ppm_program_exec)
    try:
        with caplog.at_level(logging.WARNING, logger="reachfuzz.campaign"):
            traces = [executor.run(b"not a ppm").trace.reached for _ in range(20)]
    finally:
        executor.close()
    assert traces == [[ids["main"], ids["parse_header"]]] * 20
    warnings = [r.message for r in caplog.records if "not in the call graph" in r.message]
    assert len(warnings) == 1 and "reject_input" in warnings[0]


# --- fork server ------------------------------------------------------------------

@pytest.fixture(params=["fork-server", "spawn"])
def backend_executor(request, ppm_graph, ppm_command, ppm_program_exec, tmp_path):
    executor = Executor(ppm_graph.ids, tmp_path / "exec", ppm_command, exec_timeout=5.0,
                        program_exec=ppm_program_exec,
                        fork_server=request.param == "fork-server")
    yield executor
    executor.close()


def process_table() -> list[tuple[int, str, int, int]]:
    """``(pid, state, ppid, session id)`` of every process."""
    table = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid, _, session = stat.read_text().rsplit(")", 1)[1].split()[:4]
        except (OSError, IndexError, ValueError):
            continue  # the process ended while we looked
        table.append((int(stat.parent.name), state, int(ppid), int(session)))
    return table


def children_of(pid: int) -> list[int]:
    return [child for child, _, ppid, _ in process_table() if ppid == pid]


def session_ends(sid: int) -> bool:
    """True when every process of session ``sid`` (a helper and every child it
    forked, whatever its group) is gone within 2 s."""
    return processes_end([pid for pid, _, _, session in process_table() if session == sid])


def spare_of(server: campaign.ForkServer) -> int:
    """The helper's spare child, once it is forked: its one child that is not
    the idle child the orchestrator was told of."""
    deadline = time.monotonic() + 2.0
    while not (spares := [pid for pid in children_of(server.proc.pid) if pid != server.child]):
        assert time.monotonic() < deadline, "no spare child"
        time.sleep(0.01)
    assert len(spares) == 1
    return spares[0]


@pytest.fixture
def killed_groups(monkeypatch) -> list[int]:
    """Every process group the orchestrator kills, in order."""
    killed = []
    kill_group = campaign.process.kill_group

    def spy(pgid):
        killed.append(pgid)
        kill_group(pgid)

    monkeypatch.setattr(campaign.process, "kill_group", spy)
    return killed


def assert_reaped(helper: int, pid: int):
    """``pid``, a child of ``helper``, has ended and been reaped, and so has
    every other child of ``helper`` that ended."""
    children = {child: state for child, state, ppid, _ in process_table() if ppid == helper}
    assert pid not in children and process_gone(pid)
    assert "Z" not in children.values()


OPT_IN = "REACHFUZZ_PERSISTENT = True\n"


def opted_out_toy(name: str, tmp_path: Path) -> Path:
    """A copy of a toy that opts in to persistent mode, without its declaration."""
    text = toy_path(name).read_text()
    assert OPT_IN in text
    path = tmp_path / f"{name}.py"
    path.write_text(text.replace(OPT_IN, ""))
    return path


def opted_in_script(text: str, name: str, tmp_path: Path) -> Path:
    path = tmp_path / f"{name}.py"
    path.write_text(OPT_IN + text)
    return path


def outcome(result) -> tuple:
    return (result.exit_kind, result.crash_class, result.trace.reached, result.stderr_excerpt)


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
    persistent = Executor(ppm_graph.ids, tmp_path / "persistent", ppm_command, 5.0,
                          ppm_program_exec)
    per_input = Executor(ppm_graph.ids, tmp_path / "per-input", ppm_command, 5.0,
                         [sys.executable, str(opted_out_toy("ppmcheck", tmp_path))])
    spawned = Executor(ppm_graph.ids, tmp_path / "spawn", ppm_command, 5.0, ppm_program_exec,
                       fork_server=False)
    kinds = set()
    try:
        for data in inputs:
            want = outcome(spawned.run(data))
            assert outcome(persistent.run(data)) == want, f"persistent, input {data!r}"
            assert outcome(per_input.run(data)) == want, f"per input, input {data!r}"
            kinds.add((want[0], bool(want[3])))
    finally:
        persistent.close()
        per_input.close()
        spawned.close()
    assert len(started_servers) == 2 and None not in started_servers
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
    # all six modes in turn on one server; a persistent child serves on after an exit code
    plain = tmp_path / "status.py"
    plain.write_text(STATUS_SCRIPT)
    for script in (plain, opted_in_script(STATUS_SCRIPT, "persistent_status", tmp_path)):
        input_path = tmp_path / "input.bin"
        argv = (sys.executable, str(script), str(input_path))
        server = campaign.ForkServer.start(argv, dict(os.environ), tmp_path / "stderr.log")
        assert server is not None
        try:
            for mode in (b"code", b"wide", b"message", b"raise", b"abort", b"return"):
                input_path.write_bytes(mode)
                returncode = server.run(5.0)
                stderr = (tmp_path / "stderr.log").read_bytes()
                spawned = subprocess.run(argv, capture_output=True, timeout=30)
                assert returncode == spawned.returncode, (script.name, mode)
                if mode == b"raise":  # the fork server's traceback starts at main()
                    assert stderr.startswith(b"Traceback (most recent call last):")
                    assert stderr.endswith(b"ValueError: boom\n")
                    assert spawned.stderr.endswith(b"ValueError: boom\n")
                else:
                    assert stderr == spawned.stderr, (script.name, mode)
        finally:
            server.close()


def test_fork_server_timeout_kills_child_and_serves_on(ppm_graph, tmp_path, started_servers,
                                                      killed_groups):
    persistent = opted_in_script(toy_path("sleeper").read_text(), "persistent_sleeper",
                                 tmp_path)
    for script in (toy_path("sleeper"), persistent):
        # no program_exec: the command names its interpreter and script itself
        sleeper = CommandLine(sys.executable, (str(script), "@@"))
        executor = Executor(ppm_graph.ids, tmp_path / script.stem, sleeper, exec_timeout=0.5)
        try:
            for _ in range(2):
                start = time.monotonic()
                result = executor.run(b"anything")
                assert result.exit_kind == "timeout"
                assert time.monotonic() - start < 5.0  # the 60 s sleep was cut short
                assert [ppm_graph.name_of(f) for f in result.trace.reached] == ["main"]
                helper = started_servers[-1]
                assert helper is not None and helper.proc.poll() is None
                assert_reaped(helper.proc.pid, killed_groups[-1])  # the timed-out child
        finally:
            executor.close()
    assert len(started_servers) == 2  # each helper served its second input too


COUNTER_SCRIPT = """\
import os, sys

calls = 0


def main():
    global calls
    calls += 1
    sys.stderr.write("%d %d" % (calls, os.getpid()))
"""


def counter_executor(persistent: bool, tmp_path: Path) -> Executor:
    if persistent:
        script = opted_in_script(COUNTER_SCRIPT, "counter", tmp_path)
    else:
        script = tmp_path / "counter.py"
        script.write_text(COUNTER_SCRIPT)
    return Executor(make_graph(["main"], []).ids, tmp_path / "exec",
                    CommandLine("counter", ("@@",)), 5.0, [sys.executable, str(script)])


def calls_and_pids(executor: Executor, count: int) -> list[tuple[int, int]]:
    return [tuple(map(int, executor.run(b"x").stderr_excerpt.split())) for _ in range(count)]


@pytest.mark.parametrize("persistent", [False, True])
def test_module_state_carries_over_only_in_a_script_that_opts_in(persistent, tmp_path):
    executor = counter_executor(persistent, tmp_path)
    try:
        calls = [calls for calls, _ in calls_and_pids(executor, 3)]
    finally:
        executor.close()
    assert calls == ([1, 2, 3] if persistent else [1, 1, 1])


def test_persistent_child_is_replaced_after_its_count(tmp_path):
    executor = counter_executor(True, tmp_path)
    try:
        runs = calls_and_pids(executor, forkserver.PERSISTENT_INPUTS + 2)
    finally:
        executor.close()
    pids = [pid for _, pid in runs]
    first, second = pids[:forkserver.PERSISTENT_INPUTS], pids[forkserver.PERSISTENT_INPUTS:]
    assert set(first) == {pids[0]} and set(second) == {second[0]} != {pids[0]}
    assert [calls for calls, _ in runs[-2:]] == [1, 2]  # a fresh child starts from the load


def test_idle_child_killed_between_inputs_shifts_no_result(
        ppm_graph, ppm_command, ppm_program_exec, tmp_path, started_servers):
    persistent = Executor(ppm_graph.ids, tmp_path / "persistent", ppm_command, 5.0,
                          ppm_program_exec)
    spawned = Executor(ppm_graph.ids, tmp_path / "spawn", ppm_command, 5.0, ppm_program_exec,
                       fork_server=False)
    try:
        assert persistent.run(PPM_SEED).exit_kind == "clean"
        server = started_servers[0]
        idle = [server.child]  # the pid the orchestrator was told
        assert idle[0] in children_of(server.proc.pid)
        os.kill(idle[0], signal.SIGKILL)  # a child this test's executor started
        assert processes_end(idle)
        for data in (PPM_SEED, PPM_CRASH, b"not a ppm"):
            assert outcome(persistent.run(data)) == outcome(spawned.run(data)), data
        assert len(started_servers) == 1  # the same helper served on
        idle = [server.child]
        assert idle[0] is not None and idle[0] in children_of(server.proc.pid)
    finally:
        persistent.close()
        spawned.close()
    assert processes_end(idle)


def test_spare_killed_while_waiting_shifts_no_result(
        ppm_graph, ppm_command, ppm_program_exec, tmp_path, started_servers):
    persistent = Executor(ppm_graph.ids, tmp_path / "persistent", ppm_command, 5.0,
                          ppm_program_exec)
    spawned = Executor(ppm_graph.ids, tmp_path / "spawn", ppm_command, 5.0, ppm_program_exec,
                       fork_server=False)
    try:
        assert persistent.run(PPM_SEED).exit_kind == "clean"
        server = started_servers[0]
        spare = spare_of(server)
        os.kill(spare, signal.SIGKILL)  # a child this test's executor started
        assert processes_end([spare])
        # the crash ends the idle child, so the dead spare is the next one handed over
        for data in (PPM_SEED, PPM_CRASH, b"not a ppm"):
            assert outcome(persistent.run(data)) == outcome(spawned.run(data)), data
        assert len(started_servers) == 1  # the same helper served on
        assert_reaped(server.proc.pid, spare)
    finally:
        persistent.close()
        spawned.close()


def ppm_server(ppm_program_exec: list[str], tmp_path: Path) -> campaign.ForkServer:
    """A started fork server for the toy, whose input is ``PPM_SEED``."""
    input_path = tmp_path / "input.bin"
    input_path.write_bytes(PPM_SEED)
    server = campaign.ForkServer.start((*ppm_program_exec, str(input_path)), dict(os.environ),
                                       tmp_path / "stderr.log")
    assert server is not None
    return server


def test_spare_that_never_served_ends_with_close(ppm_program_exec, tmp_path):
    server = ppm_server(ppm_program_exec, tmp_path)
    try:
        assert server.run(5.0) == 0
        idle, spare = server.child, spare_of(server)
    finally:
        server.close()
    assert processes_end([idle, spare]) and session_ends(server.proc.pid)


def test_spare_exits_when_only_its_helper_is_killed(ppm_program_exec, tmp_path):
    server = ppm_server(ppm_program_exec, tmp_path)
    try:
        assert server.run(5.0) == 0
        idle, spare = server.child, spare_of(server)
        os.kill(server.proc.pid, signal.SIGKILL)  # the helper alone, not its group
        assert processes_end([spare])
        assert not process_gone(idle)  # the idle child waits until the orchestrator ends it
    finally:
        server.close()
    assert processes_end([idle]) and session_ends(server.proc.pid)


SIBLING_SCRIPT = """\
import os, sys, time


def siblings():
    found = []
    for name in os.listdir("/proc"):
        try:
            with open("/proc/%s/stat" % name) as stat:
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if name.isdigit() and ppid == os.getppid() and int(name) != os.getpid():
            found.append(name)
    return found


def main():
    deadline = time.monotonic() + 2.0
    while not siblings() and time.monotonic() < deadline:
        time.sleep(0.01)
    sys.stderr.write(" ".join([str(os.getpid())] + siblings()))
"""


def test_next_child_is_alive_before_the_input_ends(tmp_path, started_servers):
    # one fork per input: each input records its pid and its siblings under the helper
    script = tmp_path / "siblings.py"
    script.write_text(SIBLING_SCRIPT)
    executor = Executor(make_graph(["main"], []).ids, tmp_path / "exec",
                        CommandLine("siblings", ("@@",)), 5.0, [sys.executable, str(script)])
    try:
        runs = [executor.run(b"x").stderr_excerpt.split() for _ in range(5)]
    finally:
        executor.close()
    assert started_servers[0] is not None
    pids = [run[0] for run in runs]
    assert len(set(pids)) == len(pids)
    for run, next_pid in zip(runs, pids[1:]):
        assert next_pid in run[1:], runs


CORE_SCRIPT = """\
import os, resource, sys
from reachfuzz.campaign import Executor
from reachfuzz.seedgen import CommandLine

toy, crash = sys.argv[1], bytes.fromhex(sys.argv[2])
_, hard = resource.getrlimit(resource.RLIMIT_CORE)
resource.setrlimit(resource.RLIMIT_CORE, (hard, hard))
for fork_server in (True, False):
    executor = Executor({"main": 0}, f"exec-{fork_server}", CommandLine("ppm", ("@@",)), 5.0,
                        [sys.executable, toy], fork_server=fork_server)
    result = executor.run(crash)
    executor.close()
    print(result.exit_kind, result.crash_class,
          sorted(name for name in os.listdir() if name.startswith("core")))
"""


def test_fork_server_target_dumps_no_core(tmp_path):
    if resource.getrlimit(resource.RLIMIT_CORE)[1] == 0:
        pytest.skip("the hard core-size limit is 0, so no target can dump core")
    # the soft limit is raised in a process the test starts, not in the test runner
    done = subprocess.run(
        [sys.executable, "-c", CORE_SCRIPT, str(toy_path("ppmcheck")), PPM_CRASH.hex()],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(Path(campaign.__file__).parents[1])))
    assert done.returncode == 0, done.stderr
    fork_server, spawned = done.stdout.splitlines()
    assert fork_server == "crash SIGSEGV []"
    if spawned == "crash SIGSEGV []":
        pytest.skip("a spawned crash left no core file in its cwd on this host either")
    assert spawned.startswith("crash SIGSEGV ['core")  # spawned targets keep the soft limit


INPUT_SCRIPT = """\
import os, sys


def main():
    data = open(sys.argv[1], "rb").read()
    sys.stderr.write(data.hex())
    if data.startswith(b"unlink"):
        os.unlink(sys.argv[1])


if __name__ == "__main__":
    main()
"""


@pytest.mark.parametrize("fork_server", [True, False])
def test_each_input_reaches_the_target_byte_exact(fork_server, tmp_path, started_servers):
    script = tmp_path / "input.py"
    script.write_text(INPUT_SCRIPT)
    executor = Executor(make_graph(["main"], []).ids, tmp_path / "exec",
                        CommandLine("input", ("@@",)), 5.0, [sys.executable, str(script)],
                        fork_server=fork_server)
    inputs = [b"a longer first input\x00\xff", b"short", b"unlink this", b"after the unlink",
              b"unlink", b"x"]
    try:
        got = [bytes.fromhex(executor.run(data).stderr_excerpt) for data in inputs]
    finally:
        executor.close()
    assert got == inputs
    assert [server is not None for server in started_servers] == [True] * fork_server


def child_pids(stderr: str, count: int) -> list[int]:
    pids = [int(line.split()[1]) for line in stderr.splitlines() if line.startswith("child ")]
    assert len(pids) == count, stderr
    return pids


@pytest.mark.parametrize("head, fork_server", [
    ([sys.executable, str(toy_path("backgrounder"))], True),
    ([sys.executable, str(toy_path("backgrounder"))], False),
    (["sh", "-c", "sleep 30 & echo child $! >&2; exit 0"], False),
], ids=["fork-server", "spawn", "shell"])
def test_background_child_is_clean_and_ended(head, fork_server, tmp_path, started_servers):
    executor = Executor(make_graph(["main"], []).ids, tmp_path, CommandLine("bg", ("@@",)), 2.0,
                        head, fork_server=fork_server)
    try:
        executor.run(b"warm-up")  # the fork server starts on first use
        start = time.monotonic()
        result = executor.run(b"anything")
        elapsed = time.monotonic() - start
    finally:
        executor.close()
    assert result.exit_kind == "clean"
    assert elapsed < 1.0  # not held until the child's sleep ends or the timeout
    assert [server is not None for server in started_servers] == [True] * fork_server
    assert processes_end(child_pids(result.stderr_excerpt, 1))


@pytest.mark.parametrize("fork_server", [True, False])
def test_hanging_forker_times_out_and_leaves_nothing(fork_server, tmp_path, started_servers,
                                                     killed_groups):
    executor = Executor(make_graph(["main"], []).ids, tmp_path, CommandLine("forker", ("@@",)),
                        1.0, [sys.executable, str(toy_path("forker"))], fork_server=fork_server)
    try:
        result = executor.run(b"anything")
        if fork_server:
            assert_reaped(started_servers[0].proc.pid, killed_groups[-1])
    finally:
        executor.close()
    assert result.exit_kind == "timeout"
    assert processes_end(child_pids(result.stderr_excerpt, 2))


def test_script_without_main_falls_back_to_spawn(tmp_path, caplog, started_servers):
    script = tmp_path / "nomain.py"
    script.write_text(
        "import os, sys\n"
        "open(os.environ['RF_TRACE_FILE'], 'a').write('main\\n')\n"
        "sys.stderr.write('read ' + open(sys.argv[1]).read() + '\\n')\n"
        "sys.exit(3)\n")
    graph = make_graph(["main"], [])
    executor = Executor(graph.ids, tmp_path / "exec", CommandLine("nomain", ("@@",)), 5.0,
                        [sys.executable, str(script)])
    with caplog.at_level(logging.WARNING, logger="reachfuzz.campaign"):
        results = [executor.run(data) for data in (b"one", b"two")]
    executor.close()
    assert started_servers == [None]  # tried once, then every input spawned
    assert "cannot preload" in caplog.text
    for result, text in zip(results, ("one", "two")):
        assert result.exit_kind == "clean"
        assert result.trace.reached == [0]  # nothing left over from the failed preload
        assert result.stderr_excerpt == f"read {text}\n"


def test_close_and_campaign_end_stop_fork_servers(
        tmp_path, ppm_graph, ppm_command, ppm_program_exec, started_servers, monkeypatch):
    children = {}  # each helper's children when it is first closed
    close = campaign.ForkServer.close

    def spy(server):
        children.setdefault(server.proc.pid, children_of(server.proc.pid))
        close(server)

    monkeypatch.setattr(campaign.ForkServer, "close", spy)
    executor = Executor(ppm_graph.ids, tmp_path / "exec", ppm_command, 5.0, ppm_program_exec)
    assert executor.run(PPM_SEED).exit_kind == "clean"
    config = ppm_campaign_config(ppm_command, duration_limit=0.5, stop_on_first=False)
    stats = campaign.run(config, None, ppm_graph.ids, tmp_path / "c")
    assert stats.total_execs > 0
    own, campaigns = started_servers
    assert own is not None and campaigns is not None
    assert process_gone(campaigns.proc.pid)
    assert processes_end(children[campaigns.proc.pid])
    assert session_ends(campaigns.proc.pid)  # every child it forked, the spare included
    assert not process_gone(own.proc.pid)
    idle = own.child  # the persistent child waits for the next input
    assert idle is not None and idle in children_of(own.proc.pid)
    executor.close()
    assert process_gone(own.proc.pid)
    assert idle in children[own.proc.pid] and processes_end(children[own.proc.pid])
    assert session_ends(own.proc.pid)


ENV_SCRIPT = """\
import os, sys

def main():
    sys.stderr.write("key=" + os.environ.get("RF_LLM_API_KEY", ""))


if __name__ == "__main__":
    main()
"""


@pytest.mark.parametrize("fork_server", [True, False])
def test_target_sees_no_llm_settings(fork_server, tmp_path, monkeypatch, started_servers):
    monkeypatch.setenv("RF_LLM_API_KEY", "secret-key")
    script = tmp_path / "env.py"
    script.write_text(ENV_SCRIPT)
    executor = Executor(make_graph(["main"], []).ids, tmp_path / "exec",
                        CommandLine("env", ("@@",)), 5.0, [sys.executable, str(script)],
                        fork_server=fork_server)
    try:
        result = executor.run(b"x")
    finally:
        executor.close()
    assert result.stderr_excerpt == "key="
    assert [server is not None for server in started_servers] == [True] * fork_server


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
                    result = ppm_executor.run(data)
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
        program_exec=[sys.executable, str(toy_path("ppmcheck"))],
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


def test_run_finds_target_crash(tmp_path, ppm_graph, ppm_command):
    config = ppm_campaign_config(ppm_command)
    program = mutator.parse_program(CRASH_PROGRAM)
    stats = campaign.run(config, program, ppm_graph.ids, tmp_path / "c")
    assert stats.found_target_crash
    assert stats.time_to_first_target_crash is not None
    assert stats.execs_reaching_target >= 1
    assert not stats.random_only
    crash_files = list((tmp_path / "c" / "crashes").glob("*.bin"))
    assert crash_files
    assert (tmp_path / "c" / "events.log").exists()


def test_run_random_only_flagged(tmp_path, ppm_graph, ppm_command):
    config = ppm_campaign_config(ppm_command, duration_limit=0.5)
    stats = campaign.run(config, None, ppm_graph.ids, tmp_path / "c")
    assert stats.random_only
    assert stats.total_execs > 0


def test_run_zero_duration(tmp_path, ppm_graph, ppm_command):
    config = ppm_campaign_config(ppm_command, duration_limit=0.0)
    stats = campaign.run(config, None, ppm_graph.ids, tmp_path / "c")
    assert stats.total_execs == 0
    assert stats.time_to_first_target_crash is None
    assert not stats.crashes


def test_run_corpus_grows_monotonically(tmp_path, ppm_graph, ppm_command):
    config = ppm_campaign_config(ppm_command, duration_limit=1.5, stop_on_first=False)
    program = mutator.parse_program(CRASH_PROGRAM)
    workdir = tmp_path / "c"
    campaign.run(config, program, ppm_graph.ids, workdir)
    covered: set[int] = set()
    for line in (workdir / "events.log").read_text().splitlines():
        event = json.loads(line)
        if event["event"] == "admit":
            assert not set(event["new"]) & covered  # only genuinely new functions admit
            covered |= set(event["new"])
    assert covered  # the corpus covered something


def test_run_stop_on_first_records_nothing_after_crash(
        tmp_path, ppm_graph, ppm_command):
    config = ppm_campaign_config(ppm_command)
    program = mutator.parse_program(CRASH_PROGRAM)
    workdir = tmp_path / "c"
    stats = campaign.run(config, program, ppm_graph.ids, workdir)
    events = [json.loads(line) for line in (workdir / "events.log").read_text().splitlines()]
    crash_execs = [e["exec"] for e in events if e["event"] == "crash" and e["reached_target"]]
    assert crash_execs
    assert stats.total_execs == crash_execs[0]  # nothing recorded past the stop


def test_run_records_each_crash_input_once(tmp_path, ppm_graph, ppm_command):
    # the program has no random operands, so it yields the same few crash inputs
    config = ppm_campaign_config(ppm_command, duration_limit=1.0, stop_on_first=False,
                                 mix_ratio=1.0)
    program = mutator.parse_program(CRASH_PROGRAM)
    workdir = tmp_path / "c"
    stats = campaign.run(config, program, ppm_graph.ids, workdir)
    hashes = [c.input_hash for c in stats.crashes]
    assert len(hashes) == len(set(hashes))
    events = [json.loads(line) for line in (workdir / "events.log").read_text().splitlines()]
    assert sorted(e["sha"] for e in events if e["event"] == "crash") == sorted(hashes)
    assert sorted(p.stem for p in (workdir / "crashes").glob("*.bin")) == sorted(hashes)
    assert sum(c.count for c in stats.crashes) == stats.total_execs  # every exec crashed
    assert max(c.count for c in stats.crashes) > 1


def test_run_counts_the_clamps_of_every_worker(tmp_path, ppm_graph, ppm_command):
    # every exec runs the program, whose one offset is always out of range; more
    # workers than cores and a short switch interval would expose a lost update
    config = ppm_campaign_config(ppm_command, duration_limit=0.5, stop_on_first=False,
                                 mix_ratio=1.0, workers=4)
    program = mutator.parse_program("SetByte(99999, 0x41)")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        stats = campaign.run(config, program, ppm_graph.ids, tmp_path / "c")
    finally:
        sys.setswitchinterval(interval)
    assert stats.total_execs > 0
    assert stats.clamp_events == stats.total_execs
    assert campaign.load_stats(tmp_path / "c" / "stats.json").clamp_events == stats.clamp_events


def test_run_reproducible_events_and_stats(tmp_path, ppm_graph, ppm_command):
    program = mutator.parse_program(CRASH_PROGRAM)
    runs = []
    for name in ("one", "two"):
        config = ppm_campaign_config(ppm_command, rng_seed=1234)
        stats = campaign.run(config, program, ppm_graph.ids,
                             tmp_path / name)
        runs.append((stats, (tmp_path / name / "events.log").read_bytes()))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_run_refresh_events_counted(tmp_path, ppm_graph, ppm_command):
    config = ppm_campaign_config(ppm_command, duration_limit=2.0, refresh_period=0.5,
                                 stop_on_first=False)
    program = mutator.parse_program(CRASH_PROGRAM)
    stats = campaign.run(config, program, ppm_graph.ids, tmp_path / "c")
    assert 3 <= stats.refresh_events <= 5  # floor(2.0 / 0.5) give or take one


def test_run_persists_refreshed_program_with_trial(tmp_path, ppm_graph, ppm_command):
    from reachfuzz.mutator import MutatorBuild, TrialReport

    program = mutator.parse_program(CRASH_PROGRAM)

    def rebuild(prior, runner):
        report = TrialReport(execs_per_sec=50.0, harness_crashes=0,
                             verdict="accepted", execs=25)
        return MutatorBuild(program, report, list(prior), 0)

    config = ppm_campaign_config(ppm_command, duration_limit=1.0, refresh_period=0.3,
                                 stop_on_first=False)
    workdir = tmp_path / "c"
    stats = campaign.run(config, program, ppm_graph.ids, workdir,
                         rebuild=rebuild)
    assert stats.refresh_events >= 1
    assert (workdir / "mutators" / "active-1.mut").exists()
    trial = json.loads((workdir / "mutators" / "active-1.trial.json").read_text())
    assert trial["verdict"] == "accepted"


def test_run_multi_worker_smoke(tmp_path, ppm_graph, ppm_command):
    config = ppm_campaign_config(ppm_command, workers=2)
    program = mutator.parse_program(CRASH_PROGRAM)
    stats = campaign.run(config, program, ppm_graph.ids, tmp_path / "c")
    assert stats.found_target_crash


def read_events(workdir: Path) -> list[dict]:
    return [json.loads(line) for line in (workdir / "events.log").read_text().splitlines()]


def test_llm_rebuild_swaps_in_program_and_strategies(catalog, tmp_path, ppm_graph,
                                                     ppm_command):
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
    stats = campaign.run(config, mutator.parse_program(CRASH_PROGRAM), ppm_graph.ids, workdir,
                         [MutationStrategy("old idea", "")], rebuild)
    assert len(priors) == stats.refresh_events >= 2
    assert priors[0] == ["old idea"]
    assert all(prior == ["fresh idea"] for prior in priors[1:])
    assert (workdir / "mutators" / "active-1.mut").read_text() == "Overwrite(3, 39)\n"
    trial = json.loads((workdir / "mutators" / "active-1.trial.json").read_text())
    assert trial["verdict"] == "accepted" and trial["execs"] > 0
    refreshes = [e for e in read_events(workdir) if e["event"] == "refresh"]
    assert refreshes == [{"event": "refresh", "n": n, "swapped": True}
                         for n in range(1, len(priors) + 1)]


def test_llm_rebuild_failure_keeps_program(catalog, tmp_path, ppm_graph, ppm_command):
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
    stats = campaign.run(config, mutator.parse_program(CRASH_PROGRAM), ppm_graph.ids, workdir,
                         [MutationStrategy("old", "")], rebuild)
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

    def run(self, data):
        with lock:
            calls[0] += 1
            n = calls[0]
        on_call(n)
        return original(self, data)

    monkeypatch.setattr(Executor, "run", run)
    return calls


def test_refresh_runs_while_other_workers_fuzz(tmp_path, ppm_graph, ppm_command, monkeypatch):
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
    stats = campaign.run(config, program, ppm_graph.ids, tmp_path / "c",
                         rebuild=rebuild)
    assert waited == [True], "the other worker ran fewer than 20 execs during a refresh"
    assert stats.refresh_events >= 1


@pytest.mark.parametrize("workers", [1, 2])
def test_worker_error_stops_campaign_and_is_raised(workers, tmp_path, ppm_graph,
                                                   ppm_command,
                                                   monkeypatch):
    def on_call(n):
        if n == 5:
            raise OSError("injected on the 5th exec")

    calls = counting_executor_run(monkeypatch, on_call)
    config = ppm_campaign_config(ppm_command, duration_limit=10.0, stop_on_first=False,
                                 workers=workers)
    start = time.monotonic()
    with pytest.raises(OSError, match="5th exec"):
        campaign.run(config, mutator.parse_program(CRASH_PROGRAM), ppm_graph.ids,
                     tmp_path / "c")
    assert time.monotonic() - start < 5.0
    assert calls[0] <= 5 + (workers - 1)  # each other worker ends its exec in flight


def test_worker_error_keeps_events_recorded_before_it(tmp_path, ppm_graph, ppm_command, monkeypatch):
    program = mutator.parse_program(CRASH_PROGRAM)
    config = ppm_campaign_config(ppm_command, duration_limit=2.0, stop_on_first=False)
    campaign.run(config, program, ppm_graph.ids, tmp_path / "ref")
    reference = read_events(tmp_path / "ref")
    assert reference[-1]["event"] == "finish" and reference[-1]["total_execs"] >= 40

    def on_call(n):
        if n == 40:
            raise OSError("injected on the 40th exec")

    counting_executor_run(monkeypatch, on_call)
    with pytest.raises(OSError, match="40th exec"):
        campaign.run(config, program, ppm_graph.ids, tmp_path / "c")
    events = read_events(tmp_path / "c")
    kinds = [e["event"] for e in events]
    assert kinds[0] == "start" and "finish" not in kinds
    assert "admit" in kinds and "crash" in kinds
    # the same run as the reference, up to the failed exec
    assert events == [e for e in reference if e.get("exec", 0) < 40 and e["event"] != "finish"]


def test_shared_state_survives_many_workers_and_refreshes(tmp_path, ppm_graph, ppm_command, monkeypatch):
    calls = counting_executor_run(monkeypatch, lambda n: None)
    config = ppm_campaign_config(ppm_command, duration_limit=1.5, refresh_period=0.05,
                                 stop_on_first=False, workers=4)
    workdir = tmp_path / "c"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        stats = campaign.run(config, mutator.parse_program(CRASH_PROGRAM), ppm_graph.ids,
                             workdir)
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
    assert "Total:   957.000s" in text
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
    assert "Total:   30.000s" in text


def test_report_times_read_to_the_millisecond():
    timings = [StageTiming("SA", 0.0042), StageTiming("RAG", 0.0158), StageTiming("Opt", 0.2216)]
    text = render_report(timings, CampaignStats(time_to_first_target_crash=0.0371))
    assert text.splitlines()[1:5] == ["SA:      0.004s", "RAG:     0.016s", "Opt:     0.222s",
                                      "Total:   0.242s"]  # the sum of the printed cells
    assert "time to bug:            0.037s" in text


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
