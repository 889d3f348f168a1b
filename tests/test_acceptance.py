"""Acceptance suite: each test checks one release gate at its stated
tolerance and prints one pass line; a pytest failure is the fail line."""

from __future__ import annotations

import hashlib
import json
import math
import random
import shlex
import statistics
import time
from pathlib import Path

import pytest

from conftest import (
    PPM_SEED,
    declared_growth,
    engine_from_rules,
    make_graph,
    random_program,
    trial_verdicts,
)
from reachfuzz import callgraph, campaign, cli, demo, mutator
from reachfuzz.callgraph import CallChain, TraceObservation
from reachfuzz.campaign import CampaignConfig, CampaignStats, StageTiming
from reachfuzz.knowledge import Chunk, HashEmbedder, build_index, retrieve_top_k
from reachfuzz.mutator import MutationStrategy
from reachfuzz.seedgen import CommandLine, Seed

GOLDEN = Path(__file__).parent / "golden"


def ok(label: str):
    print(f"[acceptance] PASS: {label}")


# --- 1. graph reachability against exhaustive enumeration -------------------------

def enumerate_paths(graph, src, dst):
    paths, stack = [], [(src, (src,))]
    while stack:
        node, path = stack.pop()
        if node == dst:
            paths.append(path)
            continue
        for nxt in graph.successors(node):
            if nxt not in path:
                stack.append((nxt, path + (nxt,)))
    return paths


def test_graph_oracles_on_random_dags():
    rng = random.Random(20240809)
    start = time.monotonic()
    for round_no in range(200):
        n = rng.randint(2, 12)
        density = rng.uniform(0.2, 0.5)
        graph = make_graph([f"f{i:02d}" for i in range(n)],
                           [(i, j) for i in range(n) for j in range(i + 1, n)
                            if rng.random() < density])
        target = rng.randrange(n)
        paths = enumerate_paths(graph, graph.entry, target)

        chain = callgraph.complete_chain(graph, target)
        dist = callgraph.distances_to(graph, target)
        got_distance = dist.get(graph.entry)
        if not paths:
            assert chain is None and got_distance is None
            continue
        shortest = min(len(p) for p in paths)
        best = min((p for p in paths if len(p) == shortest),
                   key=lambda p: [graph.name_of(f) for f in p])
        assert got_distance == shortest - 1
        assert chain.functions == best
        chain.validate(graph, expected_entry=graph.entry)

        if len(chain.functions) < 2:
            continue
        # deviation always selects the minimum-distance chain member in the
        # trace, ties toward the latest occurrence
        prefix = list(chain.functions[:rng.randint(1, len(chain.functions) - 1)])
        noise = [f for f in range(n) if f != target and f not in prefix]
        rng.shuffle(noise)
        trace = TraceObservation(prefix + noise[:2])
        expected_dev, expected_pos = None, -1
        for pos, fn in enumerate(trace.reached):
            if fn in set(chain.functions) and fn in dist:
                if (expected_dev is None or dist[fn] < dist[expected_dev]
                        or (dist[fn] == dist[expected_dev] and pos > expected_pos)):
                    expected_dev, expected_pos = fn, pos
        dev, goal = callgraph.deviation(dist, chain, trace)
        assert dev == expected_dev
        assert dist[dev] == min(dist[f] for f in trace.reached
                                if f in set(chain.functions) and f in dist)
        assert dist[goal] < dist[dev]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"graph oracle sweep took {elapsed:.1f}s"
    ok(f"graph reachability matches exhaustive enumeration on 200 DAGs ({elapsed:.1f}s)")


# --- 2. retrieval against full-sort cosine ranking ---------------------------------

def brute_force_ranking(index, query_text, k):
    embedder = HashEmbedder(index.dim)
    q = [float(x) for x in embedder.embed(query_text)]
    qnorm = math.sqrt(math.fsum(x * x for x in q))
    scored = []
    for i, chunk in enumerate(index.chunks):
        row = [float(x) for x in index.vectors[i]]
        rnorm = math.sqrt(math.fsum(x * x for x in row))
        if qnorm == 0.0 or rnorm == 0.0:
            score = -1.0
        else:
            score = math.fsum(a * b for a, b in zip(q, row)) / (qnorm * rnorm)
        scored.append((chunk.id, score))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[: min(k, len(scored))]


def test_retrieval_matches_full_sort():
    rng = random.Random(17)
    vocabulary = [f"word{i}" for i in range(60)]
    start = time.monotonic()
    for _ in range(50):
        count = rng.randint(1, 500)
        texts = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.05:
                texts.append("???")  # tokenless: zero-norm vector
            elif roll < 0.15 and texts:
                texts.append(rng.choice(texts))  # exact duplicate: score tie
            else:
                texts.append(" ".join(rng.choices(vocabulary, k=rng.randint(1, 12))))
        chunks = [Chunk(i, f"f{i}.txt", (0, len(t)), t) for i, t in enumerate(texts)]
        index = build_index(chunks, HashEmbedder())
        query = " ".join(rng.choices(vocabulary, k=6))
        got = retrieve_top_k(index, query, k=10)
        expected = brute_force_ranking(index, query, k=10)
        assert [c.id for c, _ in got] == [cid for cid, _ in expected]
        for (_, score), (_, expected_score) in zip(got, expected):
            assert abs(score - expected_score) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"retrieval sweep took {elapsed:.1f}s"
    ok(f"retrieval equals full-sort ranking on 50 corpora ({elapsed:.1f}s)")


# --- 3. branch-topology deviation scenario -----------------------------------------

def test_branch_scenario_deviation():
    graph = make_graph(["E", "A", "B", "C", "T"], [(0, 1), (1, 2), (1, 3), (3, 4)])
    chain = CallChain((0, 1, 3, 4))
    dev, goal = callgraph.deviation(callgraph.distances_to(graph, 4), chain,
                                    TraceObservation([0, 1, 2]))
    assert graph.name_of(dev) == "A"
    assert graph.name_of(goal) == "C"
    ok("trace E,A,B against chain E,A,C,T deviates at A with next goal C")


# --- 4. end-to-end preparation on the shipped toy project --------------------------

def test_prepare_end_to_end(tmp_path, ppm_executor):
    config_path = demo.build_workspace(tmp_path / "ws")
    start = time.monotonic()
    assert cli.main(["prepare", "--config", str(config_path)]) == cli.EXIT_OK
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"prepare took {elapsed:.1f}s"
    work = tmp_path / "ws" / "work"
    bundle = json.loads((work / "prepare" / "bundle.json").read_text())
    assert bundle["status"] == "reached"
    assert bundle["llm_requests"] <= 20
    seeds = sorted((work / "prepare" / "seeds").glob("seed-*.bin"))
    assert seeds
    result = ppm_executor.run(seeds[0].read_bytes())
    assert result.trace.contains(3)  # read_pixels
    ok(f"prepare reached the target in {elapsed:.1f}s with "
       f"{bundle['llm_requests']} backend requests")


# --- 5. mutator pipeline verdicts ---------------------------------------------------

def test_mutator_repair_then_accept(catalog, ppm_runner):
    engine = engine_from_rules(
        catalog,
        ("rejected by the mutation-language parser",
         "PROGRAM:\n```\nOverwrite(3, 39)\n```"),
        ("Translate the mutation strategies", "PROGRAM:\n```\nNotAnOp(1)\n```"),
    )
    program = mutator.synthesize([MutationStrategy("grow the width digit", "")], engine)
    assert engine.client.accounting().total_requests == 2
    report = mutator.trial_run(program, PPM_SEED, ppm_runner, duration=1.0,
                               min_execs_per_sec=10)
    assert report.verdict == "accepted"
    ok("one malformed then one valid program costs exactly 2 requests and is accepted")


def test_mutator_rejects_giant_resize_with_bounded_regeneration(
        catalog, ppm_graph, ppm_command, ppm_program_exec, tmp_path, caplog):
    executor = campaign.Executor(ppm_graph.ids, tmp_path / "exec", ppm_command,
                                 exec_timeout=30.0, program_exec=ppm_program_exec)
    runner = executor.run
    engine = engine_from_rules(
        catalog,
        ("Generate fuzzing mutation strategies",
         "STRATEGIES:\n- balloon the input :: bigger is better"),
        ("Translate the mutation strategies",
         "PROGRAM:\n```\nResizeTo(268435456, 0x00)\n```"),
    )
    analysis = mutator.BugAnalysis("overread", ["oversized input"], [])
    build = mutator.build_mutator(analysis, engine, PPM_SEED, runner,
                                  trial_duration=0.5,
                                  min_execs_per_sec=10)
    assert not build.accepted
    assert engine.client.accounting().total_requests == 5  # strategies, four syntheses
    # initial program plus three regenerations
    assert trial_verdicts(caplog) == ["rejected-slow"] * 4
    ok("a 256 MiB-resize program is rejected-slow and regeneration stops after 3 tries")


# --- shared prepared workspace for the campaign criteria ---------------------------

@pytest.fixture(scope="module")
def prepared(tmp_path_factory):
    root = tmp_path_factory.mktemp("prepared")
    config_path = demo.build_workspace(root)
    assert cli.main(["prepare", "--config", str(config_path)]) == cli.EXIT_OK
    config = cli.load_config(config_path)
    graph = callgraph.load(config.graph_file)
    prepare_dir = config.work_dir / "prepare"
    program = mutator.parse_program(
        (prepare_dir / "mutator" / "program.mut").read_text())
    command = CommandLine("ppmcheck", ("@@",))
    seed_files = sorted((prepare_dir / "seeds").glob("seed-*.bin"))
    seeds = [Seed(p.read_bytes(), command) for p in seed_files]
    return dict(config=config, graph=graph, program=program, command=command,
                seeds=seeds, program_exec=shlex.split(config.program_exec), root=root)


def run_campaign(prepared, workdir, *, seeds, program, rng_seed, duration,
                 stop_on_first=True, mix_ratio=0.8, refresh_period=3600.0):
    cfg = CampaignConfig(
        command=prepared["command"], program_exec=prepared["program_exec"],
        seeds=seeds, target_function=3,
        duration_limit=duration, exec_timeout=5.0, rng_seed=rng_seed,
        mix_ratio=mix_ratio, refresh_period=refresh_period,
        stop_on_first=stop_on_first, workers=1)
    return campaign.run(cfg, program, prepared["graph"].ids, workdir)


# --- 6. directed campaign beats random-only ----------------------------------------

def test_directedness_payoff(prepared, tmp_path):
    blank_seed = [Seed(b"\x00" * 16, prepared["command"])]
    pair_wins = 0
    times_to_bug = []
    for i, rng_seed in enumerate((11, 22, 33, 44, 55)):
        directed = run_campaign(
            prepared, tmp_path / f"directed-{i}", seeds=prepared["seeds"],
            program=prepared["program"], rng_seed=rng_seed,
            duration=60.0)
        assert directed.found_target_crash
        times_to_bug.append(directed.time_to_first_target_crash)
        random_only = run_campaign(
            prepared, tmp_path / f"random-{i}", seeds=blank_seed,
            program=None, rng_seed=rng_seed, duration=5.0)
        if random_only.total_execs >= 5 * directed.total_execs:
            pair_wins += 1
    assert pair_wins >= 4, f"only {pair_wins} of 5 pairs showed a 5x exec gap"
    assert statistics.median(times_to_bug) <= 60.0
    ok(f"directed campaign crashed the target in median "
       f"{statistics.median(times_to_bug):.2f}s and won {pair_wins}/5 paired runs")


# --- 7. campaign determinism ---------------------------------------------------------

def test_campaign_determinism(prepared, tmp_path):
    results = []
    for name in ("first", "second"):
        stats = run_campaign(prepared, tmp_path / name, seeds=prepared["seeds"],
                             program=prepared["program"],
                             rng_seed=424242, duration=60.0)
        events = (tmp_path / name / "events.log").read_bytes()
        results.append((stats, events))
    assert results[0][1] == results[1][1], "events.log differs between identical runs"
    assert results[0][0] == results[1][0], "campaign stats differ between identical runs"
    ok("identical configs produce byte-identical events.log and equal stats")


# --- 8. report schema ----------------------------------------------------------------

def test_report_schema_and_total_arithmetic():
    timings = [StageTiming("SA", 24), StageTiming("RAG", 95),
               StageTiming("Opt", 693), StageTiming("Mutator", 145)]
    stats = CampaignStats(total_execs=1234, execs_reaching_target=56,
                          crashes=[campaign.CrashRecord("ab12", "SIGSEGV", True)],
                          refresh_events=3, clamp_events=7,
                          time_to_first_target_crash=42.6)
    text = campaign.render_report(timings, stats)
    assert text == (GOLDEN / "report_full.txt").read_text()
    rows = [line.split(":")[0] for line in text.splitlines()[1:6]]
    assert rows == ["SA", "RAG", "Opt", "Mutator", "Total"]
    assert "Total:   957.000s" in text  # 24 + 95 + 693 + 145

    timed_out = [StageTiming("SA", 47), StageTiming("RAG", 285),
                 StageTiming("Opt", 3600, timed_out=True), StageTiming("Mutator", 101)]
    text = campaign.render_report(timed_out, CampaignStats(total_execs=9))
    assert text == (GOLDEN / "report_timeout.txt").read_text()
    assert "Opt:     T.O." in text and "Total:   T.O." in text
    ok("report renders SA, RAG, Opt, Mutator, Total in order with T.O. cells")


# --- 9. refresh periodicity -----------------------------------------------------------

def test_refresh_event_bound(prepared, tmp_path):
    stats = run_campaign(prepared, tmp_path / "refresh", seeds=prepared["seeds"],
                         program=prepared["program"],
                         rng_seed=5, duration=30.0, stop_on_first=False,
                         refresh_period=5.0)
    assert 5 <= stats.refresh_events <= 7, f"refresh events: {stats.refresh_events}"
    ok(f"30s campaign with 5s period recorded {stats.refresh_events} refresh events")


# --- 10. mutation purity sweep ---------------------------------------------------------

def sweep_cases():
    """The sweep's 10^4 random programs, each with an input and a stream seed."""
    rng = random.Random(31337)
    for _ in range(10_000):
        program = random_program(rng)
        data = rng.randbytes(rng.randint(0, 256))
        yield program, data, rng.randrange(2 ** 63)


def test_mutation_purity_sweep():
    for program, data, stream_seed in sweep_cases():
        first = mutator.apply(program, data, random.Random(stream_seed))
        second = mutator.apply(program, data, random.Random(stream_seed))
        assert first == second, "replaying the stream must reproduce the mutation"
        assert len(first[0]) <= len(data) + declared_growth(program)
    ok("10^4 random programs replay byte-identically within declared growth bounds")


def test_mutation_sweep_matches_golden_digest():
    # pins each sweep program's output, clamp count and rendered text
    digest = hashlib.sha256()
    for program, data, stream_seed in sweep_cases():
        output, clamps = mutator.apply(program, data, random.Random(stream_seed))
        for part in (output, str(clamps).encode(), program.render().encode()):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    assert digest.hexdigest() == (GOLDEN / "mutation_sweep.sha256").read_text().strip()
    ok("10^4 random programs give the pinned outputs, clamp counts and text")
