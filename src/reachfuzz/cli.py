"""Command-line entry point: prepare, fuzz, report.

``prepare`` runs the four preparation stages (static analysis, retrieval
grounded usage, seed optimization, mutator synthesis) and persists every
artifact with its wall-clock duration. ``fuzz`` runs the directed campaign
from a prepared bundle. ``report`` renders the stage table and campaign
counters from the persisted files alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import random
import re
import shlex
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import callgraph, campaign, knowledge, mutator, seedgen
from .errors import ReachFuzzError, StageFailure, TaskError
from .knowledge import BugInfo, HashEmbedder, ProgramUsage, SummaryCache
from .llm_client import LlmClient, RemoteBackend, scripted_client
from .query_engine import Engine, load_catalog
from .seedgen import CommandLine, Seed

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 2  # argparse convention
EXIT_STAGE_FAILURE = 3
EXIT_ISOLATED_TARGET = 4
EXIT_TIMEOUT_NO_BUG = 5

_DURATION = re.compile(r"^(\d+(?:\.\d+)?)(ms|s|m|h)?$")
_DURATION_UNITS = {"ms": 0.001, "s": 1.0, "m": 60.0, "h": 3600.0, None: 1.0}


def parse_duration(text: str) -> float:
    m = _DURATION.match(text.strip())
    if not m:
        raise ValueError(f"bad duration {text!r} (examples: 500ms, 30s, 10m, 1h)")
    return float(m.group(1)) * _DURATION_UNITS[m.group(2)]


@dataclass
class ProjectConfig:
    corpus_root: Path
    graph_file: Path
    bug_report_file: Path
    work_dir: Path
    fixture_file: Path | None = None
    llm_backend: str = "scripted"
    program_exec: str = ""
    opt_budget: float = seedgen.DEFAULT_OPT_BUDGET
    trial_duration: float = mutator.DEFAULT_TRIAL_DURATION
    campaign_duration: float = 3600.0
    exec_timeout: float = campaign.DEFAULT_EXEC_TIMEOUT
    refresh_period: float = mutator.DEFAULT_REFRESH_PERIOD
    mix_ratio: float = campaign.DEFAULT_MIX_RATIO
    rng_seed: int = 0
    min_execs_per_sec: float = mutator.DEFAULT_MIN_EXECS_PER_SEC


_PATH_KEYS = ("corpus_root", "graph_file", "bug_report_file", "work_dir", "fixture_file")
_DURATION_KEYS = ("opt_budget", "trial_duration", "campaign_duration",
                  "exec_timeout", "refresh_period")


def load_config(path: str | Path) -> ProjectConfig:
    """Parse a ``key = value`` config file; relative paths resolve against it."""
    path = Path(path)
    base = path.parent
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        values[key.strip()] = value.strip()

    kwargs: dict = {}
    for key in ("corpus_root", "graph_file", "bug_report_file", "work_dir"):
        if key not in values:
            raise ValueError(f"{path}: missing required key {key!r}")
    for key, value in values.items():
        if key in _PATH_KEYS:
            kwargs[key] = (base / value).resolve() if not Path(value).is_absolute() else Path(value)
        elif key in _DURATION_KEYS:
            kwargs[key] = parse_duration(value)
        elif key == "mix_ratio":
            kwargs[key] = float(value)
        elif key == "rng_seed":
            kwargs[key] = int(value)
        elif key == "min_execs_per_sec":
            kwargs[key] = float(value)
        elif key in ("llm_backend", "program_exec"):
            kwargs[key] = value
        else:
            raise ValueError(f"{path}: unknown config key {key!r}")
    config = ProjectConfig(**kwargs)
    for key in ("corpus_root", "graph_file", "bug_report_file"):
        target = getattr(config, key)
        if not target.exists():
            raise ValueError(f"{path}: {key} does not exist: {target}")
    if config.fixture_file is not None and not config.fixture_file.exists():
        raise ValueError(f"{path}: fixture_file does not exist: {config.fixture_file}")
    for key in _DURATION_KEYS:
        if getattr(config, key) <= 0:
            raise ValueError(f"{path}: {key} must be positive")
    return config


def build_client(config: ProjectConfig, fixture_override: Path | None = None) -> LlmClient:
    fixture = fixture_override or config.fixture_file
    if fixture is not None:
        return scripted_client(fixture, strict=True)
    if config.llm_backend == "remote":
        return LlmClient(RemoteBackend())
    raise ValueError("no fixture file configured and llm_backend is not 'remote'")


class StageClock:
    """Wall-clock stage timings in the fixed report order."""

    def __init__(self):
        self.timings: list[campaign.StageTiming] = []

    def run(self, name: str, fn, timed_out=None):
        start = time.monotonic()
        try:
            result = fn()
        except ReachFuzzError as exc:
            raise StageFailure(name, str(exc)) from exc
        seconds = time.monotonic() - start
        self.timings.append(campaign.StageTiming(
            name, seconds, bool(timed_out and timed_out(result))))
        return result


def _definition_source(config: ProjectConfig, graph: callgraph.CallGraph):
    def lookup(function_name: str) -> str:
        node_id = graph.id_of(function_name)
        if node_id is None:
            raise TaskError(f"function {function_name!r} is not in the call graph")
        source = config.corpus_root / graph.nodes[node_id].source_file
        try:
            text = source.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            raise TaskError(f"cannot read source for {function_name!r}: {exc}") from None
        return knowledge.extract_definition(text, function_name)
    return lookup


def cmd_prepare(config: ProjectConfig, fixture_override: Path | None = None,
                opt_budget: float | None = None, force: bool = False) -> int:
    prepare_dir = config.work_dir / "prepare"
    bundle_path = prepare_dir / "bundle.json"
    if bundle_path.exists() and not force:
        print(f"error: {bundle_path} already exists; use --force to redo", file=sys.stderr)
        return EXIT_STAGE_FAILURE
    prepare_dir.mkdir(parents=True, exist_ok=True)
    opt_budget = opt_budget if opt_budget is not None else config.opt_budget

    client = build_client(config, fixture_override)
    engine = Engine(load_catalog(), client)
    clock = StageClock()

    executor = None  # one for Opt and Mutator, so a Python target is preloaded once
    try:
        graph, bug, target, chain = clock.run(
            "SA", lambda: _stage_sa(config, engine))
        usage, index = clock.run(
            "RAG", lambda: _stage_rag(config, engine, bug, prepare_dir))
        executor = campaign.Executor(graph, prepare_dir / "exec", config.exec_timeout,
                                     shlex.split(config.program_exec))
        outcome, command, summaries = clock.run(
            "Opt",
            lambda: _stage_opt(config, engine, graph, bug, usage, target,
                               chain, prepare_dir, opt_budget, executor),
            timed_out=lambda result: result[0].status == "timeout",
        )
        if outcome.status == "isolated-target":
            campaign.save_stage_timings(clock.timings, prepare_dir / "stage_timings.json")
            print("prepare: target has no complete call chain and no direct callers "
                  "(isolated target)", file=sys.stderr)
            return EXIT_ISOLATED_TARGET
        build = clock.run(
            "Mutator",
            lambda: _stage_mutator(config, engine, bug, summaries,
                                   outcome, command, prepare_dir, executor))
    except StageFailure as exc:
        campaign.save_stage_timings(clock.timings, prepare_dir / "stage_timings.json")
        print(f"prepare failed in stage {exc.stage}: {exc}", file=sys.stderr)
        return EXIT_STAGE_FAILURE
    finally:
        if executor is not None:
            executor.close()

    campaign.save_stage_timings(clock.timings, prepare_dir / "stage_timings.json")
    bundle = {
        "status": outcome.status,
        "program": bug.program,
        "target_function": graph.name_of(target),
        "command": command.render(),
        "seed_count": len(outcome.candidates or [outcome.best_seed]),
        "mutator_accepted": build.accepted,
        "llm_requests": client.accounting().total_requests,
    }
    bundle_path.write_text(json.dumps(bundle, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(campaign.render_report(clock.timings), end="")
    print(f"status: {outcome.status}; mutator "
          f"{'accepted' if build.accepted else 'unavailable (random-only fallback)'}")
    return EXIT_OK


def _stage_sa(config: ProjectConfig, engine: Engine):
    graph = callgraph.load(config.graph_file)
    report_text = config.bug_report_file.read_text(encoding="utf-8")
    bug = knowledge.extract_bug_info(report_text, engine, stage="sa")
    target = graph.id_of(bug.vulnerable_function)
    if target is None:
        raise TaskError(
            f"vulnerable function {bug.vulnerable_function!r} is not a call-graph node")
    chain = callgraph.complete_chain(graph, target)
    return graph, bug, target, chain


def _stage_rag(config: ProjectConfig, engine: Engine, bug: BugInfo, prepare_dir: Path):
    chunks = knowledge.chunk_corpus([config.corpus_root])
    index = knowledge.build_index(chunks, HashEmbedder())
    knowledge.save_index(index, prepare_dir / "index.rfix")
    usage = knowledge.derive_program_usage(bug, index, engine, stage="rag")
    _dump_json(prepare_dir / "bug_info.json", dataclasses.asdict(bug))
    _dump_json(prepare_dir / "usage.json", dataclasses.asdict(usage))
    return usage, index


def _stage_opt(config: ProjectConfig, engine: Engine, graph, bug: BugInfo,
               usage: ProgramUsage, target: int, chain, prepare_dir: Path,
               opt_budget: float, executor: campaign.Executor):
    definition_source = _definition_source(config, graph)
    summaries = SummaryCache(engine, definition_source)
    target_summary = summaries.get(bug.vulnerable_function, stage="opt")
    command = seedgen.select_command(bug, usage, target_summary, engine, stage="opt")
    spec = seedgen.generate_preliminary(command, bug, engine,
                                        input_expectations=command.description)
    sandbox = prepare_dir / "gen"
    data = seedgen.materialize(spec, sandbox, engine,
                               input_expectations=command.description)
    seed = Seed(data, command, ({"task": "preliminary_seed", "accepted": True},))

    runner = lambda data: executor.run(command, data)  # noqa: E731
    if chain is not None:
        outcome = seedgen.optimize_along_chain(
            seed, chain, graph, runner, engine, opt_budget,
            definition_source, sandbox)
    else:
        outcome = seedgen.optimize_by_functionality(
            seed, graph, target, runner, engine, opt_budget,
            random.Random(config.rng_seed), usage,
            lambda name: summaries.get(name, stage="opt"),
            definition_source, sandbox)
    if outcome.status != "isolated-target":
        seedgen.write_outcome(outcome, prepare_dir / "seeds")
        _dump_json(prepare_dir / "summaries.json",
                   {name: dataclasses.asdict(s) for name, s in summaries.snapshot().items()})
    return outcome, command, summaries


def _stage_mutator(config: ProjectConfig, engine: Engine, bug: BugInfo,
                   summaries: SummaryCache, outcome, command: CommandLine,
                   prepare_dir: Path, executor: campaign.Executor) -> mutator.MutatorBuild:
    target_summary = summaries.get(bug.vulnerable_function, stage="mutator")
    analysis = mutator.analyze_bug(bug, target_summary, engine, stage="mutator")
    _dump_json(prepare_dir / "analysis.json", dataclasses.asdict(analysis))
    runner = lambda data: executor.run(command, data)  # noqa: E731
    build = mutator.build_mutator(
        analysis, engine, outcome.best_seed.data, runner,
        trial_duration=config.trial_duration,
        thresholds=mutator.TrialThresholds(config.min_execs_per_sec),
        rng=random.Random(config.rng_seed),
    )
    mutator_dir = prepare_dir / "mutator"
    mutator_dir.mkdir(exist_ok=True)
    if build.accepted:
        (mutator_dir / "program.mut").write_text(build.program.render() + "\n",
                                                 encoding="utf-8")
        _dump_json(mutator_dir / "trial.json", dataclasses.asdict(build.trial))
    _dump_json(mutator_dir / "strategies.json",
               [dataclasses.asdict(s) for s in build.strategies])
    return build


def _dump_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _load_seeds(prepare_dir: Path, command: CommandLine) -> list[Seed]:
    seeds = []
    for path in sorted((prepare_dir / "seeds").glob("seed-*.bin")):
        data = path.read_bytes()
        if data:
            seeds.append(Seed(data, command, ({"task": "loaded", "file": path.name},)))
    return seeds


def cmd_fuzz(config: ProjectConfig, duration: float | None = None,
             workers: int = 1, mix_ratio: float | None = None,
             random_only: bool = False, rng_seed: int | None = None,
             fixture_override: Path | None = None, stop_on_first: bool = True) -> int:
    prepare_dir = config.work_dir / "prepare"
    bundle_path = prepare_dir / "bundle.json"
    if not bundle_path.exists():
        print(f"error: no prepared bundle at {bundle_path}; run prepare first",
              file=sys.stderr)
        return EXIT_STAGE_FAILURE
    bundle = json.loads(bundle_path.read_text(encoding="utf-8"))
    graph = callgraph.load(config.graph_file)
    target = graph.id_of(bundle["target_function"])
    if target is None:
        print("error: bundle target function is not in the call graph", file=sys.stderr)
        return EXIT_STAGE_FAILURE
    command = seedgen.parse_command_line(bundle["command"])
    seeds = _load_seeds(prepare_dir, command)
    if not seeds:
        print("error: prepared bundle has no seeds", file=sys.stderr)
        return EXIT_STAGE_FAILURE

    program = rebuild = None
    strategies = []
    mutator_dir = prepare_dir / "mutator"
    if not random_only:
        program_path = mutator_dir / "program.mut"
        if not program_path.exists():
            print("error: bundle has no accepted mutation program; "
                  "pass --random-only to fuzz without one", file=sys.stderr)
            return EXIT_STAGE_FAILURE
        try:
            program = mutator.parse_program(
                program_path.read_text(encoding="utf-8"))
        except ReachFuzzError as exc:
            print(f"error: invalid mutator file {program_path}: {exc}", file=sys.stderr)
            return EXIT_STAGE_FAILURE
        rebuild = _build_rebuild(config, prepare_dir, seeds, fixture_override)
        strategies_path = mutator_dir / "strategies.json"
        if rebuild is not None and strategies_path.exists():
            strategies = [mutator.MutationStrategy(**s)
                          for s in json.loads(strategies_path.read_text(encoding="utf-8"))]

    cfg = campaign.CampaignConfig(
        command=command,
        seeds=seeds,
        target_function=target,
        duration_limit=duration if duration is not None else config.campaign_duration,
        exec_timeout=config.exec_timeout,
        rng_seed=rng_seed if rng_seed is not None else config.rng_seed,
        mix_ratio=mix_ratio if mix_ratio is not None else config.mix_ratio,
        refresh_period=config.refresh_period,
        stop_on_first=stop_on_first,
        workers=workers,
    )
    fuzz_dir = config.work_dir / "fuzz"
    stats = campaign.run(cfg, program, graph, fuzz_dir, shlex.split(config.program_exec),
                         strategies, rebuild)
    campaign.save_stats(stats, fuzz_dir / "stats.json")
    timings = campaign.load_stage_timings(prepare_dir / "stage_timings.json")
    report = campaign.render_report(timings, stats)
    (fuzz_dir / "report.txt").write_text(report, encoding="utf-8")
    print(report, end="")
    return EXIT_OK if stats.found_target_crash else EXIT_TIMEOUT_NO_BUG


def _build_rebuild(config: ProjectConfig, prepare_dir: Path, seeds: list[Seed],
                   fixture_override: Path | None):
    """The campaign's refresh source: a ``rebuild(prior, runner)`` that queries
    the backend for a new mutator, or None when there is no backend or no
    bug analysis, so that a refresh re-issues the current program."""
    analysis_path = prepare_dir / "analysis.json"
    try:
        client = build_client(config, fixture_override)
    except ValueError:
        log.warning("no query backend available; mutator refresh disabled")
        return None
    if not analysis_path.exists():
        return None
    payload = json.loads(analysis_path.read_text(encoding="utf-8"))
    analysis = mutator.BugAnalysis(
        cause=payload["cause"],
        trigger_conditions=payload["trigger_conditions"],
        relevant_fields=[tuple(x) for x in payload["relevant_fields"]],
    )
    engine = Engine(load_catalog(), client)
    thresholds = mutator.TrialThresholds(config.min_execs_per_sec)
    return lambda prior, runner: mutator.build_mutator(
        analysis, engine, seeds[0].data, runner, prior=prior,
        trial_duration=config.trial_duration, thresholds=thresholds)


def cmd_report(work_dir: Path) -> int:
    prepare_timings = work_dir / "prepare" / "stage_timings.json"
    if not prepare_timings.exists():
        print(f"error: no stage timings under {work_dir}", file=sys.stderr)
        return EXIT_STAGE_FAILURE
    timings = campaign.load_stage_timings(prepare_timings)
    stats_path = work_dir / "fuzz" / "stats.json"
    stats = campaign.load_stats(stats_path) if stats_path.exists() else None
    print(campaign.render_report(timings, stats), end="")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="reachfuzz",
        description="directed fuzzing with generated reachable seeds and "
                    "bug-specific mutators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_prepare = sub.add_parser("prepare", help="run the four preparation stages")
    p_prepare.add_argument("--config", required=True, type=Path)
    p_prepare.add_argument("--fixture", type=Path, default=None,
                           help="force the scripted backend with this fixture file")
    p_prepare.add_argument("--opt-budget", type=parse_duration, default=None)
    p_prepare.add_argument("--force", action="store_true")

    p_fuzz = sub.add_parser("fuzz", help="run the directed campaign")
    p_fuzz.add_argument("--config", required=True, type=Path)
    p_fuzz.add_argument("--fixture", type=Path, default=None)
    p_fuzz.add_argument("--duration", type=parse_duration, default=None)
    p_fuzz.add_argument("--workers", type=int, default=1)
    p_fuzz.add_argument("--mix-ratio", type=float, default=None)
    p_fuzz.add_argument("--random-only", action="store_true")
    p_fuzz.add_argument("--rng-seed", type=int, default=None)
    p_fuzz.add_argument("--keep-going", action="store_true",
                        help="do not stop at the first target crash")

    p_report = sub.add_parser("report", help="render the report from persisted artifacts")
    p_report.add_argument("--dir", required=True, type=Path)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        if args.command == "prepare":
            config = load_config(args.config)
            return cmd_prepare(config, fixture_override=args.fixture,
                               opt_budget=args.opt_budget, force=args.force)
        if args.command == "fuzz":
            config = load_config(args.config)
            return cmd_fuzz(config, duration=args.duration, workers=args.workers,
                            mix_ratio=args.mix_ratio, random_only=args.random_only,
                            rng_seed=args.rng_seed, fixture_override=args.fixture,
                            stop_on_first=not args.keep_going)
        return cmd_report(args.dir)
    except (ReachFuzzError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
