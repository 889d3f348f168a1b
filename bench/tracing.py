"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces public functions and methods of the reachfuzz
modules with wrappers that record one span per call (name, start, end,
parent) in memory; ``restore`` puts the originals back. A span's self time
is its duration minus the durations of its child spans. The package is
never edited: callers inside it look these names up on their module or
class at call time, so the wrappers see every call.
"""

from __future__ import annotations

import functools
import statistics
import time

from reachfuzz import callgraph, campaign, cli, knowledge, llm_client, mutator
from reachfuzz import query_engine, seedgen

# (owner, attribute) pairs; the span name is "<module>.<qualified name>".
TRACED = (
    (cli, "cmd_prepare"), (cli, "cmd_fuzz"),
    (campaign, "run"), (campaign.Executor, "run"), (campaign, "random_mutate"),
    (mutator, "apply"), (mutator, "trial_run"),
    (callgraph, "observe"), (callgraph, "load"), (callgraph, "distances_to"),
    (knowledge, "chunk_corpus"), (knowledge.HashEmbedder, "embed"),
    (knowledge, "build_index"), (knowledge, "save_index"), (knowledge, "retrieve_top_k"),
    (seedgen, "optimize_along_chain"),
    (query_engine.Engine, "run"), (llm_client.LlmClient, "complete"),
)

RUN = "campaign.run"
EXEC = "campaign.Executor.run"
MUTATIONS = ("mutator.apply", "campaign.random_mutate")
OBSERVE = "callgraph.observe"
PREPARE = "cli.cmd_prepare"


class Span:
    __slots__ = ("name", "start", "end", "parent", "children", "result")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name, self.start, self.end, self.parent = name, start, start, parent
        self.children: list[Span] = []
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(c.duration for c in self.children)

    def within(self, name: str) -> bool:
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self):
        for owner, attr in TRACED:
            original = getattr(owner, attr)
            module = getattr(owner, "__module__", None) or owner.__name__
            name = f"{module.rsplit('.', 1)[-1]}.{original.__qualname__}"
            setattr(owner, attr, self._wrap(name, original))
            self._originals.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep_result = name == "knowledge.build_index"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, clock(), parent)
            if parent is not None:
                parent.children.append(span)
            spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
                if keep_result:
                    span.result = result
                return result
            finally:
                span.end = clock()
                stack.pop()
        return traced

    def named(self, name: str, within: str | None = None) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (within is None or s.within(within))]


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def campaign_accounting(tracer: Tracer) -> bool:
    """Check that campaign.run time is execution, mutation, observation and
    its own self time, and nothing else."""
    ok = True
    accounted = 0.0
    total = 0.0
    for run in tracer.named(RUN):
        total += run.duration
        accounted += run.self_time
        for child in run.children:
            ok &= child.name in (EXEC, *MUTATIONS)
            accounted += child.self_time
            for grandchild in child.children:
                ok &= child.name == EXEC and grandchild.name == OBSERVE
                accounted += grandchild.duration
    return ok and abs(accounted - total) <= 1e-9 * max(total, 1.0)


def per_layer(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round, as name -> (value, unit)."""
    prepares = len(tracer.named(PREPARE))
    per_prepare = 1.0 / max(prepares, 1)
    runs = tracer.named(RUN)
    execs = tracer.named(EXEC, within=RUN)
    starts = [run.children[0].start - run.start for run in runs if run.children]
    loop_self = sum(run.self_time for run in runs) - sum(starts)
    fuzz_outside = [cmd.duration - sum(c.duration for c in cmd.children if c.name == RUN)
                    for cmd in tracer.named("cli.cmd_fuzz")]
    in_prepare = lambda name: tracer.named(name, within=PREPARE)  # noqa: E731
    engine_runs = tracer.named("query_engine.Engine.run")
    requests = tracer.named("llm_client.LlmClient.complete")
    index_bytes = [s.result.vectors.nbytes for s in tracer.named("knowledge.build_index")]
    return {
        "campaign.exec_ms": (1e3 * _mean(s.self_time for s in execs), "ms"),
        "campaign.execs": (len(execs), "count"),
        "campaign.loop_ms": (1e3 * loop_self / max(len(execs), 1), "ms"),
        "campaign.start_ms": (1e3 * _mean(starts), "ms"),
        "cli.fuzz_ms": (1e3 * _mean(fuzz_outside), "ms"),
        "campaign.random_mutate_us": (
            1e6 * _mean(s.duration for s in tracer.named("campaign.random_mutate", RUN)), "us"),
        "mutator.apply_us": (
            1e6 * _mean(s.duration for s in tracer.named("mutator.apply", RUN)), "us"),
        "mutator.trial_execs": (
            per_prepare * len(tracer.named(EXEC, within="mutator.trial_run")), "count"),
        "callgraph.observe_us": (
            1e6 * _mean(s.duration for s in tracer.named(OBSERVE, RUN)), "us"),
        "callgraph.load_ms": (
            1e3 * _mean(s.duration for s in tracer.named("callgraph.load")), "ms"),
        "callgraph.distances_to_calls": (
            per_prepare * len(in_prepare("callgraph.distances_to")), "count"),
        "callgraph.distances_to_ms": (
            1e3 * per_prepare * sum(s.duration for s in in_prepare("callgraph.distances_to")),
            "ms"),
        "knowledge.chunk_corpus_ms": (
            1e3 * per_prepare * sum(s.duration for s in in_prepare("knowledge.chunk_corpus")),
            "ms"),
        "knowledge.embed_calls": (
            per_prepare * len(in_prepare("knowledge.HashEmbedder.embed")), "count"),
        "knowledge.embed_s": (
            per_prepare * sum(s.duration for s in in_prepare("knowledge.HashEmbedder.embed")),
            "s"),
        "knowledge.build_index_ms": (
            1e3 * per_prepare * sum(s.self_time for s in in_prepare("knowledge.build_index")),
            "ms"),
        "knowledge.save_index_ms": (
            1e3 * per_prepare * sum(s.duration for s in in_prepare("knowledge.save_index")),
            "ms"),
        "knowledge.retrieve_top_k_ms": (
            1e3 * per_prepare * sum(s.self_time for s in in_prepare("knowledge.retrieve_top_k")),
            "ms"),
        "knowledge.index_mb": (max(index_bytes, default=0) / 1e6, "MB"),
        "seedgen.optimize_ms": (
            1e3 * per_prepare * sum(s.self_time for s in in_prepare("seedgen.optimize_along_chain")),
            "ms"),
        "seedgen.opt_execs": (
            per_prepare * len(tracer.named(EXEC, within="seedgen.optimize_along_chain")), "count"),
        "query_engine.run_ms": (
            1e3 * sum(s.self_time for s in engine_runs) / max(len(requests), 1), "ms"),
        "llm_client.complete_ms": (1e3 * _mean(s.duration for s in requests), "ms"),
    }
