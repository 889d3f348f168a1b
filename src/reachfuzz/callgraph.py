"""Static program structure: call-graph ingestion and reachability queries.

The graph is ingested from a line-oriented file produced by an external
extractor; this module never performs source analysis itself. Unresolved
call sites (typically indirect calls) are accepted and dropped: they never
become edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import GraphFormatError, TraceDisjointError


@dataclass(frozen=True)
class FunctionNode:
    id: int
    name: str
    source_file: str


@dataclass
class CallGraph:
    nodes: dict[int, FunctionNode]
    edges: set[tuple[int, int]]
    entry: int

    def __post_init__(self):
        if self.entry not in self.nodes:
            raise GraphFormatError(f"entry node {self.entry} is not declared")
        for caller, callee in self.edges:
            if caller not in self.nodes or callee not in self.nodes:
                raise GraphFormatError(f"edge {caller}->{callee} references an undeclared node")
        self._succ: dict[int, list[int]] = {n: [] for n in self.nodes}
        self._pred: dict[int, list[int]] = {n: [] for n in self.nodes}
        for caller, callee in self.edges:
            self._succ[caller].append(callee)
            self._pred[callee].append(caller)
        by_name = lambda nid: self.nodes[nid].name  # noqa: E731
        for adj in (self._succ, self._pred):
            for nid in adj:
                adj[nid].sort(key=by_name)
        self.ids = {node.name: node.id for node in self.nodes.values()}

    def successors(self, node_id: int) -> list[int]:
        return self._succ[node_id]

    def predecessors(self, node_id: int) -> list[int]:
        return self._pred[node_id]

    def id_of(self, name: str) -> int | None:
        return self.ids.get(name)

    def name_of(self, node_id: int) -> str:
        return self.nodes[node_id].name

    def require(self, node_id: int):
        if node_id not in self.nodes:
            raise KeyError(f"unknown function id {node_id}")


@dataclass(frozen=True)
class CallChain:
    """Ordered caller-to-callee path of function ids.

    A complete chain starts at the graph entry and ends at the target; the
    neighbor fallback hands partial chains (caller-of-target suffixes) to the
    same optimization loop, so only consecutive-edge and simple-path validity
    are enforced here.
    """

    functions: tuple[int, ...]

    def __post_init__(self):
        if not self.functions:
            raise ValueError("a call chain cannot be empty")
        if len(set(self.functions)) != len(self.functions):
            raise ValueError("a call chain must be a simple path")

    @property
    def target(self) -> int:
        return self.functions[-1]

    def successor_of(self, node_id: int) -> int | None:
        for i, fn in enumerate(self.functions[:-1]):
            if fn == node_id:
                return self.functions[i + 1]
        return None

    def validate(self, graph: CallGraph, expected_entry: int | None = None):
        for fn in self.functions:
            graph.require(fn)
        for a, b in zip(self.functions, self.functions[1:]):
            if (a, b) not in graph.edges:
                raise ValueError(
                    f"chain step {graph.name_of(a)}->{graph.name_of(b)} is not a graph edge"
                )
        if expected_entry is not None and self.functions[0] != expected_entry:
            raise ValueError("chain does not start at the entry function")


@dataclass
class TraceObservation:
    """Function ids actually executed, in observed order."""

    reached: list[int]

    def contains(self, node_id: int) -> bool:
        return node_id in self.reached


def observe(ids: dict[str, int], names: list[str]) -> TraceObservation:
    """Map traced function names onto ids by the name->id map ``ids``
    (``CallGraph.ids``), dropping unknown names."""
    return TraceObservation([ids[name] for name in names if name in ids])


def load(path) -> CallGraph:
    """Parse a graph file.

    Line forms: ``node <id> <name> <file>``, ``edge <caller> <callee>``,
    ``entry <id>``, ``unresolved <caller> <site-label>``; ``#`` starts a
    comment. Duplicate edges collapse to one; unresolved sites are checked
    and dropped. Function names must be unique because execution traces are
    recorded by name.
    """
    nodes: dict[int, FunctionNode] = {}
    edges: set[tuple[int, int]] = set()
    entry: int | None = None
    seen_names: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            kind = parts[0]
            try:
                if kind == "node":
                    nid, name, source = int(parts[1]), parts[2], parts[3]
                    if nid in nodes:
                        raise ValueError(f"duplicate node id {nid}")
                    if name in seen_names:
                        raise ValueError(f"duplicate function name {name!r}")
                    seen_names.add(name)
                    nodes[nid] = FunctionNode(nid, name, source)
                elif kind == "edge":
                    edges.add((int(parts[1]), int(parts[2])))
                elif kind == "entry":
                    entry = int(parts[1])
                elif kind == "unresolved":
                    int(parts[1]), parts[2]  # checked, then dropped
                else:
                    raise ValueError(f"unknown record kind {kind!r}")
            except (IndexError, ValueError) as exc:
                raise GraphFormatError(f"{path}:{lineno}: {exc}") from None
    if entry is None:
        raise GraphFormatError(f"{path}: no entry record")
    try:
        return CallGraph(nodes=nodes, edges=edges, entry=entry)
    except GraphFormatError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def distances_to(graph: CallGraph, dst: int) -> dict[int, int]:
    """Shortest edge count from every node into dst (reverse breadth-first)."""
    graph.require(dst)
    dist = {dst: 0}
    frontier = deque([dst])
    while frontier:
        node = frontier.popleft()
        for prev in graph.predecessors(node):
            if prev not in dist:
                dist[prev] = dist[node] + 1
                frontier.append(prev)
    return dist


def complete_chain(graph: CallGraph, target: int) -> CallChain | None:
    """Shortest entry-to-target chain, or None when the target is unreachable.

    Among equal-length chains the lexicographically smallest sequence of
    function names is returned, chosen greedily step by step.
    """
    graph.require(target)
    dist = distances_to(graph, target)
    if graph.entry not in dist:
        return None
    path = [graph.entry]
    node = graph.entry
    while node != target:
        candidates = [n for n in graph.successors(node) if dist.get(n) == dist[node] - 1]
        node = min(candidates, key=graph.name_of)
        path.append(node)
    chain = CallChain(tuple(path))
    chain.validate(graph, expected_entry=graph.entry)
    return chain


def deviation(dist: dict[int, int], chain: CallChain, trace: TraceObservation
              ) -> tuple[int, int] | None:
    """Locate where execution left the chain.

    ``dist`` is ``distances_to(graph, chain.target)``, which the caller
    computes once for every round of one optimization. Returns (deviation
    function, next goal on the chain), or None when the trace already
    contains the chain's target. Among trace functions lying on the chain
    the one closest to the target wins; equidistant candidates break toward
    the latest in the trace, the deepest progress made.
    """
    if not trace.reached:
        raise ValueError("trace is empty")
    if trace.contains(chain.target):
        return None
    on_chain = set(chain.functions)
    best: tuple[int, int] | None = None  # (distance, trace position)
    for pos, fn in enumerate(trace.reached):
        if fn not in on_chain or fn not in dist:
            continue
        if best is None or dist[fn] < best[0] or (dist[fn] == best[0] and pos > best[1]):
            best = (dist[fn], pos)
    if best is None:
        raise TraceDisjointError(
            "trace shares no function with the call chain; the seed misses the entry-side prefix"
        )
    dev = trace.reached[best[1]]
    goal = chain.successor_of(dev)
    assert goal is not None  # dev != target, so a successor exists
    return dev, goal
