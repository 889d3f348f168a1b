from __future__ import annotations

import random

import pytest

from conftest import dedent, make_graph
from reachfuzz import callgraph
from reachfuzz.callgraph import CallChain, TraceObservation, observe
from reachfuzz.errors import GraphFormatError, TraceDisjointError

E, A, B, C, T = range(5)


def write_graph(tmp_path, text: str):
    path = tmp_path / "graph.txt"
    path.write_text(dedent(text), encoding="utf-8")
    return path


BRANCH_FILE = """
    # demo topology
    node 0 E prog.c
    node 1 A prog.c
    node 2 B prog.c
    node 3 C prog.c
    node 4 T prog.c
    edge 0 1
    edge 1 2
    edge 1 3
    edge 3 4
    entry 0
"""


def test_load_branch_topology(tmp_path):
    graph = callgraph.load(write_graph(tmp_path, BRANCH_FILE))
    assert len(graph.nodes) == 5
    assert len(graph.edges) == 4
    assert graph.entry == E
    assert graph.name_of(T) == "T"


def test_load_rejects_undeclared_node(tmp_path):
    path = write_graph(tmp_path, "node 0 main m.c\nedge 0 9\nentry 0\n")
    with pytest.raises(GraphFormatError, match="undeclared"):
        callgraph.load(path)


def test_load_collapses_duplicate_edges(tmp_path):
    path = write_graph(tmp_path, """
        node 0 main m.c
        node 1 f m.c
        edge 0 1
        edge 0 1
        entry 0
    """)
    assert len(callgraph.load(path).edges) == 1


def test_load_syntax_error_names_line(tmp_path):
    path = write_graph(tmp_path, "node 0 main m.c\nbogus record here\nentry 0\n")
    with pytest.raises(GraphFormatError, match=":2:"):
        callgraph.load(path)


def test_load_requires_entry(tmp_path):
    path = write_graph(tmp_path, "node 0 main m.c\n")
    with pytest.raises(GraphFormatError, match="entry"):
        callgraph.load(path)


def test_load_rejects_duplicate_names(tmp_path):
    path = write_graph(tmp_path, "node 0 f a.c\nnode 1 f b.c\nentry 0\n")
    with pytest.raises(GraphFormatError, match="duplicate function name"):
        callgraph.load(path)


def test_load_keeps_unresolved_annotations(tmp_path):
    path = write_graph(tmp_path, """
        node 0 main m.c
        node 1 f m.c
        edge 0 1
        unresolved 1 indirect-call-site-3
        entry 0
    """)
    graph = callgraph.load(path)
    assert graph.edges == {(0, 1)}  # an unresolved site never becomes an edge
    for bad in ("unresolved 1", "unresolved x indirect-call-site-3"):
        path = write_graph(tmp_path, f"""
            node 0 main m.c
            {bad}
            entry 0
        """)
        with pytest.raises(GraphFormatError):
            callgraph.load(path)


def test_distance_examples(branch_graph):
    assert callgraph.distances_to(branch_graph, T).get(E) == 3
    assert callgraph.distances_to(branch_graph, B).get(B) == 0
    assert callgraph.distances_to(branch_graph, T).get(B) is None
    with pytest.raises(KeyError):
        callgraph.distances_to(branch_graph, 99)


def test_complete_chain_branch_topology(branch_graph):
    chain = branch_graph and callgraph.complete_chain(branch_graph, T)
    assert [branch_graph.name_of(f) for f in chain.functions] == ["E", "A", "C", "T"]


def test_complete_chain_target_is_entry(branch_graph):
    assert callgraph.complete_chain(branch_graph, E).functions == (E,)


def test_complete_chain_unreachable(branch_graph):
    graph = make_graph(["E", "X"], [])
    assert callgraph.complete_chain(graph, 1) is None


def test_neighbors(branch_graph):
    assert branch_graph.predecessors(T) == [C]
    assert branch_graph.predecessors(E) == []
    two_callers = make_graph(["e", "zeta", "alpha", "t"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert [two_callers.name_of(n) for n in two_callers.predecessors(3)] == ["alpha", "zeta"]


def test_deviation_worked_example(branch_graph):
    chain = CallChain((E, A, C, T))
    dev, goal = callgraph.deviation(callgraph.distances_to(branch_graph, T), chain,
                                    TraceObservation([E, A, B]))
    assert (dev, goal) == (A, C)


def test_deviation_none_when_target_reached(branch_graph):
    chain = CallChain((E, A, C, T))
    dist = callgraph.distances_to(branch_graph, T)
    assert callgraph.deviation(dist, chain, TraceObservation([E, A, C, T])) is None


def test_deviation_entry_only_trace(branch_graph):
    chain = CallChain((E, A, C, T))
    dist = callgraph.distances_to(branch_graph, T)
    assert callgraph.deviation(dist, chain, TraceObservation([E])) == (E, A)


def test_deviation_disjoint_trace_errors(branch_graph):
    chain = CallChain((E, A, C, T))
    with pytest.raises(TraceDisjointError):
        callgraph.deviation(callgraph.distances_to(branch_graph, T), chain,
                            TraceObservation([B]))


def test_deviation_tie_breaks_toward_latest_in_trace():
    # two chain members equidistant from the target: the later one in the
    # trace is the deeper progress and wins
    graph = make_graph(["e", "a", "b", "t"], [(0, 1), (1, 2), (2, 3), (1, 3), (0, 3)])
    chain = CallChain((0, 1, 2, 3))
    dist = callgraph.distances_to(graph, 3)
    assert dist[0] == dist[1] == 1
    dev, goal = callgraph.deviation(dist, chain, TraceObservation([0, 1]))
    assert (dev, goal) == (1, 2)
    dev, goal = callgraph.deviation(dist, chain, TraceObservation([1, 0]))
    assert (dev, goal) == (0, 1)


def test_chain_type_invariants():
    with pytest.raises(ValueError):
        CallChain(())
    with pytest.raises(ValueError):
        CallChain((1, 2, 1))
    graph = make_graph(["e", "a"], [(0, 1)])
    CallChain((0, 1)).validate(graph, expected_entry=0)
    with pytest.raises(ValueError, match="not a graph edge"):
        CallChain((1, 0)).validate(graph)


def test_observe_drops_unknown_names(branch_graph):
    trace = observe(branch_graph.ids, ["E", "A", "mystery", "B"])
    assert trace.reached == [E, A, B]


# --- randomized oracle checks ---------------------------------------------------

def random_dag(rng: random.Random, max_nodes: int = 12):
    n = rng.randint(2, max_nodes)
    density = rng.uniform(0.2, 0.5)
    names = [f"f{i:02d}" for i in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    return make_graph(names, edges)


def enumerate_paths(graph, src: int, dst: int):
    """Every simple path src->dst by depth-first enumeration."""
    paths = []
    stack = [(src, (src,))]
    while stack:
        node, path = stack.pop()
        if node == dst:
            paths.append(path)
            continue
        for nxt in graph.successors(node):
            if nxt not in path:
                stack.append((nxt, path + (nxt,)))
    return paths


def oracle_best_path(graph, src: int, dst: int):
    paths = enumerate_paths(graph, src, dst)
    if not paths:
        return None
    shortest = min(len(p) for p in paths)
    return min((p for p in paths if len(p) == shortest),
               key=lambda p: [graph.name_of(f) for f in p])


def test_distance_and_chain_match_enumeration_smoke():
    rng = random.Random(11)
    for _ in range(30):
        graph = random_dag(rng, max_nodes=9)
        target = rng.randrange(len(graph.nodes))
        best = oracle_best_path(graph, graph.entry, target)
        chain = callgraph.complete_chain(graph, target)
        if best is None:
            assert chain is None
            assert graph.entry not in callgraph.distances_to(graph, target)
        else:
            assert chain is not None
            assert chain.functions == best
            assert callgraph.distances_to(graph, target)[graph.entry] == len(best) - 1
            chain.validate(graph, expected_entry=graph.entry)


def test_deviation_minimum_distance_and_progress_smoke():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        graph = random_dag(rng, max_nodes=9)
        target = rng.randrange(1, len(graph.nodes))
        chain = callgraph.complete_chain(graph, target)
        if chain is None or len(chain.functions) < 2:
            continue
        prefix_len = rng.randint(1, len(chain.functions) - 1)
        trace_fns = list(chain.functions[:prefix_len])
        extras = [f for f in graph.nodes if f not in trace_fns and f != target]
        rng.shuffle(extras)
        trace = TraceObservation(trace_fns + extras[:2])
        dist = callgraph.distances_to(graph, target)
        result = callgraph.deviation(dist, chain, trace)
        assert result is not None
        dev, goal = result
        on_chain = [f for f in trace.reached if f in set(chain.functions) and f in dist]
        assert dist[dev] == min(dist[f] for f in on_chain)
        assert dist[goal] < dist[dev]  # next goal strictly closer to the target
        checked += 1
