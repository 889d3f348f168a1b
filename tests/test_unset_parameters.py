"""Pin the defaulted parameters that no call in the package sets.

A defaulted parameter that no ``src/`` call sets has one value in use, so it
is a module constant in disguise. The scan walks the package's syntax trees:
a parameter counts when no call to a function of its name (a class name for
``__init__``) passes it by keyword or by position. The ones kept are listed
below with the reason each stays a parameter.
"""

from __future__ import annotations

import ast
from pathlib import Path

import reachfuzz

KEPT = {
    "campaign.Executor(fork_server)":
        "the spawn reference of test_fork_server_matches_spawn_on_mutants",
    "query_engine.execute_task(max_repairs)": "test_request_bound_property sweeps 0-3",
    "knowledge.chunk_corpus(chunk_size_chars)": "swept by the hypothesis chunking test",
    "knowledge.chunk_corpus(overlap_chars)": "swept by the hypothesis chunking test",
    "knowledge.retrieve_top_k(k)": "tests rank with k = 2, 3, 6 and 10",
    "llm_client.RemoteBackend(endpoint)": "deployment setting",
    "llm_client.RemoteBackend(api_key)": "deployment setting",
    "llm_client.RemoteBackend(model)": "deployment setting",
    "llm_client.RemoteBackend(transport)": "tests substitute a fake transport",
    "llm_client.RemoteBackend(sleep)": "tests substitute a fake sleep",
    "cli.main(argv)": "entry point",
    "demo.main(argv)": "entry point",
}


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def unset_defaulted_parameters(package: Path) -> set[str]:
    # (module.callable(param), callable, position or None for keyword-only)
    params: list[tuple[str, str, str, int | None]] = []
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        classes = {id(f): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for f in node.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called_name(node):
                calls.setdefault(_called_name(node), []).append(node)
            if not isinstance(node, ast.FunctionDef):
                continue
            owner = classes.get(id(node))
            name = owner if owner and node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            skip = 1 if owner and positional and positional[0].arg in ("self", "cls") else 0
            first_default = len(positional) - len(node.args.defaults)
            for pos in range(first_default, len(positional)):
                params.append((path.stem, name, positional[pos].arg, pos - skip))
            for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                if default is not None:
                    params.append((path.stem, name, arg.arg, None))

    def is_set(call: ast.Call, param: str, pos: int | None) -> bool:
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        if any(k.arg is None or k.arg == param for k in call.keywords):
            return True
        return pos is not None and len(call.args) > pos

    return {f"{module}.{name}({param})" for module, name, param, pos in params
            if not any(is_set(call, param, pos) for call in calls.get(name, []))}


def test_unset_defaulted_parameters_are_the_kept_ones():
    package = Path(reachfuzz.__file__).parent
    assert unset_defaulted_parameters(package) == set(KEPT)
