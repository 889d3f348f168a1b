"""Pin the one code path that starts child processes.

``reachfuzz.process`` starts every child in a session of its own and kills
its process group when it ends. The scan walks the package's syntax trees for any
other module that imports ``subprocess`` or calls a function that starts a
process. The ones kept are listed below with the reason each stays.
"""

from __future__ import annotations

import ast
from pathlib import Path

import reachfuzz

STARTERS = {"fork", "forkpty", "posix_spawn", "posix_spawnp", "system", "popen", "Popen"}

KEPT = {
    "process": "the primitive itself",
    "forkserver": "the stdlib-only helper forks children, each serving one input or many "
                  "in its own group",
}


def _starts_processes(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "subprocess" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "subprocess":
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in STARTERS:
                return True
    return False


def process_starting_modules(package: Path) -> set[str]:
    return {path.relative_to(package).with_suffix("").as_posix()
            for path in sorted(package.rglob("*.py"))
            if _starts_processes(ast.parse(path.read_text(encoding="utf-8")))}


def test_only_the_process_module_starts_processes():
    package = Path(reachfuzz.__file__).parent
    assert process_starting_modules(package) == set(KEPT)
