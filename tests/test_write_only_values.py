"""Pin the recorded values, and the answer fields, that no code in the package reads.

A dataclass field, or an attribute an ``__init__`` sets on ``self``, that no
``src/`` code reads as an attribute is written and never used, unless a file
keeps it for a reader outside the package. An answer field of a template that
no ``src/`` code names in a string is asked for, paid for and never used. The
scans walk the package's syntax trees. The ones kept are listed below with the
reason each stays.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import reachfuzz
from reachfuzz.query_engine import load_catalog

TRIAL_FILES = "prepare/mutator/trial.json and fuzz/mutators/active-<n>.trial.json"
ITEM_9 = "ROADMAP item 9 writes the backend usage to llm_usage.json"

KEPT = {
    "campaign.CampaignStats.wall_time": "fuzz/stats.json; bench/session.py reads it",
    "campaign.CrashRecord.input_hash": "fuzz/stats.json; bench/session.py reads it",
    "knowledge.BugInfo.affected_versions": "prepare/bug_info.json; bench/session.py loads it",
    "llm_client.LlmResponse.latency": ITEM_9,
    "llm_client.LlmResponse.token_estimate": ITEM_9,
    "llm_client.LlmResponse.truncated": ITEM_9,
    "llm_client.UsageSummary.total_latency": ITEM_9,
    "llm_client.UsageSummary.total_token_estimate": ITEM_9,
    "mutator.TrialReport.execs": TRIAL_FILES,
    "mutator.TrialReport.execs_per_sec": TRIAL_FILES,
    "mutator.TrialReport.harness_crashes": TRIAL_FILES,
    "mutator.TrialReport.target_crashes": TRIAL_FILES,
}

# task.field -> the reason an answer field that no code reads is still asked for
KEPT_FIELDS: dict[str, str] = {}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _recorded(node: ast.ClassDef) -> set[str]:
    """The class's dataclass fields and the attributes its ``__init__`` sets."""
    names = set()
    if _is_dataclass(node):
        names |= {stmt.target.id for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
    for init in node.body:
        if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
            continue
        for sub in ast.walk(init):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) \
                    and isinstance(sub.value, ast.Name) and sub.value.id == "self":
                names.add(sub.attr)
    return names


def write_only_values(package: Path) -> set[str]:
    recorded: set[tuple[str, str]] = set()  # (module.Class, name)
    read: set[str] = set()
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                recorded |= {(f"{module}.{node.name}", name) for name in _recorded(node)}
    return {f"{owner}.{name}" for owner, name in recorded if name not in read}


def test_write_only_values_are_the_kept_ones():
    package = Path(reachfuzz.__file__).parent
    assert write_only_values(package) == set(KEPT)


def unread_answer_fields(package: Path) -> set[str]:
    """Each ``task.field`` of the catalog whose name no string in the package
    equals; ``candidate_<i>`` is read as ``f"candidate_{i}"``, whose constant
    part is ``candidate_``."""
    strings = {node.value for path in sorted(package.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    unread = set()
    for task, template in load_catalog().items():
        for field in template.answer_schema.fields:
            name = re.sub(r"^candidate_\d+$", "candidate_", field.name)
            if name not in strings:
                unread.add(f"{task}.{field.name}")
    return unread


def test_unread_answer_fields_are_the_kept_ones():
    package = Path(reachfuzz.__file__).parent
    assert unread_answer_fields(package) == set(KEPT_FIELDS)
